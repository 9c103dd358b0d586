"""Tests for the machine description (repro.runtime.machine)."""

import math

import pytest

from repro.errors import ConfigError
from repro.runtime import (
    CacheParams,
    CpuParams,
    LockParams,
    MachineConfig,
    MemoryParams,
    NetworkParams,
    cluster_shape,
    hps_cluster,
    infiniband_cluster,
    parse_machine,
    scaled_cache,
    sequential_machine,
    smp_node,
)


class TestMachineConfig:
    def test_total_threads(self):
        assert hps_cluster(16, 16).total_threads == 256
        assert smp_node(8).total_threads == 8
        assert sequential_machine().total_threads == 1

    def test_is_distributed(self):
        assert hps_cluster(2, 1).is_distributed
        assert not smp_node(16).is_distributed

    def test_node_of_thread_layout_is_node_major(self):
        m = hps_cluster(4, 4)
        assert m.node_of_thread(0) == 0
        assert m.node_of_thread(3) == 0
        assert m.node_of_thread(4) == 1
        assert m.node_of_thread(15) == 3

    def test_node_of_thread_out_of_range(self):
        m = hps_cluster(2, 2)
        with pytest.raises(ConfigError):
            m.node_of_thread(4)
        with pytest.raises(ConfigError):
            m.node_of_thread(-1)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(nodes=0, threads_per_node=4)
        with pytest.raises(ConfigError):
            MachineConfig(nodes=4, threads_per_node=0)

    def test_barrier_time_grows_with_threads(self):
        small = hps_cluster(2, 2)
        big = hps_cluster(16, 16)
        assert 0 < small.barrier_time() < big.barrier_time()

    def test_barrier_time_single_thread_is_free(self):
        assert sequential_machine().barrier_time() == 0.0

    def test_barrier_time_uses_per_call_scale(self):
        base = hps_cluster(4, 4)
        scaled = base.with_(per_call_scale=0.5)
        assert scaled.barrier_time() == pytest.approx(base.barrier_time() * 0.5)

    def test_with_replaces_fields(self):
        m = hps_cluster(4, 4).with_(nodes=8)
        assert m.nodes == 8 and m.threads_per_node == 4

    def test_describe_mentions_shape(self):
        text = hps_cluster(16, 8).describe()
        assert "16 node" in text and "s=128" in text

    def test_per_call_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            hps_cluster(2, 2).with_(per_call_scale=0.0)


class TestParamValidation:
    def test_network_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            NetworkParams(latency=-1.0).validate()

    def test_network_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigError):
            NetworkParams(bandwidth=0.0).validate()

    def test_network_rejects_subunit_congestion(self):
        with pytest.raises(ConfigError):
            NetworkParams(fine_congestion=0.5).validate()

    def test_network_rejects_negative_incast(self):
        with pytest.raises(ConfigError):
            NetworkParams(incast_amplitude=-1.0).validate()

    def test_memory_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigError):
            MemoryParams(bandwidth=0.0).validate()

    def test_cache_rejects_line_bigger_than_cache(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=64, line_bytes=128).validate()

    def test_cache_num_lines(self):
        assert CacheParams(size_bytes=1024, line_bytes=128).num_lines == 8

    def test_cpu_rejects_zero_op_time(self):
        with pytest.raises(ConfigError):
            CpuParams(op_time=0.0).validate()

    def test_cpu_rejects_subunit_factors(self):
        with pytest.raises(ConfigError):
            CpuParams(upc_deref_factor=0.5).validate()

    def test_locks_reject_negative(self):
        with pytest.raises(ConfigError):
            LockParams(acquire_time=-1.0).validate()


class TestPresets:
    def test_hps_shape(self):
        m = hps_cluster()
        assert m.nodes == 16 and m.threads_per_node == 16
        assert m.network.bandwidth == pytest.approx(2.0e9)

    def test_infiniband_uses_paper_constants(self):
        m = infiniband_cluster()
        assert m.network.latency == pytest.approx(190e-9)
        assert m.memory.latency == pytest.approx(9e-9)

    def test_smp_is_one_node(self):
        assert smp_node(12).nodes == 1
        assert smp_node(12).threads_per_node == 12

    def test_preset_overrides(self):
        m = hps_cluster(4, 4, name="custom")
        assert m.name == "custom"


class TestParseMachine:
    """The one reader of the CLI's ``--machine`` and the service's ``machine``."""

    def test_specs(self):
        assert parse_machine("16x8") == hps_cluster(16, 8)
        assert parse_machine("4X2") == hps_cluster(4, 2)
        assert parse_machine("smp") == smp_node(16)
        assert parse_machine("seq") == sequential_machine()
        assert cluster_shape("16x8") == (16, 8)

    @pytest.mark.parametrize("text", ["banana", "16y8", "4x", "2x2x2", "0x2", ""])
    def test_junk_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_machine(text)

    def test_cluster_shape_takes_no_presets(self):
        with pytest.raises(ConfigError):
            cluster_shape("smp")


class TestScaledCache:
    def test_scales_size(self):
        base = hps_cluster(2, 2)
        scaled = scaled_cache(base, 0.5)
        assert scaled.cache.size_bytes == base.cache.size_bytes // 2

    def test_floor_is_one_line(self):
        base = hps_cluster(2, 2)
        scaled = scaled_cache(base, 1e-12)
        assert scaled.cache.size_bytes == base.cache.line_bytes

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            scaled_cache(hps_cluster(2, 2), 0.0)

    def test_other_params_untouched(self):
        base = hps_cluster(2, 2)
        scaled = scaled_cache(base, 0.25)
        assert scaled.network == base.network
        assert scaled.memory == base.memory


def test_log2_barrier_scaling():
    m = hps_cluster(16, 16)
    expected = (m.barrier_base + m.barrier_per_thread * math.log2(256)) * m.per_call_scale
    assert m.barrier_time() == pytest.approx(expected)
