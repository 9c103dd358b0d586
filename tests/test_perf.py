"""Unit tests for the wall-clock perf layer (repro.perf).

Covers the buffer arena, the derived-artifact memoization (including
the standalone schedule/plan caches), the deterministic process fan-out,
the Trace event cap, and end-to-end report determinism of the fanned-out
soak campaign.  The bit-identity contract itself lives in
``test_perf_golden.py``; this file tests the machinery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import schedule
from repro.collectives.schedule import circular_schedule, linear_schedule
from repro.perf import (
    clear_derived_caches,
    derived_cache_stats,
    fanout_map,
    resolve_workers,
)
from repro.perf.arena import BufferArena, _size_class
from repro.perf.derived import freeze, memoized
from repro.perf.fanout import available_cpus
from repro.runtime import PGASRuntime, hps_cluster
from repro.runtime.trace import DEFAULT_EVENT_CAP, Category, Trace
from repro.scheduling import access_schedule
from repro.scheduling.access_schedule import schedule_plan


class TestArena:
    def test_size_class_is_next_power_of_two_at_least_64(self):
        assert _size_class(1) == 64
        assert _size_class(64) == 64
        assert _size_class(65) == 128
        assert _size_class(70_000) == 131_072

    def test_take_give_reuses_the_buffer(self):
        arena = BufferArena()
        first = arena.take(100, np.int64)
        base = first.base
        arena.give(first)
        second = arena.take(90, np.int64)  # same size class (128)
        assert second.base is base
        assert second.shape == (90,)
        assert arena.stats()["reuses"] == 1

    def test_clear_flag_zeroes_the_slice(self):
        arena = BufferArena()
        buf = arena.take(50, np.int64)
        buf[:] = 7
        arena.give(buf)
        again = arena.take(50, np.int64, clear=True)
        assert not again.any()

    def test_dtypes_do_not_share_buckets(self):
        arena = BufferArena()
        a = arena.take(100, np.int64)
        arena.give(a)
        b = arena.take(100, np.int8)
        assert b.dtype == np.int8
        assert b.base is not a.base

    def test_oversize_requests_are_not_pooled(self):
        arena = BufferArena()
        # Both > 64 MiB; the second is itself a power-of-two size class.
        for n in ((1 << 26) // 8 + 1, 1 << 24):
            arena.give(arena.take(n, np.int64))
            assert arena.stats()["pooled_buffers"] == 0

    def test_lease_context_manager_returns_on_exit(self):
        arena = BufferArena()
        with arena.lease(40, np.bool_) as buf:
            assert buf.shape == (40,)
        assert arena.stats()["pooled_buffers"] == 1


class TestDerivedMemoization:
    def test_memoized_caches_under_fast_engine(self):
        calls = []

        @memoized(maxsize=8, name="test_builder")
        def build(x):
            calls.append(x)
            return x * 2

        assert build(3) == 6
        assert build(3) == 6
        assert calls == [3]
        assert derived_cache_stats()["test_builder"]["hits"] == 1

    def test_clear_derived_caches_resets_registered_caches(self):
        @memoized(maxsize=8)
        def build(x):
            return x

        build(5)
        assert build.cache_info().currsize == 1
        clear_derived_caches()
        assert build.cache_info().currsize == 0

    def test_freeze_makes_arrays_read_only(self):
        arr = freeze(np.arange(4))
        with pytest.raises(ValueError):
            arr[0] = 9


class TestScheduleMemoization:
    def test_cached_schedules_equal_a_fresh_build(self):
        for s in (1, 2, 5, 8):
            fresh_c = schedule._circular_schedule.__wrapped__(s)
            fresh_l = schedule._linear_schedule.__wrapped__(s)
            for _ in range(2):  # a miss, then a hit
                np.testing.assert_array_equal(circular_schedule(s), fresh_c)
                np.testing.assert_array_equal(linear_schedule(s), fresh_l)

    def test_cached_schedule_is_read_only_and_stable(self):
        a = circular_schedule(6)
        b = circular_schedule(6)
        assert a is b  # same cached object
        assert not a.flags.writeable

    def test_cached_schedule_plan_equals_a_fresh_build(self):
        fresh = access_schedule._schedule_plan.__wrapped__(1000, (4, 2))
        assert schedule_plan(1000, 4, 2) == fresh == schedule_plan(1000, 4, 2)

    def test_validation_still_raises_before_the_cache(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            circular_schedule(0)


class TestFanout:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4
        assert resolve_workers("auto") == available_cpus()
        assert resolve_workers(-1) == available_cpus()

    def test_resolve_workers_rejects_garbage(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            resolve_workers("bogus")

    def test_resolve_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_WORKERS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.setenv("REPRO_PERF_WORKERS", "auto")
        assert resolve_workers(None) == available_cpus()
        # An explicit value beats the environment.
        assert resolve_workers(1) == 1

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "many", ""])
    def test_strings_are_validated_strictly(self, value):
        """String inputs come from env vars and CLI flags, where silent
        coercion hides typos: anything but 'auto' or an int >= 1 is a
        UsageError naming the value."""
        from repro.errors import UsageError

        with pytest.raises(UsageError, match="auto"):
            resolve_workers(value)

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "lots"])
    def test_env_values_are_validated_with_source(self, value, monkeypatch):
        from repro.errors import UsageError

        monkeypatch.setenv("REPRO_PERF_WORKERS", value)
        with pytest.raises(UsageError, match="REPRO_PERF_WORKERS"):
            resolve_workers(None)

    def test_usage_error_is_a_config_error(self):
        """UsageError subclasses ConfigError, so callers pinning the old
        contract (ConfigError on garbage) keep working."""
        from repro.errors import ConfigError, UsageError

        assert issubclass(UsageError, ConfigError)

    def test_serial_map_preserves_order(self):
        assert fanout_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        items = list(range(12))
        serial = fanout_map(_square, items, workers=1)
        parallel = fanout_map(_square, items, workers=2)
        assert parallel == serial

    def test_single_item_never_spawns(self):
        assert fanout_map(_square, [5], workers=8) == [25]


def _square(x):
    return x * x


class TestTraceEventCap:
    def test_events_beyond_cap_are_counted_not_stored(self):
        trace = Trace()
        for i in range(DEFAULT_EVENT_CAP + 10):
            trace.record_event(f"event {i}")
        assert len(trace.events) == DEFAULT_EVENT_CAP
        assert trace.dropped_events == 10
        assert any("dropped" in line for line in trace.summary_lines(nthreads=1))

    def test_uncapped_trace_keeps_everything(self):
        trace = Trace()
        trace.event_cap = None
        for i in range(DEFAULT_EVENT_CAP + 10):
            trace.record_event(f"event {i}")
        assert len(trace.events) == DEFAULT_EVENT_CAP + 10
        assert trace.dropped_events == 0

    def test_profile_runtime_lifts_the_cap(self):
        machine = hps_cluster(2, 2)
        assert PGASRuntime(machine).trace.event_cap == DEFAULT_EVENT_CAP
        assert PGASRuntime(machine, profile=True).trace.event_cap is None

    def test_merge_accumulates_drops(self):
        a, b = Trace(), Trace()
        a.event_cap = b.event_cap = 2
        for t in (a, b):
            for i in range(5):
                t.record_event(f"e{i}")
        a.merge(b)
        assert len(a.events) == 2
        assert a.dropped_events == 3 + 3 + 2  # own + b's + b's re-recorded overflow

    def test_category_seconds_is_a_fresh_dict(self):
        trace = Trace()
        trace.charge_category(Category.COMM, 1.5)
        snap = trace.category_seconds
        snap[Category.COMM] = 0.0
        assert trace.category_seconds[Category.COMM] == 1.5


class TestSoakFanoutDeterminism:
    def _report(self, workers):
        from repro.integrity import SoakConfig, run_soak

        config = SoakConfig(
            iterations=2, seed=5, algos=("cc",), nodes=2, threads=2, n=192, m=768
        )
        report = run_soak(config, write_json=False, workers=workers)
        report.pop("wallclock")
        return report

    def test_report_identical_for_any_worker_count(self):
        serial = self._report(workers=1)
        fanned = self._report(workers=2)
        assert fanned == serial
