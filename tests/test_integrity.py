"""Tests for the silent-data-corruption subsystem (repro.integrity).

Covers the corruption fields of the fault plan, the injector's flip
machinery, the detection monitor (block digests, payload checksums,
round invariants), end-to-end verify-and-repair for CC and MST, the
zero-overhead guarantee, composition with the race detector, the soak
harness, and the tree-wide lint gate.
"""

import json

import numpy as np
import pytest

import repro
from repro import (
    ConfigError,
    FaultError,
    FaultPlan,
    IntegrityConfig,
    IntegrityError,
    PGASRuntime,
    SoakConfig,
    connected_components,
    hps_cluster,
    minimum_spanning_forest,
    random_graph,
    run_soak,
    with_random_weights,
)
from repro.faults import FaultInjector, RoundCheckpointer
from repro.integrity.invariants import (
    cc_invariant_violation,
    mst_selection_violation,
    star_invariant_violation,
)

MACHINE = hps_cluster(4, 2)
#: The acceptance shape from the issue: a 16x8 cluster, where rounds are
#: latency-dominated and a corruption plan has time to land flips.
BIG = hps_cluster(16, 8)

#: Calibrated acceptance rates: heavy enough that unprotected runs go
#: wrong, light enough that replay converges well inside the bound.
CORRUPTION = 2.0e-2
PAYLOAD = 1.0e-4


@pytest.fixture(scope="module")
def g():
    return random_graph(2_000, 8_000, seed=3)


@pytest.fixture(scope="module")
def gw(g):
    return with_random_weights(g, seed=4)


@pytest.fixture(scope="module")
def g_big():
    return random_graph(2_048, 8_192, seed=0)


@pytest.fixture(scope="module")
def gw_big(g_big):
    return with_random_weights(g_big, seed=1)


class TestPlanFields:
    def test_corruption_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(corruption=-1.0)
        with pytest.raises(ConfigError):
            FaultPlan(payload_corruption=1.0)
        with pytest.raises(ConfigError):
            FaultPlan(payload_corruption=-0.1)

    def test_corruption_counts_as_faults(self):
        assert FaultPlan(corruption=1e-3).any_faults
        assert FaultPlan(payload_corruption=1e-4).any_faults
        assert FaultPlan(corruption=1e-3).has_corruption
        assert not FaultPlan.none().has_corruption

    def test_from_cli_passes_corruption(self):
        plan = FaultPlan.from_cli(
            loss=0.0, stragglers=0, seed=1, total_threads=8,
            corruption=1e-2, payload_corruption=1e-4,
        )
        assert plan is not None
        assert plan.corruption == 1e-2
        assert plan.payload_corruption == 1e-4
        assert FaultPlan.from_cli(loss=0.0, stragglers=0, seed=1, total_threads=8) is None


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            IntegrityConfig(mst_samples=0)

    def test_enabled(self):
        assert IntegrityConfig().enabled
        assert IntegrityConfig(checksums=False).enabled
        assert not IntegrityConfig(checksums=False, invariants=False).enabled

    def test_disabled_config_detaches_from_runtime(self):
        off = IntegrityConfig(checksums=False, invariants=False)
        assert PGASRuntime(MACHINE, integrity=off).integrity is None
        assert PGASRuntime(MACHINE, integrity=True).integrity is not None
        assert PGASRuntime(MACHINE).integrity is None


class TestInjectorFlips:
    def test_fold_flip_stays_in_domain(self):
        inj = FaultInjector(FaultPlan(seed=0, corruption=1.0), MACHINE)
        for value in (0, 1, 997):
            for _ in range(200):
                folded = inj._fold_flip(value, 1_000)
                assert 0 <= folded < 1_000
                assert folded != value

    def test_packed_flip_keeps_position(self):
        inj = FaultInjector(FaultPlan(seed=0, payload_corruption=0.5), MACHINE)
        key = (12_345 << 32) | 77
        for _ in range(100):
            flipped = inj._flip_packed_weight(key)
            assert flipped & 0xFFFFFFFF == 77
            assert flipped >> 32 != 12_345
            assert 0 <= flipped >> 32 < (1 << 31)

    def test_corrupt_payload_never_mutates_input(self):
        inj = FaultInjector(FaultPlan(seed=0, payload_corruption=0.9), MACHINE)
        values = np.arange(100, dtype=np.int64)
        out, changed = inj.corrupt_payload(values, domain=100)
        assert changed > 0
        np.testing.assert_array_equal(values, np.arange(100))
        assert int(np.count_nonzero(out != values)) == changed
        assert out.min() >= 0 and out.max() < 100

    def test_corrupt_payload_deterministic(self):
        draws = []
        for _ in range(2):
            inj = FaultInjector(FaultPlan(seed=9, payload_corruption=0.2), MACHINE)
            out, changed = inj.corrupt_payload(np.arange(500, dtype=np.int64), domain=500)
            draws.append((out.copy(), changed))
        np.testing.assert_array_equal(draws[0][0], draws[1][0])
        assert draws[0][1] == draws[1][1]

    def test_poll_corruption_consumes_events_once(self):
        inj = FaultInjector(FaultPlan(seed=0, corruption=5.0), MACHINE)
        rt = PGASRuntime(MACHINE)
        arr = rt.shared_array(np.arange(1_000, dtype=np.int64))
        inj.register_corruptible(arr)
        inj.poll_corruption(np.zeros(MACHINE.total_threads))  # starts the process
        times = np.full(MACHINE.total_threads, 1.0)
        first = inj.poll_corruption(times)
        assert first > 0
        # The clock has not advanced: every due event is already consumed.
        assert inj.poll_corruption(times) == 0


class TestInvariantPredicates:
    def test_cc_clean_and_violations(self):
        n = 16
        assert cc_invariant_violation(np.zeros(n, dtype=np.int64)) is None
        assert cc_invariant_violation(np.arange(n, dtype=np.int64)) is None
        bad = np.zeros(n, dtype=np.int64)
        bad[3] = n + 5
        assert "range" in cc_invariant_violation(bad)
        bad = np.zeros(n, dtype=np.int64)
        bad[3] = 7  # exceeds its own id: min-combine can never produce it
        assert "monotonicity" in cc_invariant_violation(bad)

    def test_star_detects_chains(self):
        labels = np.array([0, 0, 1], dtype=np.int64)  # 2 -> 1 -> 0, not a star
        assert "star" in star_invariant_violation(labels)
        assert star_invariant_violation(np.array([0, 0, 0], dtype=np.int64)) is None
        # MST hooks regardless of order, so 0 -> 2 is legal there.
        assert star_invariant_violation(np.array([2, 2, 2], dtype=np.int64)) is None

    def test_mst_selection_checks_weight_and_incidence(self):
        du = np.array([0, 5], dtype=np.int64)
        dv = np.array([5, 9], dtype=np.int64)
        w = np.array([40, 70], dtype=np.int64)
        keys = (w << np.int64(32)) | np.arange(2, dtype=np.int64)
        roots = np.array([0, 9], dtype=np.int64)
        positions = np.arange(2, dtype=np.int64)
        assert mst_selection_violation(keys, roots, positions, du, dv, w) is None
        flipped = keys.copy()
        flipped[1] ^= np.int64(1) << np.int64(40)  # weight field flip
        assert "weight" in mst_selection_violation(flipped, roots, positions, du, dv, w)
        assert "incident" in mst_selection_violation(
            keys, np.array([0, 3], dtype=np.int64), positions, du, dv, w
        )


class TestZeroOverhead:
    def test_integrity_off_is_bit_identical(self, g):
        base = connected_components(g, MACHINE, impl="collective")
        off = connected_components(
            g, MACHINE, impl="collective",
            integrity=IntegrityConfig(checksums=False, invariants=False),
        )
        assert base.info.sim_time == off.info.sim_time
        assert base.info.trace.counters.as_dict() == off.info.trace.counters.as_dict()

    def test_protection_overhead_is_charged(self, g):
        base = connected_components(g, MACHINE, impl="collective")
        prot = connected_components(g, MACHINE, impl="collective", integrity=True)
        assert prot.info.sim_time > base.info.sim_time
        assert prot.info.trace.category_seconds["Fault"] > 0
        np.testing.assert_array_equal(prot.labels, base.labels)

    def test_unsupported_impls_reject_integrity(self, g, gw):
        with pytest.raises(ConfigError):
            connected_components(g, MACHINE, impl="smp", integrity=True)
        with pytest.raises(ConfigError):
            minimum_spanning_forest(gw, MACHINE, impl="kruskal", integrity=True)

    def test_integrity_error_is_a_fault_error(self):
        err = IntegrityError("boom", detected=3)
        assert isinstance(err, FaultError)
        assert err.detected == 3


class TestAcceptance:
    """The issue's headline criterion, on the 16x8 acceptance shape:
    protected runs detect and repair every injected corruption and stay
    networkx-identical; the same plan drives an unprotected run wrong."""

    PLAN = FaultPlan(seed=0, corruption=CORRUPTION, payload_corruption=PAYLOAD)

    def test_cc_protected_repairs_everything(self, g_big):
        base = connected_components(g_big, BIG, impl="collective")
        res = connected_components(
            g_big, BIG, impl="collective", faults=self.PLAN, integrity=True, validate=True
        )
        c = res.info.trace.counters
        assert c.corruptions_injected > 0
        assert c.corruptions_detected == c.corruptions_injected
        assert c.repairs > 0
        assert c.checkpoint_restores == c.crashes + c.repairs
        np.testing.assert_array_equal(res.labels, base.labels)

    def test_mst_protected_repairs_everything(self, gw_big):
        base = minimum_spanning_forest(gw_big, BIG, impl="collective")
        res = minimum_spanning_forest(
            gw_big, BIG, impl="collective", faults=self.PLAN, integrity=True, validate=True
        )
        c = res.info.trace.counters
        assert c.corruptions_injected > 0
        assert c.corruptions_detected == c.corruptions_injected
        assert c.repairs > 0
        assert res.total_weight == base.total_weight
        np.testing.assert_array_equal(np.sort(res.edge_ids), np.sort(base.edge_ids))

    def test_mst_unprotected_goes_wrong(self, gw_big):
        base = minimum_spanning_forest(gw_big, BIG, impl="collective")
        try:
            res = minimum_spanning_forest(
                gw_big, BIG, impl="collective", faults=self.PLAN
            )
        except repro.ReproError:
            return  # corrupted state tripping a loud error also proves the point
        assert res.info.trace.counters.corruptions_injected > 0
        assert res.info.trace.counters.corruptions_detected == 0
        assert res.total_weight != base.total_weight

    def test_protected_run_deterministic(self, g):
        plan = FaultPlan(seed=5, corruption=0.2, payload_corruption=5e-5)
        a = connected_components(g, MACHINE, impl="collective", faults=plan, integrity=True)
        b = connected_components(g, MACHINE, impl="collective", faults=plan, integrity=True)
        assert a.info.sim_time == b.info.sim_time
        assert a.info.trace.counters.as_dict() == b.info.trace.counters.as_dict()
        np.testing.assert_array_equal(a.labels, b.labels)


class TestPayloadProtection:
    def test_payload_only_plan_detected_without_repairs(self, g):
        plan = FaultPlan(seed=2, payload_corruption=1e-4)
        base = connected_components(g, MACHINE, impl="collective")
        res = connected_components(
            g, MACHINE, impl="collective", faults=plan, integrity=True, validate=True
        )
        c = res.info.trace.counters
        assert c.corruptions_injected > 0
        assert c.corruptions_detected == c.corruptions_injected
        # Wire flips are absorbed by checksum-and-retransmit; a streak
        # that exhausts the retry budget escalates to round replay, so
        # repairs may be nonzero but every flip is still accounted for.
        np.testing.assert_array_equal(res.labels, base.labels)

    def test_hopeless_payload_rate_gives_up_loudly(self, g):
        plan = FaultPlan(seed=2, payload_corruption=0.9)
        with pytest.raises(FaultError):
            connected_components(g, MACHINE, impl="collective", faults=plan, integrity=True)


class TestCheckpointExplicitEnable:
    def test_explicit_enable_without_crash_plan(self):
        rt = PGASRuntime(MACHINE)
        ck = RoundCheckpointer(rt, enabled=True)
        arr = rt.shared_array(np.arange(64, dtype=np.int64))
        ck.save(arrays={"d": arr.data})
        arr.data[:] = -1
        state = ck.restore()
        np.testing.assert_array_equal(state["d"], np.arange(64))
        assert rt.counters.checkpoint_restores == 1

    def test_default_stays_disabled_without_crashes(self):
        rt = PGASRuntime(MACHINE)
        ck = RoundCheckpointer(rt)
        ck.save(arrays={"d": np.arange(4)})  # no-op while disabled
        with pytest.raises(FaultError):
            ck.restore()

    def test_integrity_run_enables_checkpoints_without_crashes(self, g):
        # Repairs need a checkpoint even though the plan schedules no
        # crashes: a corruption-only plan must still be able to replay.
        plan = FaultPlan(seed=5, corruption=0.2)
        res = connected_components(
            g, MACHINE, impl="collective", faults=plan, integrity=True, validate=True
        )
        c = res.info.trace.counters
        assert c.crashes == 0
        assert c.repairs > 0
        assert c.checkpoint_restores == c.repairs


class TestRaceDetectorComposition:
    """Satellite: digest bookkeeping must be invisible to the epoch race
    detector — same results, no races, no double-charged accesses."""

    def test_analyzer_and_integrity_compose(self, g):
        plan = FaultPlan(seed=5, corruption=0.2, payload_corruption=5e-5)
        plain = connected_components(g, MACHINE, impl="collective", faults=plan, integrity=True)
        with repro.analyzed() as session:
            analyzed = connected_components(
                g, MACHINE, impl="collective", faults=plan, integrity=True
            )
        assert not session.has_races
        np.testing.assert_array_equal(plain.labels, analyzed.labels)
        assert plain.info.trace.counters.as_dict() == analyzed.info.trace.counters.as_dict()

    def test_analyzer_clean_on_protected_mst(self, gw):
        plan = FaultPlan(seed=5, corruption=0.2)
        with repro.analyzed() as session:
            minimum_spanning_forest(
                gw, MACHINE, impl="collective", faults=plan, integrity=True, validate=True
            )
        assert not session.has_races


class TestSoak:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SoakConfig(iterations=0)
        with pytest.raises(ConfigError):
            SoakConfig(algos=("cc", "dijkstra"))

    def test_report_structure_and_json(self, tmp_path):
        config = SoakConfig(iterations=1, seed=0, algos=("cc",), n=512, m=2_048)
        report = run_soak(config, out_dir=tmp_path)
        s = report["summary"]
        assert s["runs"] == 1
        assert s["protected_wrong"] == 0 and s["protected_failed"] == 0
        assert s["detected"] == s["injected"]
        assert s["unprotected_runs"] == 1
        assert report["iterations"][0]["algo"] == "cc"
        on_disk = json.loads((tmp_path / "BENCH_soak.json").read_text())
        assert on_disk["summary"] == s
        assert on_disk["config"]["n"] == 512

    def test_composed_faults_survive(self, tmp_path):
        # Silent + fail-stop classes together: the repair paths must not
        # step on each other (crash replay vs digest resync vs retries).
        config = SoakConfig(
            iterations=1, seed=10, algos=("cc",), n=512, m=2_048,
            corruption=2e-3, payload_corruption=1e-4, loss=1e-3,
            stragglers=2, crashes=1,
        )
        report = run_soak(config, out_dir=tmp_path)
        s = report["summary"]
        assert s["protected_wrong"] == 0 and s["protected_failed"] == 0
        record = report["iterations"][0]["protected"]
        assert record["crashes"] == 1
        assert record["retries"] > 0
