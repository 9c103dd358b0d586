"""Tests for the repro.tuning autotuner: planner, clock tape, cache, adapter.

The headline acceptance test mirrors the paper's Fig. 5/6 setting
(random and hybrid inputs, the 16x8 machine): the ``auto`` plan's
modeled time must land within 5% of the *exhaustive* best over every
subset of the six measured flags × the t' grid, and must never lose to
the paper's hand-picked default (all flags, t'=2).  The same sweep
holds the planner's premise: the paper's "Optimized" flags reach its
minimum, so the planner searches only impl × t'.
"""

import dataclasses
import functools
import itertools
import json
import threading

import numpy as np
import pytest

from repro.cc.collective import solve_cc_collective
from repro.algorithms import REGISTRY
from repro.core import FIG5_ORDER, OptimizationFlags, cluster_for_input, connected_components
from repro.core.pipeline import minimum_spanning_forest
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.graph.edgelist import EdgeList
from repro.graph.generators import generate, hybrid_graph, random_graph, with_random_weights
from repro.mst.collective import solve_mst_collective
from repro.runtime import PGASRuntime
from repro.runtime.clocks import recording
from repro.runtime.cost import CostModel
from repro.runtime.profiling import RoundWindow
from repro.runtime.trace import Category
from repro.scheduling.cache_model import best_tprime, tprime_candidates
from repro.scheduling.virtual_threads import charge_serve
from repro.service.executor import parse_service_machine
from repro.tuning import (
    AdapterConfig,
    OnlineAdapter,
    PlanCache,
    TuningPlan,
    Workload,
    autotune,
    build_plan,
    machine_fingerprint,
)
from repro.tuning.planner import (
    PlanEntry,
    _probe_graph,
    best_times,
    optimized_flags,
    probe_machine_for,
    taped_impls,
)


# ---------------------------------------------------------------------------
# Acceptance: auto vs the exhaustive flag sweep (Fig. 5/6 configurations)
# ---------------------------------------------------------------------------

ACC_N = 1500
ACC_M = 4 * ACC_N

#: The paper's six measured flags (``hierarchical`` is its future-work
#: proposal, not a measured knob).
_SWEEP_FLAGS = FIG5_ORDER + ("rdma",)


def _flag_subsets():
    """All 2^6 subsets of the measured flags."""
    for r in range(len(_SWEEP_FLAGS) + 1):
        for names in itertools.combinations(_SWEEP_FLAGS, r):
            yield OptimizationFlags.only(*names)


def _exhaustive_sweep(g, machine):
    """Modeled ms of every flag subset × t' candidate, keyed (opts key, t')."""
    cands = tprime_candidates(max(1, ACC_N // machine.total_threads), CostModel(machine))
    return {
        (opts.key(), tp): connected_components(g, machine, opts=opts, tprime=tp).info.sim_time_ms
        for opts in _flag_subsets()
        for tp in cands
    }


@pytest.mark.parametrize("kind", ["random", "hybrid"])
def test_auto_within_5pct_of_exhaustive(kind, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "cache.json"))
    gen = random_graph if kind == "random" else hybrid_graph
    g = gen(ACC_N, ACC_M, seed=11)
    machine = cluster_for_input(ACC_N, 16, 8)

    sweep = _exhaustive_sweep(g, machine)
    best_cfg = min(sweep, key=sweep.get)
    best_ms = sweep[best_cfg]
    optimized_key = OptimizationFlags.all().key()
    optimized_ms = min(ms for (key, _), ms in sweep.items() if key == optimized_key)
    assert optimized_ms <= best_ms, (
        f"{kind}: the Optimized flags reach {optimized_ms:.3f} ms, the sweep's"
        f" minimum is {best_ms:.3f} ms at {best_cfg}"
    )
    auto = connected_components(
        g, machine, impl="auto", opts="auto", tprime="auto", graph_kind=kind
    )
    default = connected_components(g, machine, opts=OptimizationFlags.all(), tprime=2)

    auto_ms = auto.info.sim_time_ms
    assert auto_ms <= 1.05 * best_ms, (
        f"{kind}: auto {auto_ms:.3f} ms not within 5% of exhaustive best"
        f" {best_ms:.3f} ms at {best_cfg}"
    )
    assert auto_ms <= default.info.sim_time_ms * 1.001, (
        f"{kind}: auto {auto_ms:.3f} ms slower than the all-flags/t'=2 default"
        f" {default.info.sim_time_ms:.3f} ms"
    )
    # Correctness never depends on the tuner: same labeling as the default.
    assert np.array_equal(np.unique(auto.labels), np.unique(default.labels))


# ---------------------------------------------------------------------------
# Planner pieces
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_key(self):
        w = Workload(kind="cc", n=2000, m=8000, graph_kind="hybrid")
        assert w.key() == "cc:hybrid:n2000:m8000"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            Workload(kind="bfs", n=100, m=100)

    def test_rejects_empty_input(self):
        with pytest.raises(ConfigError):
            Workload(kind="cc", n=0, m=0)


class TestParseOptsKey:
    """:meth:`OptimizationFlags.parse`, the one reader of plan keys and of
    the CLI's and the service's opts strings."""

    def test_roundtrip_whole_lattice(self):
        names = [f.name for f in dataclasses.fields(OptimizationFlags)]
        subsets = list(itertools.product((False, True), repeat=len(names)))
        assert len(subsets) == 128
        for bits in subsets:
            opts = OptimizationFlags(**dict(zip(names, bits)))
            assert OptimizationFlags.parse(opts.key()) == opts
            assert OptimizationFlags.parse(",".join(opts.enabled())) == opts

    def test_base(self):
        for text in ("base", "none", ""):
            assert OptimizationFlags.parse(text) == OptimizationFlags.none()
        assert OptimizationFlags.parse("all") == OptimizationFlags.all()
        assert OptimizationFlags.parse("all, hierarchical") == OptimizationFlags.all().with_(
            hierarchical=True
        )
        assert OptimizationFlags.parse("auto") == "auto"

    def test_rejects_unknown_flag(self):
        for text in ("warp", "all,warp", "auto,hierarchical", "auto+all"):
            with pytest.raises(ConfigError):
                OptimizationFlags.parse(text)


class TestAnalyticModel:
    """Scaling of the probe replica's machine."""

    def test_probe_machine_preserves_calibration(self):
        machine = cluster_for_input(20_000, 4, 2)
        scaled = probe_machine_for(machine, 0.25)
        # Replica machine must COMPOSE with the base calibration, not
        # replace it: per-call costs shrink by exactly the replica factor.
        assert scaled.per_call_scale == pytest.approx(machine.per_call_scale * 0.25)


def _searched(kind):
    return [name for (k, name), spec in REGISTRY.items() if k == kind and spec.searched]


class TestBuildPlan:
    def test_probed_entries_ranked_first(self):
        """Every entry is measured, and the plan ranks them by it."""
        machine = cluster_for_input(1200, 4, 2)
        plan = build_plan(Workload(kind="cc", n=1200, m=4800), machine)
        ms = [e.ms for e in plan.entries]
        assert all(v > 0 for v in ms)
        assert ms == sorted(ms)
        assert plan.selected is plan.entries[0]

    @pytest.mark.parametrize("kind", ["cc", "mst"])
    def test_plan_searches_impl_by_tprime_at_optimized_flags(self, kind):
        # The paper's "Optimized" flags; MST leaves offload off (the
        # D[0] invariant fails for Boruvka, and the solver refuses it).
        optimized = OptimizationFlags.all()
        if kind == "mst":
            optimized = optimized.with_(offload=False)
        machine = cluster_for_input(1200, 4, 2)
        plan = build_plan(Workload(kind=kind, n=1200, m=4800), machine)
        impls = _searched(kind)
        tprimes = tprime_candidates(max(1, 1200 // machine.total_threads), CostModel(machine))
        assert plan.lattice_size == len(impls) * len(tprimes) == len(plan.entries)
        assert {e.opts_key for e in plan.entries} == {optimized.key()}
        assert sorted((e.impl, e.tprime) for e in plan.entries) == sorted(
            itertools.product(impls, tprimes)
        )

    def test_cc_plans_probe_only_the_impls_that_can_win(self):
        """The containment gate below licenses this set.  An explicit impl
        outside it constrains nothing: its ``t'`` is the best entry's."""
        machine = parse_service_machine("4x2", 1200)
        plan = build_plan(Workload(kind="cc", n=1200, m=4800), machine)
        assert {e.impl for e in plan.entries} == {"collective", "lt-ps", "lt-psa", "lt-pf", "lt-es"}
        assert plan.choose(impl="lt-rs", tprime="auto") is plan.selected

    def test_plan_returned_where_a_probe_once_failed(self):
        """A reproduced input whose cold CC plan failed in a probe: the
        planner must return a plan for it."""
        plan = build_plan(Workload("cc", 2750, 11000, "hybrid"), cluster_for_input(2750, 4, 2))
        assert plan.entries and plan.selected.ms > 0


class TestChoose:
    """:meth:`TuningPlan.choose`, the one rule that turns a plan into a
    configuration for the pipeline and the service alike."""

    PLAN = TuningPlan(
        machine_key="m", workload=Workload(kind="cc", n=100, m=400), probe_n=100,
        entries=tuple(
            PlanEntry(impl, "all", tp, ms)
            for impl, tp, ms in (
                ("lt-pf", 1, 1.0), ("collective", 2, 2.0), ("lt-pf", 2, 3.0),
                ("collective", 1, 4.0),
            )
        ),
        lattice_size=4,
    )

    def test_all_auto_is_the_selected_entry(self):
        assert self.PLAN.choose() is self.PLAN.selected

    def test_auto_impl_with_explicit_tprime_takes_the_winner_at_that_tprime(self):
        entry = self.PLAN.choose(impl="auto", tprime=2)
        assert (entry.impl, entry.tprime) == ("collective", 2)

    def test_explicit_impl_with_auto_tprime_takes_that_impls_best_tprime(self):
        entry = self.PLAN.choose(impl="collective", tprime="auto")
        assert (entry.impl, entry.tprime) == ("collective", 2)

    def test_unmeasured_explicit_values_constrain_nothing(self):
        assert self.PLAN.choose(impl="naive", tprime="auto") is self.PLAN.selected
        entry = self.PLAN.choose(impl="collective", tprime=7)
        assert (entry.impl, entry.tprime) == ("collective", 2)

    @pytest.mark.parametrize("impl, tprime", [("auto", 2), ("collective", "auto")])
    def test_pipeline_resolves_mixed_auto_through_choose(
        self, impl, tprime, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "cache.json"))
        machine = cluster_for_input(800, 4, 2)
        g = random_graph(800, 3200, seed=4)
        # opts="auto" consults the plan (a lone tprime="auto" takes the
        # cache-fit t' without one); the adapter would revise t' mid-solve.
        result = connected_components(
            g, machine, impl=impl, opts="auto", tprime=tprime, adapt=False
        )
        entry = autotune(Workload(kind="cc", n=800, m=3200), machine).choose(impl, tprime)
        expected = connected_components(
            g, machine, impl=entry.impl, opts=OptimizationFlags.all(), tprime=entry.tprime
        )
        assert result.info.sim_time.hex() == expected.info.sim_time.hex()
        if tprime != "auto":
            assert entry.tprime == tprime
        if impl != "auto":
            assert entry.impl == impl


# ---------------------------------------------------------------------------
# The clock tape: one taped solve prices every t' exactly
# ---------------------------------------------------------------------------

TAPE_N = 500
#: The service's own machine, a one-node machine (the shared-memory serve
#: path) and the paper's calibrated cluster.
TAPE_SHAPES = ("4x2", "1x8", "16x8")
TAPE_INPUTS = (("cc", "random"), ("cc", "hybrid"), ("mst", "hybrid"))
#: The impls these gates solve, whatever ``AlgorithmSpec.searched`` says
#: (the 12 CC impls and MST's one; ``bench_tuning.py``'s containment check
#: solves the same list).  Narrowing the planner's probes must not narrow
#: the tape's bit-exactness gate or the containment gate.
TAPE_IMPLS = {kind: taped_impls(kind) for kind in ("cc", "mst")}


@functools.lru_cache(maxsize=None)
def _full_solve_grid(shape, kind, family):
    """``{(impl, t'): sim_time}`` of a full solve of every ``TAPE_IMPLS``
    impl at every ``tprime_candidates`` point, on the planner's own
    replica."""
    machine = parse_service_machine(shape, TAPE_N)
    workload = Workload(kind=kind, n=TAPE_N, m=4 * TAPE_N, graph_kind=family)
    graph = _probe_graph(workload, TAPE_N)
    solve = connected_components if kind == "cc" else minimum_spanning_forest
    tprimes = tprime_candidates(TAPE_N // machine.total_threads, CostModel(machine))
    return machine, graph, solve, tprimes, {
        (impl, tp): solve(
            graph, machine, impl=impl, opts=optimized_flags(kind), tprime=tp
        ).info.sim_time
        for impl in TAPE_IMPLS[kind]
        for tp in tprimes
    }


class TestClockTape:
    @pytest.mark.parametrize("shape", TAPE_SHAPES)
    @pytest.mark.parametrize("kind, family", TAPE_INPUTS)
    def test_replay_equals_a_full_solve_bit_for_bit(self, shape, kind, family):
        machine, graph, solve, tprimes, full = _full_solve_grid(shape, kind, family)
        for impl in TAPE_IMPLS[kind]:
            with recording() as tape:
                solve(graph, machine, impl=impl, opts=optimized_flags(kind), tprime=tprimes[-1])
            replayed = [float(t).hex() for t in tape.replay(tprimes)]
            assert replayed == [full[impl, tp].hex() for tp in tprimes], impl

    @pytest.mark.parametrize("layer", [
        {"faults": FaultPlan(seed=1, loss=1e-3)},
        {"integrity": True},
        {"resilience": True},
        {"profile": True},
    ], ids=["faults", "integrity", "resilience", "profiler"])
    def test_recording_refuses_layers_that_read_the_clocks(self, layer):
        with recording(), pytest.raises(ConfigError, match="clock tape"):
            PGASRuntime(parse_service_machine("4x2", TAPE_N), **layer)

    def test_probes_inside_a_profile_session_stay_out_of_it(self, tmp_path, monkeypatch):
        """A cold ``auto`` plan built inside :func:`repro.profiled` neither
        trips the tape's profiler refusal nor adds probe phases."""
        from repro.runtime.profiling import profiled

        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "cache.json"))
        machine = parse_service_machine("4x2", TAPE_N)
        g = random_graph(TAPE_N, 4 * TAPE_N, seed=5)
        with profiled() as session:
            connected_components(g, machine, impl="auto", tprime=1, adapt=False)
        assert len(session.profilers) == 1

    def test_one_runtime_per_tape(self):
        machine = parse_service_machine("4x2", TAPE_N)
        with recording(), pytest.raises(ConfigError, match="exactly one runtime"):
            PGASRuntime(machine)
            PGASRuntime(machine)

    def test_a_recording_stays_on_its_own_thread(self):
        """A probe recording on one service worker leaves a runtime that
        another worker builds for its own (integrity-checked) job alone."""
        machine = parse_service_machine("4x2", TAPE_N)
        built = {}

        def other_worker():
            try:
                built["rt"] = PGASRuntime(machine, integrity=True)
            except ConfigError as exc:  # pragma: no cover - the failure reported below
                built["error"] = exc

        with recording() as tape:
            worker = threading.Thread(target=other_worker)
            worker.start()
            worker.join()
            probe = PGASRuntime(machine)
        assert "error" not in built, built.get("error")
        assert built["rt"].clocks.tape is None
        assert tape._clocks is probe.clocks

    def test_a_failed_serve_charge_reattaches_the_tape(self, monkeypatch):
        machine = parse_service_machine("4x2", TAPE_N)
        with recording() as tape:
            rt = PGASRuntime(machine)

            def refuse(*args, **kwargs):
                raise ConfigError("cannot charge negative time")

            monkeypatch.setattr(rt, "charge", refuse)
            with pytest.raises(ConfigError, match="negative"):
                charge_serve(
                    rt, np.ones(rt.s), np.ones(rt.s), 1024.0, 1, 8, False, 2, Category.IRREGULAR
                )
            assert rt.clocks.tape is tape

    def test_plan_selects_the_argmin_of_full_solves(self):
        machine, _, _, tprimes, full = _full_solve_grid("4x2", "cc", "random")
        plan = build_plan(Workload(kind="cc", n=TAPE_N, m=4 * TAPE_N), machine)
        impls = _searched("cc")
        assert plan.lattice_size == len(impls) * len(tprimes) == len(plan.entries)
        # The replica is the full input here (n <= PROBE_N_CAP): every
        # entry is a full solve's modeled time, exactly.
        searched = {key: t for key, t in full.items() if key[0] in impls}
        assert {(e.impl, e.tprime): e.ms for e in plan.entries} == {
            key: t * 1e3 for key, t in searched.items()
        }
        best = min(searched, key=lambda key: (searched[key], key))
        assert (plan.selected.impl, plan.selected.tprime) == best


# ---------------------------------------------------------------------------
# Containment: the searched impls hold the full-size argmin
# ---------------------------------------------------------------------------

#: (family, n, m/n, machine shape): the three families at a planner-sized
#: and a denser, larger input, on the tape gate's machines and a one-node
#: machine of four threads, where ``lt-psa`` wins.
CONTAINMENT_GRID = [
    (family, n, density, shape)
    for family in ("random", "hybrid", "powerlaw")
    for n, density in ((3000, 4), (6000, 10))
    for shape in TAPE_SHAPES + ("1x4",)
]


@pytest.mark.parametrize(
    "family, n, density, shape", CONTAINMENT_GRID,
    ids=[f"{f}-n{n}-d{d}-{s}" for f, n, d, s in CONTAINMENT_GRID],
)
def test_searched_impls_contain_the_full_size_argmin(family, n, density, shape):
    """Every ``TAPE_IMPLS`` CC impl is solved once at full size under a
    clock tape and replayed over the ``t'`` grid.  The best configuration
    among the impls the planner searches must be the best of them all:
    an impl it leaves out never wins here."""
    machine = parse_service_machine(shape, n)
    graph = generate(family, n, density * n, seed=7)
    workload = Workload(kind="cc", n=n, m=graph.m, graph_kind=family)
    best = best_times(workload, graph, machine, TAPE_IMPLS["cc"])
    kept = min(best[impl] for impl in _searched("cc"))
    winner = min(best, key=best.get)
    assert kept == best[winner], (
        f"{winner} wins at {best[winner] * 1e3:.4f} ms; the searched impls' best is"
        f" {kept * 1e3:.4f} ms (x{kept / best[winner]:.4f})"
    )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

def _small_setup():
    machine = cluster_for_input(800, 4, 2)
    workload = Workload(kind="cc", n=800, m=3200)
    return machine, workload


class TestPlanCache:
    def test_fingerprint_ignores_name(self):
        machine = cluster_for_input(20_000, 4, 2)
        assert machine_fingerprint(machine) == machine_fingerprint(
            machine.with_(name="renamed")
        )
        assert machine_fingerprint(machine) != machine_fingerprint(
            machine.with_(per_call_scale=machine.per_call_scale * 2)
        )

    def test_save_is_byte_deterministic(self, tmp_path):
        machine, workload = _small_setup()
        plan_a = build_plan(workload, machine)
        plan_b = build_plan(workload, machine)
        assert plan_a.to_dict() == plan_b.to_dict()

        cache_a = PlanCache(tmp_path / "a.json")
        cache_a.put(machine, workload, plan_a)
        cache_b = PlanCache(tmp_path / "b.json")
        cache_b.put(machine, workload, plan_b)
        assert cache_a.save().read_bytes() == cache_b.save().read_bytes()

    def test_round_trip(self, tmp_path):
        machine, workload = _small_setup()
        plan = build_plan(workload, machine)
        cache = PlanCache(tmp_path / "c.json")
        cache.put(machine, workload, plan)
        cache.save()
        reloaded = PlanCache(tmp_path / "c.json").get(machine, workload)
        assert reloaded is not None
        assert reloaded.to_dict() == plan.to_dict()
        assert reloaded.selected.config_label() == plan.selected.config_label()

    def test_nearest_reuses_same_family_within_factor(self, tmp_path):
        """Degraded-mode plan reuse: a miss on the exact (n, m) key falls
        back to the closest cached plan of the same kind x graph_kind on
        the same machine — within a bounded size ratio."""
        machine = cluster_for_input(800, 4, 2)
        cache = PlanCache(tmp_path / "c.json")
        near = Workload(kind="cc", n=1000, m=4000)
        far = Workload(kind="cc", n=100_000, m=400_000)
        cache.put(machine, near, build_plan(near, machine))
        cache.put(machine, far, build_plan(far, machine))

        target = Workload(kind="cc", n=800, m=3200)
        assert cache.get(machine, target) is None  # exact key misses
        hit = cache.nearest(machine, target)
        assert hit is not None
        assert hit.workload == near  # closest in log-space, not the far one

    def test_nearest_refuses_wrong_family_or_distance(self, tmp_path):
        machine = cluster_for_input(800, 4, 2)
        cache = PlanCache(tmp_path / "c.json")
        mst = Workload(kind="mst", n=800, m=3200)
        hybrid = Workload(kind="cc", n=800, m=3200, graph_kind="hybrid")
        huge = Workload(kind="cc", n=800_000, m=3_200_000)
        for w in (mst, hybrid, huge):
            cache.put(machine, w, build_plan(w, machine))

        target = Workload(kind="cc", n=800, m=3200)
        # Same n/m but wrong algo or graph family; same family but >8x away.
        assert cache.nearest(machine, target) is None
        other_machine = cluster_for_input(800, 2, 2)
        assert cache.nearest(other_machine, Workload(kind="mst", n=800, m=3200)) is None

    def test_corrupt_cache_starts_empty_and_recovers(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{ this is not json")
        cache = PlanCache(path)
        assert len(cache) == 0
        machine, workload = _small_setup()
        plan = autotune(workload, machine, cache=cache)  # rebuilds, then saves
        assert plan.selected is not None
        assert PlanCache(path).get(machine, workload) is not None

    def test_stale_schema_ignored(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema": 999, "plans": {"x": {}}}))
        assert len(PlanCache(path)) == 0
        # A schema-1 file holds analytic predictions beside measurements:
        # it must regenerate, not load.
        machine, workload = _small_setup()
        plan = build_plan(workload, machine).to_dict()
        plan["entries"] = [
            {"impl": e["impl"], "opts": e["opts"], "tprime": e["tprime"],
             "predicted_ms": e["ms"], "probed_ms": None, "ms": e["ms"]}
            for e in plan["entries"]
        ]
        key = f"{machine_fingerprint(machine)}|{workload.key()}"
        path.write_text(json.dumps({"schema": 1, "plans": {key: plan}}))
        assert len(PlanCache(path)) == 0
        # A schema-2 CC plan measured impls no plan searches now, and
        # ``choose`` answers an explicit one of them differently.
        fresh = build_plan(workload, machine).to_dict()
        path.write_text(json.dumps({"schema": 2, "plans": {key: fresh}}))
        assert len(PlanCache(path)) == 0

    def test_bad_record_does_not_poison_the_rest(self, tmp_path):
        machine, workload = _small_setup()
        plan = build_plan(workload, machine)
        cache = PlanCache(tmp_path / "c.json")
        cache.put(machine, workload, plan)
        path = cache.save()
        payload = json.loads(path.read_text())
        payload["plans"]["bogus-key"] = {"not": "a plan"}
        path.write_text(json.dumps(payload))
        reloaded = PlanCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(machine, workload) is not None

    def test_hand_edited_key_mismatch_rejected(self, tmp_path):
        machine, workload = _small_setup()
        plan = build_plan(workload, machine)
        cache = PlanCache(tmp_path / "c.json")
        cache.put(machine, workload, plan)
        path = cache.save()
        other = Workload(kind="cc", n=800, m=9999)
        payload = json.loads(path.read_text())
        ((key, entry),) = payload["plans"].items()
        payload["plans"] = {key.replace(workload.key(), other.key()): entry}
        path.write_text(json.dumps(payload))
        # The stored plan describes `workload`, not `other`: reject it.
        assert PlanCache(path).get(machine, other) is None

    def test_autotune_cache_hit_skips_rebuild(self, tmp_path, monkeypatch):
        import repro.tuning as tuning

        machine, workload = _small_setup()
        cache_path = tmp_path / "c.json"
        plan = autotune(workload, machine, cache=PlanCache(cache_path))

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not rebuild the plan")

        monkeypatch.setattr(tuning, "build_plan", boom)
        again = tuning.autotune(workload, machine, cache=PlanCache(cache_path))
        assert again.to_dict() == plan.to_dict()


# ---------------------------------------------------------------------------
# Online adapter
# ---------------------------------------------------------------------------


def _star(n):
    """Hub-and-spokes: every edge touches vertex 0, so one owner thread
    serves essentially all label requests — the offload hotspot."""
    return EdgeList(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64))


class TestOnlineAdapter:
    def test_hotspot_rule_enables_offload_cc(self):
        n = 4096
        g = _star(n)
        machine = cluster_for_input(n, 8, 4)
        adapter = OnlineAdapter(machine, n)
        base = solve_cc_collective(g, machine, OptimizationFlags.none(), 1)
        adapted = solve_cc_collective(
            g, machine, OptimizationFlags.none(), 1, adapter=adapter
        )
        # Adaptation is a performance knob: the labeling must not change.
        assert np.array_equal(base.labels, adapted.labels)
        assert any("enable offload" in d for d in adapter.decisions)
        assert any(e.startswith("tuning:") for e in adapted.info.trace.events)
        assert adapted.info.trace.counters.tuning_adaptations >= 1

    def test_mst_adapter_never_enables_offload(self):
        n = 4096
        g = with_random_weights(_star(n), 3)
        machine = cluster_for_input(n, 8, 4)
        adapter = OnlineAdapter(machine, n, allow_offload=False)
        base = solve_mst_collective(g, machine, OptimizationFlags.none(), 1)
        adapted = solve_mst_collective(
            g, machine, OptimizationFlags.none(), 1, adapter=adapter
        )
        assert np.array_equal(base.edge_ids, adapted.edge_ids)
        assert base.total_weight == adapted.total_weight
        assert not any("offload" in d for d in adapter.decisions)

    def _fed_adapter(self, windows, **config):
        """An adapter detached from any runtime, fed synthetic windows."""
        machine = cluster_for_input(20_000, 4, 2)
        adapter = OnlineAdapter(machine, 20_000, config=AdapterConfig(**config))

        class _Profiler:
            def __init__(self, feed):
                self.feed = list(feed)

            def checkpoint(self):
                return 0

            def window_since(self, mark):
                return self.feed.pop(0)

        adapter._profiler = _Profiler(windows)
        return adapter

    @staticmethod
    def _window(duration_s, wait=0.0):
        return RoundWindow(
            phases=3, duration_s=duration_s, requests=100,
            max_wait_fraction=wait, hottest_thread=0,
        )

    def test_divergence_rule_steps_tprime_toward_target(self):
        adapter = self._fed_adapter(
            [self._window(1.0), self._window(5.0)], divergence=1.5
        )
        adapter.target_tprime = 5
        opts = OptimizationFlags.all()
        opts, tprime = adapter.on_round(opts, 1)  # warmup: sets the baseline
        assert tprime == 1
        opts, tprime = adapter.on_round(opts, tprime)  # 5x slower: diverged
        assert 1 < tprime <= 5
        assert any("t' 1 ->" in d for d in adapter.decisions)

    def test_adaptation_budget_is_finite(self):
        windows = [self._window(1.0 if i % 2 == 0 else 9.0) for i in range(20)]
        adapter = self._fed_adapter(windows, max_adaptations=2)
        adapter.target_tprime = 64
        opts, tprime = OptimizationFlags.all(), 1
        for _ in range(20):
            opts, tprime = adapter.on_round(opts, tprime)
        assert adapter.adaptations <= 2

    def test_holds_still_on_healthy_rounds(self):
        adapter = self._fed_adapter([self._window(1.0)] * 5)
        opts, tprime = OptimizationFlags.all(), 2
        adapter.target_tprime = 2
        for _ in range(5):
            opts, tprime = adapter.on_round(opts, tprime)
        assert adapter.decisions == []
        assert (opts, tprime) == (OptimizationFlags.all(), 2)


# ---------------------------------------------------------------------------
# t' search grid
# ---------------------------------------------------------------------------


class TestTprimeCandidates:
    def test_contains_doubling_ladder_and_fit(self):
        cm = CostModel(cluster_for_input(20_000, 16, 8))
        block = 4 * cm.machine.cache.size_bytes // 8
        fit = best_tprime(block, cm)
        cands = tprime_candidates(block, cm)
        assert set((1, 2, 4, 8, 16, 32, 64)) <= set(cands)
        assert fit in cands and fit - 1 in cands
        assert cands == tuple(sorted(cands))

    def test_small_block_degenerates_to_ladder(self):
        cm = CostModel(cluster_for_input(20_000, 16, 8))
        cands = tprime_candidates(1, cm)
        assert cands[0] == 1 and max(cands) <= 64

    def test_never_fits_clamps_to_max(self):
        cm = CostModel(cluster_for_input(20_000, 16, 8))
        assert best_tprime(10**12, cm, max_tprime=32) == 32
        assert max(tprime_candidates(10**12, cm, max_tprime=32)) == 32
        assert all(1 <= t <= 32 for t in tprime_candidates(10**12, cm, max_tprime=32))
