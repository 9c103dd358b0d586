"""The round driver (``repro.faults.rounds.run_rounds``), tested once.

Two halves:

* fake-step unit tests pin each arm of the driver directly: a crash
  replays from the restored arrays and refs, integrity repairs are
  counted and give up loudly past their bound, a node loss moves the
  state onto the new runtime, and an unprotected run never checkpoints;
* a hypothesis property drives every registered solver that takes
  faults through seeded fault schedules (loss, stragglers, a crash, a
  node loss, block and payload corruption) under every protection it
  supports, and holds the one fault contract: the reference answer or a
  loud error — never a wrong answer, never a dropped event — with every
  checkpoint restore accounted for by a crash, a repair or an epoch;
* Shiloach–Vishkin's recovery arms and three composed chaos campaigns
  are pinned as deterministic cases: every protected solve verifies
  (by reference labels or by certificate), detects every corruption
  injected into it and fires every scheduled event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CrashEvent,
    EdgeList,
    FaultPlan,
    NodeLossEvent,
    RedundancyConfig,
    canonical_labels,
    connected_components,
    minimum_spanning_forest,
    powerlaw_graph,
    random_graph,
    with_random_weights,
)
from repro.algorithms import REGISTRY
from repro.collectives import CollectiveContext
from repro.errors import (
    ConfigError,
    ConvergenceError,
    FaultError,
    IntegrityError,
    NodeLoss,
    ReproError,
    ThreadCrash,
    UnrecoverableLossError,
)
from repro.faults.rounds import run_rounds
from repro.graph import generate
from repro.graph.validation import check_connected_counts
from repro.integrity import IntegrityConfig
from repro.mst.verify import check_spanning_forest, msf_reference
from repro.runtime import PGASRuntime, hps_cluster, smp_node
from repro.runtime.partitioned import PartitionedArray
from repro.runtime.trace import Category
from tests.fault_plans import CHAOS_PLAN

MACHINE = hps_cluster(4, 2)


# -- fake steps ---------------------------------------------------------------


@dataclass
class _Fake:
    """Minimal round state: the driver's protocol (``rt``, ``d``,
    ``ctx``) plus one ref and a script of per-round faults."""

    rt: Any
    d: Any
    part: PartitionedArray
    schedule: List[Any]
    ctx: CollectiveContext = field(default_factory=CollectiveContext)
    seen: List[tuple] = field(default_factory=list)


def _fake(rt, schedule, n: int = 16) -> _Fake:
    d = rt.shared_array(np.arange(n, dtype=np.int64), name="fake.d")
    rt.protect_array(d)
    if rt.resilience is not None:
        rt.resilience.enroll(d)
    part = PartitionedArray.even(np.arange(n, dtype=np.int64), rt.s)
    return _Fake(rt, d, part, list(schedule))


def _scribble(st: _Fake) -> bool:
    """Record what the round starts from, dirty every piece of state the
    driver is responsible for, then raise the round's scheduled fault
    (``None`` = a clean round).  Converges when the script runs out."""
    st.seen.append((st.d.data.copy(), st.part))
    st.d.data[:] = -1
    st.part = st.part.with_data(st.part.data + 100)
    st.ctx.id_cache["edges.u"] = 0
    fault = st.schedule.pop(0)
    if fault is not None:
        raise fault
    return not st.schedule


class _RecordingAdapter:
    def __init__(self) -> None:
        self.calls: List[tuple] = []

    def begin(self, rt) -> None:
        self.calls.append(("begin", rt))

    def on_membership_change(self, rt) -> None:
        self.calls.append(("membership", rt))


class TestDriverArms:
    def test_crash_replays_with_arrays_and_refs_restored(self):
        plan = FaultPlan(seed=0, crashes=(CrashEvent(thread=0, at_time=1.0),))
        rt = PGASRuntime(MACHINE, faults=plan)
        st = _fake(rt, [ThreadCrash(0, 0.0, 0.0), None, None])
        caches = []
        rounds = run_rounds(
            st, _scribble, name="fake", bound=10, refs=("part",),
            replay=lambda s: caches.append(dict(s.ctx.id_cache)),
        )
        assert rounds == 2
        (d0, p0), (d1, p1), (d2, p2) = st.seen
        # The replay starts from exactly what the crashed round started from.
        np.testing.assert_array_equal(d1, d0)
        assert p1 is p0
        # The next round starts from the replayed round's writes.
        assert (d2 == -1).all() and p2 is not p1
        assert caches == [{}]  # the id cache was dropped before the hook
        c = rt.counters
        assert (c.checkpoint_restores, c.repairs, c.iterations) == (1, 0, 3)

    def test_repairs_counted_then_bounded(self):
        rt = PGASRuntime(MACHINE, integrity=IntegrityConfig())
        st = _fake(rt, [IntegrityError("flip")] * 3 + [None])
        assert run_rounds(st, _scribble, name="fake", bound=10, refs=("part",)) == 1
        assert rt.counters.repairs == rt.counters.checkpoint_restores == 3

        # n = 16: the bound is 8 * (4 + log2 16) = 64 repairs.
        rt = PGASRuntime(MACHINE, integrity=IntegrityConfig())
        st = _fake(rt, [IntegrityError("flip")] * 100)
        with pytest.raises(FaultError, match="^fake gave up after 65 integrity repairs") as err:
            run_rounds(st, _scribble, name="fake", bound=10, refs=("part",))
        assert type(err.value) is FaultError
        assert isinstance(err.value.__cause__, IntegrityError)
        assert rt.counters.repairs == rt.counters.checkpoint_restores == 65

    def test_node_loss_moves_the_state_to_the_new_runtime(self):
        rt = PGASRuntime(MACHINE, resilience=RedundancyConfig(mode="buddy", group=2))
        st = _fake(rt, [NodeLoss(1, 0.0), None])
        adapter = _RecordingAdapter()
        rebuilt = []
        rounds = run_rounds(
            st, _scribble, name="fake", bound=10, refs=("part",),
            rebuild=lambda s: rebuilt.append(s.rt), adapter=adapter,
        )
        assert rounds == 1
        new_rt = st.rt
        assert new_rt is not rt and new_rt.machine.nodes == MACHINE.nodes - 1
        assert rebuilt == [new_rt]
        assert adapter.calls == [("begin", rt), ("membership", new_rt)]
        (d0, p0), (d1, p1) = st.seen
        np.testing.assert_array_equal(d1, d0)
        assert p1.parts == new_rt.s
        np.testing.assert_array_equal(p1.data, p0.data)
        c = new_rt.counters
        assert (c.epoch_changes, c.checkpoint_restores) == (1, 1)

    def test_unprotected_run_never_checkpoints(self):
        rt = PGASRuntime(MACHINE)
        st = _fake(rt, [None, None, None])
        assert run_rounds(st, _scribble, name="fake", bound=10, refs=("part",)) == 3
        assert rt.trace.category_seconds.get(Category.FAULT, 0.0) == 0.0
        assert rt.counters.checkpoint_restores == 0

        # ...so a crash there has nothing to replay from and fails loudly.
        st = _fake(PGASRuntime(MACHINE), [ThreadCrash(0, 0.0, 0.0)])
        with pytest.raises(FaultError, match="no checkpoint to restore"):
            run_rounds(st, _scribble, name="fake", bound=10, refs=("part",))

    def test_rounds_are_bounded(self):
        st = _fake(PGASRuntime(MACHINE), [None] * 10)
        with pytest.raises(ConvergenceError, match="^fake exceeded the 3-iteration"):
            run_rounds(st, _scribble, name="fake", bound=3, refs=("part",))


# -- every solver that takes faults, under seeded fault schedules ---------------

GRAPH = random_graph(384, 1536, seed=7)
WEIGHTED = with_random_weights(GRAPH, seed=8)
FOREST_WEIGHT = msf_reference(WEIGHTED)[1]


def _component_labels(graph) -> np.ndarray:
    labels = np.arange(graph.n, dtype=np.int64)
    for comp in nx.connected_components(graph.to_networkx()):
        labels[list(comp)] = min(comp)
    return labels


LABELS = _component_labels(GRAPH)

#: Every registered solver that takes a fault plan: a new ``register()``
#: call is covered here with no test edit.
FAULT_SPECS = [spec for spec in REGISTRY.values() if spec.supports_faults]

#: The solvers this property first covered keep their example budget;
#: the rest take fewer, to bound tier-1 wall time.
_EXAMPLES = {("cc", "collective"): 40, ("cc", "lt-ps"): 40, ("cc", "lt-rfa"): 40,
             ("mst", "collective"): 40}

#: Modeled solve times here are 0.06-11 ms (``naive``: 0.3-0.8 s): events
#: drawn past the end of a solve never fire, which is part of the
#: schedule space too.
_times = st.integers(0, 40).map(lambda k: k * 1.0e-4)


def _machine(spec):
    # The single-node baselines refuse a cluster.
    return smp_node(8) if spec.name == "smp" else MACHINE


def _schedules(machine, protections):
    """Seeded fault schedules, each with one of ``protections`` (the
    ``(integrity, redundancy mode)`` pairs the solver supports).  Every
    schedule may hold loss and stragglers, which every fault-taking
    solver charges.  A solver that can protect itself always draws a
    crash, a node loss and corruption too (each may come out empty); one
    that cannot draws them for only half its schedules, so its own loss
    path is exercised as often as its refusals."""
    can_protect = len(protections) > 1
    return st.fixed_dictionaries({
        "seed": st.integers(0, 2**16),
        "loss": st.sampled_from([0.0, 1e-3]),
        "stragglers": st.dictionaries(
            st.integers(0, machine.total_threads - 1), st.just(4.0), max_size=2
        ),
        "events": st.just(True) if can_protect else st.booleans(),
        "crash": st.builds(
            CrashEvent, thread=st.integers(0, machine.total_threads - 1), at_time=_times
        ) | st.none(),
        "node_loss": st.builds(
            NodeLossEvent, node=st.integers(0, machine.nodes - 1), at_time=_times
        ) | st.none(),
        "corruption": st.sampled_from([1.0, 5.0, 0.0]),
        "payload_corruption": st.sampled_from([1e-4, 0.0]),
        "protection": st.sampled_from(protections),
        "spares": st.integers(0, 1),
    })


def _plan(schedule) -> FaultPlan:
    events = schedule["events"]
    return FaultPlan(
        seed=schedule["seed"],
        loss=schedule["loss"],
        stragglers=schedule["stragglers"],
        crashes=(schedule["crash"],) if events and schedule["crash"] else (),
        node_losses=(schedule["node_loss"],) if events and schedule["node_loss"] else (),
        corruption=schedule["corruption"] if events else 0.0,
        payload_corruption=schedule["payload_corruption"] if events else 0.0,
    )


def _check_answer(spec, res) -> None:
    if spec.kind == "cc":
        np.testing.assert_array_equal(res.labels, LABELS)
    else:
        assert res.total_weight == FOREST_WEIGHT
        check_spanning_forest(WEIGHTED, res.edge_ids)


@pytest.mark.parametrize("spec", FAULT_SPECS, ids=[f"{s.kind}-{s.name}" for s in FAULT_SPECS])
def test_recovery_is_exact_or_loud(spec):
    machine = _machine(spec)
    solve, graph = (
        (connected_components, GRAPH) if spec.kind == "cc" else (minimum_spanning_forest, WEIGHTED)
    )
    # The protections the solver supports, most protected first.
    protections = [
        (integrity, mode)
        for integrity in (True, False) if spec.supports(integrity=integrity)
        for mode in ("buddy", "parity", None) if spec.supports(resilience=mode is not None)
    ]

    @settings(max_examples=_EXAMPLES.get((spec.kind, spec.name), 15))
    @given(schedule=_schedules(machine, protections))
    def check(schedule):
        plan = _plan(schedule)
        protect, mode = schedule["protection"]
        integrity = True if protect else None
        resilience = (
            RedundancyConfig(mode=mode, group=2, spares=schedule["spares"]) if mode else None
        )
        # A solver that can protect nothing does not solve under the round
        # driver, so nothing there would fire a crash, a node loss or a
        # flip: it must refuse them at the gate, before any solve.
        refused = len(protections) == 1 and (
            plan.has_crashes or plan.has_node_loss or plan.has_corruption
        )
        assert spec.supports(
            faults=plan, integrity=integrity is not None, resilience=resilience is not None
        ) is not refused
        kwargs = dict(impl=spec.name, faults=plan, integrity=integrity, resilience=resilience)
        if refused:
            with pytest.raises(ConfigError, match="is not supported for"):
                solve(graph, machine, **kwargs)
            return
        silent = plan.has_corruption and integrity is None
        try:
            res = solve(graph, machine, **kwargs)
        except ReproError as err:
            if silent:
                return  # unprotected silent corruption: loud is all it owes
            # Loud, and the driver's own verdict — never a recovery signal
            # (ThreadCrash, NodeLoss, IntegrityError) escaping the replay
            # machinery.  Without redundancy a node loss may not be
            # survivable.
            loud = (FaultError,) if resilience else (FaultError, UnrecoverableLossError)
            assert type(err) in loud, repr(err)
            # Nothing injected, nothing to repair: a check that fires on
            # a clean solve is a false positive, not a loud failure.
            assert plan.has_corruption or "integrity repairs" not in str(err), repr(err)
            return
        if not silent:
            _check_answer(spec, res)
        c = res.info.trace.counters
        assert plan.has_corruption or c.corruptions_detected == 0
        assert c.checkpoint_restores == c.crashes + c.repairs + c.epoch_changes
        assert c.epoch_changes <= 1 and c.crashes <= 1

    check()


#: Shiloach–Vishkin's recovery arms, one deterministic plan each:
#: (plan, integrity, redundancy config, expected (crashes, node losses)).
#: SV models ~2 ms per round on 4x2 here, so every event lands mid-solve.
SV_RECOVERIES = {
    "crash": (FaultPlan(seed=1, crashes=(CrashEvent(thread=3, at_time=3e-3),)), None, None, (1, 0)),
    "corruption": (FaultPlan(seed=2, corruption=1.0, payload_corruption=1e-4), True, None, (0, 0)),
    "node-loss-buddy": (
        FaultPlan(seed=3, node_losses=(NodeLossEvent(node=1, at_time=4e-3),)),
        None, RedundancyConfig(mode="buddy"), (0, 1),
    ),
    "node-loss-parity-spare-crash": (
        FaultPlan(
            seed=4,
            crashes=(CrashEvent(thread=5, at_time=2e-3),),
            node_losses=(NodeLossEvent(node=2, at_time=6e-3),),
        ),
        None, RedundancyConfig(mode="parity", group=2, spares=1), (1, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(SV_RECOVERIES))
def test_sv_recovers_on_the_round_driver(name):
    """SV replays lost rounds like every lattice point: the reference
    labels, and exactly the scheduled events, each restore accounted for."""
    plan, integrity, resilience, (crashes, losses) = SV_RECOVERIES[name]
    res = connected_components(
        GRAPH, MACHINE, impl="sv", faults=plan, integrity=integrity, resilience=resilience
    )
    np.testing.assert_array_equal(res.labels, LABELS)
    c = res.info.trace.counters
    assert (c.crashes, c.node_losses, c.epoch_changes) == (crashes, losses, losses)
    assert c.corruptions_detected == c.corruptions_injected
    if plan.has_corruption:
        assert c.repairs >= 1
    assert c.checkpoint_restores == c.crashes + c.repairs + c.epoch_changes


@pytest.mark.parametrize(
    "graph",
    [EdgeList(5, np.array([1, 3, 2]), np.array([4, 4, 3])), random_graph(384, 300, seed=1)],
    ids=["five-vertices", "random-384-300"],
)
def test_sv_integrity_accepts_labels_above_vertex_ids(graph):
    """In a component without vertex 0 the minimum vertex's stagnant
    star can hook upward, so SV legitimately converges on labels above
    their vertex ids (``[0, 2, 2, 2, 2]`` on the five-vertex graph).
    Under integrity that is no corruption: only stars are checked."""
    res = connected_components(graph, MACHINE, impl="sv", integrity=True)
    assert np.any(res.labels > np.arange(graph.n))
    np.testing.assert_array_equal(canonical_labels(res.labels), _component_labels(graph))
    c = res.info.trace.counters
    assert c.corruptions_detected == 0 and c.repairs == 0


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason=(
    "a stagnant-star hook raises a root above members of its old star and a"
    " later conditional graft closes a cycle through it"
))
def test_sv_converges_where_its_hook_closes_a_cycle():
    """SV never converges on this input: every configuration hits the
    iteration bound.  A fix of the hook/graft rules turns this XPASS,
    and the strict marker then has to come off."""
    graph = powerlaw_graph(2500, 7000, seed=3)
    res = connected_components(graph, MACHINE, impl="sv")
    np.testing.assert_array_equal(canonical_labels(res.labels), _component_labels(graph))


@pytest.mark.xfail(strict=True, raises=FaultError, reason=(
    "SV's replays keep meeting a new flip until it gives up after its repair bound"
))
@pytest.mark.parametrize("mode", ["buddy", "parity"])
def test_sv_finishes_the_chaos_plan_under_redundancy(mode):
    """Under the composed chaos plan, with integrity and either redundancy
    mode, SV raises ``FaultError: cc-sv gave up after 105 integrity
    repairs``; ``collective`` (14 flips, 8 repairs) and ``lt-ps`` (6, 4)
    finish the same solve.  A fix turns this XPASS, and the strict marker
    then has to come off."""
    res = connected_components(
        GRAPH, MACHINE, impl="sv", faults=CHAOS_PLAN, integrity=IntegrityConfig(),
        resilience=RedundancyConfig(mode=mode),
    )
    np.testing.assert_array_equal(canonical_labels(res.labels), LABELS)


# -- composed campaigns, pinned ------------------------------------------------

#: Three composed chaos campaigns, pinned as deterministic cases.  Each
#: solves CC and MST ``collective`` under integrity on the random graph of
#: every seed, with the plan ``_campaign_plan`` composes: (nodes, threads),
#: n (m = 4n), seeds, plan fields, redundancy mode, and the corruptions
#: injected over the campaign.
CAMPAIGNS = {
    "stragglers-16x8": (
        (16, 8), 2048, range(3), dict(stragglers=2, corruption=2e-3), None, 195,
    ),
    "crash-and-node-loss-4x2": (
        (4, 2), 1024, range(3), dict(crash=True, node_loss=True, corruption=2e-3),
        "buddy", 47,
    ),
    "corruption-4x2": ((4, 2), 512, range(1, 5), dict(corruption=2e-2), None, 38),
}


def _campaign_plan(
    seed, machine, corruption, stragglers=0, crash=False, node_loss=False, loss=0.0,
) -> FaultPlan:
    """Block + payload corruption always; the fail-stop classes as asked,
    stragglers (4x) drawn from their own seeded picker, the crash and the
    node loss placed by ``seed``."""
    slow = {}
    if stragglers:
        chosen = np.random.default_rng(seed).choice(
            machine.total_threads, size=stragglers, replace=False
        )
        slow = {int(t): 4.0 for t in chosen}
    return FaultPlan(
        seed=seed,
        loss=loss,
        stragglers=slow,
        crashes=(CrashEvent(thread=seed % machine.total_threads, at_time=2.0e-4),)
        if crash else (),
        node_losses=(NodeLossEvent(node=seed % machine.nodes, at_time=3.0e-4),)
        if node_loss else (),
        corruption=corruption,
        payload_corruption=1.0e-4,
    )


def _protected_solves(machine, seed, n, plan, redundancy):
    gw = generate("random", n, 4 * n, seed, weighted=True)
    g = gw.with_weights(None)
    resilience = RedundancyConfig(mode=redundancy) if redundancy else None
    cc = connected_components(g, machine, faults=plan, integrity=True, resilience=resilience)
    check_connected_counts(cc.labels, g)
    mst = minimum_spanning_forest(
        gw, machine, faults=plan, integrity=True, resilience=resilience
    )
    check_spanning_forest(gw, mst.edge_ids)
    return cc, mst


class TestCampaigns:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_protected_runs_verify_and_detect_every_flip(self, name):
        shape, n, seeds, fields, redundancy, injected = CAMPAIGNS[name]
        machine = hps_cluster(*shape)
        total = 0
        for seed in seeds:
            plan = _campaign_plan(seed, machine, **fields)
            for res in _protected_solves(machine, seed, n, plan, redundancy):
                c = res.info.trace.counters
                assert c.corruptions_detected == c.corruptions_injected
                # Every scheduled fail-stop event fired.
                assert (c.crashes, c.node_losses) == (len(plan.crashes), len(plan.node_losses))
                total += c.corruptions_injected
        assert total == injected

    def test_composed_faults_survive(self):
        # Silent + fail-stop classes together: the repair paths must not
        # step on each other (crash replay vs digest resync vs retries).
        machine = hps_cluster(16, 8)
        plan = _campaign_plan(
            10, machine, corruption=2e-3, stragglers=2, crash=True, loss=1e-3
        )
        gw = generate("random", 512, 2048, 10, weighted=True)
        g = gw.with_weights(None)
        res = connected_components(g, machine, faults=plan, integrity=True)
        check_connected_counts(res.labels, g)
        c = res.info.trace.counters
        assert c.crashes == 1
        assert c.retries > 0
        assert c.corruptions_detected == c.corruptions_injected
