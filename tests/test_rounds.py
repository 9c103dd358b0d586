"""The round driver (``repro.faults.rounds.run_rounds``), tested once.

Two halves:

* fake-step unit tests pin each arm of the driver directly: a crash
  replays from the restored arrays and refs, integrity repairs are
  counted and give up loudly past their bound, a node loss moves the
  state onto the new runtime, and an unprotected run never checkpoints;
* a hypothesis property drives the four checkpointing solvers through
  seeded fault schedules (crash thread and time, lost node and time,
  corruption rate, redundancy mode, spares) and demands the reference
  answer or a loud ``FaultError`` — never a wrong one — with every
  checkpoint restore accounted for by a crash, a repair or an epoch.
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
    FaultPlan,
    NodeLossEvent,
    RedundancyConfig,
    connected_components,
    minimum_spanning_forest,
    random_graph,
    with_random_weights,
)
from repro.collectives import CollectiveContext
from repro.errors import (
    ConvergenceError,
    FaultError,
    IntegrityError,
    NodeLoss,
    ThreadCrash,
)
from repro.faults.rounds import run_rounds
from repro.integrity import IntegrityConfig
from repro.mst.verify import check_spanning_forest, msf_reference
from repro.runtime import PGASRuntime, hps_cluster
from repro.runtime.partitioned import PartitionedArray
from repro.runtime.trace import Category

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


# -- the solvers under seeded fault schedules -----------------------------------

GRAPH = random_graph(384, 1536, seed=7)
WEIGHTED = with_random_weights(GRAPH, seed=8)
FOREST_WEIGHT = msf_reference(WEIGHTED)[1]


def _component_labels(graph) -> np.ndarray:
    labels = np.arange(graph.n, dtype=np.int64)
    for comp in nx.connected_components(graph.to_networkx()):
        labels[list(comp)] = min(comp)
    return labels


LABELS = _component_labels(GRAPH)

#: The four checkpointing solvers, as (problem, impl).
SOLVERS = [("cc", "collective"), ("cc", "lt-ps"), ("cc", "lt-rfa"), ("mst", "collective")]

#: Modeled solve times here are 2-5 ms: events drawn past the end of a
#: solve never fire, which is part of the schedule space too.
_times = st.integers(0, 40).map(lambda k: k * 1.0e-4)

schedules = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "crash_thread": st.integers(0, MACHINE.total_threads - 1),
    "crash_at": _times,
    "lost_node": st.integers(0, MACHINE.nodes - 1),
    "loss_at": _times,
    "corruption": st.sampled_from([0.0, 1.0, 5.0]),
    "mode": st.sampled_from(["buddy", "parity"]),
    "spares": st.integers(0, 1),
})


@pytest.mark.parametrize("problem,impl", SOLVERS, ids=[f"{p}-{i}" for p, i in SOLVERS])
@settings(max_examples=40)
@given(schedule=schedules)
def test_recovery_is_exact_or_loud(problem, impl, schedule):
    plan = FaultPlan(
        seed=schedule["seed"],
        loss=1e-3,
        corruption=schedule["corruption"],
        payload_corruption=1e-4,
        crashes=(CrashEvent(thread=schedule["crash_thread"], at_time=schedule["crash_at"]),),
        node_losses=(NodeLossEvent(node=schedule["lost_node"], at_time=schedule["loss_at"]),),
    )
    resilience = RedundancyConfig(mode=schedule["mode"], group=2, spares=schedule["spares"])
    try:
        if problem == "cc":
            res = connected_components(
                GRAPH, MACHINE, impl=impl, faults=plan, integrity=True, resilience=resilience,
            )
            np.testing.assert_array_equal(res.labels, LABELS)
        else:
            res = minimum_spanning_forest(
                WEIGHTED, MACHINE, impl=impl, faults=plan, integrity=True, resilience=resilience,
            )
            assert res.total_weight == FOREST_WEIGHT
            check_spanning_forest(WEIGHTED, res.edge_ids)
    except FaultError as err:
        # Loud, and the driver's own verdict — never a recovery signal
        # (crash, loss, corruption) escaping the replay machinery.
        assert type(err) is FaultError, repr(err)
        return
    c = res.info.trace.counters
    assert c.checkpoint_restores == c.crashes + c.repairs + c.epoch_changes
    assert c.epoch_changes <= 1 and c.crashes <= 1
