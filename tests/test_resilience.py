"""Permanent node loss: redundancy, membership epochs, recovery.

The contract under test (``repro.resilience``):

* a protected solve survives a mid-solve *permanent* node loss — in
  both redundancy modes (buddy replication, XOR parity groups) and both
  membership outcomes (shrink onto the survivors, promote a cold
  spare) — and still returns the networkx/scipy-verified answer;
* an unprotected run fails loudly with ``UnrecoverableLossError`` —
  never a hang, never a silently wrong result;
* protection has a price: redundancy adds modeled time to every
  solve, and a survived loss adds more on top.

Every recovery action is counted, and the counters replay exactly: the
golden file's recovery scenarios (``test_perf_golden``) pin them bit
for bit, e.g. ``cc-FI!chaos+buddy`` for CC under the chaos plan.
"""

from __future__ import annotations

import functools

import numpy as np
import networkx as nx
import pytest

from repro import (
    FaultPlan,
    NodeLossEvent,
    RedundancyConfig,
    UnrecoverableLossError,
    connected_components,
    minimum_spanning_forest,
    random_graph,
    with_random_weights,
)
from repro.algorithms import REGISTRY
from repro.core import cluster_for_input
from repro.errors import ConfigError
from repro.graph import EdgeList, generate
from repro.mst.verify import msf_reference
from repro.resilience import ResilientSession
from tests.fault_plans import REPLICA_PLAN
from repro.runtime.machine import hps_cluster
from tests.oracles import to_networkx


def cc_oracle(graph: EdgeList) -> np.ndarray:
    labels = np.arange(graph.n, dtype=np.int64)
    for comp in nx.connected_components(to_networkx(graph)):
        root = min(comp)
        for vtx in comp:
            labels[vtx] = root
    return labels


MACHINE = hps_cluster(4, 2)
LOSS_PLAN = FaultPlan(seed=3, node_losses=(NodeLossEvent(node=1, at_time=2e-4),))


def _config(mode: str, spares: int) -> RedundancyConfig:
    return RedundancyConfig(mode=mode, group=2, spares=spares)


class TestRedundancyConfig:
    def test_defaults(self):
        cfg = RedundancyConfig()
        assert cfg.mode == "buddy" and cfg.group >= 2 and cfg.spares == 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            RedundancyConfig(mode="raid9")

    def test_rejects_degenerate_parity_group(self):
        with pytest.raises(ConfigError):
            RedundancyConfig(mode="parity", group=1)

    def test_rejects_negative_spares(self):
        with pytest.raises(ConfigError):
            RedundancyConfig(spares=-1)


class TestUnprotectedLoss:
    def test_cc_raises_unrecoverable(self):
        g = random_graph(384, 1536, seed=7)
        with pytest.raises(UnrecoverableLossError, match="no redundancy"):
            connected_components(g, MACHINE, impl="collective", faults=LOSS_PLAN)

    def test_mst_raises_unrecoverable(self):
        gw = with_random_weights(random_graph(384, 1536, seed=7), seed=8)
        with pytest.raises(UnrecoverableLossError):
            minimum_spanning_forest(gw, MACHINE, impl="collective", faults=LOSS_PLAN)

    def test_loss_still_counted(self):
        g = random_graph(384, 1536, seed=7)
        try:
            connected_components(g, MACHINE, impl="collective", faults=LOSS_PLAN)
        except UnrecoverableLossError as err:
            assert "node 1" in str(err)


@pytest.mark.parametrize("mode", ["buddy", "parity"])
@pytest.mark.parametrize("spares", [0, 1], ids=["shrink", "spare"])
class TestRecovery:
    """Both modes x both membership outcomes, for CC, MST, and one LT
    variant — every combination must come back networkx/scipy-exact."""

    def test_cc_survives(self, mode, spares):
        g = random_graph(384, 1536, seed=7)
        res = connected_components(
            g, MACHINE, impl="collective", faults=LOSS_PLAN,
            resilience=_config(mode, spares), validate=True,
        )
        assert np.array_equal(res.labels, cc_oracle(g))
        c = res.info.trace.counters
        assert c.node_losses == 1
        assert c.epoch_changes == 1
        assert c.blocks_reconstructed > 0
        assert c.replicas_written > 0

    def test_mst_survives(self, mode, spares):
        gw = with_random_weights(random_graph(384, 1536, seed=7), seed=8)
        res = minimum_spanning_forest(
            gw, MACHINE, impl="collective", faults=LOSS_PLAN,
            resilience=_config(mode, spares), validate=True,
        )
        assert res.total_weight == msf_reference(gw)[1]
        c = res.info.trace.counters
        assert c.node_losses == 1 and c.epoch_changes == 1

    def test_lt_variant_survives(self, mode, spares):
        g = random_graph(384, 1536, seed=7)
        res = connected_components(
            g, MACHINE, impl="lt-rf", faults=LOSS_PLAN,
            resilience=_config(mode, spares), validate=True,
        )
        assert np.array_equal(res.labels, cc_oracle(g))
        assert res.info.trace.counters.node_losses == 1


class TestUnsupportedImpl:
    def test_resilience_on_sequential_impl_is_rejected(self):
        g = random_graph(100, 300, seed=1)
        with pytest.raises(ConfigError):
            connected_components(
                g, MACHINE, impl="naive", resilience=RedundancyConfig()
            )


ECONOMICS_N = 2000
ECONOMICS_MACHINE = cluster_for_input(ECONOMICS_N, 4, 2)
ECONOMICS_LOSS = FaultPlan(seed=7, node_losses=(NodeLossEvent(node=1, at_time=3e-4),))


@functools.lru_cache(maxsize=None)
def _economics_input(problem: str):
    g = generate("random", ECONOMICS_N, 4 * ECONOMICS_N, seed=33)
    if problem == "cc":
        return g, connected_components
    return with_random_weights(g, seed=34), minimum_spanning_forest


@functools.lru_cache(maxsize=None)
def _unprotected(problem: str):
    graph, solve = _economics_input(problem)
    return solve(graph, ECONOMICS_MACHINE, impl="collective", validate=True).info


@pytest.mark.parametrize("mode", ["buddy", "parity"])
@pytest.mark.parametrize("problem", ["cc", "mst"])
def test_redundancy_costs_a_premium_and_a_loss_costs_more(problem, mode):
    """The economics of protection: redundancy charges every round (its
    replica traffic is real communication, on top of the checkpoint it
    turns on), and a survived node loss costs more on top
    (reconstruction and replay are not free), while both runs still
    verify."""
    graph, solve = _economics_input(problem)
    config = RedundancyConfig(mode=mode, group=2)
    quiet = solve(
        graph, ECONOMICS_MACHINE, impl="collective", resilience=config, validate=True
    ).info
    lossy = solve(
        graph, ECONOMICS_MACHINE, impl="collective", faults=ECONOMICS_LOSS,
        resilience=config, validate=True,
    ).info
    base = _unprotected(problem)
    assert quiet.sim_time / base.sim_time > 1.0
    comm = quiet.trace.category_seconds["Comm"] - base.trace.category_seconds["Comm"]
    assert comm > 0.0, "replica traffic added no communication time"
    assert lossy.sim_time - quiet.sim_time > 0.0
    c = lossy.trace.counters
    assert c.replicas_written > 0
    assert c.node_losses == 1 and c.epoch_changes == 1
    assert c.blocks_reconstructed > 0


RECOVERY_SPECS = [spec for spec in REGISTRY.values() if spec.supports_recovery]


@pytest.mark.parametrize("mode", ["buddy", "parity"])
@pytest.mark.parametrize("faults", [None, REPLICA_PLAN], ids=["clean", "chaos"])
@pytest.mark.parametrize(
    "spec", RECOVERY_SPECS, ids=[f"{s.kind}-{s.name}" for s in RECOVERY_SPECS]
)
def test_replicas_complete_after_every_commit(spec, faults, mode, monkeypatch):
    """After every commit each enrolled array's committed state equals
    its live data: no store the round made was left unshipped.  SetD and
    SetDMin stores are not marked for the commit, so this holds only
    while every round then rewrites the labels in full."""
    commits = []
    real_commit = ResilientSession.commit_round

    def checked_commit(session):
        real_commit(session)
        for rec in session._order:
            np.testing.assert_array_equal(rec.committed, rec.arr.data, err_msg=rec.name)
        commits.append(len(session._order))

    monkeypatch.setattr(ResilientSession, "commit_round", checked_commit)
    g = random_graph(384, 1536, seed=7)
    solve = connected_components
    if spec.kind == "mst":
        g, solve = with_random_weights(g, seed=8), minimum_spanning_forest
    res = solve(
        g, MACHINE, impl=spec.name, faults=faults, integrity=None if faults is None else True,
        resilience=_config(mode, 0), validate=True,
    )
    assert commits and all(commits)
    if faults is not None:
        c = res.info.trace.counters
        assert c.crashes == c.node_losses == 1 and c.corruptions_injected > 0
