"""Tests for the Liu–Tarjan lattice (repro.lt) and the algorithm
registry (repro.algorithms).

The acceptance bar for every one of the twelve variants: labels
identical to the networkx oracle across the random / hybrid / grid /
powerlaw families, including with fault injection, integrity
protection, and the race detector all enabled at once — the variants
are phase compositions over the shared collectives, so they must
inherit the whole runtime story, not just the happy path.
"""

import networkx as nx
import numpy as np
import pytest

import repro
from repro import (
    NodeLossEvent,
    RedundancyConfig,
    connected_components,
    hps_cluster,
    hybrid_graph,
    powerlaw_graph,
    random_graph,
)
from repro.algorithms import (
    AlgorithmSpec,
    get_algorithm,
    implementations,
    lt_variant_names,
    register,
)
from repro.cc.collective import solve_cc_collective
from repro.core import CC_IMPLS, OptimizationFlags
from repro.errors import ConfigError
from repro.faults import CrashEvent, FaultPlan
from repro.graph import EdgeList, generate, grid_graph, path_graph
from repro.lt import (
    ALL_VARIANTS,
    LT_VARIANT_NAMES,
    LTVariant,
    lt_iteration_bound,
    parse_variant,
    solve_cc_lt,
)

MACHINE = hps_cluster(2, 2)

COMPOSED_PLAN = FaultPlan(
    seed=5,
    loss=1e-3,
    crashes=(CrashEvent(thread=3, at_time=5e-3),),
    corruption=0.2,
    payload_corruption=5e-5,
)


def oracle(graph: EdgeList) -> np.ndarray:
    labels = np.arange(graph.n, dtype=np.int64)
    for comp in nx.connected_components(graph.to_networkx()):
        root = min(comp)
        for vtx in comp:
            labels[vtx] = root
    return labels


@pytest.fixture(scope="module", params=["random", "hybrid", "grid", "powerlaw"])
def family_graph(request):
    if request.param == "random":
        return random_graph(500, 1200, seed=7)
    if request.param == "hybrid":
        return hybrid_graph(500, 1500, seed=7)
    if request.param == "grid":
        return grid_graph(20, 25)
    return powerlaw_graph(500, 1200, seed=7)


class TestVariantAlgebra:
    def test_twelve_unique_variants(self):
        assert len(ALL_VARIANTS) == 12
        assert len({v.name for v in ALL_VARIANTS}) == 12
        assert LT_VARIANT_NAMES == tuple(v.name for v in ALL_VARIANTS)

    def test_name_encoding(self):
        assert LTVariant("parent", "partial", False).name == "lt-ps"
        assert LTVariant("extended", "full", True).name == "lt-efa"
        assert LTVariant("root", "full", False).name == "lt-rf"

    def test_parse_round_trip(self):
        for variant in ALL_VARIANTS:
            assert parse_variant(variant.name) == variant
            assert parse_variant(variant) is variant

    def test_parse_accepts_bare_suffix(self):
        assert parse_variant("rfa") == parse_variant("lt-rfa")

    def test_parse_rejects_junk(self):
        for junk in ("lt-", "lt-x", "lt-pfx", "boruvka", ""):
            with pytest.raises(ConfigError):
                parse_variant(junk)

    def test_describe_names_the_axes(self):
        text = ALL_VARIANTS[0].describe()
        assert "connect" in text and "shortcut" in text


class TestOracleCorrectness:
    @pytest.mark.parametrize("name", LT_VARIANT_NAMES)
    def test_every_variant_every_family(self, name, family_graph):
        res = connected_components(family_graph, MACHINE, impl=name)
        assert np.array_equal(res.labels, oracle(family_graph))

    @pytest.mark.parametrize("name", ["lt-ps", "lt-efa", "lt-rf"])
    def test_flags_off_and_virtual_threads(self, name):
        g = random_graph(300, 900, seed=11)
        want = oracle(g)
        off = connected_components(
            g, MACHINE, impl=name, opts=repro.OptimizationFlags.none()
        )
        vt = connected_components(g, MACHINE, impl=name, tprime=4)
        assert np.array_equal(off.labels, want)
        assert np.array_equal(vt.labels, want)

    def test_empty_graph(self):
        res = solve_cc_lt(EdgeList(0, np.empty(0, np.int64), np.empty(0, np.int64)))
        assert res.labels.size == 0

    def test_isolated_vertices(self):
        g = EdgeList(5, np.empty(0, np.int64), np.empty(0, np.int64))
        res = connected_components(g, MACHINE, impl="lt-pf")
        assert np.array_equal(res.labels, np.arange(5))


class TestFaultsIntegrityAnalyze:
    @pytest.mark.parametrize("name", LT_VARIANT_NAMES)
    def test_composed_faults_with_integrity(self, name):
        g = random_graph(800, 3200, seed=3)
        res = connected_components(
            g, hps_cluster(4, 2), impl=name,
            faults=COMPOSED_PLAN, integrity=True, validate=True,
        )
        assert np.array_equal(res.labels, oracle(g))
        c = res.info.trace.counters
        assert c.corruptions_detected == c.corruptions_injected
        assert c.checkpoint_restores == c.crashes + c.repairs

    def test_race_detector_clean_under_protection(self):
        g = random_graph(600, 2400, seed=9)
        plan = FaultPlan(seed=5, corruption=0.2, payload_corruption=5e-5)
        plain = connected_components(
            g, hps_cluster(4, 2), impl="lt-rfa", faults=plan, integrity=True
        )
        with repro.analyzed() as session:
            watched = connected_components(
                g, hps_cluster(4, 2), impl="lt-rfa", faults=plan, integrity=True
            )
        assert not session.has_races
        np.testing.assert_array_equal(plain.labels, watched.labels)
        assert (
            plain.info.trace.counters.as_dict() == watched.info.trace.counters.as_dict()
        )

    def test_integrity_alone_has_no_effect_on_labels(self):
        g = hybrid_graph(400, 1600, seed=2)
        bare = connected_components(g, MACHINE, impl="lt-es")
        protected = connected_components(g, MACHINE, impl="lt-es", integrity=True)
        np.testing.assert_array_equal(bare.labels, protected.labels)


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        g = powerlaw_graph(400, 1200, seed=5)
        a = connected_components(g, MACHINE, impl="lt-esa")
        b = connected_components(g, MACHINE, impl="lt-esa")
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.info.sim_time_ms == b.info.sim_time_ms

    def test_machine_shape_independence(self):
        g = random_graph(300, 900, seed=13)
        small = connected_components(g, hps_cluster(2, 2), impl="lt-rf")
        large = connected_components(g, hps_cluster(4, 4), impl="lt-rf")
        np.testing.assert_array_equal(small.labels, large.labels)


class TestIterationBound:
    def test_generous_and_monotone(self):
        assert lt_iteration_bound(2) >= 8
        bounds = [lt_iteration_bound(n) for n in (2, 64, 4096, 1 << 20)]
        assert bounds == sorted(bounds)

    def test_deep_path_converges_with_partial_shortcut(self):
        # The worst-case member of the lattice on the worst-case input:
        # one d <- d[d] halving per round, against a 513-deep path.
        g = path_graph(513)
        res = connected_components(g, MACHINE, impl="lt-ps")
        assert np.array_equal(res.labels, np.zeros(513, dtype=np.int64))
        assert res.info.iterations <= lt_iteration_bound(513)


class TestRegistry:
    def test_lt_variants_are_registered(self):
        assert set(LT_VARIANT_NAMES) <= set(implementations("cc"))
        assert lt_variant_names() == LT_VARIANT_NAMES
        assert set(LT_VARIANT_NAMES) <= set(CC_IMPLS)

    def test_unknown_impl_names_the_valid_set(self):
        with pytest.raises(ConfigError, match="lt-rf"):
            get_algorithm("cc", "nope")

    def test_duplicate_registration_rejected(self):
        spec = get_algorithm("cc", "lt-ps")
        with pytest.raises(ConfigError):
            register(spec)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            AlgorithmSpec(name="x", kind="sssp", description="", solve=lambda *a: None)

    def test_capability_gates_in_pipeline(self):
        g = random_graph(64, 128, seed=0)
        with pytest.raises(ConfigError, match="fault injection"):
            connected_components(g, MACHINE, impl="cgm", faults=FaultPlan(seed=1, loss=1e-3))
        with pytest.raises(ConfigError, match="integrity"):
            connected_components(g, MACHINE, impl="cgm", integrity=True)


class TestCollectiveIsRootFull:
    """The paper's CC (``collective``) is the lattice's root/full point:
    same labels, rounds, counters and modeled time as ``lt-rf``, with and
    without faults, as long as no integrity monitor checks either one's
    own invariants."""

    @staticmethod
    def _same(graph, machine, **kw):
        cc = solve_cc_collective(graph, machine, **kw)
        lt = solve_cc_lt(graph, machine, variant="lt-rf", **kw)
        assert np.array_equal(cc.labels, lt.labels)
        assert cc.info.iterations == lt.info.iterations
        assert cc.info.trace.counters.as_dict() == lt.info.trace.counters.as_dict()
        assert cc.info.sim_time.hex() == lt.info.sim_time.hex()
        return cc.info.trace.counters

    @pytest.mark.parametrize("shape", [(4, 2), (1, 8), (8, 1)])
    @pytest.mark.parametrize("family", ["random", "hybrid", "powerlaw"])
    def test_fault_free_grid(self, family, shape):
        graph = generate(family, 300, 900, seed=3)
        machine = hps_cluster(*shape)
        for opts in (OptimizationFlags.all(), OptimizationFlags.none()):
            for tprime in (1, 2):
                self._same(graph, machine, opts=opts, tprime=tprime)

    def test_fault_plans(self):
        graph = random_graph(400, 1200, seed=4)
        machine = hps_cluster(4, 2)
        assert self._same(graph, machine, faults=FaultPlan(seed=1, loss=1e-2)).retries > 0
        self._same(graph, machine, faults=FaultPlan(seed=2, stragglers={1: 4.0, 6: 2.0}))
        crashed = self._same(
            graph, machine,
            faults=FaultPlan(seed=3, crashes=(CrashEvent(thread=5, at_time=2e-4),)),
        )
        assert crashed.crashes == crashed.checkpoint_restores == 1
        lost = self._same(
            graph, machine,
            faults=FaultPlan(seed=4, node_losses=(NodeLossEvent(node=1, at_time=3e-4),)),
            resilience=RedundancyConfig(mode="buddy"),
        )
        assert lost.node_losses == lost.epoch_changes == 1
