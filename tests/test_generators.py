"""Tests for the graph generators (repro.graph.generators, rmat)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import GraphError
from repro.graph import (
    FAMILIES,
    MAX_WEIGHT,
    complete_graph,
    cycle_graph,
    disjoint_components_graph,
    empty_graph,
    generate,
    hybrid_graph,
    is_simple,
    path_graph,
    powerlaw_graph,
    random_graph,
    rmat_edges,
    star_graph,
    with_random_weights,
)
from repro.graph.generators import _fresh_first


class TestRandomGraph:
    def test_exact_edge_count(self):
        g = random_graph(100, 300, seed=1)
        assert g.m == 300 and g.n == 100

    def test_simple(self):
        assert is_simple(random_graph(50, 200, seed=2))

    def test_deterministic(self):
        a, b = random_graph(80, 160, seed=3), random_graph(80, 160, seed=3)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_seed_changes_graph(self):
        a, b = random_graph(80, 160, seed=3), random_graph(80, 160, seed=4)
        assert not (np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v))

    def test_zero_edges(self):
        g = random_graph(10, 0)
        assert g.m == 0

    def test_near_complete(self):
        n = 12
        cap = n * (n - 1) // 2
        g = random_graph(n, cap, seed=5)
        assert g.m == cap and is_simple(g)

    def test_too_many_edges_rejected(self):
        with pytest.raises(GraphError):
            random_graph(4, 7)

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            random_graph(-1, 0)
        with pytest.raises(GraphError):
            random_graph(10, -1)

    @given(n=st.integers(2, 60), frac=st.floats(0.0, 0.9), seed=st.integers(0, 5))
    def test_property_simple_and_sized(self, n, frac, seed):
        m = int(frac * n * (n - 1) // 2)
        g = random_graph(n, m, seed)
        assert g.m == m
        assert is_simple(g)


class TestHybridGraph:
    def test_exact_edge_count(self):
        g = hybrid_graph(400, 1600, seed=1)
        assert g.m == 1600

    def test_simple(self):
        assert is_simple(hybrid_graph(300, 900, seed=2))

    def test_deterministic(self):
        a, b = hybrid_graph(300, 900, seed=2), hybrid_graph(300, 900, seed=2)
        assert np.array_equal(a.u, b.u)

    def test_has_hubs(self):
        # O(sqrt(n))-degree vertices, much larger than the random mean.
        n, m = 10_000, 40_000
        g = hybrid_graph(n, m, seed=3)
        mean_degree = 2 * m / n
        assert g.max_degree() > 5 * mean_degree

    def test_random_graph_has_no_such_hubs(self):
        n, m = 10_000, 40_000
        g = random_graph(n, m, seed=3)
        mean_degree = 2 * m / n
        assert g.max_degree() < 5 * mean_degree

    def test_rejects_tiny(self):
        with pytest.raises(GraphError):
            hybrid_graph(3, 2)


class TestPowerlawGraph:
    def test_exact_edge_count_and_simple(self):
        g = powerlaw_graph(400, 1600, seed=1)
        assert g.n == 400 and g.m == 1600
        assert is_simple(g)

    def test_deterministic(self):
        a, b = powerlaw_graph(300, 900, seed=2), powerlaw_graph(300, 900, seed=2)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_seed_changes_graph(self):
        a, b = powerlaw_graph(300, 900, seed=2), powerlaw_graph(300, 900, seed=3)
        assert not (np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v))

    def test_heavier_hubs_than_hybrid(self):
        n, m = 10_000, 40_000
        pl = powerlaw_graph(n, m, seed=3)
        mean_degree = 2 * m / n
        assert pl.max_degree() > 5 * mean_degree
        assert pl.max_degree() > hybrid_graph(n, m, seed=3).max_degree()

    def test_exponent_shapes_the_tail(self):
        n, m = 5_000, 20_000
        heavy = powerlaw_graph(n, m, seed=4, exponent=2.1)
        light = powerlaw_graph(n, m, seed=4, exponent=3.5)
        assert heavy.max_degree() > light.max_degree()

    def test_dense_request_still_exact(self):
        # Hub pairs saturate quickly here; the uniform filler must top
        # the edge list up to exactly m without duplicates.
        n = 40
        m = n * (n - 1) // 2 - 5
        g = powerlaw_graph(n, m, seed=5)
        assert g.m == m and is_simple(g)

    def test_zero_edges(self):
        assert powerlaw_graph(10, 0).m == 0

    def test_invalid_arguments(self):
        with pytest.raises(GraphError):
            powerlaw_graph(-1, 0)
        with pytest.raises(GraphError):
            powerlaw_graph(10, 100)
        with pytest.raises(GraphError):
            powerlaw_graph(10, 5, exponent=1.0)


class TestWeights:
    def test_range(self):
        g = with_random_weights(random_graph(50, 100, 1), seed=2)
        assert g.w.min() >= 0 and g.w.max() < MAX_WEIGHT

    def test_deterministic(self):
        base = random_graph(50, 100, 1)
        a = with_random_weights(base, seed=2)
        b = with_random_weights(base, seed=2)
        assert np.array_equal(a.w, b.w)

    def test_custom_max(self):
        g = with_random_weights(random_graph(50, 100, 1), seed=2, max_weight=3)
        assert set(np.unique(g.w)) <= {0, 1, 2}

    def test_invalid_max(self):
        with pytest.raises(GraphError):
            with_random_weights(random_graph(10, 5, 1), max_weight=0)


class TestGenerate:
    """``generate``: the family lookup and the MST-weights rule, shared by
    the CLI, the service, the bench harness, the soak and the golden runs."""

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_family_and_weights_at_seed_plus_one(self, kind):
        builder = {"random": random_graph, "hybrid": hybrid_graph, "powerlaw": powerlaw_graph}
        plain = builder[kind](300, 900, seed=5)
        g = generate(kind, 300, 900, 5)
        assert g.w is None
        assert np.array_equal(g.u, plain.u) and np.array_equal(g.v, plain.v)
        gw = generate(kind, 300, 900, 5, weighted=True)
        assert np.array_equal(gw.w, with_random_weights(plain, seed=6).w)

    def test_generator_looked_up_at_call_time(self, monkeypatch):
        # A tracer rebinds the generators by name; generate must see it.
        import repro.graph.generators as generators

        calls = []
        real = generators.random_graph
        monkeypatch.setattr(
            generators, "random_graph", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        generate("random", 50, 100, 1)
        assert calls == [(50, 100)]

    def test_unknown_family_rejected(self):
        with pytest.raises(GraphError):
            generate("smallworld", 50, 100, 1)


class TestStructuredGraphs:
    def test_empty(self):
        g = empty_graph(7)
        assert g.n == 7 and g.m == 0

    def test_path(self):
        g = path_graph(5)
        assert g.m == 4
        assert g.degrees().tolist() == [1, 2, 2, 2, 1]

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.m == 6
        assert np.all(g.degrees() == 2)

    def test_star(self):
        g = star_graph(6, center=2)
        assert g.m == 5
        assert g.degrees()[2] == 5

    def test_star_bad_center(self):
        with pytest.raises(GraphError):
            star_graph(5, center=5)

    def test_complete(self):
        g = complete_graph(5)
        assert g.m == 10
        assert np.all(g.degrees() == 4)

    def test_disjoint_components(self):
        from repro.graph import count_components_reference

        g = disjoint_components_graph(4, 10, seed=1)
        assert g.n == 40
        assert count_components_reference(g) == 4

    def test_disjoint_singletons(self):
        g = disjoint_components_graph(3, 1, seed=1)
        assert g.n == 3 and g.m == 0

    def test_structured_bounds(self):
        with pytest.raises(GraphError):
            path_graph(0)
        with pytest.raises(GraphError):
            cycle_graph(2)
        with pytest.raises(GraphError):
            star_graph(1)
        with pytest.raises(GraphError):
            disjoint_components_graph(0, 5)


class TestRmat:
    def test_ranges(self):
        rng = np.random.default_rng(0)
        u, v = rmat_edges(6, 500, rng)
        assert u.min() >= 0 and u.max() < 64
        assert v.min() >= 0 and v.max() < 64

    def test_deterministic_given_rng_state(self):
        u1, v1 = rmat_edges(5, 100, np.random.default_rng(7))
        u2, v2 = rmat_edges(5, 100, np.random.default_rng(7))
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)

    def test_skewed_degrees(self):
        rng = np.random.default_rng(1)
        u, v = rmat_edges(10, 8000, rng)
        deg = np.bincount(u, minlength=1024) + np.bincount(v, minlength=1024)
        # R-MAT concentrates mass: top vertex far above the mean.
        assert deg.max() > 8 * deg.mean()

    def test_zero_edges(self):
        u, v = rmat_edges(4, 0, np.random.default_rng(0))
        assert u.size == 0

    def test_scale_zero_single_vertex(self):
        u, v = rmat_edges(0, 5, np.random.default_rng(0))
        assert np.all(u == 0) and np.all(v == 0)

    def test_bad_probs(self):
        with pytest.raises(GraphError):
            rmat_edges(4, 10, np.random.default_rng(0), probs=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(GraphError):
            rmat_edges(4, 10, np.random.default_rng(0), probs=(-0.1, 0.5, 0.3, 0.3))

    def test_bad_scale(self):
        with pytest.raises(GraphError):
            rmat_edges(-1, 10, np.random.default_rng(0))
        with pytest.raises(GraphError):
            rmat_edges(41, 10, np.random.default_rng(0))


class TestFreshFirst:
    """The rejection loops' dedup-and-membership step equals first
    occurrences within the batch filtered by ``np.isin`` against the
    keys already chosen."""

    @given(
        arrays(np.int64, st.integers(0, 200), elements=st.integers(0, 60)),
        st.lists(st.integers(0, 80), max_size=40, unique=True),
    )
    @example(np.empty(0, dtype=np.int64), [])
    @example(np.empty(0, dtype=np.int64), [3, 1])
    @example(np.array([5, 5, 2, 5], dtype=np.int64), [])
    @example(np.array([5, 5, 2, 5], dtype=np.int64), [5])
    @example(np.array([5, 5, 2, 5], dtype=np.int64), [2, 5])
    def test_equals_unique_then_isin(self, keys, seen):
        keys_seen = np.array(seen, dtype=np.int64)
        first = np.sort(np.unique(keys, return_index=True)[1])
        want = first[~np.isin(keys[first], keys_seen)]
        assert np.array_equal(_fresh_first(keys, keys_seen), want)

    def test_hybrid_fill_sized(self):
        """The hybrid fill's shape at the workload size: about 8 500 core
        keys seen, a batch of 700 000 with a few repeats and hits on the
        core."""
        rng = np.random.default_rng(3)
        keys_seen = np.unique(rng.integers(0, 150_000**2, 8_600))[:8_517]
        keys = rng.integers(0, 150_000**2, 700_000)
        keys[rng.integers(0, keys.size, 40)] = rng.choice(keys_seen, 40)
        keys[rng.integers(0, keys.size, 40)] = keys[rng.integers(0, keys.size, 40)]
        first = np.sort(np.unique(keys, return_index=True)[1])
        want = first[~np.isin(keys[first], keys_seen)]
        assert want.size < keys.size - 40
        assert np.array_equal(_fresh_first(keys, keys_seen), want)
