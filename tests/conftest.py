"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.graph import (
    EdgeList,
    cycle_graph,
    disjoint_components_graph,
    empty_graph,
    hybrid_graph,
    path_graph,
    random_graph,
    star_graph,
    with_random_weights,
)
from repro.runtime import PGASRuntime, hps_cluster, sequential_machine, smp_node

# Keep hypothesis fast and deterministic in CI.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_cluster():
    """A 2x2 cluster — smallest machine with both node-local and remote
    traffic."""
    return hps_cluster(2, 2)


@pytest.fixture
def small_cluster():
    return hps_cluster(4, 2)


@pytest.fixture
def smp16():
    return smp_node(16)


@pytest.fixture
def seq_machine():
    return sequential_machine()


@pytest.fixture
def runtime(small_cluster) -> PGASRuntime:
    return PGASRuntime(small_cluster)


# -- canonical small graphs ---------------------------------------------------


@pytest.fixture
def g_path():
    return path_graph(40)


@pytest.fixture
def g_random():
    return random_graph(200, 500, seed=7)


@pytest.fixture
def g_hybrid():
    return hybrid_graph(300, 900, seed=3)


@pytest.fixture
def g_blocks():
    return disjoint_components_graph(4, 15, seed=1)


@pytest.fixture
def g_weighted():
    return with_random_weights(random_graph(150, 400, seed=5), seed=9)


def _multigraph() -> EdgeList:
    """80 random edges on vertices 0..33, the first ten again reversed
    (parallel edges), two self-loops on 3, and 34..39 isolated."""
    u, v = np.random.default_rng(6).integers(0, 34, size=(2, 80))
    return EdgeList(40, np.concatenate([u, v[:10], [3, 3]]), np.concatenate([v, u[:10], [3, 3]]))


GRAPH_FAMILY = {
    "empty": lambda: empty_graph(12),
    "single": lambda: empty_graph(1),
    "path": lambda: path_graph(40),
    "cycle": lambda: cycle_graph(25),
    "star": lambda: star_graph(30),
    "blocks": lambda: disjoint_components_graph(4, 12, seed=2),
    "random": lambda: random_graph(200, 500, seed=7),
    "dense": lambda: random_graph(60, 800, seed=8),
    "hybrid": lambda: hybrid_graph(256, 800, seed=3),
    "multigraph": _multigraph,
}


@pytest.fixture(params=sorted(GRAPH_FAMILY))
def any_graph(request):
    """Parametrized over the whole structural graph family."""
    return GRAPH_FAMILY[request.param]()
