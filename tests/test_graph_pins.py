"""Byte pins of the generated inputs.

Every modeled time, golden fingerprint and ledger count is a function of
the generated graphs, so a change to how the generators sample or
deduplicate edges must leave their bytes alone.  Each case hashes the
endpoint arrays (dtype and bytes) and, where present, the weights; the
digests were recorded before the generators' dedup was rewritten and
must reproduce exactly.

Cases: the three families at the benchmark workloads' sizes (150 000 /
600 000, 28 000 / 280 000, 20 000 / 80 000) and at 2048 / 8192, a random
input near capacity (many rejection rounds), a powerlaw input whose stub
sampling saturates into the uniform filler, and the two dedup transforms
of ``EdgeList`` on a list with parallel edges and weight ties.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph import EdgeList, generate, powerlaw_graph, random_graph


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _graph_digest(g: EdgeList) -> str:
    return _digest(g.u, g.v) if g.w is None else _digest(g.u, g.v, g.w)


FAMILY_PINS = {
    ("random", 150_000, 600_000): (
        "21b6ee4c1f8fb5263fef3a5e9c76c70f95ac927dcd9e702f72ae89b83b40df81"
    ),
    ("random", 28_000, 280_000): (
        "bef1ad3b1f9a1af1ec4bc261146d9dc82bb9d3fae877f8feed9ccaef91817e88"
    ),
    ("random", 20_000, 80_000): (
        "e42ab6f40bbb9df6523bf1db74a1705d61d1f6cbe2cace098331d05c0f522969"
    ),
    ("random", 2048, 8192): (
        "65b9c20eba7540c8f1b234ddf9d1a22a020a349c54cf10ad9494cbe2d6d56459"
    ),
    ("hybrid", 150_000, 600_000): (
        "7149b05e8318c0fa52469d3d42985ddac8ef9c6214b6f52f76af892717dfb61b"
    ),
    ("hybrid", 28_000, 280_000): (
        "3052dc3d9a1bfd47f87b37b1c99dd363a27cd26057c93653aa005d78d4392237"
    ),
    ("hybrid", 20_000, 80_000): (
        "9872c8eb1f0a465d0101374dd6802972c15664362297b0c76e7c6b67af4bd15f"
    ),
    ("hybrid", 2048, 8192): (
        "9583e453aee0072a9af81645d1ad0359a0b10666c1da2273a41a1af3159dc851"
    ),
    ("powerlaw", 150_000, 600_000): (
        "5c610dee5d215485202ca3cd823d6b2a7a16f42c9755dd8c7e0e903cedb286e7"
    ),
    ("powerlaw", 28_000, 280_000): (
        "376447ac307ba2151f240d53f12ab3d492b308a27d3b2ab17e33869506134f6d"
    ),
    ("powerlaw", 20_000, 80_000): (
        "6b831f9e6bd5e0dca0701c3b44cdc615cbee677ef48e230ebe2602016bae4371"
    ),
    ("powerlaw", 2048, 8192): (
        "27c193e69df8d3d6b5cfc581a3dcb50fcf98e06eaa80bf040194a9b273e1e8fd"
    ),
}


@pytest.mark.parametrize(
    "kind,n,m", list(FAMILY_PINS), ids=[f"{k}-{n}-{m}" for k, n, m in FAMILY_PINS]
)
def test_family_bytes_pinned(kind, n, m):
    g = generate(kind, n, m, seed=0, weighted=True)
    assert g.m == m
    assert _graph_digest(g) == FAMILY_PINS[kind, n, m]


EDGE_CASE_PINS = {
    # 4900 of 4950 possible edges: ~18 rejection rounds.
    "random-near-capacity": (
        lambda: random_graph(100, 4900, seed=0),
        "117775c1421e6a975a996a4e3953c248df01cd3342e620b6b0cd57b6a0f0fff3",
    ),
    # Every possible edge: the last rounds find one or two fresh keys.
    "random-complete": (
        lambda: random_graph(100, 4950, seed=0),
        "adc4dd48ba506d745b5e3b7d99d629aaecf2d890e0fa0112e3df01c41f67f91c",
    ),
    # Stub weights rank**-5 run dry after 16 edges; the filler adds 4984.
    "powerlaw-saturated": (
        lambda: powerlaw_graph(1000, 5000, seed=5, exponent=1.2),
        "37350ef9336e9a34d7df4a9794fecf6eb3e02961eddad3193829b69d4b3c9114",
    ),
    # Many stub rounds that each find a few fresh hub pairs.
    "powerlaw-many-rounds": (
        lambda: powerlaw_graph(500, 3000, seed=5, exponent=1.5),
        "7aa70d086d0843d1bff7c811e677e64abbefe2e5f74a68ed29a288e041638f10",
    ),
}


@pytest.mark.parametrize("case", list(EDGE_CASE_PINS))
def test_edge_case_bytes_pinned(case):
    make, pin = EDGE_CASE_PINS[case]
    assert _graph_digest(make()) == pin


def _with_duplicates() -> EdgeList:
    """3000 edges on 60 vertices: many parallel edges in both orientations,
    self-loops, and weight ties within a parallel class."""
    rng = np.random.default_rng(2024)
    u = rng.integers(0, 60, 3000)
    v = rng.integers(0, 60, 3000)
    w = rng.integers(0, 8, 3000)
    return EdgeList(60, u, v, w)


DEDUP_PINS = {
    "deduplicated-weighted": "6abe54573baa4382bc472a4585863185cea79efbcbc30f8ff88abc7f25511e70",
    "deduplicated-unweighted": "349daabf72d46455a7bc3669c14dfbdb71c487b0b974369eaac39a9aed4c0e0b",
    "min-index-weighted": "85c5353797044387e125ae872af300af45232005d95faa0e81c9f77784abda43",
    "min-index-unweighted": "e5188d3b893048c190b789dc03eb5d018a5367eba973844e2ab431153e9e03de",
}


@pytest.mark.parametrize("case", list(DEDUP_PINS))
def test_dedup_bytes_pinned(case):
    g = _with_duplicates()
    if case.endswith("unweighted"):
        g = EdgeList(g.n, g.u, g.v)
    if case.startswith("deduplicated"):
        got = _graph_digest(g.deduplicated())
    else:
        got = _digest(g.dedup_min_weight_index())
    assert got == DEDUP_PINS[case]
