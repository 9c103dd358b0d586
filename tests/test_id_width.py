"""Vertex ids are stored at 32 bits below 2**31 vertices, while the cost
model charges every element as one 64-bit word.

Three things are held here: the modeled numbers never read the host
dtype (golden scenarios re-run with ids forced back to int64 still equal
the file), nothing on the data plane silently widens ids again, and the
width boundary sits exactly at ``2**31``.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import hps_cluster, kernels
from repro.cc.collective import solve_cc_collective
from repro.errors import GraphError
from repro.graph.edgelist import EdgeList
from repro.graph.generators import generate
from repro.lt.solver import solve_cc_lt
from repro.mst.collective import solve_mst_collective
from repro.perf.golden import (
    DATA_PLANE_SCENARIOS,
    RECOVERY_SCENARIOS,
    SCENARIOS,
    Scenario,
    scenario_fingerprint,
)
from repro.runtime import ELEM_BYTES, PGASRuntime, SharedArray
from repro.runtime.shared_array import id_dtype, out_of_range

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "fingerprints.json").read_text()
)["fingerprints"]


def _store_ids_wide(patch: pytest.MonkeyPatch) -> None:
    """Make every ``id_dtype`` binding in the package answer int64, the
    storage width before ids were narrowed."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and getattr(module, "id_dtype", None) is id_dtype:
            patch.setattr(module, "id_dtype", lambda n: np.dtype(np.int64))
    assert generate("random", 64, 128, 0).u.dtype == np.int64


# -- modeled bytes never read the host dtype -------------------------------------------

_BY_NAME = {s.name: s for s in SCENARIOS + DATA_PLANE_SCENARIOS}
#: Unfaulted CC and MST, one integrity-only run, and every node-loss
#: recovery (their edge-partition refetch is priced per element).
WIDE_PINNED = [_BY_NAME["cc-plain"], _BY_NAME["mst-plain"], _BY_NAME["cc-I"]] + list(
    RECOVERY_SCENARIOS
)


@pytest.mark.parametrize("scenario", WIDE_PINNED, ids=lambda s: s.name)
def test_int64_storage_reproduces_the_golden_file(monkeypatch, scenario):
    _store_ids_wide(monkeypatch)
    assert scenario_fingerprint(scenario) == GOLDEN[scenario.name]


def test_unfaulted_lattice_solve_is_width_independent(monkeypatch):
    """No golden entry runs an unfaulted Liu–Tarjan variant, so hold
    one against itself at both widths."""
    lt = Scenario(algo="cc", faults=False, analyze=False, integrity=False, impl="lt-ps")
    narrow = scenario_fingerprint(lt)
    _store_ids_wide(monkeypatch)
    assert scenario_fingerprint(lt) == narrow
    assert narrow["result"]["labels"]["dtype"] == "<i8"


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_modeled_word_is_fixed(dtype):
    arr = SharedArray(hps_cluster(2, 2), np.arange(10, dtype=dtype))
    assert arr.nbytes_per_elem == ELEM_BYTES == 8


# -- no silent upcast on the data plane -------------------------------------------------


@pytest.fixture
def kernel_args(monkeypatch):
    """Record the dtypes of the index and value vectors each kernel op
    and each raw gather receives."""
    seen: dict = {"requests": [], "values": []}
    backend = type(kernels.active_backend())

    def spy(name, index_pos, value_pos=None):
        real = getattr(backend, name)

        def wrapped(self, *args, **kwargs):
            seen["requests"].append((name, args[index_pos].dtype))
            if value_pos is not None:
                seen["values"].append((name, args[value_pos].dtype))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(backend, name, wrapped)

    spy("exchange_matrix", 0)
    spy("owner_distinct", 0)
    spy("group_minima", 0, 1)
    real_gather = SharedArray.gather

    def gather(self, indices):
        seen["requests"].append(("gather", indices.dtype))
        return real_gather(self, indices)

    monkeypatch.setattr(SharedArray, "gather", gather)
    real_alloc = PGASRuntime.shared_array

    def shared_array(self, data, block=None, name=None):
        seen.setdefault("arrays", []).append((name, np.asarray(data).dtype))
        return real_alloc(self, data, block, name)

    monkeypatch.setattr(PGASRuntime, "shared_array", shared_array)
    return seen


@pytest.mark.parametrize(
    "solve",
    [
        lambda g, m: solve_cc_collective(g, m),
        lambda g, m: solve_cc_lt(g, m, variant="lt-ps"),
    ],
    ids=["collective", "lt-ps"],
)
def test_cc_requests_proposals_and_labels_stay_int32(kernel_args, solve):
    g = generate("random", 600, 2400, 3)
    res = solve(g, hps_cluster(4, 2))
    assert res.labels.dtype == np.int64
    assert {dt for _, dt in kernel_args["requests"]} == {np.dtype(np.int32)}
    assert {op for op, _ in kernel_args["requests"]} >= {"exchange_matrix", "owner_distinct",
                                                         "group_minima", "gather"}
    assert {dt for _, dt in kernel_args["values"]} == {np.dtype(np.int32)}
    assert [dt for _, dt in kernel_args["arrays"]] == [np.dtype(np.int32)]


def test_mst_requests_and_labels_stay_int32(kernel_args):
    g = generate("random", 600, 2400, 3, weighted=True)
    res = solve_mst_collective(g, hps_cluster(4, 2))
    assert res.labels.dtype == res.edge_ids.dtype == np.int64
    assert {dt for _, dt in kernel_args["requests"]} == {np.dtype(np.int32)}
    # SetDMin's proposals are packed (weight << 32) | position keys.
    assert {dt for _, dt in kernel_args["values"]} == {np.dtype(np.int64)}
    arrays = dict(kernel_args["arrays"])
    assert arrays["mst.d"] == np.int32
    assert arrays["mst.minedge"] == np.int64


# -- the width boundary -----------------------------------------------------------------


def _small_footprint(build):
    """Run ``build`` and return its result, failing if it allocated
    anything like an n-length array."""
    tracemalloc.start()
    try:
        out = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    return out


def test_width_switches_at_two_to_the_31():
    assert id_dtype(2**31 - 1) == np.int32
    assert id_dtype(2**31) == np.int64
    top = 2**31 - 1
    ends = np.array([0, top - 1, 5], dtype=np.int64)
    narrow = _small_footprint(lambda: EdgeList(top, ends, ends[::-1].copy()))
    assert narrow.u.dtype == narrow.v.dtype == np.int32
    assert narrow.u.tolist() == ends.tolist()
    wide_ends = np.array([0, 2**31 - 1, 5], dtype=np.int64)
    wide = _small_footprint(lambda: EdgeList(2**31, wide_ends, wide_ends[::-1].copy()))
    assert wide.u.dtype == wide.v.dtype == np.int64
    assert wide.u.tolist() == wide_ends.tolist()


def test_endpoints_are_range_checked_before_narrowing():
    """A cast first would wrap 2**32 + 1 to 1, inside [0, 10)."""
    with pytest.raises(GraphError, match="out of range"):
        EdgeList(10, np.array([2**32 + 1]), np.array([0]))


@pytest.mark.parametrize("bad", [[-1, 2], [0, 10], [np.iinfo(np.int32).min], [3, 10, 5]])
def test_out_of_range_on_int32(bad):
    assert out_of_range(np.array(bad, dtype=np.int32), 10)


def test_in_range_int32_and_empty():
    assert not out_of_range(np.array([0, 9, 4], dtype=np.int32), 10)
    assert not out_of_range(np.empty(0, dtype=np.int32), 10)
    assert not out_of_range(np.array([np.iinfo(np.int32).max], dtype=np.int32), 2**31)
