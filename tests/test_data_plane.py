"""The collective data plane, pinned against naive references.

The data plane adjudicates CRCW writes without sorting, derives one
ascending selection per mask, packs the SMatrix requester-major, and
treats a collective's request vector as read-only (``offload`` corrects
integer counts instead of compacting).  Each of those is a rewrite of
an exact integer/comparison reduction, so each has an independent
reference here: ``np.minimum.at`` (straight into the array, or into a
sentinel buffer) for the adjudication, ``bincount`` offsets for the
selection, plain Python loops for the pair counts and the interleave,
and the filter -> analyse the copy -> re-inflate formulation of
``GetD`` / ``SetD`` run on a twin runtime.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.cc.common import graft_proposals
from repro.collectives import (
    build_transfer_plan,
    charge_target_ids,
    exchange_counts,
    getd,
    send_matrix,
    setd,
    setdmin,
)
from repro.collectives.getd import (
    _pair_masks,
    charge_permute_back,
    charge_shared_memory_serve,
    charge_sort,
    charge_transfers,
    owner_distinct_counts,
)
from repro.core import OptimizationFlags
from repro.errors import CollectiveError, DistributionError, ReproError
from repro.faults import FaultPlan
from repro.integrity import IntegrityConfig
from repro.integrity.monitor import guard_payload
from repro.runtime import PGASRuntime, hps_cluster
from repro.runtime.partitioned import PartitionedArray
from repro.runtime.shared_array import SharedArray, out_of_range
from repro.runtime.trace import Category
from repro.scheduling.virtual_threads import charge_local_serve

I64_MAX = np.iinfo(np.int64).max
backend = kernels.active_backend()


# -- CRCW adjudication ----------------------------------------------------------


@st.composite
def scatter_requests(draw):
    """(idx, int64 vals): from N >> domain (heavy duplicates) through a
    single element to domain >> N, with proposals at the int64 maximum."""
    domain = draw(st.sampled_from([1, 2, 7, 64, 5000]))
    count = draw(st.sampled_from([1, 3, 40, 900]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, domain, size=count, dtype=np.int64)
    vals = rng.integers(-1000, 1000, size=count, dtype=np.int64)
    vals[rng.random(count) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = I64_MAX
    return idx, vals


def _minimum_at_reference(idx, vals, start):
    best = np.full(int(idx.max()) + 1, start, dtype=vals.dtype)
    with np.errstate(invalid="ignore"):
        np.minimum.at(best, idx, vals)
    targets = np.unique(idx)
    return targets, best[targets]


class TestAdjudication:
    @given(request=scatter_requests())
    def test_group_minima_matches_minimum_at(self, request):
        idx, vals = request
        want_targets, want_minima = _minimum_at_reference(idx, vals, I64_MAX)
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, want_targets)
        np.testing.assert_array_equal(minima, want_minima)
        assert minima.dtype == vals.dtype

    def test_proposal_at_dtype_max_survives(self):
        # Targets come from the presence mask, not from a sentinel.
        idx = np.array([3, 1, 3], dtype=np.int64)
        vals = np.array([I64_MAX, I64_MAX, 5], dtype=np.int64)
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, [1, 3])
        np.testing.assert_array_equal(minima, [I64_MAX, 5])

    @given(
        seed=st.integers(0, 2**16),
        domain=st.sampled_from([1, 5, 300]),
        count=st.sampled_from([1, 12, 400]),
        nan_share=st.sampled_from([0.0, 0.2, 1.0]),
    )
    def test_float_values_propagate_nan_like_minimum_at(
        self, seed, domain, count, nan_share
    ):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, domain, size=count, dtype=np.int64)
        vals = rng.normal(size=count)
        vals[rng.random(count) < nan_share] = np.nan
        want_targets, want_minima = _minimum_at_reference(idx, vals, np.inf)
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, want_targets)
        np.testing.assert_array_equal(minima, want_minima)  # NaN == NaN here


def _reference_scatter(data, idx, vals, store):
    """``scatter_min`` as ``np.minimum.at`` straight into the array;
    ``scatter_store_min`` through a sentinel buffer whose untouched
    slots leave the array alone.  Returns the changed count."""
    before = data.copy()
    if store:
        proposal = np.full(data.size, I64_MAX, dtype=np.int64)
        np.minimum.at(proposal, idx, vals)
        touched = np.flatnonzero(proposal != I64_MAX)
        data[touched] = proposal[touched]
    else:
        np.minimum.at(data, idx, vals)
    return int(np.count_nonzero(data != before))


@given(request=scatter_requests(), store=st.booleans())
def test_scatter_engines_agree(request, store):
    """The sort-free scatters leave the same array and changed count as
    the reference; ``scatter_store_min`` still treats an int64-max
    proposal as absent."""
    idx, vals = request
    rng = np.random.default_rng(int(idx.sum()) % 97)
    start = rng.integers(-500, 500, size=int(idx.max()) + 3, dtype=np.int64)
    arr = SharedArray(hps_cluster(2, 2), start.copy())
    changed = (arr.scatter_store_min if store else arr.scatter_min)(idx, vals)
    want = start.copy()
    assert changed == _reference_scatter(want, idx, vals, store)
    np.testing.assert_array_equal(arr.data, want)
    if store:
        only_max = np.setdiff1d(idx[vals == I64_MAX], idx[vals != I64_MAX])
        np.testing.assert_array_equal(arr.data[only_max], start[only_max])


@pytest.mark.parametrize("bad", [[-1, 2], [0, 10], [np.iinfo(np.int64).min]])
def test_one_unsigned_reduction_catches_both_ends(bad):
    idx = np.array(bad, dtype=np.int64)
    assert out_of_range(idx, 10)
    assert not out_of_range(np.array([0, 9], dtype=np.int64), 10)
    assert not out_of_range(np.empty(0, dtype=np.int64), 10)
    arr = SharedArray(hps_cluster(2, 2), np.arange(10))
    accesses = (
        arr.gather,
        lambda i: arr.scatter_min(i, i),
        lambda i: arr.scatter_store_min(i, i),
    )
    for access in accesses:
        with pytest.raises(DistributionError, match="out of range"):
            access(idx)


# -- selection --------------------------------------------------------------------


@st.composite
def masked_partitions(draw):
    """(PartitionedArray, mask): uneven partitions with empty segments;
    random, all-true and all-false masks."""
    sizes = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5, 17]), min_size=1, max_size=9))
    total = sum(sizes)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    part = PartitionedArray(rng.integers(0, 1000, size=total, dtype=np.int64), offsets)
    density = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return part, rng.random(total) < density


@given(case=masked_partitions())
def test_filter_matches_legacy_bincount_path(case):
    part, mask = case
    fast = part.filter(mask)
    kept_per_thread = np.bincount(part.thread_ids()[mask], minlength=part.parts)
    np.testing.assert_array_equal(fast.offsets, np.concatenate(([0], np.cumsum(kept_per_thread))))
    np.testing.assert_array_equal(fast.data, part.data[mask])
    kept_per_segment = [
        int(mask[part.offsets[i] : part.offsets[i + 1]].sum()) for i in range(part.parts)
    ]
    np.testing.assert_array_equal(fast.sizes(), kept_per_segment)
    np.testing.assert_array_equal(part.segment_counts_where(mask), kept_per_segment)


@given(case=masked_partitions())
def test_one_selection_serves_every_payload_of_a_mask(case):
    part, mask = case
    payload = np.arange(part.total, dtype=np.int64) * 3
    sel = np.flatnonzero(mask)
    lead = part.take_sorted(sel)
    sibling = lead.with_data(payload.take(sel))
    separately = part.with_data(payload).filter(mask)
    np.testing.assert_array_equal(sibling.offsets, separately.offsets)
    np.testing.assert_array_equal(sibling.data, separately.data)
    assert sibling.offsets is lead.offsets


def test_siblings_share_one_layout():
    part = PartitionedArray(np.arange(10), np.array([0, 4, 4, 10]))
    sibling = part.with_data(np.arange(10) * 2)
    assert sibling.thread_ids() is part.thread_ids()
    assert sibling.sizes() is part.sizes()
    assert sibling.requester_base() is part.requester_base()
    np.testing.assert_array_equal(part.requester_base(), part.thread_ids() * part.parts)
    assert not part.thread_ids().flags.writeable
    assert not part.requester_base().flags.writeable
    assert not part.sizes().flags.writeable
    np.testing.assert_array_equal(part.sizes(), [4, 0, 6])
    # A complete ascending selection is the identity: no take, same layout.
    assert part.take_sorted(np.arange(10)) is part
    # A new partitioning never inherits the old one's vectors.
    kept = part.take_sorted(np.array([0, 5, 9]))
    np.testing.assert_array_equal(kept.sizes(), [1, 0, 2])
    np.testing.assert_array_equal(kept.thread_ids(), [0, 2, 2])


# -- read-only requests: offload by correction, not compaction --------------------


def _reference_collective(rt, array, indices, opts, hot, hot_index, values=None, tprime=1):
    """The pre-rewrite collective body: filter the hot requests out,
    analyse and serve the compacted copy, re-inflate (reads) — every
    charge issued from the copy, the SMatrix counted from an owner-id
    vector.  ``values=None`` is GetD with ``hot_value=hot``; otherwise
    SetD with ``drop_hot=hot``."""
    read = values is None
    rt.counters.add(collective_calls=1)
    charge_target_ids(rt, indices, opts)
    owners = array.owner_thread(indices.data)
    req, kept = indices, None
    if opts.offload and indices.total and (hot is not None if read else hot):
        rt.charge(Category.WORK, rt.cost.op_time(indices.sizes().astype(np.float64)))
        sel = np.flatnonzero(indices.data != hot_index)
        if sel.size < indices.total:
            kept, req, owners = sel, indices.take_sorted(sel), owners.take(sel)
            values = values if read else values.take(sel)
    bytes_per = array.nbytes_per_elem
    charge_sort(rt, req.sizes(), opts, "count")
    if rt.machine.nodes == 1:
        charge_shared_memory_serve(rt, array, req.sizes(), req.segment_distinct(), tprime)
    else:
        smat, _pmat = exchange_counts(rt, req, owners, opts.hierarchical)
        serve = dict(
            category=Category.COPY,
            bytes_per=bytes_per,
            distinct=owner_distinct_counts(array, req.data, rt.s),
        )
        local = array.local_sizes().astype(np.float64)
        plan = build_transfer_plan(rt, smat, charge_to_owner=read, hierarchical=opts.hierarchical)
        if read:
            charge_local_serve(rt, smat.sum(axis=1), local, tprime, opts.localcpy, **serve)
            charge_transfers(rt, plan, opts, bytes_per)
        else:
            charge_transfers(rt, plan, opts, 2 * bytes_per)
            charge_local_serve(rt, smat.sum(axis=1), local, tprime, opts.localcpy, **serve)
    if read:
        charge_permute_back(rt, req.sizes(), bytes_per)
    rt.barrier()
    if not read:
        if rt.machine.nodes > 1:
            values = guard_payload(rt, values, req.sizes(), 2 * bytes_per, domain=array.size)
        return array.scatter_min(req.data, values)
    served = array.gather(req.data)
    if rt.machine.nodes > 1:
        served = guard_payload(rt, served, req.sizes(), bytes_per, domain=array.size)
    if kept is None:
        return served
    out = np.full(indices.total, hot, dtype=served.dtype)
    out[kept] = served
    return out


@st.composite
def offload_cases(draw, wire=False):
    """Twin-run inputs: machine shape, array geometry (incl. a custom
    block with ``s * block < size``), a hot index anywhere in the array,
    a request partition with empty segments and a chosen hot share, and
    a wire-fault / checksum setting.  ``wire=True`` narrows to the cases
    where the injector flips records of a buffer that has hot holes."""
    shapes = [(2, 2), (2, 3), (4, 1), (4, 2)]
    nodes, threads = draw(st.sampled_from(shapes if wire else shapes + [(1, 1), (1, 4)]))
    s = nodes * threads
    size = draw(st.sampled_from([9, 64, 257] if wire else [1, 2, 9, 64, 257]))
    block = draw(st.sampled_from([None, None, 1, 3]))
    if block is not None and s * block >= size:
        block = None
    hot_index = draw(st.sampled_from([0, size // 2, size - 1]))
    seg = draw(st.lists(st.sampled_from([0, 0, 1, 4, 23]), min_size=s, max_size=s))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    total = sum(seg)
    data = rng.integers(0, size, size=total, dtype=np.int64)
    share = draw(st.sampled_from(["one", "half"] if wire else ["none", "one", "half", "all"]))
    if share == "none":
        data[data == hot_index] = (hot_index + 1) % size
    elif share == "one" and total:
        data[data == hot_index] = (hot_index + 1) % size
        data[rng.integers(0, total)] = hot_index
    elif share == "half":
        data[rng.random(total) < 0.5] = hot_index
    elif share == "all":
        data[:] = hot_index
    offsets = np.concatenate(([0], np.cumsum(seg))).astype(np.int64)
    flags = draw(st.sampled_from(["offload", "all", "all+hierarchical"] + ["none"] * (not wire)))
    opts = {
        "offload": OptimizationFlags.only("offload"),
        "all": OptimizationFlags.all(),
        "all+hierarchical": OptimizationFlags.all().with_(hierarchical=True),
        "none": OptimizationFlags.none(),
    }[flags]
    return {
        "machine": hps_cluster(nodes, threads),
        "size": size,
        "block": block,
        "hot_index": hot_index,
        "data": data,
        "offsets": offsets,
        "opts": opts,
        "flip_rate": draw(st.sampled_from([0.05, 0.4] if wire else [0.0, 0.0, 0.02, 0.4])),
        "checksums": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**10)),
    }


def _fill(n):
    return np.arange(n, dtype=np.int64) * 3 + 5


def _twin(case):
    plan = FaultPlan(seed=case["seed"], payload_corruption=case["flip_rate"])
    rt = PGASRuntime(
        case["machine"], faults=plan, integrity=IntegrityConfig() if case["checksums"] else None
    )
    array = rt.shared_array(_fill(case["size"]), block=case["block"])
    indices = PartitionedArray(case["data"].copy(), case["offsets"])
    return rt, array, indices


def _outcome(rt, array, call):
    """Everything a collective call leaves behind, bit-comparable."""
    try:
        result = call()
        result = result.tolist() if isinstance(result, np.ndarray) else result
    except ReproError as err:  # a wire leg that fails its checksum 8 times
        result = f"{type(err).__name__}: {err}"
    return {
        "result": result,
        "array": array.data.tolist(),
        "counters": rt.counters.as_dict(),
        "clocks": [t.hex() for t in rt.clocks.times.tolist()],
        "categories": {c: v.hex() for c, v in rt.trace.category_seconds.items()},
    }


@given(case=offload_cases(), tprime=st.sampled_from([1, 3]))
def test_getd_offload_by_correction_equals_compaction(case, tprime):
    """Answers, counters and per-thread clocks (``float.hex``) of the
    read-only GetD equal the compacting formulation's."""
    _assert_getd_twins_agree(case, tprime)


@given(case=offload_cases(wire=True))
def test_getd_wire_flips_skip_the_hot_holes(case):
    """A faulted wire leg sees the kept records only: same RNG draws,
    same flipped records, same injected / detected counts and the same
    delivered buffer as when the hot requests were physically removed."""
    got = _assert_getd_twins_agree(case, 1)
    if not case["checksums"] and got["counters"]["corruptions_injected"]:
        flipped = np.asarray(got["result"]) != _fill(case["size"])[case["data"]]
        assert flipped.any() and not flipped[case["data"] == case["hot_index"]].any()


def _assert_getd_twins_agree(case, tprime):
    hot, opts = case["hot_index"], case["opts"]
    rt, array, indices = _twin(case)
    hot_value = int(array.data[hot])
    got = _outcome(rt, array, lambda: getd(
        rt, array, indices, opts, tprime=tprime, hot_value=hot_value, hot_index=hot
    ))
    np.testing.assert_array_equal(indices.data, case["data"])  # read, not rewritten
    ref_rt, ref_array, ref_indices = _twin(case)
    want = _outcome(ref_rt, ref_array, lambda: _reference_collective(
        ref_rt, ref_array, ref_indices, opts, hot_value, hot, tprime=tprime
    ))
    assert got == want
    return got


@given(case=offload_cases(), drop_hot=st.booleans())
def test_setd_drop_hot_equals_compaction(case, drop_hot):
    values = np.random.default_rng(case["seed"]).integers(0, 80, size=case["data"].size)
    rt, array, indices = _twin(case)
    got = _outcome(rt, array, lambda: setd(
        rt, array, indices, values, case["opts"], drop_hot=drop_hot, hot_index=case["hot_index"]
    ))
    ref_rt, ref_array, ref_indices = _twin(case)
    want = _outcome(ref_rt, ref_array, lambda: _reference_collective(
        ref_rt, ref_array, ref_indices, case["opts"], drop_hot, case["hot_index"], values=values
    ))
    assert got == want
    if drop_hot and case["opts"].offload:
        assert array.data[case["hot_index"]] == _fill(case["size"])[case["hot_index"]]  # dropped


@pytest.mark.parametrize("machine", [hps_cluster(4, 2), hps_cluster(1, 4)], ids=lambda m: m.name)
def test_getd_hands_the_callers_vector_to_every_stage(machine, monkeypatch):
    """No compacted copy: the SMatrix / distinct-count kernels and the
    gather all receive ``indices.data`` itself.  On a cluster no owner-id
    vector and no ``thread_ids()`` is built, by GetD or by SetD: the
    SMatrix kernel takes the targets and the layout's
    ``requester_base()``."""
    seen = {}

    def spy(owner, name, pick):
        real = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            seen.setdefault(name, []).append(pick(args))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(type(backend), "exchange_matrix", lambda args: args[:2])
    spy(type(backend), "owner_distinct", lambda args: args[0])
    spy(type(backend), "segment_distinct", lambda args: args[1])
    spy(SharedArray, "gather", lambda args: args[0])
    spy(SharedArray, "owner_thread", lambda args: args[0])
    spy(PartitionedArray, "thread_ids", lambda args: None)
    rt = PGASRuntime(machine)
    array = rt.shared_array(np.arange(100, dtype=np.int64))
    data = np.random.default_rng(3).integers(0, 100, size=400, dtype=np.int64)
    data[::3] = 0
    indices = PartitionedArray.even(data, rt.s)
    out = getd(rt, array, indices, OptimizationFlags.all(), hot_value=0)
    np.testing.assert_array_equal(out, data)
    if machine.nodes > 1:
        targets, base = seen["exchange_matrix"][0]
        assert targets is indices.data and base is indices.requester_base()
        assert seen["owner_distinct"][0] is indices.data
        # SetD, with and without a hot drop (a compacted layout of its own).
        for drop_hot in (False, True):
            setd(rt, array, indices, data, OptimizationFlags.all(), drop_hot=drop_hot)
        assert len(seen["exchange_matrix"]) == 3
        assert "owner_thread" not in seen and "thread_ids" not in seen
        assert indices._layout.tids is None
    else:
        assert seen["segment_distinct"][0] is indices.data
    assert seen["gather"][0] is indices.data


BAD_REQUESTS = [[-1], [100], [10**9], [3, 100, 5]]


@pytest.mark.parametrize("bad", BAD_REQUESTS, ids=str)
@pytest.mark.parametrize("machine", [hps_cluster(2, 2), hps_cluster(1, 4)], ids=lambda m: m.name)
@pytest.mark.parametrize("collective", [getd, setd, setdmin], ids=lambda f: f.__name__)
def test_out_of_range_request_is_rejected_before_the_first_charge(collective, machine, bad):
    """A ``CollectiveError`` (a ``ReproError``: one line from the CLI),
    not a raw ``IndexError`` two barriers into the call."""
    rt = PGASRuntime(machine)
    array = rt.shared_array(np.arange(100, dtype=np.int64))
    indices = PartitionedArray.even(np.array(bad, dtype=np.int64), rt.s)
    args = () if collective is getd else (np.zeros(len(bad), dtype=np.int64),)
    before = _outcome(rt, array, lambda: None)
    for opts in (OptimizationFlags.none(), OptimizationFlags.all()):
        with pytest.raises(CollectiveError, match="out of range"):
            collective(rt, array, indices, *args, opts)
    assert _outcome(rt, array, lambda: None) == before
    assert rt.counters.barriers == 0


# -- grafting write set -------------------------------------------------------------


def _reference_graft(du, dv, ddu, ddv):
    """The full-length formulation: two ``np.where`` over every edge,
    then two boolean-mask gathers."""
    cond_uv = (du < dv) & (ddv == dv)
    cond_vu = (dv < du) & (ddu == du)
    mask = cond_uv | cond_vu
    return np.where(cond_uv, dv, du)[mask], np.where(cond_uv, du, dv)[mask], mask


@given(
    count=st.sampled_from([0, 1, 7, 200]),
    labels=st.sampled_from([1, 3, 50]),
    seed=st.integers(0, 2**16),
)
def test_graft_proposals_match_the_full_length_formulation(count, labels, seed):
    rng = np.random.default_rng(seed)
    du, dv, ddu, ddv = rng.integers(0, labels, size=(4, count), dtype=np.int64)
    # Make a share of the labels roots, as a real snapshot would (all of
    # them, with distinct endpoints, is the every-edge-proposes case).
    roots = rng.random(count) < rng.choice([0.6, 1.0])
    ddu, ddv = np.where(roots, du, ddu), np.where(roots, dv, ddv)
    targets, values, mask = _reference_graft(du, dv, ddu, ddv)
    step = graft_proposals(du, dv, ddu, ddv)
    np.testing.assert_array_equal(step.sel, np.flatnonzero(mask))
    np.testing.assert_array_equal(step.targets, targets)
    np.testing.assert_array_equal(step.values, values)
    assert step.targets.dtype == du.dtype


# -- all-to-all packing, distinct counts, interleave -------------------------------


class TestPacking:
    @given(
        s=st.sampled_from([1, 3, 8]),
        count=st.sampled_from([0, 1, 50, 600]),
        silent=st.integers(0, 7),
        size=st.integers(1, 200),
        custom_block=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_exchange_matrix_matches_double_loop(
        self, s, count, silent, size, custom_block, seed
    ):
        rng = np.random.default_rng(seed)
        # `custom_block` below the even split leaves overflow on the last
        # thread (the kernel's clamp); the even split needs none.
        block = custom_block or -(-size // s)
        # A partition's requesters are sorted; `silent` issues no requests.
        requesters = np.sort(rng.integers(0, s, size=count, dtype=np.int64))
        requesters = requesters[requesters != silent % s]
        targets = rng.integers(0, size, size=requesters.size, dtype=np.int64)
        owners = np.minimum(targets // block, s - 1)
        naive = np.zeros((s, s), dtype=np.int64)
        for owner in range(s):
            for requester in range(s):
                naive[owner, requester] = np.count_nonzero(
                    (owners == owner) & (requesters == requester)
                )
        offsets = np.concatenate(([0], np.cumsum(np.bincount(requesters, minlength=s))))
        part = PartitionedArray(targets, offsets)
        np.testing.assert_array_equal(part.requester_base(), requesters * s)
        got = np.asarray(backend.exchange_matrix(targets, part.requester_base(), size, block, s))
        np.testing.assert_array_equal(got, naive)
        # send_matrix: owner ids are the targets of a block-1 layout.
        np.testing.assert_array_equal(send_matrix(requesters, owners, s), naive)
        if requesters.size:
            assert not got[:, silent % s].any()

    @given(
        size=st.integers(1, 200),
        s=st.sampled_from([1, 4, 7]),
        custom_block=st.sampled_from([None, 1, 3]),
        count=st.sampled_from([1, 30, 500]),
        seed=st.integers(0, 2**16),
    )
    def test_owner_distinct_matches_unique_per_owner(
        self, size, s, custom_block, count, seed
    ):
        # `custom_block` below the even split leaves overflow on the last thread.
        block = custom_block or -(-size // s)
        idx = np.random.default_rng(seed).integers(0, size, size=count, dtype=np.int64)
        owners = np.minimum(np.unique(idx) // block, s - 1)
        naive = np.bincount(owners, minlength=s)
        np.testing.assert_array_equal(backend.owner_distinct(idx, size, block, s), naive)

    @given(
        sizes=st.lists(
            st.tuples(st.sampled_from([0, 1, 4]), st.sampled_from([0, 2, 3])),
            min_size=1,
            max_size=6,
        )
    )
    def test_concat_segments_matches_per_segment_concatenate(self, sizes):
        a_off = np.concatenate(([0], np.cumsum([a for a, _ in sizes]))).astype(np.int64)
        b_off = np.concatenate(([0], np.cumsum([b for _, b in sizes]))).astype(np.int64)
        a = np.arange(a_off[-1], dtype=np.int64)
        b = -1 - np.arange(b_off[-1], dtype=np.int64)
        offsets = a_off + b_off
        naive = np.concatenate(
            [
                np.concatenate([a[a_off[i] : a_off[i + 1]], b[b_off[i] : b_off[i + 1]]])
                for i in range(len(sizes))
            ]
        )
        got = backend.concat_segments(a, a_off, b, b_off, offsets)
        np.testing.assert_array_equal(got, naive)
        assert got.dtype == np.int64


# -- geometry memoized, not rebuilt ---------------------------------------------------


def test_local_sizes_is_memoized_by_geometry_and_read_only():
    machine = hps_cluster(3, 2)
    first = SharedArray(machine, np.zeros(50)).local_sizes()
    again = SharedArray(machine, np.ones(50)).local_sizes()
    assert again is first and not first.flags.writeable
    np.testing.assert_array_equal(first, [9, 9, 9, 9, 9, 5])
    # A custom block leaves the overflow with the last thread.
    np.testing.assert_array_equal(
        SharedArray(machine, np.zeros(50), block=4).local_sizes(), [4, 4, 4, 4, 4, 30]
    )


def test_pair_masks_partition_the_thread_pairs():
    s, t = 6, 2
    remote, peer, own = _pair_masks(s, t)
    assert _pair_masks(s, t)[0] is remote and not remote.flags.writeable
    for i in range(s):
        for j in range(s):
            same_node = i // t == j // t
            assert remote[i, j] == (not same_node)
            assert peer[i, j] == (same_node and i != j)
            assert own[i, j] == (i == j)
