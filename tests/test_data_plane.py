"""The collective data plane, pinned against naive references.

The data plane adjudicates CRCW writes without sorting, derives one
ascending selection per mask, and packs the SMatrix requester-major.
Each of those is a rewrite of an exact integer/comparison reduction, so
each has an independent reference here: ``np.minimum.at`` (straight
into the array, or into a sentinel buffer) for the adjudication,
``bincount`` offsets for the selection, and plain Python loops for the
pair counts and the interleave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.collectives.base import OffloadResult
from repro.collectives.getd import _pair_masks
from repro.errors import DistributionError
from repro.runtime import hps_cluster
from repro.runtime.partitioned import PartitionedArray
from repro.runtime.shared_array import SharedArray, out_of_range

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
    assert not part.thread_ids().flags.writeable
    assert not part.sizes().flags.writeable
    np.testing.assert_array_equal(part.sizes(), [4, 0, 6])
    # A new partitioning never inherits the old one's vectors.
    kept = part.take_sorted(np.array([0, 5, 9]))
    np.testing.assert_array_equal(kept.sizes(), [1, 0, 2])
    np.testing.assert_array_equal(kept.thread_ids(), [0, 2, 2])


@given(
    total=st.integers(1, 60),
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_offload_expand_refills_dropped_positions(total, seed, density):
    rng = np.random.default_rng(seed)
    kept_mask = rng.random(total) < density
    kept = np.flatnonzero(kept_mask)
    served = rng.integers(1, 100, size=kept.size, dtype=np.int64)
    part = PartitionedArray(np.zeros(kept.size, dtype=np.int64), np.array([0, kept.size]))
    off = OffloadResult(part, np.zeros(kept.size, dtype=np.int64), kept, total - kept.size)
    want = np.full(total, -7, dtype=np.int64)
    want[kept_mask] = served
    np.testing.assert_array_equal(off.expand(served, -7), want)
    untouched = OffloadResult(part, np.zeros(kept.size, dtype=np.int64), None, 0)
    assert untouched.expand(served, -7) is served


# -- all-to-all packing, distinct counts, interleave -------------------------------


class TestPacking:
    @given(
        s=st.sampled_from([1, 3, 8]),
        count=st.sampled_from([0, 1, 50, 600]),
        silent=st.integers(0, 7),
        seed=st.integers(0, 2**16),
    )
    def test_exchange_matrix_matches_double_loop(self, s, count, silent, seed):
        rng = np.random.default_rng(seed)
        # Sorted like a partition's thread ids; `silent` issues no requests.
        requesters = np.sort(rng.integers(0, s, size=count, dtype=np.int64))
        requesters = requesters[requesters != silent % s]
        owners = rng.integers(0, s, size=requesters.size, dtype=np.int64)
        naive = np.zeros((s, s), dtype=np.int64)
        for owner in range(s):
            for requester in range(s):
                naive[owner, requester] = np.count_nonzero(
                    (owners == owner) & (requesters == requester)
                )
        got = np.asarray(backend.exchange_matrix(requesters, owners, s))
        np.testing.assert_array_equal(got, naive)
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
