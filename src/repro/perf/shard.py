"""Intra-run sharding: one solve spread across worker processes.

:mod:`repro.perf.fanout` parallelizes *independent* runs; this module
parallelizes the inside of **one** run.  A :class:`ShardedSession`
backs large :class:`~repro.runtime.shared_array.SharedArray` owner
blocks with real ``multiprocessing.shared_memory`` segments and keeps a
pool of forked workers attached to them; the per-node phases of the
CRCW scatters and the collective gather then execute across the pool —
each worker applies exactly the requests that target the node blocks it
owns — with a real ``multiprocessing.Barrier`` closing every round.
This is the honest next rung of the substitution argument: the
simulated PGAS program's data plane becomes an actual PGAS program
(separate processes, shared segments, owner-computes, barrier).

**Bit-identity.**  Grouped-minima adjudication is per-target, targets
are partitioned disjointly by owner block, and changed counts add
across disjoint target sets — so a sharded ``scatter_min`` /
``scatter_store_min`` / ``gather`` produces byte-identical array
contents and identical return values to the serial kernel, for any
worker count.  Modeled time never enters this module at all: charged
cost, integrity digests, and redundancy replica hooks all operate on
the parent's array object, whose ``.data`` *is* the shared segment.
The golden suite pins both claims (``tests/test_shard.py``).

**Segment lifetime.**  Every segment is created by the parent, attached
by all workers (a barrier round), and then **immediately unlinked** —
the mapping stays alive in every attached process, but the
``/dev/shm`` entry is gone within the same call.  A ``kill -9`` of any
process at any later point therefore cannot leak a segment; normal and
exception exits (``UnrecoverableLossError`` included) additionally
copy adopted arrays back to private heap memory and close all
mappings.  (The workers are forked and share the parent's
``resource_tracker`` process, so the parent's unlink keeps its cache
exact — see :func:`_attach`.)

Dispatch thresholds (``min_array_elems``, ``min_request_elems``) are
pure wall-clock knobs: below them the serial kernel runs instead, and
the result is identical either way.  Hosts that cannot fork (or have
one CPU and an explicit ``workers<=1``) degrade to a no-op session.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing as mp
import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import UsageError
from ..kernels.numpy_backend import group_minima_numpy

__all__ = ["ShardedSession", "current_session", "sharded_session"]

#: /dev/shm name prefix — the lifecycle tests glob for this.
SEGMENT_PREFIX = "repro-shm"

_CURRENT: "ShardedSession | None" = None

#: Platform-native int64 dtype string (scratch segments are keyed by it).
_I8 = np.dtype(np.int64).str

#: Barrier timeout (seconds): a dead worker must surface as an error,
#: never a hang.
_SYNC_TIMEOUT = 120.0


def current_session() -> "ShardedSession | None":
    """The session whose pool covers newly allocated shared arrays, or
    ``None`` — consulted by ``PGASRuntime.shared_array`` (adoption) and
    the ``SharedArray`` scatter/gather hot paths (dispatch)."""
    return _CURRENT


def _attach(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach.

    On Python < 3.13 attaching re-registers the segment with the
    resource tracker (no ``track=False`` yet), but the workers are
    *forked*, so they share the parent's tracker process and its
    name cache is a set: the duplicate registration is a no-op, and
    the parent's immediate ``unlink`` performs the one unregister the
    cache needs.  Unregistering here too would over-remove and make
    the tracker print KeyError noise at exit.
    """
    return shared_memory.SharedMemory(name=name)


def _worker_range(
    rank: int, nworkers: int, size: int, block: int, tpn: int, nodes: int
) -> tuple:
    """Half-open element range owned by ``rank``: a contiguous run of
    whole *node* blocks, so every shared-array index belongs to exactly
    one worker and each worker executes its nodes' phase."""
    node_block = block * tpn
    node_lo = rank * nodes // nworkers
    node_hi = (rank + 1) * nodes // nworkers
    lo = min(node_lo * node_block, size)
    hi = size if node_hi >= nodes else min(node_hi * node_block, size)
    return lo, hi


def _apply_scatter_min(data: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> int:
    """The serial fast-path scatter_min on one worker's block range:
    ``data`` is that slice and ``idx`` is local to it (bit-identical:
    grouping and adjudication are per-target)."""
    if idx.size == 0:
        return 0
    targets, minima = group_minima_numpy(idx, vals)
    before = data[targets]
    new = np.minimum(before, minima)
    changed = int(np.count_nonzero(new != before))
    data[targets] = new
    return changed


def _apply_scatter_store_min(data: np.ndarray, idx: np.ndarray, vals64: np.ndarray) -> int:
    if idx.size == 0:
        return 0
    targets, minima = group_minima_numpy(idx, vals64)
    keep = minima != np.iinfo(np.int64).max
    targets, minima = targets[keep], minima[keep]
    changed = int(np.count_nonzero(data[targets] != minima))
    data[targets] = minima.astype(data.dtype)
    return changed


def _worker_main(rank: int, nworkers: int, pipe, barrier) -> None:
    """Pool worker: attach segments on command, execute its share of
    each scatter/gather round, meet the barrier."""
    arrays = {}  # key -> (view, shm, size, block, tpn, nodes)
    scratch = {}  # (kind, dtype_str) -> (view, shm)
    try:
        while True:
            try:
                cmd = pipe.recv()
            except (EOFError, OSError):
                break
            op = cmd[0]
            if op == "exit":
                break
            if op == "adopt":
                _, key, name, dtype_str, size, block, tpn, nodes = cmd
                shm = _attach(name)
                view = np.ndarray((size,), dtype=np.dtype(dtype_str), buffer=shm.buf)
                arrays[key] = (view, shm, size, block, tpn, nodes)
            elif op == "scratch":
                _, kind, dtype_str, name, cap = cmd
                old = scratch.get((kind, dtype_str))
                shm = _attach(name)
                view = np.ndarray((cap,), dtype=np.dtype(dtype_str), buffer=shm.buf)
                scratch[(kind, dtype_str)] = (view, shm)
                if old is not None:
                    old[1].close()
            elif op in ("scatter_min", "scatter_store_min"):
                _, key, n, val_dtype = cmd
                view, _, size, block, tpn, nodes = arrays[key]
                lo, hi = _worker_range(rank, nworkers, size, block, tpn, nodes)
                idx = scratch[("idx", _I8)][0][:n]
                vals = scratch[("val", val_dtype)][0][:n]
                mine = np.flatnonzero((idx >= lo) & (idx < hi))
                # Owner-computes on the local block: indices relative to
                # this worker's range, so the adjudication scratch is
                # sized by the range, not by the whole array.
                local_idx = idx.take(mine)
                local_idx -= lo
                apply = _apply_scatter_min if op == "scatter_min" else _apply_scatter_store_min
                changed = apply(view[lo:hi], local_idx, vals.take(mine))
                scratch[("res", _I8)][0][rank] = changed
            elif op == "gather":
                _, key, n, out_dtype = cmd
                view, _, size, block, tpn, nodes = arrays[key]
                lo, hi = _worker_range(rank, nworkers, size, block, tpn, nodes)
                idx = scratch[("idx", _I8)][0][:n]
                out = scratch[("out", out_dtype)][0][:n]
                pos = np.flatnonzero((idx >= lo) & (idx < hi))
                out[pos] = view[idx[pos]]
            try:
                barrier.wait(timeout=_SYNC_TIMEOUT)
            except Exception:
                break
    finally:
        for _, shm, *_rest in arrays.values():
            shm.close()
        for _, shm in scratch.values():
            shm.close()


class ShardedSession:
    """Context manager owning one shard pool (see module docstring).

    ``workers`` is the pool width (``<= 1`` or an unforkable platform
    degrades to a transparent no-op).  ``min_array_elems`` gates which
    shared arrays are adopted into shared memory; ``min_request_elems``
    gates which individual scatter/gather calls are worth a pool round
    trip — both are wall-clock knobs with no effect on results.
    """

    def __init__(
        self,
        workers: int,
        *,
        min_array_elems: int = 1 << 14,
        min_request_elems: int = 1 << 12,
    ) -> None:
        workers = int(workers)
        if workers < 0:
            raise UsageError(f"shard worker count must be >= 0, got {workers}")
        self.requested_workers = workers
        self.min_array_elems = int(min_array_elems)
        self.min_request_elems = int(min_request_elems)
        self.note = ""
        self.pool_ops = 0
        self.adopted = 0
        self._procs = []
        self._pipes = []
        self._barrier = None
        self._blocks = {}  # key -> (SharedArray, shm)
        self._key_of = {}  # id(SharedArray) -> key
        self._scratch = {}  # (kind, dtype_str) -> [shm, view, cap]
        self._seq = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._procs) and not self._closed

    @property
    def workers(self) -> int:
        return len(self._procs)

    def __enter__(self) -> "ShardedSession":
        global _CURRENT
        if _CURRENT is not None:
            raise UsageError("sharded sessions do not nest")
        if self.requested_workers >= 2:
            self._spawn()
        else:
            self.note = "workers<=1: sharding disabled, serial kernels"
        _CURRENT = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _CURRENT
        if _CURRENT is self:
            _CURRENT = None
        self.shutdown()

    def _spawn(self) -> None:
        try:
            ctx = mp.get_context("fork")
            # The resource tracker must exist *before* the fork: fork-mode
            # semaphores/pipes never start it, so without this the first
            # SharedMemory would be created after the workers exist and each
            # worker's attach would lazily spawn a private tracker whose
            # registrations the parent's unlink can never balance.
            resource_tracker.ensure_running()
            self._barrier = ctx.Barrier(self.requested_workers + 1)
            for rank in range(self.requested_workers):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(rank, self.requested_workers, recv, self._barrier),
                    daemon=True,
                )
                proc.start()
                recv.close()
                self._procs.append(proc)
                self._pipes.append(send)
            # Per-op changed-count slots, one per worker (created once).
            self._ensure_scratch("res", np.dtype(np.int64), self.requested_workers)
        except (OSError, ValueError, PermissionError) as exc:
            self.note = f"shard pool unavailable ({exc}); serial kernels"
            self._teardown_procs()

    def shutdown(self) -> None:
        """Detach every adopted array (copy back to private memory),
        close all mappings, and stop the pool.  Safe to call twice; runs
        on normal exit, on any exception (``UnrecoverableLossError``
        included), and from the atexit net."""
        if self._closed:
            return
        self._closed = True
        for arr, _shm in self._blocks.values():
            arr.data = np.array(arr.data, copy=True)
        for pipe in self._pipes:
            with contextlib.suppress(OSError, ValueError):
                pipe.send(("exit",))
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
        for pipe in self._pipes:
            with contextlib.suppress(OSError):
                pipe.close()
        for _arr, shm in self._blocks.values():
            with contextlib.suppress(BufferError, OSError):
                shm.close()
        for rec in self._scratch.values():
            rec[1] = None
            with contextlib.suppress(BufferError, OSError):
                rec[0].close()
        self._blocks.clear()
        self._key_of.clear()
        self._scratch.clear()
        self._teardown_procs()

    def _teardown_procs(self) -> None:
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._procs = []
        self._pipes = []
        self._barrier = None

    # -- segment plumbing --------------------------------------------------

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{self._seq}"
        self._seq += 1
        return shared_memory.SharedMemory(name=name, create=True, size=max(int(nbytes), 1))

    def _broadcast(self, cmd) -> None:
        for pipe in self._pipes:
            pipe.send(cmd)
        self._barrier.wait(timeout=_SYNC_TIMEOUT)

    def _ensure_scratch(self, kind: str, dtype: np.dtype, n: int) -> np.ndarray:
        slot = (kind, dtype.str)
        rec = self._scratch.get(slot)
        if rec is None or rec[2] < n:
            cap = max(1024, 1 << (max(int(n), 1) - 1).bit_length())
            shm = self._new_segment(cap * dtype.itemsize)
            try:
                # Workers attach (and drop any smaller predecessor)
                # before the barrier releases us to unlink.
                self._broadcast(("scratch", kind, dtype.str, shm.name, cap))
            finally:
                shm.unlink()
            if rec is not None:
                rec[1] = None
                with contextlib.suppress(BufferError, OSError):
                    rec[0].close()
            rec = [shm, np.ndarray((cap,), dtype=dtype, buffer=shm.buf), cap]
            self._scratch[slot] = rec
        return rec[1]

    # -- adoption ----------------------------------------------------------

    def adopt(self, arr) -> bool:
        """Back ``arr``'s storage with a shared segment the pool is
        attached to.  Returns True when adopted; small arrays and
        degraded sessions are left untouched (and report False)."""
        if not self.active or arr.data.shape[0] < self.min_array_elems:
            return False
        if self._key_of.get(id(arr)) is not None:
            return True
        data = arr.data
        shm = self._new_segment(data.nbytes)
        key = self._seq  # unique per session (monotonic)
        try:
            self._broadcast(
                (
                    "adopt",
                    key,
                    shm.name,
                    data.dtype.str,
                    int(data.shape[0]),
                    int(arr.block),
                    int(arr.machine.threads_per_node),
                    int(arr.machine.nodes),
                )
            )
        finally:
            shm.unlink()
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        view[:] = data
        arr.data = view
        self._blocks[key] = (arr, shm)
        self._key_of[id(arr)] = key
        self.adopted += 1
        return True

    def covers(self, arr) -> bool:
        """True when ``arr`` was adopted by this (still active) session."""
        if not self.active:
            return False
        key = self._key_of.get(id(arr))
        return key is not None and self._blocks[key][0] is arr

    # -- sharded operations (return None = caller runs the serial path) ---

    def _request_key(self, arr, n: int):
        if n < self.min_request_elems or not self.covers(arr):
            return None
        return self._key_of[id(arr)]

    def try_scatter_min(self, arr, idx: np.ndarray, vals: np.ndarray):
        """Pool-execute a ``scatter_min``; returns the changed count, or
        ``None`` when the call is below threshold / not covered (the
        serial kernel is bit-identical either way)."""
        vals = np.asarray(vals)
        if vals.dtype != arr.data.dtype or vals.dtype.kind not in "iu":
            return None
        key = self._request_key(arr, idx.size)
        if key is None:
            return None
        n = int(idx.size)
        self._ensure_scratch("idx", np.dtype(np.int64), n)[:n] = idx
        self._ensure_scratch("val", vals.dtype, n)[:n] = vals
        self._broadcast(("scatter_min", key, n, vals.dtype.str))
        self.pool_ops += 1
        res = self._scratch[("res", _I8)][1]
        return int(res[: self.workers].sum())

    def try_scatter_store_min(self, arr, idx: np.ndarray, vals: np.ndarray):
        """Pool-execute a ``scatter_store_min`` (int64 adjudication
        domain, exactly like the serial fast path); ``None`` = run
        serial."""
        key = self._request_key(arr, idx.size)
        if key is None:
            return None
        vals64 = np.asarray(vals).astype(np.int64, copy=False)
        n = int(idx.size)
        self._ensure_scratch("idx", np.dtype(np.int64), n)[:n] = idx
        self._ensure_scratch("val", vals64.dtype, n)[:n] = vals64
        self._broadcast(("scatter_store_min", key, n, vals64.dtype.str))
        self.pool_ops += 1
        res = self._scratch[("res", _I8)][1]
        return int(res[: self.workers].sum())

    def try_gather(self, arr, idx: np.ndarray):
        """Pool-execute a bounds-checked ``gather``; each worker serves
        the requests that hit its node blocks.  ``None`` = run serial."""
        key = self._request_key(arr, idx.size)
        if key is None:
            return None
        n = int(idx.size)
        self._ensure_scratch("idx", np.dtype(np.int64), n)[:n] = idx
        out = self._ensure_scratch("out", arr.data.dtype, n)
        self._broadcast(("gather", key, n, arr.data.dtype.str))
        self.pool_ops += 1
        return out[:n].copy()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "requested_workers": self.requested_workers,
            "workers": self.workers,
            "adopted_arrays": self.adopted,
            "pool_ops": self.pool_ops,
            "note": self.note,
        }


def sharded_session(workers, **kwargs):
    """``ShardedSession`` when ``workers >= 2``, else a no-op context —
    the CLI's ``--shard-workers`` plumbs straight through this."""
    if int(workers) >= 2:
        return ShardedSession(int(workers), **kwargs)
    return contextlib.nullcontext(None)


@atexit.register
def _shutdown_current() -> None:  # pragma: no cover - interpreter exit
    if _CURRENT is not None:
        _CURRENT.shutdown()
