"""Virtual-thread simulation (the paper's ``t'`` parameter).

Applying one more recursion level of Algorithm 1 *inside* a node would
need dynamic scheduling of distributed activities, which UPC lacks; the
paper instead has each of the ``t`` physical threads simulate ``t'``
virtual threads: its local ``D`` block is split into ``t'`` sub-blocks,
requests are grouped per sub-block, and each sub-block is served while it
is cache-resident.  Fig. 4 sweeps ``t'`` and finds a U-shaped optimum
(12-18 for the paper's inputs): larger ``t'`` shrinks the working set,
but every extra virtual thread adds grouping work.

:func:`virtual_gather` is the executable primitive (used in tests and in
the ablation bench with the exact cache simulator);
:func:`charge_local_serve` is the cost hook GetD/SetD call to account
for a local serve phase under a given ``t'``, and :func:`serve_times`
its one pricing formula, which a clock-tape replay also evaluates.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import ConfigError
from ..runtime.cost import ELEM_BYTES
from ..runtime.runtime import PGASRuntime
from ..runtime.trace import Category
from .countsort import group_by_key

__all__ = [
    "virtual_gather", "charge_local_serve", "charge_serve", "serve_times", "sub_block_elems",
]


def sub_block_elems(block_elems, tprime: int):
    """Elements per virtual-thread sub-block (scalar or per-thread array)."""
    if tprime < 1:
        raise ConfigError(f"t' must be >= 1, got {tprime}")
    return np.maximum(1.0, np.asarray(block_elems, dtype=np.float64) / tprime)


def virtual_gather(
    local_d: np.ndarray, local_r: np.ndarray, tprime: int
) -> tuple[np.ndarray, np.ndarray]:
    """Serve local requests ``local_d[local_r]`` through ``t'`` virtual
    threads.

    Returns ``(values, access_trace)`` where ``access_trace`` is the
    order in which ``local_d`` indices are actually touched (grouped per
    sub-block) — feed it to :mod:`repro.scheduling.cache_sim` to observe
    the miss reduction.
    """
    local_d = np.asarray(local_d)
    local_r = np.asarray(local_r, dtype=np.int64)
    if tprime < 1:
        raise ConfigError(f"t' must be >= 1, got {tprime}")
    n = local_d.shape[0]
    if local_r.size and (local_r.min() < 0 or local_r.max() >= n):
        raise ConfigError("local request out of range")
    if tprime == 1 or n <= 1:
        return local_d[local_r], local_r.copy()
    w = min(tprime, n)
    blk = -(-n // w)
    perm, _, _ = group_by_key(local_r // blk, w)
    trace = local_r[perm]
    served = local_d[trace]
    out = np.empty_like(served)
    out[perm] = served
    return out, trace


def serve_times(cost, nreq, distinct, ceiling_bytes, passes, bytes_per, deref, tprime):
    """Per-thread ``(grouping, serve)`` seconds of one local serve phase
    under ``t'`` virtual threads — the one formula both a live charge
    (scalar ``tprime``) and a clock-tape replay (a ``(k, 1)`` column of
    ``t'``, every term elementwise) evaluate.

    ``nreq`` requests with ``distinct`` targets are served out of a
    region of ``ceiling_bytes``, visited in ``passes * t'`` block passes;
    ``deref`` adds the UPC shared-pointer dereference every access pays
    when the compiler does not recognize it as local.
    """
    scan = cost.virtual_scan_time(nreq, tprime, bytes_per)
    ws_bytes = cost.distinct_working_set(distinct, ceiling_bytes, passes * tprime)
    serve = cost.gather_time(nreq, distinct, ws_bytes, bytes_per, mlp=cost.GATHER_MLP)
    if deref:
        serve = serve + cost.op_time(nreq * cost.machine.cpu.upc_deref_factor)
    return scan, serve


def charge_serve(
    rt: PGASRuntime, nreq, distinct, ceiling_bytes, passes: int, bytes_per: int,
    deref: bool, tprime: int, category: str,
) -> None:
    """Charge a local serve phase priced by :func:`serve_times`.

    ``tprime > 1`` adds the virtual-thread grouping passes (each
    simulated virtual thread streams the received buffer to pick out its
    sub-block's requests).  A recording
    :class:`~repro.runtime.clocks.ClockTape` keeps the phase's
    ``t'``-free inputs instead of the two charged vectors.
    """
    if tprime < 1:
        raise ConfigError(f"t' must be >= 1, got {tprime}")
    nreq = np.array(nreq, dtype=np.float64)
    price = partial(
        serve_times, rt.cost, nreq, np.array(distinct, dtype=np.float64),
        ceiling_bytes, passes, bytes_per, deref,
    )
    scan, serve = price(tprime)
    # A tape keeps this phase as ``price``, not as the vectors charged here.
    tape, rt.clocks.tape = rt.clocks.tape, None
    try:
        if tprime > 1:
            rt.charge(Category.SORT, scan)
            rt.counters.add(sorted_elements=int(nreq.sum()))
        rt.charge(category, serve)
        rt.counters.add(local_random_accesses=int(nreq.sum()))
    finally:
        rt.clocks.tape = tape
    if tape is not None:
        tape.serve(price)


def charge_local_serve(
    rt: PGASRuntime,
    nreq,
    block_elems,
    tprime: int,
    localcpy: bool,
    category: str = Category.COPY,
    bytes_per: int = ELEM_BYTES,
    distinct=None,
) -> None:
    """Charge the cost of serving ``nreq`` local requests (per-thread
    array) out of blocks of ``block_elems`` elements under ``t'`` virtual
    threads.

    * ``tprime > 1`` adds the virtual-thread grouping passes;
    * the working set shrinks to ``block / t'`` — and, when the
      per-thread ``distinct`` target counts are supplied, to the
      cold-miss bound (duplicated requests hit cache);
    * without ``localcpy``, every access also pays the UPC shared-pointer
      dereference overhead the compiler emits for unrecognized-local
      accesses.
    """
    block_bytes = np.asarray(block_elems, dtype=np.float64) * bytes_per
    charge_serve(
        rt, nreq, nreq if distinct is None else distinct, block_bytes, 1, bytes_per,
        not localcpy, tprime, category,
    )
