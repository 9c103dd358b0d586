"""Calibration probes: measure the live machine, produce a MachineProfile.

The planner could read the :class:`~repro.runtime.machine.MachineConfig`
numbers directly, but that would couple it to the cost model's internal
parameterization — and on a real PGAS system (the DASH/DART line of work
this subsystem follows) those numbers are not declared anywhere, they
must be *measured*.  So the tuner does what a runtime autotuner would
do: it runs a handful of cheap micro-operations through the ordinary
charged runtime paths (fine-grained reads, a coalesced GetD, barriers,
random accesses at growing working sets) and reads the resulting modeled
clocks.  The output is a :class:`MachineProfile` — the empirical facts
the planner's search and the online adapter's thresholds are based on:

* ``fine_access_us``        — cost of one blocking fine-grained access;
* ``coalesced_elem_ns``     — marginal per-element cost inside a
  coalesced collective (the bandwidth term);
* ``coalesced_call_us``     — fixed per-collective overhead (sort +
  all-to-all setup + message latencies + barrier);
* ``cache_crossover_bytes`` — working-set size where random accesses
  start missing the modeled cache (drives ``t'`` selection);
* ``barrier_us`` / ``allreduce_us`` — synchronization costs.

Every probe is deterministic (fixed seeds, fixed sizes, modeled clocks
only), so calibrating the same machine twice yields the identical
profile — a requirement for the byte-identical plan cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from ..collectives.getd import getd
from ..core.optimizations import OptimizationFlags
from ..runtime.machine import MachineConfig
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime

__all__ = [
    "MachineProfile",
    "calibrate_profile",
    "machine_fingerprint",
]

#: Elements each thread requests in the coalesced-transfer probes.
_PROBE_SMALL = 64
_PROBE_LARGE = 1024
#: Fine-grained accesses per thread in the latency probe.
_PROBE_FINE = 32


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable 16-hex-digit digest of every machine parameter.

    Two machines with identical parameter sets (regardless of ``name``)
    fingerprint identically; any parameter change — cache scaling,
    per-call scale, thread count — produces a new key.  This is the
    machine half of the tuning-plan cache key.
    """
    fields = asdict(machine)
    fields.pop("name", None)
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class MachineProfile:
    """Measured machine characteristics (all times are modeled).

    ``coalescing_gain`` is the headline ratio — how many times cheaper
    one element moves inside a coalesced transfer than as its own
    fine-grained message.  It is the measured form of the paper's
    Section III argument for rewriting with collectives, and the
    planner's basis for ranking the fine-grained ``naive`` impl last.
    """

    machine_key: str
    nodes: int
    threads_per_node: int
    fine_access_us: float
    coalesced_elem_ns: float
    coalesced_call_us: float
    cache_bytes: int
    cache_crossover_bytes: int
    barrier_us: float
    allreduce_us: float

    @property
    def total_threads(self) -> int:
        return self.nodes * self.threads_per_node

    @property
    def coalescing_gain(self) -> float:
        """Fine-grained vs coalesced per-element cost ratio (>1 means
        coalescing wins — always, on any realistic machine)."""
        return self.fine_access_us * 1e3 / max(self.coalesced_elem_ns, 1e-9)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MachineProfile":
        return cls(**payload)

    def summary_lines(self) -> list[str]:
        return [
            f"machine key        : {self.machine_key}",
            f"shape              : {self.nodes} node(s) x {self.threads_per_node} thread(s)",
            f"fine-grained access: {self.fine_access_us:.3f} us/elem",
            f"coalesced element  : {self.coalesced_elem_ns:.3f} ns/elem",
            f"coalesced call     : {self.coalesced_call_us:.3f} us/collective",
            f"coalescing gain    : {self.coalescing_gain:.0f}x",
            f"cache              : {self.cache_bytes:,} B"
            f" (random-access crossover ~{self.cache_crossover_bytes:,} B)",
            f"barrier            : {self.barrier_us:.3f} us",
            f"allreduce          : {self.allreduce_us:.3f} us",
        ]


def _spread_requests(rt: PGASRuntime, array_size: int, per_thread: int) -> PartitionedArray:
    """Request buffer where every thread asks for elements spread evenly
    over the whole array — the uniform all-to-all traffic the collective
    probes need (deterministic, no RNG)."""
    total = per_thread * rt.s
    idx = (np.arange(total, dtype=np.int64) * 7919) % array_size
    return PartitionedArray.even(idx, rt.s)


def _probe_fine_access(machine: MachineConfig) -> float:
    """Modeled microseconds of one blocking fine-grained access."""
    rt = PGASRuntime(machine)
    size = max(machine.total_threads * _PROBE_FINE, machine.total_threads)
    arr = rt.shared_array(np.zeros(size, dtype=np.int64))
    start = rt.elapsed
    requests = _spread_requests(rt, size, _PROBE_FINE)
    rt.fine_grained_read(arr, requests)
    per = (rt.elapsed - start) / _PROBE_FINE
    return per * 1e6


def _probe_coalesced(machine: MachineConfig) -> tuple[float, float]:
    """(per-element ns, per-call us) of a coalesced GetD, from a
    two-point fit: run the collective at two request sizes and split the
    modeled time into marginal and fixed parts."""
    times = {}
    for per_thread in (_PROBE_SMALL, _PROBE_LARGE):
        rt = PGASRuntime(machine)
        size = machine.total_threads * _PROBE_LARGE
        arr = rt.shared_array(np.zeros(size, dtype=np.int64))
        start = rt.elapsed
        requests = _spread_requests(rt, size, per_thread)
        getd(rt, arr, requests, OptimizationFlags.all(), tprime=1)
        times[per_thread] = rt.elapsed - start
    span = _PROBE_LARGE - _PROBE_SMALL
    per_elem = (times[_PROBE_LARGE] - times[_PROBE_SMALL]) / span
    per_elem = max(per_elem, 0.0)
    per_call = max(times[_PROBE_SMALL] - per_elem * _PROBE_SMALL, 0.0)
    return per_elem * 1e9, per_call * 1e6


def _probe_cache_crossover(machine: MachineConfig) -> int:
    """Smallest working set (bytes) where random accesses cost more than
    halfway between the all-hit and all-miss regimes, found by bisection
    on measured charges."""
    accesses = 1024.0

    def per_access(ws_bytes: float) -> float:
        rt = PGASRuntime(machine)
        start = rt.elapsed
        rt.local_random_access(accesses, ws_bytes)
        return (rt.elapsed - start) / accesses

    lo = float(machine.cache.line_bytes)
    hi = float(machine.cache.size_bytes) * 64.0
    midpoint = 0.5 * (per_access(lo) + per_access(hi))
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if per_access(mid) < midpoint:
            lo = mid
        else:
            hi = mid
    return int(round(hi))


def _probe_sync(machine: MachineConfig) -> tuple[float, float]:
    """(barrier us, allreduce us), measured on the live runtime."""
    rt = PGASRuntime(machine)
    start = rt.elapsed
    rt.barrier()
    barrier_s = rt.elapsed - start
    start = rt.elapsed
    rt.allreduce_flag(np.zeros(rt.s, dtype=bool))
    allreduce_s = rt.elapsed - start
    return barrier_s * 1e6, allreduce_s * 1e6


def calibrate_profile(machine: MachineConfig) -> MachineProfile:
    """Run all calibration probes against ``machine``.

    Cheap (a few thousand modeled operations, a handful of runtimes) and
    fully deterministic: same machine parameters, same profile.
    """
    fine_us = _probe_fine_access(machine)
    elem_ns, call_us = _probe_coalesced(machine)
    barrier_us, allreduce_us = _probe_sync(machine)
    return MachineProfile(
        machine_key=machine_fingerprint(machine),
        nodes=machine.nodes,
        threads_per_node=machine.threads_per_node,
        fine_access_us=fine_us,
        coalesced_elem_ns=elem_ns,
        coalesced_call_us=call_us,
        cache_bytes=machine.cache.size_bytes,
        cache_crossover_bytes=_probe_cache_crossover(machine),
        barrier_us=barrier_us,
        allreduce_us=allreduce_us,
    )

