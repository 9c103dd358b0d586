"""Wall-clock performance engine (simulator speed, not modeled speed).

Everything in this package makes the *simulator* faster while leaving
the *simulation* untouched: modeled times, category breakdowns,
counters, and algorithm results are pinned bit-for-bit by
``tests/golden/fingerprints.json`` (see :mod:`repro.perf.golden` for
the contract and ``docs/performance.md`` for the inventory).

* :mod:`~repro.perf.arena` — pooled scratch buffers for hot loops;
* :mod:`~repro.perf.derived` — memoized pure derived artifacts
  (schedules, level splits, t' grids, distribution offsets);
* :mod:`~repro.perf.fanout` — deterministic process-pool fan-out for
  soak iterations, tuner probes, and benchmark grids;
* :mod:`~repro.perf.golden` — pinned-scenario fingerprints and the
  writer of the golden file.
"""

from .arena import BufferArena, global_arena
from .derived import clear_derived_caches, derived_cache_stats
from .fanout import available_cpus, fanout_map, resolve_workers

__all__ = [
    "BufferArena",
    "global_arena",
    "clear_derived_caches",
    "derived_cache_stats",
    "available_cpus",
    "fanout_map",
    "resolve_workers",
]
