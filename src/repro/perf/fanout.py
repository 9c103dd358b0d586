"""Deterministic process-pool fan-out for embarrassingly-parallel runs.

Benchmark scenario grids share one shape: a list of independent work
items, each fully determined by its
arguments (seeds included), whose results are aggregated afterwards.
:func:`fanout_map` runs such a list across a process pool while
preserving the serial contract exactly:

* **deterministic partitioning** — items are dispatched in list order
  and results are reassembled in list order
  (:meth:`~concurrent.futures.Executor.map` semantics), so aggregation
  sees the same sequence regardless of worker count or completion
  order;
* **seed ownership stays with the item** — the fan-out never draws
  random numbers and never mutates the items; every worker recomputes
  exactly what the serial loop would have computed for that item;
* **workers <= 1 short-circuits** to a plain in-process loop (no pool,
  no pickling), which is also the fallback when the platform cannot
  spawn processes.

Because each worker process starts from the module defaults, the fast
engine and its caches behave identically in every worker; modeled
output therefore cannot depend on ``workers``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Sequence, TypeVar

from ..errors import ConfigError, UsageError

__all__ = ["fanout_map", "resolve_workers", "available_cpus"]

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware when available)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers, source: "str | None" = None) -> int:
    """Normalize a worker-count value to a concrete positive count.

    ``None`` means serial (1).  *String* values, as read from the
    ``REPRO_BENCH_WORKERS`` environment variable, are validated
    strictly: ``"auto"`` (one worker per available CPU) or a positive
    integer; anything else (non-integer, zero, negative) raises a clear
    :class:`~repro.errors.UsageError` up front instead of crashing or
    silently misbehaving mid-fanout.  ``source`` names the flag or
    variable the value came from so the error says where to fix it.

    Programmatic *integer* arguments keep the permissive API contract:
    ``0`` means serial, a negative count means auto.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        where = f" (from {source})" if source else ""
        text = workers.strip()
        if text.lower() == "auto":
            return available_cpus()
        try:
            count = int(text)
        except ValueError:
            raise UsageError(
                f"workers must be a positive integer or 'auto'{where}: got {workers!r}"
            ) from None
        if count < 1:
            raise UsageError(
                f"workers must be >= 1 or 'auto'{where}: got {count}"
            )
        return count
    try:
        workers = int(workers)
    except (TypeError, ValueError):
        raise ConfigError(f"workers must be an integer or 'auto': got {workers!r}") from None
    if workers < 0:
        return available_cpus()
    return max(1, workers)


def fanout_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    workers=None,
    chunksize: int = 1,
) -> List[R]:
    """Apply ``fn`` to every item, optionally across a process pool.

    Results come back in item order.  ``fn`` and every item must be
    picklable when ``workers > 1`` (module-level functions and plain
    data — the benchmark workers are written that way).
    """
    items = list(items)
    nworkers = resolve_workers(workers)
    if nworkers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    nworkers = min(nworkers, len(items))
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(fn, items, chunksize=max(1, chunksize)))
    except (OSError, PermissionError):
        # Sandboxes without process spawning fall back to the serial
        # loop — same results, just slower.
        return [fn(item) for item in items]
