"""Memoization of pure derived artifacts (the runtime's plan cache).

The simulator re-derives the same value objects thousands of times per
run: communication schedules (``circular_schedule`` / ``linear_schedule``
orders), Algorithm 1 ``schedule_plan`` level splits, the autotuner's
``t'`` candidate grids, and the even-split offset vectors that define
graph distribution.  All of them are pure functions of small scalar
arguments, so they are cached process-wide here.

Rules (documented in ``docs/performance.md``):

* only *pure* artifacts are memoized — anything derived from request
  data, clocks, RNG streams, or fault state is recomputed every time;
* cached arrays are returned **read-only** (``writeable=False``) so an
  aliasing bug surfaces as an immediate ``ValueError`` instead of silent
  cross-run corruption; callers that need to mutate must copy.

Use :func:`memoized` to register a builder (the uncached builder stays
reachable as ``__wrapped__``); :func:`clear_derived_caches` drops
everything.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List

import numpy as np

__all__ = ["memoized", "clear_derived_caches", "derived_cache_stats", "freeze"]

_REGISTRY: List = []  # the lru-wrapped functions, for clear/stats
_NAMES: Dict[int, str] = {}


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only (cached artifacts must not be mutated)."""
    arr.setflags(write=False)
    return arr


def memoized(maxsize: int = 256, name: str | None = None) -> Callable:
    """Decorator: lru-cache a pure derived-artifact builder and
    register the cache for :func:`clear_derived_caches` and
    :func:`derived_cache_stats`."""

    def deco(fn: Callable) -> Callable:
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        _REGISTRY.append(cached)
        _NAMES[id(cached)] = name or fn.__qualname__
        return cached

    return deco


def clear_derived_caches() -> None:
    """Drop every registered derived-artifact cache."""
    for cached in _REGISTRY:
        cached.cache_clear()


def derived_cache_stats() -> Dict[str, dict]:
    """Hit/miss accounting per registered cache (for the bench report)."""
    stats = {}
    for cached in _REGISTRY:
        info = cached.cache_info()
        stats[_NAMES[id(cached)]] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
        }
    return stats
