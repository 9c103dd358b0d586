"""Order statistics the runner, the comparer and the tests share."""

from __future__ import annotations

import statistics
from typing import List, Mapping, Optional, Sequence

#: Percentiles a report may quote, highest first.
QUOTABLE = (99, 95, 90, 75, 50)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def typical(samples_by_class: Mapping[object, Sequence[float]]) -> float:
    """The typical value over a population of inputs: the median within
    each input class, averaged over the classes.

    A run cycles through inputs whose cost differs in steps (a grafting
    round more or less), so the pooled samples are multimodal and their
    median jumps from one mode to the other with the seed.  The median
    within a class still shrugs off a stalled iteration; the mean across
    classes moves smoothly with the population.
    """
    if not samples_by_class:
        raise ValueError("no samples")
    return statistics.fmean(statistics.median(v) for v in samples_by_class.values())


def highest_supported_percentile(samples: int, beyond: int = 10) -> Optional[int]:
    """The highest quotable percentile that leaves at least ``beyond``
    samples above it; ``None`` when not even the median does."""
    for q in QUOTABLE:
        if samples * (100 - q) / 100.0 >= beyond:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 for fewer than two samples or a zero median)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else 0.0


def worsening(before: float, after: float, better: str) -> float:
    """By what share of ``before`` the metric got worse (negative = better)."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def verdict(
    before: List[float], after: List[float], better: str, bound: float
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric) pair.

    The medians decide, unless the run-to-run spread of either side is
    wider than the bound: then only a clean separation of every run of
    one side from every run of the other decides, and anything else is
    ``unresolved`` — never ``ok``.
    """
    worse_by = worsening(statistics.median(before), statistics.median(after), better)
    if max(quartile_spread(before), quartile_spread(after)) > bound:
        sign = 1 if better == "lower" else -1
        if max(sign * a for a in after) < min(sign * b for b in before):
            return "ok"  # every run of the change reads better than every parent run
        if min(sign * a for a in after) > max(sign * b for b in before) and worse_by > bound:
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "ok"
