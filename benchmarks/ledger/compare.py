"""``run.py compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric): both medians over the runs in
each file, the relative change (its base is A's median), the bound from
``BENCHMARK.json``, and a verdict — ``ok``, ``worse``, or ``unresolved``
when the run-to-run spread is wider than the bound (see
:func:`stats.verdict`).  Runs of the same workload and seed that were
traced on both sides must also agree exactly on the modeled time and on
every per-layer count: a change that only speeds the simulator up must
leave them byte-identical.

Exit status is non-zero on any ``worse`` row, on a higher share of
failed operations, and on any count that differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

import stats

EXACT_UNITS = ("count",)
EXACT_NAMES = ("ledger.modeled_ms",)


def _load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def _values(runs: List[dict], trace: int) -> Dict[tuple, List[float]]:
    out: Dict[tuple, List[float]] = {}
    for run in runs:
        if run["trace"] == trace:
            for name, cell in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(cell["value"])
    return out


def _failed_share(runs: List[dict]) -> Dict[str, float]:
    attempted: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    for run in runs:
        attempted[run["workload"]] = attempted.get(run["workload"], 0) + run["attempted"]
        failed[run["workload"]] = failed.get(run["workload"], 0) + run["failed"]
    return {w: failed[w] / attempted[w] for w in attempted if attempted[w]}


def compare_runs(before: List[dict], after: List[dict], spec: dict) -> tuple:
    """(rows, problems): printable rows and the reasons to exit non-zero."""
    rows, problems = [], []
    a_values, b_values = _values(before, 0), _values(after, 0)
    for metric in spec["end_to_end"]:
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            change = (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
            result = stats.verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                f"{workload:<13} {metric['name']:<15} {a_mid:>12.6f} {b_mid:>12.6f} "
                f"{metric['unit']:<6} {100 * change:+7.2f}% of A  bound {100 * metric['bound']:.0f}%"
                f"  spread {100 * stats.quartile_spread(a):.1f}%/{100 * stats.quartile_spread(b):.1f}%"
                f"  {result}"
            )
            if result == "worse":
                problems.append(f"{workload} {metric['name']} is worse")

    a_failed, b_failed = _failed_share(before), _failed_share(after)
    for workload in sorted(set(a_failed) & set(b_failed)):
        if b_failed[workload] > a_failed[workload]:
            problems.append(
                f"{workload}: failed share rose from {a_failed[workload]:.4f}"
                f" to {b_failed[workload]:.4f}"
            )

    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_NAMES}
    a_traced = {(r["workload"], r["seed"]): r for r in before if r["trace"] == 1}
    compared = 0
    for run in after:
        twin = a_traced.get((run["workload"], run["seed"])) if run["trace"] == 1 else None
        if twin is None or twin["seconds"] != run["seconds"]:
            continue
        compared += 1
        for name in sorted(exact):
            a_value = twin["metrics"].get(name, {}).get("value")
            b_value = run["metrics"].get(name, {}).get("value")
            if a_value != b_value:
                problems.append(
                    f"{run['workload']} seed {run['seed']}: {name} differs ({a_value!r} vs {b_value!r})"
                )
    rows.append(f"exact metrics (modeled time, counts): {compared} traced run pair(s) compared")
    return rows, problems


def main(argv: List[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    rows, problems = compare_runs(_load(argv[0]), _load(argv[1]), spec)
    print(f"{'workload':<13} {'metric':<15} {'A median':>12} {'B median':>12}")
    for row in rows:
        print(row)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0
