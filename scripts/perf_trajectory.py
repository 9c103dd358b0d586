#!/usr/bin/env python
"""One PR's point of the wall-clock trajectory, from two ledger result files.

    python scripts/perf_trajectory.py PARENT.json CHANGE.json kernels. runtime. \\
        > docs/perf-trajectory/pr-N.json

Both inputs are ``benchmarks/ledger/run.py --out`` files (or the same
``runs`` records gathered from alternating single runs); the trailing
arguments are prefixes of the per-layer metrics worth keeping.  A metric
that only one side measured is kept as a one-sided row, ``null`` on the
other side.
"""
import json
import statistics
import sys

README = (
    "Parent commit vs this PR, one row per workload / kind / metric; lives under docs/ because"
    " benchmarks/ledger/ (where baseline.json sits) may not be edited by a PR that claims a"
    " gain. Built by scripts/perf_trajectory.py."
)


def cells(doc, layers):
    out = {}
    for run in doc["runs"]:
        kind = "per_layer" if run["trace"] else "end_to_end"
        for name, cell in run["metrics"].items():
            if kind == "end_to_end" or name.startswith(layers):
                out.setdefault(f"{run['workload']} {kind} {name}", []).append(cell["value"])
    return out


def summary(values):
    """``[median, q1, q3, runs]``, or ``None`` for a side without the metric."""
    if values is None:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [float(f"{x:.6g}") for x in (statistics.median(values), q1, q3)] + [len(values)]


def point(parent_doc, change_doc, layers):
    """The trajectory point as text: the head, then one row per line."""
    parent, change = cells(parent_doc, layers), cells(change_doc, layers)
    seeds = {
        kind: sorted({run["seed"] for run in change_doc["runs"] if run["trace"] == traced})
        for kind, traced in (("end_to_end", 0), ("per_layer", 1))
    }
    head = {"readme": README, "host": change_doc["host"], "seeds": seeds,
            "columns": ["median", "q1", "q3", "runs"]}
    rows = [
        f"  {json.dumps(key)}: "
        f"{json.dumps({'parent': summary(parent.get(key)), 'change': summary(change.get(key))})}"
        for key in sorted(parent.keys() | change.keys())
    ]
    return json.dumps(head, indent=1)[:-2] + ',\n "rows": {\n' + ",\n".join(rows) + "\n }\n}"


def main(parent_path, change_path, *layers):
    parent_doc, change_doc = (json.load(open(path)) for path in (parent_path, change_path))
    print(point(parent_doc, change_doc, layers))


if __name__ == "__main__":
    main(*sys.argv[1:])
