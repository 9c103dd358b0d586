"""``scripts/perf_trajectory.py`` and the points it has written."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
POINTS = sorted((ROOT / "docs" / "perf-trajectory").glob("pr-*.json"))
HEAD = {"readme", "host", "seeds", "columns", "rows"}


def _script():
    spec = importlib.util.spec_from_file_location(
        "perf_trajectory", ROOT / "scripts" / "perf_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, seed, trace, **metrics):
    return {"workload": workload, "seed": seed, "trace": trace,
            "metrics": {name: {"value": value} for name, value in metrics.items()}}


def _is_summary(cell):
    median, q1, q3, runs = cell
    return isinstance(runs, int) and runs > 0 and q1 <= median <= q3


def test_point_from_two_run_files_keeps_one_sided_rows():
    parent = {"host": {"nproc": 2}, "runs": [
        _run("w", 1, 0, latency_p50_s=0.2),
        _run("w", 2, 0, latency_p50_s=0.4),
        _run("w", 0, 1, **{"kernels.old_s": 1.0, "kernels.a_s": 2.0, "solver.x_s": 5.0}),
    ]}
    change = {"host": {"nproc": 4}, "runs": [
        _run("w", 1, 0, latency_p50_s=0.1),
        _run("w", 2, 0, latency_p50_s=0.3),
        _run("w", 0, 1, **{"kernels.a_s": 1.5, "kernels.new_s": 0.25, "solver.x_s": 5.0}),
    ]}
    point = json.loads(_script().point(parent, change, ("kernels.",)))
    assert set(point) == HEAD
    assert point["host"] == {"nproc": 4}
    assert point["seeds"] == {"end_to_end": [1, 2], "per_layer": [0]}
    rows = point["rows"]
    assert sorted(rows) == [
        "w end_to_end latency_p50_s",
        "w per_layer kernels.a_s",
        "w per_layer kernels.new_s",
        "w per_layer kernels.old_s",
    ]
    latency = rows["w end_to_end latency_p50_s"]
    assert latency["parent"][0] == pytest.approx(0.3) and latency["parent"][3] == 2
    assert latency["change"][0] == pytest.approx(0.2) and latency["change"][3] == 2
    assert _is_summary(latency["parent"]) and _is_summary(latency["change"])
    assert rows["w per_layer kernels.a_s"] == {"parent": [2.0, 2.0, 2.0, 1],
                                               "change": [1.5, 1.5, 1.5, 1]}
    assert rows["w per_layer kernels.new_s"] == {"parent": None, "change": [0.25, 0.25, 0.25, 1]}
    assert rows["w per_layer kernels.old_s"] == {"parent": [1.0, 1.0, 1.0, 1], "change": None}


@pytest.mark.parametrize("path", POINTS, ids=lambda p: p.name)
def test_committed_points_share_one_shape(path):
    point = json.loads(path.read_text())
    assert set(point) == HEAD
    assert point["columns"] == ["median", "q1", "q3", "runs"]
    assert set(point["seeds"]) == {"end_to_end", "per_layer"}
    assert point["rows"]
    for key, row in point["rows"].items():
        assert set(row) == {"parent", "change"}, key
        assert _is_summary(row["parent"]) and _is_summary(row["change"]), key
