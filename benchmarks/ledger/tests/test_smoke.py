"""A smoke run of the whole benchmark, checked against ``BENCHMARK.json``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def expected_metrics(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def check_record(record):
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 1
    expected = expected_metrics(record["trace"])
    assert set(record["metrics"]) == set(expected)
    for name, cell in record["metrics"].items():
        assert cell["unit"] == expected[name]
        assert isinstance(cell["value"], (int, float))
    if not record["trace"]:
        assert all(cell["value"] > 0 for cell in record["metrics"].values())


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))


def repo_caches():
    """The caches and result files of the repo's other benches, which
    the ledger must neither read nor write."""
    paths = [ROOT / ".tune_cache.json", *ROOT.glob("BENCH_*.json"), *(ROOT / ".bench_cache").glob("*")]
    return {str(p): p.stat().st_mtime_ns for p in paths if p.exists()}


def test_children_measure_the_defaults(monkeypatch):
    import run

    for name in ("REPRO_PERF_BACKEND", "REPRO_PERF_DISABLE", "REPRO_PERF_WORKERS",
                 "REPRO_BENCH_SCALE", "REPRO_BENCH_CACHE"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("REPRO_TUNE_CACHE", "/somewhere/else.json")
    env = run.child_env(Path("/w"))
    assert not [k for k in env if k.startswith(("REPRO_PERF_", "REPRO_BENCH_"))]
    assert env["REPRO_TUNE_CACHE"] == "/w/tune.json"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_full_smoke_ledger_validates_and_compares_clean_with_itself(tmp_path):
    out = tmp_path / "ledger.json"
    caches_before = repo_caches()
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--smoke", "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    ledger = json.loads(out.read_text())
    assert ledger["host"]["kernel_backend"] == "numpy"
    assert sorted((r["workload"], r["trace"]) for r in ledger["runs"]) == sorted(
        (w, t) for w in WORKLOADS for t in (0, 1))
    for record in ledger["runs"]:
        check_record(record)
    by_key = {(r["workload"], r["trace"]): r["metrics"] for r in ledger["runs"]}
    chaos = by_key[("chaos-small", 1)]
    assert chaos["faults.restores"]["value"] >= 1
    assert chaos["resilience.blocks_reconstructed"]["value"] >= 1
    assert by_key[("service-open", 1)]["service.journal_records"]["value"] == 3
    assert by_key[("service-open", 1)]["service.stage_coverage"]["value"] > 0.9
    for workload in WORKLOADS[:3]:
        layer = by_key[(workload, 1)]
        assert layer["ledger.unattributed_s"]["value"] <= 0.1 * layer["ledger.traced_wall_s"]["value"]
    assert "pure work (kernels.total_s)" in done.stdout
    assert repo_caches() == caches_before

    same = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "compare", str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout and "4 traced run pair" in same.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_mode_ends_with_one_json_line(trace):
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", "mst-large", "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    check_record({**final, "trace": trace})


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(LEDGER, bare / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "cc-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
