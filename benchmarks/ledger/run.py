#!/usr/bin/env python3
"""The layered wall-clock ledger: one benchmark, four workloads.

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/ledger/run.py [--seed S] [--runs K] [--smoke] [--out FILE]
    python3 benchmarks/ledger/run.py compare A.json B.json

The first form is one run of one workload: it prints every metric by
name with its unit and ends with one JSON line (the contract of
``BENCHMARK.json``): end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  The second form runs every workload, both
ways, ``K`` times on seeds ``S..S+K-1``, prints the component table and
writes one result file; the third compares two such files.

This process never imports the program.  Each run happens in child
processes (see ``child.py``), and the service is ``python -m repro
serve`` driven over HTTP.  Everything written goes under ``.ledger_work``
at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402
from httpload import HttpClient, LoadRun, closed_loop, open_loop  # noqa: E402

ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".ledger_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_REPEATS = 3
READY_TIMEOUT_S = 120.0
CHILD_TIMEOUT_S = 170.0
#: Environment the program reads; stripped so that children measure its defaults.
STRIPPED = ("REPRO_PERF_BACKEND", "REPRO_PERF_DISABLE", "REPRO_PERF_WORKERS")


def setup_repeats(smoke: bool) -> int:
    """Fresh set-ups per run (their median is ``setup_s``); one in a smoke run."""
    return 1 if smoke else SETUP_REPEATS


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (not: the program answered wrongly)."""


def child_env(work: Path) -> Dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if k not in STRIPPED and not k.startswith("REPRO_BENCH_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_TUNE_CACHE"] = str(work / "tune.json")
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Child:
    """A child process whose standard output is read line by line with a
    deadline, and whose peak memory is collected when it is reaped."""

    def __init__(self, argv: List[str], work: Path) -> None:
        self.spawned = time.perf_counter()
        self.stderr_path = work / "stderr.txt"
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(work), stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        self._pending = b""
        self.peak_rss_mb = 0.0

    def _next_line(self, deadline: float) -> Optional[str]:
        """The next complete output line, ``None`` at end of output;
        raises when the deadline passes first."""
        while b"\n" not in self._pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not self._selector.select(remaining):
                raise BenchmarkError("child went silent")
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                return None
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line.decode(errors="replace")

    def read_until(self, pattern: str, timeout: float) -> "re.Match":
        """The first output line matching ``pattern``; raises when the
        child ends or the deadline passes first."""
        deadline = time.perf_counter() + timeout
        regex = re.compile(pattern)
        while True:
            line = self._next_line(deadline)
            if line is None:
                self.reap()
                raise BenchmarkError(
                    f"child exited with {self.proc.returncode} before {pattern!r}:\n"
                    + self.stderr_path.read_text()[-2000:]
                )
            found = regex.search(line)
            if found:
                return found

    def reap(self, stop_signal: Optional[int] = None, timeout: float = 20.0) -> None:
        """Wait for the child (after ``stop_signal``, if given), killing
        it at the deadline; records its ``ru_maxrss``."""
        if self.proc.returncode is None:
            if stop_signal is not None:
                self.proc.send_signal(stop_signal)
            deadline = time.perf_counter() + timeout
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.peak_rss_mb = usage.ru_maxrss / 1024.0
                    break
                if time.perf_counter() > deadline:
                    self.proc.kill()
                    deadline = float("inf")
                time.sleep(0.01)
        self._selector.close()
        self.proc.stdout.close()
        self._stderr.close()


# -- solver workloads and the traced runs: child.py ----------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
              work: Path, setup_only: bool = False) -> Tuple[float, Optional[dict], float]:
    """(set-up seconds, result or ``None`` for a set-up-only child, peak RSS MB)."""
    args = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "setup_only": setup_only, "work_dir": str(work),
        "spans_path": str(work / "spans.jsonl"),
    }
    child = Child([sys.executable, str(HERE / "child.py"), json.dumps(args)], work)
    try:
        child.read_until(r"^READY", READY_TIMEOUT_S)
        setup_s = time.perf_counter() - child.spawned
        result = None
        if not setup_only:
            result = json.loads(child.read_until(r"^RESULT (.*)$", CHILD_TIMEOUT_S).group(1))
    finally:
        child.reap()
    if child.proc.returncode != 0:
        raise BenchmarkError(
            f"child exited with {child.proc.returncode}:\n" + child.stderr_path.read_text()[-2000:]
        )
    return setup_s, result, child.peak_rss_mb


def import_seconds(work: Path) -> float:
    """Median seconds of ``python -c "import repro"`` in a fresh process."""
    times = []
    for _ in range(3):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], cwd=ROOT, env=child_env(work),
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


# -- service-open, untraced: a server process driven over HTTP ---------------------------


class Server:
    """``python -m repro serve`` on a free port, set up and ready."""

    def __init__(self, seed: int, work: Path) -> None:
        self.child = Child(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(wl.SERVICE["workers"]), "--journal", str(work / "journal.jsonl"),
             "--quota-rate", "1e6", "--quota-burst", "1e6"],
            work,
        )
        try:
            found = self.child.read_until(r"http://([\d.]+):(\d+)", READY_TIMEOUT_S)
            self.client = HttpClient(found.group(1), int(found.group(2)))
            warm = LoadRun(self.client)
            closed_loop(warm, iter(wl.service_warmup_bodies(seed)), 1, READY_TIMEOUT_S,
                        max_jobs=wl.SERVICE["warmup_jobs"])
            if warm.failed:
                raise BenchmarkError(f"service warm-up failed: {warm.failures}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.child.spawned

    def stop(self) -> float:
        self.child.reap(signal.SIGINT)
        return self.child.peak_rss_mb


def run_service(seed: int, seconds: float, smoke: bool, work: Path) -> Tuple[List[float], dict, float]:
    """(set-up seconds of each repeat, result, server peak RSS MB)."""
    setups = []
    for repeat in range(setup_repeats(smoke) - 1):
        server = Server(seed, fresh_dir(work / f"setup{repeat}"))
        setups.append(server.setup_s)
        server.stop()
    server = Server(seed, fresh_dir(work / "measured"))
    setups.append(server.setup_s)
    phase_a, phase_b, closed_s = LoadRun(server.client), LoadRun(server.client), 0.0
    try:
        rate, cycles = wl.SERVICE["rate_per_s"], wl.SERVICE["cycles"]
        if smoke:
            rate, cycles, seconds = 10.0, 1, 2.0
        open_s = wl.SERVICE["open_share"] * seconds / cycles
        closed_bodies = iter(wl.service_bodies(seed, 4096, salt=2))
        for cycle in range(cycles):
            offsets = wl.paced_schedule(seed, rate, open_s, salt=cycle)
            open_loop(phase_a, wl.service_bodies(seed, len(offsets), salt=10 + cycle), offsets)
            closed_s += closed_loop(
                phase_b, closed_bodies, wl.SERVICE["in_flight"], seconds / cycles - open_s,
                max_jobs=wl.SMOKE_JOBS - phase_a.attempted if smoke else None,
            )
    finally:
        peak_rss_mb = server.stop()
    metrics, diagnostics = {}, {}
    if phase_a.latencies and phase_b.latencies:
        metrics = {
            "latency_p50_s": stats.typical(phase_a.by_class),
            "ops_per_s": len(phase_b.latencies) / closed_s,
        }
        diagnostics = {
            "pooled_p50_s": statistics.median(phase_a.latencies),
            "pooled_p75_s": stats.percentile(phase_a.latencies, 75),
            "generator_lag_max_s": phase_a.lag_max,
            "closed_loop_jobs": len(phase_b.latencies),
        }
    result = {
        "attempted": phase_a.attempted + phase_b.attempted,
        "failed": phase_a.failed + phase_b.failed,
        "failures": phase_a.failures + phase_b.failures,
        "samples": len(phase_a.latencies), "metrics": metrics, "diagnostics": diagnostics,
    }
    return setups, result, peak_rss_mb


# -- one run ----------------------------------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload: the record the result file keeps and the
    final JSON line is cut from."""
    work = fresh_dir(WORK / f"{workload}-{os.getpid()}")
    try:
        if trace:
            _setup, result, _rss = run_child(workload, seed, seconds, True, smoke, work)
            result["metrics"]["cli.import_s"] = import_seconds(work)
            names = [m["name"] for m in SPEC["per_layer"]]
            metrics = {name: float(result["metrics"].get(name, 0.0)) for name in names}
            spans = work / "spans.jsonl"
            if spans.exists():
                shutil.copyfile(spans, WORK / f"spans-{workload}.jsonl")
        else:
            if workload == "service-open":
                setups, result, peak_rss_mb = run_service(seed, seconds, smoke, work)
            else:
                setups = [
                    run_child(workload, seed, 0.0, False, smoke, work, setup_only=True)[0]
                    for _ in range(setup_repeats(smoke) - 1)
                ]
                setup_s, result, peak_rss_mb = run_child(workload, seed, seconds, False, smoke, work)
                setups.append(setup_s)
            metrics = dict(result["metrics"])
            if metrics:
                metrics["peak_rss_mb"] = peak_rss_mb
                metrics["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    correct = result["failed"] == 0 and sorted(metrics) == sorted(expected)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "failures": result.get("failures", []),
        "samples": result["samples"], "diagnostics": result.get("diagnostics", {}),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def print_run(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} seed={record['seed']} {kind}: n={record['samples']} samples,"
          f" ops_failed/ops_attempted={record['failed']}/{record['attempted']}")
    if not record["trace"]:
        q = stats.highest_supported_percentile(record["samples"])
        print(f"   highest percentile with ten samples beyond it: "
              f"{'none' if q is None else f'p{q}'}")
    for name, cell in record["metrics"].items():
        print(f"   {name:<38} {cell['value']:>16.6f} {cell['unit']}")
    for name, value in record["diagnostics"].items():
        print(f"   ({name:<36} {value:>16.6f}  not gated)")
    for why in record["failures"]:
        print(f"   FAILED: {why}")


def final_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


# -- the full ledger -----------------------------------------------------------------------


def host_note() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy, networkx, repro.kernels as k;"
         "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
         " 'networkx': networkx.__version__, 'kernel_backend': k.backend_name()}))"],
        cwd=ROOT, env=child_env(WORK), check=True, capture_output=True, text=True,
    ).stdout
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), **json.loads(versions)}


def component_table(end_to_end: dict, per_layer: dict) -> None:
    """Pure work, measured total, overhead factor, and what fills the gap."""
    layer = {k: v["value"] for k, v in per_layer["metrics"].items()}
    total = layer["ledger.traced_wall_s"]
    print(f"-- {per_layer['workload']}: where one traced "
          f"{'job' if per_layer['workload'] == 'service-open' else 'iteration'} goes")
    print(f"   pure work (kernels.total_s)   {layer['kernels.total_s']:.6f} s")
    print(f"   measured total, untraced      {layer['ledger.untraced_wall_s']:.6f} s"
          f"   (end-to-end latency_p50_s {end_to_end['metrics']['latency_p50_s']['value']:.6f} s)")
    print(f"   overhead factor               {layer['ledger.overhead_factor']:.2f}x of pure work")
    print(f"   traced total                  {total:.6f} s"
          f"   ({layer['trace.overhead_ratio']:.3f}x the untraced)")
    rows = sorted(
        ((v, k) for k, v in layer.items()
         if k.endswith("_s") and not k.startswith(("ledger.", "cli.", "tuning."))
         and k not in ("kernels.total_s", "graph.generate_s", "service.latency_p50_s",
                       "service.latency_p90_s", "service.generator_lag_max_s")
         and (per_layer["workload"] == "service-open") == k.startswith("service.")),
        reverse=True,
    )
    for value, name in rows:
        if value > 0:
            print(f"   {name:<34} {value:.6f} s  {100 * value / total:5.1f}%")
    print(f"   {'unattributed':<34} {layer['ledger.unattributed_s']:.6f} s"
          f"  {100 * layer['ledger.unattributed_s'] / total:5.1f}%")


def run_all(seed: int, runs: int, seconds: float, smoke: bool, out: Path) -> int:
    records = []
    for run_seed in range(seed, seed + runs):
        for workload in wl.WORKLOADS:
            pair = [run_once(workload, run_seed, seconds, trace, smoke) for trace in (False, True)]
            for record in pair:
                print_run(record)
            if all(record["metrics"] for record in pair):
                component_table(*pair)
            records += pair
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": 1, "host": host_note(), "runs": records}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(record["correct"] for record in records) else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], SPEC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, 3 iterations, 20 jobs: a check of the harness, not a measurement")
    parser.add_argument("--runs", type=int, default=1, help="full ledger: seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, default=None, help="full ledger: result file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"run.py: the program is not in this checkout ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload is None:
        out = args.out or WORK / f"ledger-seed{args.seed}.json"
        return run_all(args.seed, args.runs, args.seconds, args.smoke, out)
    record = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_run(record)
    if not record["metrics"]:
        print("run.py: every operation failed; nothing was measured", file=sys.stderr)
        return 1
    print(final_line(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"run.py: {err}", file=sys.stderr)
        sys.exit(3)
