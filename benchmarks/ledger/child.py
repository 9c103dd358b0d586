"""One workload in one fresh process.

``run.py`` starts this file once per set-up measurement and once per
measured run, so every run begins with empty arena and derived caches
and its own ``ru_maxrss``.  The protocol on standard output is two
lines: ``READY`` when set-up is over (``run.py`` times it from the
spawn), then ``RESULT <json>``.

The program is driven through its public entry points only, looked up
on their module at call time so that the traced run's wrappers are hit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import stats
import workloads as wl

WARMUP_ITERATIONS = 2
MIN_ITERATIONS = 8
#: Traced runs solve these leading iterations twice, untraced and then
#: traced, so that tracing overhead is a like-for-like ratio and counts
#: come from a fixed set of inputs.
PAIRED_ITERATIONS = 8


def emit(tag: str, payload=None) -> None:
    print(tag if payload is None else f"{tag} {json.dumps(payload)}", flush=True)


# -- solver workloads -----------------------------------------------------------


class Variant:
    """One generated input of a solver workload and the solves of one
    iteration on it."""

    def __init__(self, spec: dict, seed: int, index: int) -> None:
        import repro
        from repro.core import pipeline

        self.pipeline = pipeline
        self.spec = spec
        graph_seed = wl.sub_seed(seed, index)
        build = {"random": repro.random_graph, "hybrid": repro.hybrid_graph}[spec["family"]]
        self.graph = build(spec["n"], spec["m"], seed=graph_seed)
        self.weighted = None
        if any(algo == "mst" for algo, _impl, _red in spec["solves"]):
            self.weighted = repro.with_random_weights(self.graph, seed=graph_seed + 1)
        self.machine = repro.hps_cluster(*spec["machine"])
        self.protection = [self._protection(red, wl.sub_seed(seed, index, 9))
                           for _algo, _impl, red in spec["solves"]]

    def _protection(self, redundancy, fault_seed: int) -> dict:
        if not self.spec["protected"]:
            return {}
        import repro

        plan = wl.CHAOS_PLAN
        mode, group = redundancy
        config = {"mode": mode} if group is None else {"mode": mode, "group": group}
        return {
            "faults": repro.FaultPlan(
                seed=fault_seed, loss=plan["loss"], corruption=plan["corruption"],
                payload_corruption=plan["payload_corruption"],
                crashes=(repro.CrashEvent(*plan["crash"]),),
                node_losses=(repro.NodeLossEvent(*plan["node_loss"]),),
            ),
            "integrity": repro.IntegrityConfig(),
            "resilience": repro.RedundancyConfig(**config),
        }

    def run(self) -> list:
        results = []
        for (algo, impl, _red), protection in zip(self.spec["solves"], self.protection):
            if algo == "cc":
                solve, graph = self.pipeline.connected_components, self.graph
            else:
                solve, graph = self.pipeline.minimum_spanning_forest, self.weighted
            results.append(solve(graph, machine=self.machine, impl=impl, **protection))
        return results

    def check(self, results: list) -> None:
        """Oracle check of one iteration's answers; raises on a defect."""
        from repro.graph.validation import check_connected_counts
        from repro.mst.verify import check_spanning_forest

        for (algo, _impl, _red), result in zip(self.spec["solves"], results):
            if algo == "cc":
                check_connected_counts(result.labels, self.graph)
            else:
                check_spanning_forest(self.weighted, result.edge_ids)
            if self.spec["protected"]:
                counters = result.info.trace.counters
                if counters.checkpoint_restores < 1 or counters.node_losses != 1:
                    raise AssertionError(
                        "fault plan did not bite: "
                        f"{counters.checkpoint_restores} restores, "
                        f"{counters.node_losses} node losses"
                    )


def digest(results: list) -> str:
    """sha256 of the answers plus the exact modeled times."""
    h = hashlib.sha256()
    for result in results:
        answer = result.edge_ids if hasattr(result, "edge_ids") else result.labels
        h.update(answer.tobytes())
        h.update(float(result.info.sim_time).hex().encode())
    return h.hexdigest()


class Loop:
    """Runs iterations over the variants in turn and keeps score."""

    def __init__(self, variants: list) -> None:
        self.variants = variants
        self.first: dict = {}      # variant index -> (digest, results) of its first run
        self.runs_of: dict = {}    # variant index -> iterations run on it
        self.durations: dict = {}  # variant index -> seconds of each good iteration
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    @property
    def samples(self) -> int:
        return sum(len(v) for v in self.durations.values())

    def _fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(why)

    def iterate(self, index: int, around=None):
        """One iteration on variant ``index``; returns its seconds, or
        ``None`` when it failed.  ``around`` wraps the timed call."""
        k = index % len(self.variants)
        self.attempted += 1
        self.runs_of[k] = self.runs_of.get(k, 0) + 1
        start = time.perf_counter()
        try:
            if around is None:
                results = self.variants[k].run()
            else:
                with around:
                    results = self.variants[k].run()
        except Exception as err:  # an iteration that raises is a failed operation
            self._fail(f"variant {k}: {type(err).__name__}: {err}")
            return None
        seconds = time.perf_counter() - start
        found = digest(results)
        if k not in self.first:
            self.first[k] = (found, results)
        elif self.first[k][0] != found:
            self._fail(f"variant {k}: answer or modeled time differs from its first run")
            return None
        self.durations.setdefault(k, []).append(seconds)
        return seconds

    def run_for(self, seconds: float, min_iterations: int, max_iterations=None) -> None:
        begin = time.perf_counter()
        for done in itertools.count(1):
            self.iterate(done - 1)
            if max_iterations is not None and done >= max_iterations:
                return
            if done >= min_iterations and time.perf_counter() - begin >= seconds:
                return

    def report(self, metrics: dict, diagnostics: Optional[dict] = None) -> None:
        emit("RESULT", {
            "attempted": self.attempted, "failed": self.failed, "failures": self.failures,
            "samples": self.samples, "metrics": metrics, "diagnostics": diagnostics or {},
        })

    def check_answers(self) -> None:
        """Oracle checks, after the clock stopped: a variant with a wrong
        first answer fails every iteration that reproduced it."""
        for k, (_found, results) in sorted(self.first.items()):
            try:
                self.variants[k].check(results)
            except Exception as err:
                self._fail(f"variant {k}: {type(err).__name__}: {err}", self.runs_of[k])
        self.failed = min(self.failed, self.attempted)


def solver_child(args: dict) -> None:
    import repro  # noqa: F401  (so that graph.generate_s times generation, not the import)

    spec = wl.solver_spec(args["workload"], args["smoke"])
    began = time.perf_counter()
    variants = [Variant(spec, args["seed"], k) for k in range(spec["variants"])]
    generate_s = (time.perf_counter() - began) / len(variants)
    loop = Loop(variants)
    for index in range(WARMUP_ITERATIONS):
        variants[index % len(variants)].run()
    emit("READY")
    if args["setup_only"]:
        return

    fixed = wl.SMOKE_ITERATIONS if args["smoke"] else None
    if not args["trace"]:
        loop.run_for(args["seconds"], max(MIN_ITERATIONS, len(variants)), fixed)
        loop.check_answers()
        metrics, diagnostics = {}, {}
        if loop.durations:
            pooled = [d for per_variant in loop.durations.values() for d in per_variant]
            metrics = {
                "latency_p50_s": stats.typical(loop.durations),
                "ops_per_s": 1.0 / statistics.fmean(
                    statistics.fmean(v) for v in loop.durations.values()),
            }
            diagnostics = {
                "pooled_p50_s": statistics.median(pooled),
                "pooled_p75_s": stats.percentile(pooled, 75),
            }
        loop.report(metrics, diagnostics)
        return

    metrics, spans = traced_solver_run(loop, args, fixed)
    metrics["graph.generate_s"] = generate_s
    loop.check_answers()
    write_spans(args["spans_path"], spans)
    loop.report(metrics)


def cache_counts() -> tuple:
    """(arena leases, arena reuses, derived-cache hits, misses) so far."""
    from repro.perf.arena import global_arena
    from repro.perf.derived import derived_cache_stats

    caches = derived_cache_stats().values()
    arena = global_arena().stats()
    return (arena["leases"], arena["reuses"],
            sum(c["hits"] for c in caches), sum(c["misses"] for c in caches))


def cache_metrics(before: tuple, after: tuple, units: int) -> dict:
    leases, reuses, hits, misses = (a - b for a, b in zip(after, before))
    return {
        "perf.arena_leases": leases / max(units, 1),
        "perf.arena_hit_ratio": reuses / leases if leases else 0.0,
        "perf.derived_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def traced_solver_run(loop: Loop, args: dict, fixed) -> tuple:
    """Untraced then traced iterations on the same leading inputs, then
    traced iterations until the time is up."""
    import layers
    from tracing import Tracer, aggregate

    paired = fixed or PAIRED_ITERATIONS
    began = time.perf_counter()
    untraced = [loop.iterate(i) for i in range(paired)]

    tracer = Tracer()
    layers.instrument(tracer)
    units, solves, traced, first_spans = [], [], {}, []
    before = cache_counts()
    try:
        for index in itertools.count():
            seconds = loop.iterate(index, around=tracer.span("iteration", unit=index))
            spans = tracer.drain()
            if seconds is not None:
                units.append(aggregate(spans)[index])
                first_spans = first_spans or spans
                if index < paired:
                    traced[index] = seconds
                    solves += layers.solve_records(spans)
            if index + 1 == paired:
                after = cache_counts()
            if index + 1 >= paired and (fixed or time.perf_counter() - began >= args["seconds"]):
                break
    finally:
        tracer.restore()

    metrics = layers.span_metrics(units, units[:paired], solves)
    pairs = [(u, traced[i]) for i, u in enumerate(untraced) if u and i in traced]
    untraced_wall = statistics.median(u for u, _t in pairs)
    metrics.update(cache_metrics(before, after, paired))
    metrics.update({
        "ledger.untraced_wall_s": untraced_wall,
        "ledger.traced_wall_s": statistics.median(r["iteration"]["total_ns"] for r in units) / 1e9,
        "ledger.unattributed_s": statistics.median(r["iteration"]["self_ns"] for r in units) / 1e9,
        "ledger.overhead_factor": untraced_wall / metrics["kernels.total_s"],
        "trace.overhead_ratio": statistics.median(t / u for u, t in pairs),
    })
    return metrics, first_spans


# -- the traced service run -------------------------------------------------------


def service_child(args: dict) -> None:
    """``service-open`` with tracing: an in-process ``GraphService`` under
    the same open-loop arrivals as the HTTP run, first untraced, then
    with every layer wrapped."""
    import layers
    from httpload import InProcessClient, LoadRun, closed_loop, open_loop
    from repro.service import GraphService, ServiceConfig
    from tracing import NAME, UNIT, Tracer, unit_of

    work = Path(args["work_dir"])
    metrics = plan_times(work / "tune.json")
    service = GraphService(ServiceConfig(
        workers=wl.SERVICE["workers"], journal_path=str(work / "journal.jsonl"),
        quota_rate=1e6, quota_burst=1e6,
    ))
    service.start()
    tracer = Tracer()
    try:
        client = InProcessClient(service)
        closed_loop(LoadRun(client), iter(wl.service_warmup_bodies(args["seed"])), 1, 60.0,
                    max_jobs=wl.SERVICE["warmup_jobs"])
        emit("READY")
        rate = wl.SERVICE["rate_per_s"]
        if args["smoke"]:
            rate, spans_s = 10.0, (0.8, 1.2)
        else:
            spans_s = (0.4 * args["seconds"], 0.6 * args["seconds"])
        phases = []
        for salt, seconds in enumerate(spans_s):
            offsets = wl.paced_schedule(args["seed"], rate, seconds, salt=salt + 40)
            bodies = wl.service_bodies(args["seed"], len(offsets), salt=salt + 40)
            if salt == 1:
                layers.instrument(tracer)
                before = cache_counts()
            phases.append(LoadRun(client))
            open_loop(phases[-1], bodies, offsets)
        metrics.update(cache_metrics(before, cache_counts(), len(phases[1].latencies)))
        shed = service.queue.shed_total
    finally:
        tracer.restore()
        service.stop()
    untraced, traced = phases
    spans = tracer.drain()
    metrics.update(service_span_metrics(spans))
    metrics.update({
        "service.latency_p90_s": stats.percentile(traced.latencies, 90),
        "service.generator_lag_max_s": traced.lag_max,
        "service.rejected": traced.refused,
        "service.shed": shed,
        "ledger.untraced_wall_s": statistics.median(untraced.latencies),
        "ledger.traced_wall_s": statistics.median(traced.latencies),
        "trace.overhead_ratio":
            statistics.median(traced.latencies) / statistics.median(untraced.latencies),
    })
    metrics["ledger.overhead_factor"] = (
        metrics["ledger.untraced_wall_s"] / metrics["kernels.total_s"]
        if metrics["kernels.total_s"] else 0.0
    )
    first_job = next((s[UNIT] for s in spans if s[NAME] == "service.execute"), None)
    write_spans(args["spans_path"], [s for s in spans if unit_of(s) == first_job])
    attempted = untraced.attempted + traced.attempted
    emit("RESULT", {
        "attempted": attempted, "failed": untraced.failed + traced.failed,
        "failures": untraced.failures + traced.failures,
        "samples": len(traced.latencies), "metrics": metrics,
    })


def plan_times(cache_path: Path) -> dict:
    """Seconds to plan one service shape against an empty, then a warm,
    plan cache (which also leaves the cache warm for the jobs)."""
    from repro.service.executor import parse_service_machine
    from repro.tuning import PlanCache, Workload, autotune

    machine = parse_service_machine(wl.SERVICE["machine"], wl.SERVICE["n"])
    shapes = [
        Workload(kind="cc", n=wl.SERVICE["n"], m=int(wl.SERVICE["density"] * wl.SERVICE["n"]),
                 graph_kind=kind)
        for kind in wl.SERVICE_KINDS
    ]
    cache_path.unlink(missing_ok=True)
    timings = {}
    for label in ("cold", "warm"):
        began = time.perf_counter()
        cache = PlanCache(cache_path)
        for shape in shapes:
            autotune(shape, machine, cache=cache)
        timings[f"tuning.plan_{label}_s"] = (time.perf_counter() - began) / len(shapes)
    return timings


def service_span_metrics(spans: list) -> dict:
    """Per-job stage and layer metrics from the traced phase's spans."""
    import layers
    from tracing import END, NAME, PARENT, START, aggregate, unit_of

    by_unit = aggregate(spans)
    jobs = {unit: rows for unit, rows in by_unit.items()
            if unit is not None and "service.execute" in rows and "service.admit" in rows}
    rows_of_jobs = list(jobs.values())
    metrics = layers.span_metrics(rows_of_jobs, rows_of_jobs, layers.solve_records(spans))
    metrics["graph.generate_s"] = sum(
        layers.total(rows, ("graph.generate", "graph.weights"), "self_ns") for rows in rows_of_jobs
    ) / 1e9 / max(len(jobs), 1)

    # Per job: admission starts, the job is enqueued, a worker starts and
    # ends it; the worker also writes journal records of its own.
    marks = {"service.admit": {}, "service.enqueue": {}, "service.execute": {}}
    journaled = dict.fromkeys(jobs, 0)
    for span in spans:
        job = unit_of(span)
        if job not in jobs:
            continue
        if span[NAME] in marks:
            marks[span[NAME]][job] = span
        elif span[NAME] == "service.journal" and span[PARENT][NAME] == "service.execute":
            journaled[job] += span[END] - span[START]
    admit, enqueue, execute = (marks[n] for n in ("service.admit", "service.enqueue", "service.execute"))
    metrics["service.latency_p50_s"] = statistics.median(
        (execute[j][END] - admit[j][START]) / 1e9 for j in jobs)
    metrics["service.queue_wait_s"] = statistics.median(
        (execute[j][START] - enqueue[j][END]) / 1e9 for j in jobs)

    # Jobs differ (an MST job takes twice a CC job), so medians of stages
    # do not add up to the median latency; the share of each job's latency
    # that its own stages explain does.
    def explained(job) -> float:
        stages = layers.total(
            jobs[job], ("service.admit", "service.plan", "service.solve", "service.verify"),
            "total_ns")
        wait = execute[job][START] - admit[job][END]
        return (stages + journaled[job] + wait) / (execute[job][END] - admit[job][START])

    metrics["service.stage_coverage"] = statistics.median(explained(j) for j in jobs)
    # What the stages leave unexplained is the worker's own bookkeeping.
    metrics["ledger.unattributed_s"] = statistics.median(
        rows["service.execute"]["self_ns"] for rows in rows_of_jobs) / 1e9
    return metrics


def write_spans(path: str, spans: list) -> None:
    """The first traced unit's spans, one JSON object per line."""
    ids = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for i, (name, start, end, parent, unit, extra) in enumerate(spans):
            out.write(json.dumps({
                "id": i, "name": name, "start_ns": start, "end_ns": end,
                "parent": ids.get(id(parent)), "unit": unit,
                "elems": extra if isinstance(extra, int) else None,
            }) + "\n")


def main() -> None:
    args = json.loads(sys.argv[1])
    if args["workload"] == "service-open":
        service_child(args)
    else:
        solver_child(args)


if __name__ == "__main__":
    main()
