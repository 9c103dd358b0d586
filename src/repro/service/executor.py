"""Job execution: worker pool, retries, verification, plan provenance.

Each worker thread pulls from the :class:`~repro.service.queue.
AdmissionQueue` and drives one job at a time through:

1. **deadline gate** — a job whose deadline expired while queued is
   cancelled (retriable) without burning a solve on it;
2. **solve with cooperative cancellation** — the attempt runs inside a
   :func:`~repro.service.deadlines.cancel_scope`, so the simulator
   aborts at the next sync point once the deadline passes mid-solve;
3. **retry with exponential backoff** — attempts that die to a
   :class:`~repro.errors.ReproError` (exhausted retry budgets under
   injected faults, integrity gives-up, ...) are retried up to the
   backoff policy's budget, never sleeping past the deadline;
4. **verification** — the answer is checked by a linear-time
   certificate before it is served; a wrong answer is *never* served —
   the job fails (retriable) instead, and the failure feeds the
   tenant's circuit breaker like any other;
5. **journal + metrics** — every transition is journaled before it is
   visible, and latency/outcome counters feed ``/metrics``.

Graphs are cached per fingerprint (``kind × n × m × seed``) so repeated
queries against the same input skip regeneration; tuning plans resolve
through the :class:`~repro.tuning.PlanCache` with provenance recorded
in the result (``cache`` / ``tuned`` / ``nearest-cache`` / ``analytic``
/ ``explicit``).
"""

from __future__ import annotations

import collections
import functools
import threading
import time
from typing import Dict, Optional, Tuple

from ..errors import GraphError, JobCancelled, ReproError, UsageError, VerificationError
from ..graph.validation import check_bfs_levels, check_connected_counts, count_components_reference
from ..mst.verify import check_spanning_forest, msf_reference
from .deadlines import BackoffPolicy, CancelToken, CircuitBreaker, cancel_scope
from .degradation import ServiceMode
from .jobs import Job, JobSpec, JobState

__all__ = ["JobExecutor", "ServiceMetrics", "validate_spec_impl", "parse_service_machine"]


def parse_service_machine(spec_text: str, n: int):
    """``NODESxTHREADS`` / ``smp`` / ``seq`` -> calibrated MachineConfig."""
    from ..core import machine_for_input
    from ..runtime import hps_cluster, sequential_machine, smp_node

    if spec_text == "seq":
        base = sequential_machine()
    elif spec_text == "smp":
        base = smp_node(16)
    else:
        try:
            nodes_s, threads_s = spec_text.lower().split("x")
            base = hps_cluster(int(nodes_s), int(threads_s))
        except (ValueError, ReproError):
            raise UsageError(
                f"field 'machine' must be NODESxTHREADS (e.g. 4x2), 'smp' or 'seq':"
                f" got {spec_text!r}"
            ) from None
    return machine_for_input(base, n)


def validate_spec_impl(spec: JobSpec) -> None:
    """Submit-time impl/variant validation so bad requests 400 instead
    of failing asynchronously after sitting in the queue.  Impl names
    and their fault/integrity capabilities come straight from the
    :mod:`repro.algorithms` registry — a newly registered variant is
    accepted here with zero service changes."""
    from ..algorithms import get_algorithm, lt_variant_names
    from ..core import CC_IMPLS, MST_IMPLS

    if spec.variant is not None and spec.variant not in lt_variant_names():
        raise UsageError(
            f"field 'variant' must be one of {lt_variant_names()}: got {spec.variant!r}"
        )
    impl = spec.effective_impl
    table = {"cc": CC_IMPLS, "mst": MST_IMPLS, "bfs": ("collective", "naive", "sequential")}
    allowed = table[spec.algo]
    if impl not in allowed:
        raise UsageError(
            f"field 'impl' must be one of {allowed} for algo {spec.algo!r}: got {impl!r}"
        )
    if spec.algo == "bfs" and ("auto" in (impl, spec.opts) or spec.tprime == "auto"):
        raise UsageError("auto tuning is only supported for cc/mst jobs")
    if spec.algo in ("cc", "mst") and impl != "auto":
        algorithm = get_algorithm(spec.algo, impl)
        if spec.has_faults and not algorithm.supports_faults:
            supported = tuple(
                name for name in allowed
                if name == "auto" or get_algorithm(spec.algo, name).supports_faults
            )
            raise UsageError(
                f"fault injection is not supported for impl {impl!r};"
                f" use one of {supported}"
            )
        if spec.integrity and not algorithm.supports_integrity:
            supported = tuple(
                name for name in allowed
                if name == "auto" or get_algorithm(spec.algo, name).supports_integrity
            )
            raise UsageError(
                f"integrity protection is not supported for impl {impl!r};"
                f" use one of {supported}"
            )
    # Parse-check opts eagerly too (same 400-at-the-door rationale).
    _parse_opts(spec.opts)


def _parse_opts(text: str):
    from ..core import OptimizationFlags

    if text == "auto":
        return "auto"
    if text == "all":
        return OptimizationFlags.all()
    if text == "none":
        return OptimizationFlags.none()
    try:
        return OptimizationFlags.only(*[s.strip() for s in text.split(",") if s.strip()])
    except ReproError as err:
        raise UsageError(f"field 'opts' is invalid: {err}") from None


class ServiceMetrics:
    """Lock-protected counters + a bounded latency reservoir."""

    def __init__(self, reservoir: int = 4096) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = collections.defaultdict(int)
        self._latencies = collections.deque(maxlen=reservoir)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(seconds)

    @staticmethod
    def _percentile(values, q: float) -> Optional[float]:
        if not values:
            return None
        values = sorted(values)
        idx = min(len(values) - 1, max(0, int(round(q * (len(values) - 1)))))
        return values[idx]

    def snapshot(self) -> dict:
        with self._lock:
            lat = list(self._latencies)
            counters = dict(self.counters)
        return {
            "counters": counters,
            "latency": {
                "count": len(lat),
                "p50_s": self._percentile(lat, 0.50),
                "p99_s": self._percentile(lat, 0.99),
            },
        }


class _CachedGraph:
    """One generated input and, lazily, what its certificates compare
    against: that depends on the graph alone, so the first job to verify
    here computes it, later ones reuse it, and eviction drops it."""

    def __init__(self, graph, weighted=None) -> None:
        self.graph = graph
        self.weighted = weighted

    @functools.cached_property
    def components(self) -> int:
        return count_components_reference(self.graph)

    @functools.cached_property
    def forest(self) -> Tuple[int, int]:
        return msf_reference(self.weighted)


class _GraphCache:
    """Small LRU of generated inputs keyed by graph fingerprint."""

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "collections.OrderedDict[str, _CachedGraph]" = collections.OrderedDict()

    def get(self, spec: JobSpec) -> _CachedGraph:
        """The entry for the spec's fingerprint (weighted for MST jobs)."""
        from ..graph import hybrid_graph, powerlaw_graph, random_graph, with_random_weights

        key = spec.graph_fingerprint()
        weighted = spec.algo == "mst"
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if not weighted or entry.weighted is not None:
                    return entry
        builders = {"random": random_graph, "hybrid": hybrid_graph, "powerlaw": powerlaw_graph}
        g = builders[spec.kind](spec.n, spec.m, seed=spec.seed)
        entry = _CachedGraph(g, with_random_weights(g, seed=spec.seed + 1) if weighted else None)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return entry


class JobExecutor:
    """Runs jobs on a pool of worker threads.

    Collaborators are injected so the executor is unit-testable without
    a socket: the queue it drains, the journal it appends to, the
    degradation policy + plan cache for tuning decisions, and the
    per-tenant circuit breakers it feeds.
    """

    def __init__(
        self,
        queue,
        journal,
        metrics: ServiceMetrics,
        policy,
        plan_cache=None,
        workers: int = 2,
        backoff: Optional[BackoffPolicy] = None,
        breakers: Optional[Dict[str, CircuitBreaker]] = None,
        breaker_factory=None,
        verify: bool = True,
    ) -> None:
        self.queue = queue
        self.journal = journal
        self.metrics = metrics
        self.policy = policy
        self.plan_cache = plan_cache
        self.workers = max(1, int(workers))
        self.backoff = backoff or BackoffPolicy()
        self.breakers = breakers if breakers is not None else {}
        self._breaker_factory = breaker_factory or CircuitBreaker
        self._breaker_lock = threading.Lock()
        self.verify = verify
        self.graphs = _GraphCache()
        self._machines: Dict[Tuple[str, int], object] = {}
        self._machine_lock = threading.Lock()
        self._threads: list = []
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for i in range(self.workers):
            t = threading.Thread(target=self._loop, name=f"repro-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 5.0) -> None:
        self._stopping.set()
        self.queue.close()
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()

    def abort(self) -> None:
        """Stop pulling work immediately, no drain, no join — the
        executor half of a simulated ``kill -9``."""
        self._stopping.set()

    def _loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.take(timeout=0.1)
            if job is None or self._stopping.is_set():
                continue  # a job taken during shutdown stays journaled
                # as in-flight and is recovered by the next incarnation
            try:
                self.execute(job)
            except Exception as err:  # never kill a worker thread
                job.transition(
                    JobState.FAILED, retriable=False,
                    error=f"internal: {type(err).__name__}: {err}",
                    finished_at=time.time(),
                )
                self.journal.record("failed", job, retriable=False, error=job.error)
                self.metrics.count("failed")

    def breaker_for(self, tenant: str) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self.breakers.get(tenant)
            if breaker is None:
                breaker = self._breaker_factory()
                self.breakers[tenant] = breaker
            return breaker

    def _machine_for(self, spec: JobSpec):
        key = (spec.machine, spec.n)
        with self._machine_lock:
            machine = self._machines.get(key)
        if machine is None:
            machine = parse_service_machine(spec.machine, spec.n)
            with self._machine_lock:
                self._machines[key] = machine
        return machine

    # -- planning ------------------------------------------------------------

    def _resolve_plan(self, spec: JobSpec, machine, mode: str) -> tuple:
        """(impl, opts, tprime, provenance-dict) for this job."""
        explicit_opts = _parse_opts(spec.opts)
        impl_req = spec.effective_impl
        wants_auto = impl_req == "auto" or spec.opts == "auto" or spec.tprime == "auto"
        if not wants_auto:
            return impl_req, explicit_opts, spec.tprime, {
                "source": "explicit", "impl": impl_req, "opts": spec.opts,
                "tprime": spec.tprime,
            }
        from ..tuning import PlanCache, Workload, autotune
        from ..tuning.planner import build_plan, parse_opts_key

        cache = self.plan_cache if self.plan_cache is not None else PlanCache()
        self.plan_cache = cache
        workload = Workload(kind=spec.algo, n=spec.n, m=spec.m, graph_kind=spec.kind)
        plan = cache.get(machine, workload)
        source = "cache"
        if plan is None:
            if self.policy.allow_probes(mode):
                plan = autotune(workload, machine, cache=cache)
                source = "tuned"
            else:
                self.policy.count("plan_probe_skipped")
                plan = cache.nearest(machine, workload)
                if plan is not None:
                    self.policy.count("plan_nearest_reused")
                    source = "nearest-cache"
                else:
                    plan = build_plan(workload, machine, probe=False)
                    source = "analytic"
        selected = plan.selected
        impl = selected.impl if impl_req == "auto" else impl_req
        opts = parse_opts_key(selected.opts_key) if spec.opts == "auto" else explicit_opts
        tprime = selected.tprime if spec.tprime == "auto" else spec.tprime
        # Faults/integrity constrain the impl family (per the registry's
        # capability flags); if the plan picked an unsupported one, fall
        # back to the collective solver rather than failing the job on a
        # ConfigError.
        from ..algorithms import get_algorithm

        if spec.integrity and not get_algorithm(spec.algo, impl).supports_integrity:
            impl = "collective"
        elif spec.redundancy and not get_algorithm(spec.algo, impl).supports_resilience:
            impl = "collective"
        elif spec.has_faults and not get_algorithm(spec.algo, impl).supports_faults:
            impl = "collective"
        return impl, opts, tprime, {
            "source": source, "impl": impl, "opts": selected.opts_key
            if spec.opts == "auto" else spec.opts, "tprime": tprime,
            "probe_n": plan.probe_n,
        }

    # -- solving -------------------------------------------------------------

    def _fault_plan(self, spec: JobSpec, machine):
        if not spec.has_faults:
            return None
        from ..faults import FaultPlan

        return FaultPlan.from_cli(
            loss=spec.loss,
            stragglers=spec.stragglers,
            seed=spec.fault_seed,
            total_threads=machine.total_threads,
            corruption=spec.corruption,
            payload_corruption=spec.payload_corruption,
            node_loss_at=spec.node_loss_at,
            node_loss_node=spec.node_loss_node,
        )

    def _resilience(self, spec: JobSpec):
        if not spec.redundancy:
            return None
        from ..resilience import RedundancyConfig

        return RedundancyConfig(mode=spec.redundancy, spares=spec.spares)

    def _solve(self, spec: JobSpec, machine, impl, opts, tprime) -> dict:
        """One attempt; returns the result payload (verify not yet run)."""
        from ..core import connected_components, minimum_spanning_forest

        entry = self.graphs.get(spec)
        g, gw = entry.graph, entry.weighted
        faults = self._fault_plan(spec, machine)
        integrity = True if spec.integrity else None
        resilience = self._resilience(spec)
        if spec.algo == "cc":
            res = connected_components(
                g, machine, impl=impl, opts=opts, tprime=tprime,
                faults=faults, graph_kind=spec.kind, integrity=integrity,
                resilience=resilience,
            )
            answer = {"num_components": res.num_components}
        elif spec.algo == "mst":
            res = minimum_spanning_forest(
                gw, machine, impl=impl, opts=opts, tprime=tprime,
                faults=faults, graph_kind=spec.kind, integrity=integrity,
                resilience=resilience,
            )
            answer = {"num_edges": res.num_edges, "total_weight": int(res.total_weight)}
        else:
            from ..bfs import solve_bfs_collective, solve_bfs_naive_upc, solve_bfs_sequential
            from ..bfs.solvers import UNREACHED

            source = spec.source % spec.n
            if impl == "collective":
                dist, info = solve_bfs_collective(g, source, machine, opts, tprime)
            elif impl == "naive":
                dist, info = solve_bfs_naive_upc(g, source, machine)
            else:
                dist, info = solve_bfs_sequential(g, source)
            reached = dist != UNREACHED
            answer = {"reached": int(reached.sum()), "levels": int(info.iterations)}
            res = None
        payload = {
            "algo": spec.algo,
            "answer": answer,
            "graph": spec.graph_fingerprint(),
        }
        if res is not None:
            c = res.info.trace.counters
            payload["modeled_ms"] = res.info.sim_time_ms
            payload["fault_counters"] = {
                "retries": c.retries, "crashes": c.crashes,
                "restores": c.checkpoint_restores,
                "corruptions_injected": c.corruptions_injected,
                "corruptions_detected": c.corruptions_detected,
                "repairs": c.repairs,
            }
            payload["_result_obj"] = res  # stripped after verification
        elif spec.algo == "bfs":
            payload["modeled_ms"] = info.sim_time_ms
            payload["_bfs_dist"] = dist
        return payload

    def _verify(self, spec: JobSpec, payload: dict) -> Optional[str]:
        """Certificate check; None when correct, else the defect."""
        from ..bfs.solvers import UNREACHED

        entry = self.graphs.get(spec)
        try:
            if spec.algo == "cc":
                check_connected_counts(payload["_result_obj"].labels, entry.graph, entry.components)
            elif spec.algo == "mst":
                check_spanning_forest(entry.weighted, payload["_result_obj"].edge_ids, entry.forest)
            else:
                check_bfs_levels(payload["_bfs_dist"], entry.graph, spec.source % spec.n, UNREACHED)
        except (GraphError, VerificationError) as err:
            return str(err)
        return None

    # -- the lifecycle driver ------------------------------------------------

    def execute(self, job: Job) -> None:
        spec = job.spec
        if job.state != JobState.QUEUED:
            return  # shed while queued
        if job.deadline_exceeded():
            job.transition(
                JobState.CANCELLED, retriable=True,
                error="deadline exceeded while queued", finished_at=time.time(),
            )
            self.journal.record("cancelled", job, retriable=True, error=job.error)
            self.metrics.count("cancelled_deadline")
            return
        job.transition(JobState.RUNNING, started_at=time.time())
        self.journal.record("start", job)
        breaker = self.breaker_for(spec.tenant)
        mode = self.policy.mode(self.queue.occupancy)
        try:
            machine = self._machine_for(spec)
            impl, opts, tprime, provenance = self._resolve_plan(spec, machine, mode)
        except ReproError as err:
            job.transition(
                JobState.FAILED, retriable=False, error=str(err), finished_at=time.time()
            )
            self.journal.record("failed", job, retriable=False, error=job.error)
            self.metrics.count("failed")
            return

        attempt = 0
        while True:
            job.attempts = attempt + 1
            token = CancelToken(job.job_id, deadline_at=job.deadline_at)
            try:
                with cancel_scope(token):
                    payload = self._solve(spec, machine, impl, opts, tprime)
            except JobCancelled as err:
                job.transition(
                    JobState.CANCELLED, retriable=True, error=str(err),
                    finished_at=time.time(),
                )
                self.journal.record("cancelled", job, retriable=True, error=job.error)
                self.metrics.count("cancelled_deadline")
                return
            except ReproError as err:
                breaker.record_failure()
                self.metrics.count("attempt_failures")
                attempt += 1
                if attempt < self.backoff.max_attempts:
                    delay = self.backoff.delay(attempt - 1, key=job.job_id)
                    if job.deadline_at is None or time.monotonic() + delay < job.deadline_at:
                        self.metrics.count("retries")
                        time.sleep(delay)
                        continue
                job.transition(
                    JobState.FAILED, retriable=True,
                    error=f"{type(err).__name__}: {err}", finished_at=time.time(),
                )
                self.journal.record("failed", job, retriable=True, error=job.error)
                self.metrics.count("failed")
                return

            wrong = self._verify(spec, payload) if self.verify else None
            payload.pop("_result_obj", None)
            payload.pop("_bfs_dist", None)
            if wrong is not None:
                # The contract: a provably wrong answer is never served.
                breaker.record_failure()
                self.metrics.count("wrong_results_blocked")
                attempt += 1
                if attempt < self.backoff.max_attempts:
                    self.metrics.count("retries")
                    time.sleep(self.backoff.delay(attempt - 1, key=job.job_id))
                    continue
                job.transition(
                    JobState.FAILED, retriable=True,
                    error=f"result failed verification: {wrong}", finished_at=time.time(),
                )
                self.journal.record("failed", job, retriable=True, error=job.error)
                self.metrics.count("failed")
                return

            payload["verify"] = {
                "status": "verified" if self.verify else "unverified",
                "oracle": "certificate" if self.verify else None,
            }
            payload["plan"] = provenance
            payload["attempts"] = job.attempts
            job.transition(
                JobState.DONE, result=payload, finished_at=time.time(), retriable=False
            )
            breaker.record_success()
            self.journal.record("done", job, result=payload)
            self.metrics.count("completed")
            self.metrics.observe_latency(job.finished_at - job.submitted_at)
            return
