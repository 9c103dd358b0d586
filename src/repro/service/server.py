"""The service core and its stdlib HTTP front end.

Layering follows DART-MPI's runtime-over-transport split:
:class:`GraphService` is the transport-free core — admission control,
quotas, breakers, journal, executor — fully drivable from tests without
a socket; :class:`ServiceServer` is the thin
:class:`~http.server.ThreadingHTTPServer` adapter that maps HTTP verbs
onto it.

API (all JSON):

========================  =====================================================
``POST /submit``          202 ``{"job_id": ...}`` | 400 bad request |
                          429 over quota / queue full / overload-shed
                          (with ``Retry-After``) | 503 circuit breaker open
                          (with ``Retry-After``)
``GET /status/<job>``     job lifecycle record; 404 unknown id
``GET /result/<job>``     the verified result; 404 unknown, 409 not finished,
                          410 for terminal-but-unsuccessful (body says why)
``GET /healthz``          200 always while the process lives (crash-only
                          design: liveness is the only health claim)
``GET /metrics``          counters, latency percentiles, queue + mode,
                          per-tenant breaker states, degradation decisions
========================  =====================================================
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..errors import UsageError
from .deadlines import BackoffPolicy, CircuitBreaker
from .degradation import DegradationPolicy
from .executor import JobExecutor, ServiceMetrics, validate_spec_impl
from .jobs import Job, JobSpec, JobState, TERMINAL_STATES
from .journal import JobJournal, finish, replay_journal
from .queue import AdmissionQueue
from .quotas import QuotaTable

__all__ = ["ServiceConfig", "GraphService", "ServiceServer"]


@dataclass
class ServiceConfig:
    """Everything the operator can turn."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    queue_capacity: int = 64
    quota_rate: float = 10.0           # tokens/second per tenant
    quota_burst: float = 20.0
    breaker_failures: int = 4
    breaker_reset_s: float = 5.0
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    degraded_at: float = 0.5
    overload_at: float = 0.85
    journal_path: Optional[str] = None  # None disables journaling
    default_deadline_s: Optional[float] = 30.0
    verify: bool = True
    journal_fsync: bool = True


class _NullJournal:
    """Journal-shaped no-op for journal-less (ephemeral) servers."""

    path = None

    def record(self, event, job, **fields) -> None:
        pass

    def close(self) -> None:
        pass


class GraphService:
    """The robustness core: everything but the HTTP socket."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.quotas = QuotaTable(self.config.quota_rate, self.config.quota_burst)
        self.policy = DegradationPolicy(self.config.degraded_at, self.config.overload_at)
        if self.config.journal_path:
            self.journal = JobJournal(self.config.journal_path, fsync=self.config.journal_fsync)
        else:
            self.journal = _NullJournal()
        self.jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._terminal_history: Dict[str, dict] = {}
        self.executor = JobExecutor(
            queue=self.queue,
            journal=self.journal,
            metrics=self.metrics,
            policy=self.policy,
            workers=self.config.workers,
            backoff=self.config.backoff,
            breaker_factory=lambda: CircuitBreaker(
                self.config.breaker_failures, self.config.breaker_reset_s
            ),
            verify=self.config.verify,
        )
        self.started_at = time.time()
        self.recovered_jobs = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._recover()
        self.executor.start()

    def stop(self) -> None:
        self.executor.stop()
        self.journal.close()

    def _recover(self) -> None:
        """Replay the journal: keep terminal history, re-enqueue orphans."""
        if self.journal.path is None:
            return
        terminal, orphans = replay_journal(self.journal.path)
        self._terminal_history = terminal
        for job in orphans:
            self.journal.record("recovered", job)
            with self._jobs_lock:
                self.jobs[job.job_id] = job
            outcome, victim = self.queue.offer(job)
            if outcome != "accepted":
                # A full queue on recovery still must not lose the job:
                # it terminates cleanly as retriable, and stays queryable.
                finish(
                    self.journal, job, JobState.FAILED, retriable=True,
                    error="recovery: queue full, resubmit",
                )
            else:
                self.recovered_jobs += 1
                if victim is not None:
                    self.journal.record("shed", victim, retriable=True, error=victim.error)

    # -- request handling ----------------------------------------------------

    def submit(self, payload: dict) -> Tuple[int, dict, Dict[str, str]]:
        """Admission pipeline; returns (http_status, body, headers)."""
        self.metrics.count("submitted")
        try:
            spec = JobSpec.from_payload(payload)
            validate_spec_impl(spec)
            self.executor.prepare(spec)
        except UsageError as err:
            self.metrics.count("rejected_bad_request")
            return 400, {"error": str(err)}, {}
        if spec.deadline_s is None and self.config.default_deadline_s is not None:
            spec = JobSpec(**{**spec.to_dict(), "deadline_s": self.config.default_deadline_s})

        # 1. circuit breaker: a tenant whose jobs keep dying fails fast.
        breaker = self.executor.breaker_for(spec.tenant)
        retry_after = breaker.allow()
        if retry_after > 0:
            self.metrics.count("rejected_breaker")
            return 503, {
                "error": f"circuit breaker open for tenant {spec.tenant!r}",
                "retry_after_s": retry_after,
            }, {"Retry-After": f"{max(1, round(retry_after))}"}

        # 2. per-tenant quota.
        retry_after = self.quotas.try_acquire(spec.tenant)
        if retry_after > 0:
            self.metrics.count("rejected_quota")
            return 429, {
                "error": f"tenant {spec.tenant!r} over quota",
                "retry_after_s": retry_after,
            }, {"Retry-After": f"{max(1, round(retry_after))}"}

        # 3. overload shedding at the door: lowest priority first.
        mode = self.policy.mode(self.queue.occupancy)
        if not self.policy.admits(mode, spec.priority_rank):
            self.metrics.count("rejected_overload")
            return 429, {
                "error": "service overloaded; low-priority work is being shed",
                "mode": mode,
                "retry_after_s": 1.0,
            }, {"Retry-After": "1"}

        # 4. bounded queue (may shed a lower-priority victim).
        job = Job(spec=spec)
        with self._jobs_lock:
            self.jobs[job.job_id] = job
        outcome, victim = self.queue.offer(job)
        if outcome != "accepted":
            with self._jobs_lock:
                self.jobs.pop(job.job_id, None)
            self.metrics.count("rejected_queue_full")
            retry_after = max(1.0, len(self.queue) * 0.1)
            return 429, {
                "error": "queue full",
                "retry_after_s": retry_after,
            }, {"Retry-After": f"{max(1, round(retry_after))}"}
        self.journal.record("submit", job)
        if victim is not None:
            self.metrics.count("shed")
            self.journal.record("shed", victim, retriable=True, error=victim.error)
        self.metrics.count("accepted")
        return 202, {
            "job_id": job.job_id,
            "state": job.state,
            "mode": mode,
        }, {}

    def _lookup(self, job_id: str) -> "Tuple[Optional[Job], Optional[dict]]":
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is not None:
            return job, None
        return None, self._terminal_history.get(job_id)

    def status(self, job_id: str) -> Tuple[int, dict, Dict[str, str]]:
        job, historic = self._lookup(job_id)
        if job is not None:
            return 200, job.status_dict(), {}
        if historic is not None:
            body = {k: v for k, v in historic.items() if k not in ("result", "spec")}
            body["recovered_from_journal"] = True
            return 200, body, {}
        return 404, {"error": f"unknown job {job_id!r}"}, {}

    def result(self, job_id: str) -> Tuple[int, dict, Dict[str, str]]:
        job, historic = self._lookup(job_id)
        if job is None and historic is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        if job is not None:
            state = job.state
            result = job.result_dict()
            status = job.status_dict()
        else:
            state = historic["state"]
            result = historic.get("result")
            status = {k: v for k, v in historic.items() if k not in ("result", "spec")}
        if state == JobState.DONE and result is not None:
            return 200, {"job_id": job_id, "state": state, "result": result}, {}
        if state in TERMINAL_STATES:
            return 410, {"job_id": job_id, "state": state, "status": status}, {}
        return 409, {
            "job_id": job_id, "state": state,
            "error": "job not finished; poll /status",
        }, {}

    def healthz(self) -> Tuple[int, dict, Dict[str, str]]:
        return 200, {
            "ok": True,
            "uptime_s": time.time() - self.started_at,
            "mode": self.policy.mode(self.queue.occupancy),
        }, {}

    def metrics_view(self) -> Tuple[int, dict, Dict[str, str]]:
        snap = self.metrics.snapshot()
        snap.update({
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.capacity,
                "occupancy": self.queue.occupancy,
                "shed_total": self.queue.shed_total,
                "rejected_total": self.queue.rejected_total,
            },
            "mode": self.policy.mode(self.queue.occupancy),
            "degradation": self.policy.snapshot(),
            "breakers": {
                tenant: breaker.state
                for tenant, breaker in sorted(self.executor.breakers.items())
            },
            "recovered_jobs": self.recovered_jobs,
        })
        return 200, snap, {}


class _Handler(BaseHTTPRequestHandler):
    service: GraphService  # set on the subclass by ServiceServer
    protocol_version = "HTTP/1.1"
    # Buffered: headers and body leave as one segment.  Written apart, the
    # body waits behind Nagle for the client's delayed ACK (~40 ms a reply).
    wbufsize = 64 * 1024

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _reply(self, status: int, body: dict, headers: Dict[str, str]) -> None:
        data = json.dumps(body, sort_keys=True, default=float).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:
        if self.path != "/submit":
            self._reply(404, {"error": f"unknown endpoint {self.path!r}"}, {})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._reply(400, {"error": "request body must be valid JSON"}, {})
            return
        self._reply(*self.service.submit(payload))

    def do_GET(self) -> None:
        path = self.path.rstrip("/")
        if path == "/healthz":
            self._reply(*self.service.healthz())
        elif path == "/metrics":
            self._reply(*self.service.metrics_view())
        elif path.startswith("/status/"):
            self._reply(*self.service.status(path[len("/status/"):]))
        elif path.startswith("/result/"):
            self._reply(*self.service.result(path[len("/result/"):]))
        else:
            self._reply(404, {"error": f"unknown endpoint {self.path!r}"}, {})


class ServiceServer:
    """HTTP adapter: bind, serve (optionally in the background), stop."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = GraphService(self.config)
        handler = type("BoundHandler", (_Handler,), {"service": self.service})
        try:
            self.httpd = ThreadingHTTPServer(
                (self.config.host, self.config.port), handler
            )
        except OSError as err:
            raise UsageError(
                f"cannot bind {self.config.host}:{self.config.port}: {err.strerror or err}"
                " (is another server already running on that port?)"
            ) from None
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start_background(self) -> "ServiceServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.service.start()
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        with contextlib.suppress(Exception):
            self.httpd.shutdown()
        self.httpd.server_close()
        self.service.stop()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def crash(self) -> None:
        """Simulated ``kill -9``: the socket, workers, and journal all
        vanish at once with no draining — whatever was queued or
        running is left for the next incarnation's journal recovery.
        (In-process stand-in for the CI job's real ``kill -9``.)"""
        self.service.executor.abort()
        with contextlib.suppress(Exception):
            self.httpd.shutdown()
        self.httpd.server_close()
        self.service.journal.close()
