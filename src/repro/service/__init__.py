"""Resilient multi-tenant graph-analytics service.

A long-running JSON API (stdlib :class:`http.server.ThreadingHTTPServer`
— no new dependencies) in front of the existing CC/MST/BFS solvers,
built around a robustness core rather than a routing core:

* **admission control** — a bounded priority queue
  (:class:`~repro.service.queue.AdmissionQueue`) plus per-tenant
  token-bucket quotas (:mod:`repro.service.quotas`); rejected work gets
  ``429`` with a ``Retry-After`` hint, never an unbounded backlog;
* **deadlines** — per-job deadlines with *cooperative cancellation*
  threaded through the simulator's synchronization points
  (:mod:`repro.service.deadlines`);
* **failure containment** — retry with exponential backoff and a
  per-tenant circuit breaker for jobs that keep failing under injected
  faults;
* **graceful degradation** — under load the service sheds the
  lowest-priority work first and stops paying for tuning probe solves,
  falling back to cached :class:`~repro.tuning.PlanCache` plans
  (:mod:`repro.service.degradation`);
* **crash safety** — an append-only job journal
  (:mod:`repro.service.journal`); a restarted server recovers every
  in-flight job (resumed or cleanly failed with a retriable status);
* **a verified-result contract** — every served answer carries its
  certificate-verify status and plan provenance; a wrong result is never
  served.

``python -m repro serve`` runs the server; ``python -m repro loadtest``
drives it with an open-loop arrival process and writes
``BENCH_service.json``.  See ``docs/service.md``.
"""

from .degradation import DegradationPolicy, ServiceMode
from .deadlines import BackoffPolicy, CancelToken, CircuitBreaker, cancel_scope
from .jobs import Job, JobSpec, JobState, PRIORITIES
from .journal import JobJournal
from .loadtest import LoadtestConfig, run_loadtest
from .queue import AdmissionQueue
from .quotas import QuotaTable, TokenBucket
from .server import GraphService, ServiceConfig, ServiceServer

__all__ = [
    "AdmissionQueue",
    "BackoffPolicy",
    "CancelToken",
    "CircuitBreaker",
    "DegradationPolicy",
    "GraphService",
    "Job",
    "JobJournal",
    "JobSpec",
    "JobState",
    "LoadtestConfig",
    "PRIORITIES",
    "QuotaTable",
    "ServiceConfig",
    "ServiceMode",
    "ServiceServer",
    "TokenBucket",
    "cancel_scope",
    "run_loadtest",
]
