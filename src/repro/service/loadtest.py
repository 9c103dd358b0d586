"""Service campaign client: the open-loop loadtest and the chaos soak.

Both campaigns submit a seeded job mix over HTTP and check what the
*service* delivers, not what the solvers could: accepted/429/503 splits,
every accepted job polled to a terminal state, and the verified-result
contract (every served result must carry ``verify.status ==
"verified"``; a single violation fails the run).  They share one
job-body generator, one submit tally, one drain-and-verify loop and one
``/healthz`` + ``/metrics`` tail.

* :func:`run_loadtest` (``python -m repro loadtest``) drives a running
  server with a seeded Poisson arrival process at several offered
  rates, including one past saturation, and reports latency and
  throughput per level.  Open-loop matters: a closed-loop client slows
  down when the server slows down, hiding saturation.  Here arrivals are
  scheduled on a wall-clock timeline fixed *before* the first request,
  so an overloaded server faces the same offered rate as a healthy one
  and its admission control has to do the shedding.
* :func:`run_service_soak` (``python -m repro soak``) starts its own
  in-process :class:`~repro.service.ServiceServer`, fires an unpaced
  burst of fault-laden jobs (corruption under ``integrity``, node loss
  under ``redundancy``), kills the server mid-campaign and restarts it
  on the same journal, and checks that every journaled job is accounted
  for.

Everything uses the stdlib ``urllib`` — the campaigns are also the e2e
exercisers in CI, where no HTTP client library is guaranteed.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError, UsageError
from .jobs import JobState, TERMINAL_STATES
from .server import ServiceConfig, ServiceServer

__all__ = ["LoadtestConfig", "ServiceSoakConfig", "run_loadtest", "run_service_soak"]

#: The loadtest's tenants and the message-loss rate of its faulted jobs.
TENANTS = ("acme", "globex", "initech")
LOADTEST_LOSS = 0.05
LOADTEST_POLL_TIMEOUT_S = 120.0
POLL_INTERVAL_S = 0.05

#: The soak's job mix: two tenants, so the burst trips their quotas.
SOAK_TENANTS = ("acme", "globex")
SOAK_MIX = {"machine": "4x2", "deadline_s": 30.0, "fault_fraction": 0.5}
#: The soak's in-process server: a small queue and tight quotas.
SOAK_SERVER = {"workers": 2, "queue_capacity": 8, "quota_rate": 20.0, "quota_burst": 8.0}
#: When a soak job's node dies (modeled seconds into the solve), and which.
SOAK_NODE_LOSS_AT = 3.0e-4
SOAK_NODE_LOSS_NODE = 1


@dataclass(frozen=True)
class LoadtestConfig:
    """One loadtest campaign: the same job mix at several offered rates."""

    base_url: str = "http://127.0.0.1:8642"
    rates_per_s: Sequence[float] = (2.0, 6.0, 18.0)
    jobs_per_level: int = 30
    seed: int = 0
    n: int = 512
    density: float = 4.0
    machine: str = "4x2"
    deadline_s: float = 20.0
    fault_fraction: float = 0.25       # fraction of jobs with injected loss

    def __post_init__(self) -> None:
        if not self.rates_per_s or any(r <= 0 for r in self.rates_per_s):
            raise UsageError(f"rates must be positive: got {list(self.rates_per_s)}")
        if self.jobs_per_level < 1:
            raise UsageError(f"jobs_per_level must be >= 1: got {self.jobs_per_level}")


@dataclass(frozen=True)
class ServiceSoakConfig:
    """One chaos campaign through an in-process server.

    ``corruption`` / ``payload_corruption`` / ``loss`` apply to the
    faulted half of the jobs; ``node_loss_fraction`` of the jobs lose a
    node of their simulated machine mid-solve under ``redundancy``.
    """

    jobs: int = 24
    seed: int = 0
    n: int = 512
    density: float = 4.0
    corruption: float = 0.0
    payload_corruption: float = 0.0
    loss: float = 0.05
    node_loss_fraction: float = 0.0
    redundancy: str = "buddy"
    restart: bool = True
    poll_timeout_s: float = 180.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"service soak needs >= 1 job: got {self.jobs}")
        if not 0.0 <= self.node_loss_fraction <= 1.0:
            raise ConfigError(
                f"node_loss_fraction must be in [0, 1]: got {self.node_loss_fraction}"
            )
        if self.redundancy not in ("buddy", "parity"):
            raise ConfigError(f"redundancy must be 'buddy' or 'parity': got {self.redundancy!r}")


def _http_json(url: str, payload: Optional[dict] = None, timeout: float = 30.0):
    """(status, body) for a GET (payload None) or POST request."""
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        try:
            body = json.loads(err.read().decode("utf-8"))
        except ValueError:
            body = {"error": str(err)}
        return err.code, body


def _job_body(
    rng: random.Random, index: int, *, tenants: Sequence[str], n: int, density: float,
    machine: str, deadline_s: float, fault_fraction: float, loss: float,
    corruption: float = 0.0, payload_corruption: float = 0.0,
    node_loss_fraction: float = 0.0, redundancy: str = "buddy",
) -> dict:
    """Deterministic job body number ``index`` of a campaign's mix.

    A ``fault_fraction`` of the jobs carry message ``loss``, and silent
    corruption under ``integrity`` when either rate is set (the solver
    contract requires it); a ``node_loss_fraction`` of the jobs lose one
    node mid-solve under ``redundancy``, and must still verify.
    """
    algo = rng.choice(("cc", "cc", "mst"))  # CC-heavy, like the paper's focus
    priority = rng.choice(("low", "normal", "normal", "high"))
    spec = {
        "tenant": rng.choice(tenants),
        "algo": algo,
        "n": n,
        "density": density,
        "kind": rng.choice(("random", "hybrid")),
        "seed": rng.randrange(4),          # small pool -> graph-cache hits
        "machine": machine,
        "impl": "collective",
        "opts": "all",
        "priority": priority,
        "deadline_s": deadline_s,
    }
    if rng.random() < fault_fraction:
        spec["loss"] = loss
        spec["fault_seed"] = index
        if corruption or payload_corruption:
            spec["corruption"] = corruption
            spec["payload_corruption"] = payload_corruption
            spec["integrity"] = True
    if node_loss_fraction and rng.random() < node_loss_fraction:
        spec["node_loss_at"] = SOAK_NODE_LOSS_AT
        spec["node_loss_node"] = SOAK_NODE_LOSS_NODE
        spec["redundancy"] = redundancy
    return spec


def _percentile(values: List[float], q: float) -> Optional[float]:
    if not values:
        return None
    values = sorted(values)
    idx = min(len(values) - 1, max(0, int(round(q * (len(values) - 1)))))
    return values[idx]


@dataclass
class _Tally:
    """What one campaign level submitted, and what became of it."""

    offered: int = 0
    accepted: int = 0
    rejected_429: int = 0
    rejected_503: int = 0
    errors: int = 0
    job_ids: List[str] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def submit(self, base_url: str, body: dict) -> None:
        """POST one job and count the reply (thread-safe)."""
        try:
            status, reply = _http_json(f"{base_url}/submit", body)
        except (OSError, ValueError) as err:
            status, reply = None, err
        with self.lock:
            self.offered += 1
            if status == 202:
                self.accepted += 1
                self.job_ids.append(reply["job_id"])
            elif status == 429:
                self.rejected_429 += 1
            elif status == 503:
                self.rejected_503 += 1
            else:
                self.errors += 1
                self.violations.append(
                    f"transport error on submit: {reply}" if status is None
                    else f"unexpected submit status {status}: {reply}"
                )

    def drain(self, base_url: str, timeout_s: float) -> None:
        """Poll accepted jobs to a terminal state; enforce the contract."""
        pending = list(self.job_ids)
        give_up_at = time.monotonic() + timeout_s
        while pending and time.monotonic() < give_up_at:
            still = []
            for job_id in pending:
                status, body = _http_json(f"{base_url}/status/{job_id}")
                if status != 200:
                    self.violations.append(
                        f"status for accepted job {job_id} returned {status}"
                    )
                    continue
                state = body.get("state")
                if state not in TERMINAL_STATES:
                    still.append(job_id)
                    continue
                self.outcomes[state] = self.outcomes.get(state, 0) + 1
                if state == JobState.DONE:
                    rstatus, rbody = _http_json(f"{base_url}/result/{job_id}")
                    if rstatus != 200:
                        self.violations.append(f"done job {job_id} result returned {rstatus}")
                        continue
                    result = rbody.get("result") or {}
                    verify = (result.get("verify") or {}).get("status")
                    if verify != "verified":
                        self.violations.append(
                            f"job {job_id} served with verify status {verify!r}"
                        )
                    if body.get("latency_s") is not None:
                        self.latencies_s.append(body["latency_s"])
            pending = still
            if pending:
                time.sleep(POLL_INTERVAL_S)
        for job_id in pending:
            self.outcomes["unresolved"] = self.outcomes.get("unresolved", 0) + 1
            self.violations.append(
                f"job {job_id} did not reach a terminal state within {timeout_s:.0f}s"
            )


def _health_and_metrics(base_url: str, violations: List[str]) -> dict:
    """The server's ``/metrics`` after a campaign; an unhealthy server
    is a violation."""
    mstatus, metrics = _http_json(f"{base_url}/metrics", timeout=5.0)
    hstatus, _ = _http_json(f"{base_url}/healthz", timeout=5.0)
    if hstatus != 200:
        violations.append(f"server unhealthy after campaign: {hstatus}")
    return metrics if mstatus == 200 else {"error": mstatus}


def _submit_level(config: LoadtestConfig, rate: float, rng: random.Random, tally: _Tally) -> None:
    """Fire one level's arrivals open-loop."""
    # The timeline is fixed up front: exponential gaps at the offered rate.
    gaps = [rng.expovariate(rate) for _ in range(config.jobs_per_level)]
    bodies = [
        _job_body(
            rng, i, tenants=TENANTS, n=config.n, density=config.density,
            machine=config.machine, deadline_s=config.deadline_s,
            fault_fraction=config.fault_fraction, loss=LOADTEST_LOSS,
        )
        for i in range(config.jobs_per_level)
    ]
    start = time.monotonic()
    deadline_for = []
    t = 0.0
    for gap in gaps:
        t += gap
        deadline_for.append(start + t)

    def fire(when: float, body: dict) -> None:
        delay = when - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        tally.submit(config.base_url, body)

    # One thread per arrival keeps the loop open: a slow submit response
    # never delays the next scheduled arrival.
    threads = [
        threading.Thread(target=fire, args=(when, body), daemon=True)
        for when, body in zip(deadline_for, bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_loadtest(config: LoadtestConfig) -> dict:
    """Run the campaign; returns the ``BENCH_service`` payload.

    The caller decides what to do with ``contract_violations`` (the CLI
    exits nonzero on any).  ``ok`` is True iff the server stayed up and
    never served an unverified or wrong result.
    """
    try:
        status, health = _http_json(f"{config.base_url}/healthz", timeout=5.0)
    except OSError as err:
        raise UsageError(
            f"cannot reach a service at {config.base_url}: {err}"
            " (start one with `python -m repro serve`)"
        ) from None
    if status != 200:
        raise UsageError(f"service at {config.base_url} is not healthy: {status} {health}")
    levels = []
    violations: List[str] = []
    for level_idx, rate in enumerate(config.rates_per_s):
        rng = random.Random(f"{config.seed}:{level_idx}")
        tally = _Tally()
        wall_start = time.monotonic()
        _submit_level(config, rate, rng, tally)
        tally.drain(config.base_url, LOADTEST_POLL_TIMEOUT_S)
        wall = time.monotonic() - wall_start
        done = tally.outcomes.get("done", 0)
        levels.append({
            "offered_rate_per_s": rate,
            "offered": tally.offered,
            "accepted": tally.accepted,
            "rejected_429": tally.rejected_429,
            "rejected_503": tally.rejected_503,
            "transport_errors": tally.errors,
            "outcomes": dict(sorted(tally.outcomes.items())),
            "completed": done,
            "throughput_per_s": done / wall if wall > 0 else 0.0,
            "shed_rate": (
                (tally.rejected_429 + tally.outcomes.get("shed", 0)) / tally.offered
                if tally.offered else 0.0
            ),
            "latency_p50_s": _percentile(tally.latencies_s, 0.50),
            "latency_p99_s": _percentile(tally.latencies_s, 0.99),
            "wall_s": wall,
        })
        violations.extend(tally.violations)
    metrics = _health_and_metrics(config.base_url, violations)
    return {
        "config": {
            "rates_per_s": list(config.rates_per_s),
            "jobs_per_level": config.jobs_per_level,
            "tenants": list(TENANTS),
            "seed": config.seed,
            "n": config.n,
            "density": config.density,
            "machine": config.machine,
            "deadline_s": config.deadline_s,
            "fault_fraction": config.fault_fraction,
            "loss": LOADTEST_LOSS,
        },
        "levels": levels,
        "server_metrics": metrics,
        "contract_violations": violations,
        "ok": not violations,
    }


def run_service_soak(config: ServiceSoakConfig, out_dir=None) -> dict:
    """Drive chaos traffic through an in-process service; report the
    contract and write ``BENCH_service_soak.json`` to ``out_dir``.

    The report's ``summary.violations`` is the CI gate: it must be
    empty — a violation means the server died, served an unverified or
    wrong result, or lost a journaled job across the crash-restart.
    """
    from ..bench.harness import write_bench_json

    rng = random.Random(f"service-soak:{config.seed}")
    journal_path = Path(tempfile.mkdtemp(prefix="repro-service-soak-")) / "journal.jsonl"
    service_config = ServiceConfig(
        port=0,
        journal_path=str(journal_path),
        journal_fsync=False,  # chaos volume; the torn-tail test covers fsync
        **SOAK_SERVER,
    )
    t0 = time.perf_counter()
    server = ServiceServer(service_config).start_background()
    tally = _Tally()
    try:
        def submit_burst(indices) -> None:
            # No pacing: the burst is what makes quota + shedding engage.
            for index in indices:
                tally.submit(server.url, _job_body(
                    rng, index, n=config.n, density=config.density, loss=config.loss,
                    corruption=config.corruption,
                    payload_corruption=config.payload_corruption,
                    node_loss_fraction=config.node_loss_fraction,
                    redundancy=config.redundancy, tenants=SOAK_TENANTS, **SOAK_MIX,
                ))

        half = config.jobs // 2 if config.restart else config.jobs
        submit_burst(range(half))
        recovered = 0
        if config.restart:
            # Crash the server mid-campaign (socket, workers, and
            # journal all vanish while jobs are queued or running),
            # restart it on the same journal, and keep the traffic
            # coming.
            server.crash()
            server = ServiceServer(service_config).start_background()
            recovered = server.service.recovered_jobs
            submit_burst(range(half, config.jobs))
        tally.drain(server.url, config.poll_timeout_s)
        metrics = _health_and_metrics(server.url, tally.violations)
    finally:
        server.stop()
    report = {
        "config": {**asdict(config), **SOAK_MIX, **SOAK_SERVER},
        "summary": {
            "submitted": tally.offered,
            "accepted": tally.accepted,
            "rejected_429": tally.rejected_429,
            "rejected_503": tally.rejected_503,
            "unexpected": tally.errors,
            "outcomes": dict(sorted(tally.outcomes.items())),
            "recovered_after_restart": recovered,
            "violations": tally.violations,
        },
        "server_metrics": metrics,
        "wallclock": {"seconds": time.perf_counter() - t0},
    }
    report["path"] = str(write_bench_json("service_soak", report, directory=out_dir))
    return report
