"""Chaos campaign through the HTTP service (``python -m repro soak``).

Each campaign submits a bursty, fault-laden multi-tenant job stream to a
live :class:`~repro.service.ServiceServer`, optionally kills the server
mid-campaign and restarts it on the same journal, and reports the
service's contract: the server never dies, never serves an unverified
or wrong result, and after the crash-restart every journaled job is
accounted for.  Served results are checked by the certificates in
:mod:`repro.graph.validation` and :mod:`repro.mst.verify`.

The solvers' own fault contract — every solver that takes faults returns
the reference answer or fails loudly, under every fault class and
protection it supports — is a property over the algorithm registry in
``tests/test_rounds.py``, not a campaign.

Heavy imports (the service, scipy) stay function-local: this module is
imported by ``repro.integrity.__init__``, which the collectives pull in
at package-import time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import ConfigError

__all__ = ["ServiceSoakConfig", "run_service_soak"]


@dataclass(frozen=True)
class ServiceSoakConfig:
    """Chaos campaign routed through the HTTP service.

    Submits fault-laden jobs over the wire against a live
    :class:`~repro.service.ServiceServer`, bursty enough to trip the
    per-tenant quota and the bounded queue, and (optionally) kills the
    server mid-campaign to exercise journal recovery.
    """

    jobs: int = 24
    seed: int = 0
    n: int = 512
    density: float = 4.0
    machine: str = "4x2"
    workers: int = 2
    queue_capacity: int = 8
    quota_rate: float = 20.0
    quota_burst: float = 8.0
    corruption: float = 0.0
    payload_corruption: float = 0.0
    loss: float = 0.05
    fault_fraction: float = 0.5
    #: Fraction of jobs that permanently lose one node of their simulated
    #: machine mid-solve (redundancy-protected, so the job must still
    #: verify and complete).
    node_loss_fraction: float = 0.0
    redundancy: str = "buddy"
    deadline_s: float = 30.0
    restart: bool = True
    poll_timeout_s: float = 180.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"service soak needs >= 1 job: got {self.jobs}")
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise ConfigError(f"fault_fraction must be in [0, 1]: got {self.fault_fraction}")
        if not 0.0 <= self.node_loss_fraction <= 1.0:
            raise ConfigError(
                f"node_loss_fraction must be in [0, 1]: got {self.node_loss_fraction}"
            )
        if self.redundancy not in ("buddy", "parity"):
            raise ConfigError(f"redundancy must be 'buddy' or 'parity': got {self.redundancy!r}")


def _service_soak_body(config: ServiceSoakConfig, rng, index: int) -> dict:
    """One chaos job body: fault-heavy, integrity-protected when silent
    corruption is in the mix (the solver contract requires it)."""
    algo = rng.choice(("cc", "cc", "mst"))
    body = {
        "tenant": rng.choice(("acme", "globex")),
        "algo": algo,
        "n": config.n,
        "density": config.density,
        "kind": rng.choice(("random", "hybrid")),
        "seed": rng.randrange(4),
        "machine": config.machine,
        "priority": rng.choice(("low", "normal", "normal", "high")),
        "deadline_s": config.deadline_s,
    }
    if rng.random() < config.fault_fraction:
        body["loss"] = config.loss
        body["fault_seed"] = index
        if config.corruption or config.payload_corruption:
            body["corruption"] = config.corruption
            body["payload_corruption"] = config.payload_corruption
            body["integrity"] = True
    if rng.random() < config.node_loss_fraction:
        # Kill one node of this job's simulated machine mid-solve; the
        # worker must recover through redundancy and still verify.
        body["node_loss_at"] = 3.0e-4
        body["node_loss_node"] = 1
        body["redundancy"] = config.redundancy
    return body


def _service_soak_drain(base_url: str, job_ids: list, timeout_s: float) -> "tuple[dict, list]":
    """Poll ``job_ids`` to terminal states; returns (outcomes, violations)."""
    import time

    from ..service.jobs import JobState, TERMINAL_STATES
    from ..service.loadtest import _http_json

    outcomes: dict = {}
    violations: list = []
    pending = list(job_ids)
    give_up_at = time.monotonic() + timeout_s
    while pending and time.monotonic() < give_up_at:
        still = []
        for job_id in pending:
            status, body = _http_json(f"{base_url}/status/{job_id}")
            if status != 200:
                violations.append(f"status for {job_id} returned {status}")
                continue
            state = body.get("state")
            if state not in TERMINAL_STATES:
                still.append(job_id)
                continue
            outcomes[state] = outcomes.get(state, 0) + 1
            if state == JobState.DONE:
                rstatus, rbody = _http_json(f"{base_url}/result/{job_id}")
                verify = ((rbody.get("result") or {}).get("verify") or {}).get("status")
                if rstatus != 200 or verify != "verified":
                    violations.append(
                        f"job {job_id}: served result not verified"
                        f" (status={rstatus}, verify={verify!r})"
                    )
        pending = still
        if pending:
            time.sleep(0.05)
    for job_id in pending:
        outcomes["unresolved"] = outcomes.get("unresolved", 0) + 1
        violations.append(f"job {job_id} never reached a terminal state")
    return outcomes, violations


def run_service_soak(config: ServiceSoakConfig, out_dir=None, write_json: bool = True) -> dict:
    """Drive chaos traffic through a live service; report the contract.

    The report's ``summary.violations`` is the CI gate: it must be
    empty — a violation means the server died, served an unverified or
    wrong result, or lost a journaled job across the crash-restart.
    """
    import random
    import tempfile
    import time
    from pathlib import Path

    from ..bench.harness import write_bench_json
    from ..service import ServiceConfig, ServiceServer
    from ..service.loadtest import _http_json

    rng = random.Random(f"service-soak:{config.seed}")
    journal_path = Path(tempfile.mkdtemp(prefix="repro-service-soak-")) / "journal.jsonl"
    service_config = ServiceConfig(
        port=0,
        workers=config.workers,
        queue_capacity=config.queue_capacity,
        quota_rate=config.quota_rate,
        quota_burst=config.quota_burst,
        journal_path=str(journal_path),
        journal_fsync=False,  # chaos volume; the torn-tail test covers fsync
    )
    t0 = time.perf_counter()
    server = ServiceServer(service_config)
    server.start_background()
    submitted = accepted = rejected_429 = rejected_503 = bad = 0
    accepted_ids: list = []
    violations: list = []
    try:
        def submit_burst(indices) -> None:
            # No pacing: the burst is what makes quota + shedding engage.
            nonlocal submitted, accepted, rejected_429, rejected_503, bad
            for index in indices:
                body = _service_soak_body(config, rng, index)
                submitted += 1
                status, reply = _http_json(f"{server.url}/submit", body)
                if status == 202:
                    accepted += 1
                    accepted_ids.append(reply["job_id"])
                elif status == 429:
                    rejected_429 += 1
                elif status == 503:
                    rejected_503 += 1
                else:
                    bad += 1
                    violations.append(f"unexpected submit status {status}: {reply}")

        half = config.jobs // 2 if config.restart else config.jobs
        submit_burst(range(half))
        recovered = 0
        if config.restart:
            # Crash the server mid-campaign (socket, workers, and
            # journal all vanish while jobs are queued or running),
            # restart it on the same journal, and keep the traffic
            # coming.
            server.crash()
            server = ServiceServer(service_config)
            server.start_background()
            recovered = server.service.recovered_jobs
            submit_burst(range(half, config.jobs))

        outcomes, drain_violations = _service_soak_drain(
            server.url, accepted_ids, config.poll_timeout_s
        )
        violations.extend(drain_violations)
        hstatus, _ = _http_json(f"{server.url}/healthz", timeout=5.0)
        if hstatus != 200:
            violations.append(f"server unhealthy after campaign: {hstatus}")
        _, metrics = _http_json(f"{server.url}/metrics", timeout=5.0)
    finally:
        server.stop()
    report = {
        "config": asdict(config),
        "summary": {
            "submitted": submitted,
            "accepted": accepted,
            "rejected_429": rejected_429,
            "rejected_503": rejected_503,
            "unexpected": bad,
            "outcomes": dict(sorted(outcomes.items())),
            "recovered_after_restart": recovered,
            "violations": violations,
        },
        "server_metrics": metrics,
        "wallclock": {"seconds": time.perf_counter() - t0},
    }
    if write_json:
        report["path"] = str(write_bench_json("service_soak", report, directory=out_dir))
    return report
