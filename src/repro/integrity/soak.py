"""Composed chaos/soak harness for the silent-fault story.

Each soak iteration builds a fresh seeded graph, composes a fault plan
(silent block/payload corruption, optionally message loss, stragglers,
scheduled crashes, and permanent node losses), and solves it twice per
algorithm:

* **unprotected** — fault plan only.  Silent flips land and nothing
  checks them; the run is expected to sometimes produce a *wrong but
  plausible* answer (or trip a convergence bound), which is exactly the
  failure mode this subsystem exists to close.
* **protected** — same plan plus the full
  :class:`~repro.integrity.IntegrityConfig`.  Every result must verify.

Every result is checked by the certificates the service serves under
(``check_connected_counts`` for CC, ``check_spanning_forest`` for MST), so "wrong"
means *provably* wrong, not merely different.  The report — per
iteration and in aggregate — lands in ``BENCH_soak.json`` via the bench
harness, and the CI ``soak-smoke`` job fails on any unrepaired wrong
result.

Heavy imports (solvers, generators, scipy) stay function-local: this
module is imported by ``repro.integrity.__init__``, which the
collectives pull in at package-import time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, GraphError, ReproError, VerificationError
from ..faults.plan import CrashEvent, FaultPlan, NodeLossEvent
from .config import IntegrityConfig

__all__ = ["SoakConfig", "run_soak", "ServiceSoakConfig", "run_service_soak"]


@dataclass(frozen=True)
class SoakConfig:
    """One soak campaign: how many iterations, over what, under what.

    ``corruption``/``payload_corruption`` follow
    :class:`~repro.faults.FaultPlan` semantics; ``loss``, ``stragglers``
    and ``crashes`` compose the fail-stop fault classes in so the repair
    paths are exercised together, not in isolation.
    """

    iterations: int = 5
    seed: int = 0
    algos: tuple = ("cc", "mst")
    nodes: int = 16
    threads: int = 8
    n: int = 2048
    m: int = 8192
    corruption: float = 2.0e-2
    payload_corruption: float = 1.0e-4
    loss: float = 0.0
    stragglers: int = 0
    crashes: int = 0
    #: Permanent node losses scheduled per run.  The protected leg
    #: survives them through ``redundancy``; the unprotected leg aborts
    #: with ``UnrecoverableLossError`` — the loud failure the report
    #: documents.
    node_losses: int = 0
    redundancy: str = ""
    spares: int = 0
    unprotected: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigError(f"soak iterations must be >= 1: got {self.iterations}")
        if self.n < 2 or self.m < 1:
            raise ConfigError(f"soak graph must have n >= 2, m >= 1: got n={self.n} m={self.m}")
        for algo in self.algos:
            if algo not in ("cc", "mst"):
                raise ConfigError(f"unknown soak algo {algo!r}; expected 'cc' or 'mst'")
        if self.node_losses < 0:
            raise ConfigError(f"node_losses must be >= 0: got {self.node_losses}")
        if self.redundancy not in ("", "buddy", "parity"):
            raise ConfigError(
                f"redundancy must be '', 'buddy' or 'parity': got {self.redundancy!r}"
            )
        if self.node_losses and not self.redundancy:
            raise ConfigError(
                "node_losses > 0 needs a redundancy mode, or every protected"
                " run would abort unrecoverably"
            )
        if self.node_losses >= self.nodes:
            raise ConfigError(
                f"cannot lose {self.node_losses} of {self.nodes} nodes and keep solving"
            )


def _compose_plan(config: SoakConfig, seed: int, total_threads: int) -> FaultPlan:
    """The iteration's fault plan: corruption always, fail-stop classes
    as configured (stragglers drawn from a dedicated picker stream)."""
    slow: dict[int, float] = {}
    if config.stragglers:
        picker = np.random.default_rng(seed)
        chosen = picker.choice(total_threads, size=config.stragglers, replace=False)
        slow = {int(t): 4.0 for t in chosen}
    crashes = tuple(
        CrashEvent(thread=int((seed + j) % total_threads), at_time=2.0e-4 * (j + 1))
        for j in range(config.crashes)
    )
    losses = tuple(
        NodeLossEvent(node=int((seed + j) % config.nodes), at_time=3.0e-4 * (j + 1))
        for j in range(config.node_losses)
    )
    return FaultPlan(
        seed=seed,
        loss=config.loss,
        stragglers=slow,
        crashes=crashes,
        node_losses=losses,
        corruption=config.corruption,
        payload_corruption=config.payload_corruption,
    )


def _defect(algo: str, result, g, gw) -> "str | None":
    """The certificate's verdict on a finished run: None, or the defect."""
    from ..graph.validation import check_connected_counts
    from ..mst.verify import check_spanning_forest

    try:
        if algo == "cc":
            check_connected_counts(result.labels, g)
        else:
            check_spanning_forest(gw, result.edge_ids)
    except (GraphError, VerificationError) as err:
        return str(err)
    return None


def _counters(result) -> dict:
    c = result.info.trace.counters
    return {
        "injected": c.corruptions_injected,
        "detected": c.corruptions_detected,
        "repairs": c.repairs,
        "retries": c.retries,
        "crashes": c.crashes,
        "restores": c.checkpoint_restores,
        "node_losses": c.node_losses,
        "epoch_changes": c.epoch_changes,
        "blocks_reconstructed": c.blocks_reconstructed,
    }


def _solve(algo: str, g, gw, machine, plan, integrity, resilience=None):
    from ..core.pipeline import connected_components, minimum_spanning_forest

    if algo == "cc":
        return connected_components(
            g, machine, impl="collective", faults=plan,
            integrity=integrity, resilience=resilience,
        )
    return minimum_spanning_forest(
        gw, machine, impl="collective", faults=plan,
        integrity=integrity, resilience=resilience,
    )


def _run_iteration(task: "tuple[SoakConfig, int]") -> list:
    """One soak iteration (all algos, protected + unprotected).

    Module-level and fully determined by ``(config, i)`` so the fan-out
    layer can run iterations in worker processes; returns the iteration's
    records, from which the summary is derived afterwards.
    """
    from ..graph.generators import generate
    from ..runtime.machine import hps_cluster

    config, i = task
    machine = hps_cluster(config.nodes, config.threads)
    seed_i = config.seed + i
    gw = generate("random", config.n, config.m, seed_i, weighted=True)
    g = gw.with_weights(None)
    plan = _compose_plan(config, seed_i, machine.total_threads)
    resilience = None
    if config.redundancy:
        from ..resilience import RedundancyConfig

        resilience = RedundancyConfig(mode=config.redundancy, spares=config.spares)
    records = []
    for algo in config.algos:
        record = {"iteration": i, "algo": algo, "seed": seed_i}
        try:
            res = _solve(algo, g, gw, machine, plan, IntegrityConfig(), resilience)
        except ReproError as err:
            record["protected"] = {"failed": f"{type(err).__name__}: {err}"}
        else:
            record["protected"] = {
                "wrong": _defect(algo, res, g, gw),
                "sim_time_ms": res.info.sim_time_ms,
                **_counters(res),
            }
        if config.unprotected:
            try:
                res = _solve(algo, g, gw, machine, plan, None)
            except ReproError as err:
                record["unprotected"] = {"error": f"{type(err).__name__}: {err}"}
            else:
                record["unprotected"] = {
                    "wrong": _defect(algo, res, g, gw),
                    "injected": _counters(res)["injected"],
                }
        records.append(record)
    return records


def _summarize(records: list) -> dict:
    """Aggregate the CI contract's summary from the per-run records
    (pure fold over the records, so it cannot depend on worker count)."""
    summary = {
        "runs": 0,
        "protected_wrong": 0,
        "protected_failed": 0,
        "injected": 0,
        "detected": 0,
        "repairs": 0,
        "node_losses": 0,
        "epoch_changes": 0,
        "blocks_reconstructed": 0,
        "unprotected_runs": 0,
        "unprotected_wrong_or_error": 0,
    }
    for record in records:
        summary["runs"] += 1
        prot = record["protected"]
        if "failed" in prot:
            summary["protected_failed"] += 1
        else:
            if prot["wrong"] is not None:
                summary["protected_wrong"] += 1
            summary["injected"] += prot["injected"]
            summary["detected"] += prot["detected"]
            summary["repairs"] += prot["repairs"]
            summary["node_losses"] += prot.get("node_losses", 0)
            summary["epoch_changes"] += prot.get("epoch_changes", 0)
            summary["blocks_reconstructed"] += prot.get("blocks_reconstructed", 0)
        unprot = record.get("unprotected")
        if unprot is not None:
            summary["unprotected_runs"] += 1
            if "error" in unprot or unprot["wrong"] is not None:
                summary["unprotected_wrong_or_error"] += 1
    return summary


def run_soak(config: SoakConfig, out_dir=None, write_json: bool = True, workers=None) -> dict:
    """Run the soak campaign and return (and optionally write) the report.

    The report's ``summary`` is the contract the CI job enforces:
    ``protected_wrong`` and ``protected_failed`` must be zero — every
    injected silent fault is either harmless or detected and repaired —
    while ``unprotected_wrong_or_error`` documents what the same plans
    do to an undefended run.

    ``workers`` fans the (independent, seeded) iterations out across a
    process pool (``None``/1 = serial, ``"auto"`` = one per CPU).  The
    report is identical for any worker count except the ``wallclock``
    block, which records how this campaign actually ran.
    """
    import time

    from ..bench.harness import write_bench_json
    from ..perf.fanout import fanout_map, resolve_workers

    nworkers = resolve_workers(workers)
    t0 = time.perf_counter()
    per_iteration = fanout_map(
        _run_iteration, [(config, i) for i in range(config.iterations)], workers=nworkers
    )
    seconds = time.perf_counter() - t0
    records = [record for chunk in per_iteration for record in chunk]
    report = {
        "config": asdict(config),
        "summary": _summarize(records),
        "iterations": records,
        "wallclock": {"workers": nworkers, "seconds": seconds},
    }
    if write_json:
        report["path"] = str(write_bench_json("soak", report, directory=out_dir))
    return report


# ---------------------------------------------------------------------------
# Chaos traffic through the service
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSoakConfig:
    """Chaos campaign routed through the HTTP service.

    Instead of calling the solvers directly, this leg submits
    fault-laden jobs over the wire against a live
    :class:`~repro.service.ServiceServer`, bursty enough to trip the
    per-tenant quota and the bounded queue, and (optionally) kills the
    server mid-campaign to exercise journal recovery.  The contract it
    enforces is the service's, one level above ``run_soak``'s: the
    server never dies, never serves an unverified or wrong result, and
    after the crash-restart every journaled job is accounted for.
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
