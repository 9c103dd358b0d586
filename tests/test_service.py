"""Tests for the resilient multi-tenant service (repro.service).

Units first (quotas, queue, deadlines, breaker, journal, degradation —
all with injected clocks, no sockets), then service-level admission
flows on :class:`GraphService` directly, then full HTTP end-to-end
including the kill-and-restart journal-recovery contract.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.errors import JobCancelled, UsageError
from repro.service import (
    AdmissionQueue,
    BackoffPolicy,
    CancelToken,
    CircuitBreaker,
    DegradationPolicy,
    GraphService,
    Job,
    JobJournal,
    JobSpec,
    JobState,
    LoadtestConfig,
    QuotaTable,
    ServiceConfig,
    ServiceMode,
    ServiceServer,
    ServiceSoakConfig,
    TokenBucket,
    cancel_scope,
    run_loadtest,
    run_service_soak,
)
from repro.service.executor import validate_spec_impl
from repro.service.jobs import TERMINAL_STATES
from repro.service.journal import replay_journal


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _spec(**kw) -> JobSpec:
    base = dict(n=64, machine="2x2", deadline_s=None)
    base.update(kw)
    return JobSpec(**base)


# ---------------------------------------------------------------------------
# Token buckets / quotas
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        retry = bucket.try_acquire()
        assert retry == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        assert bucket.try_acquire() > 0
        clock.advance(0.5)  # 1 token back at rate 2/s
        assert bucket.try_acquire() == 0.0

    def test_retry_after_is_exact_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        bucket.try_acquire()
        clock.advance(0.125)  # half a token back
        assert bucket.try_acquire() == pytest.approx(0.125)

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(UsageError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(UsageError):
            TokenBucket(rate=1.0, burst=0.5)


class TestQuotaTable:
    def test_tenants_are_isolated(self):
        clock = FakeClock()
        quotas = QuotaTable(rate=1.0, burst=1.0, clock=clock)
        assert quotas.try_acquire("a") == 0.0
        assert quotas.try_acquire("a") > 0      # a is dry...
        assert quotas.try_acquire("b") == 0.0   # ...b is untouched

    def test_overrides(self):
        clock = FakeClock()
        quotas = QuotaTable(rate=1.0, burst=1.0, overrides={"vip": (10.0, 5.0)}, clock=clock)
        assert [quotas.try_acquire("vip") for _ in range(5)] == [0.0] * 5


# ---------------------------------------------------------------------------
# Admission queue
# ---------------------------------------------------------------------------


class TestAdmissionQueue:
    def test_priority_then_fifo(self):
        q = AdmissionQueue(capacity=8)
        low = Job(spec=_spec(priority="low"))
        normal1 = Job(spec=_spec(priority="normal"))
        normal2 = Job(spec=_spec(priority="normal"))
        high = Job(spec=_spec(priority="high"))
        for job in (low, normal1, normal2, high):
            assert q.offer(job) == ("accepted", None)
        assert [q.take(0) for _ in range(4)] == [high, normal1, normal2, low]

    def test_full_queue_sheds_lowest_youngest(self):
        q = AdmissionQueue(capacity=2)
        old_low = Job(spec=_spec(priority="low"))
        young_low = Job(spec=_spec(priority="low"))
        q.offer(old_low)
        q.offer(young_low)
        incoming = Job(spec=_spec(priority="high"))
        outcome, victim = q.offer(incoming)
        assert outcome == "accepted"
        assert victim is young_low  # youngest of the lowest class
        assert victim.state == JobState.SHED
        assert victim.retriable
        assert q.shed_total == 1

    def test_never_sheds_equal_or_higher(self):
        q = AdmissionQueue(capacity=1)
        q.offer(Job(spec=_spec(priority="normal")))
        outcome, victim = q.offer(Job(spec=_spec(priority="normal")))
        assert (outcome, victim) == ("rejected", None)
        outcome, _ = q.offer(Job(spec=_spec(priority="low")))
        assert outcome == "rejected"
        assert q.rejected_total == 2

    def test_take_times_out_empty(self):
        q = AdmissionQueue(capacity=1)
        assert q.take(timeout=0.01) is None

    def test_close_wakes_takers(self):
        q = AdmissionQueue(capacity=1)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(timeout=5.0)))
        t.start()
        q.close()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert got == [None]

    def test_rejects_after_close(self):
        q = AdmissionQueue(capacity=4)
        q.close()
        assert q.offer(Job(spec=_spec())) == ("rejected", None)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


# ---------------------------------------------------------------------------
# Deadlines, cancellation, backoff, breaker
# ---------------------------------------------------------------------------


class TestCancelToken:
    def test_deadline_raises(self):
        clock = FakeClock()
        token = CancelToken("job-x", deadline_at=1.0, clock=clock)
        token.check()  # within deadline: fine
        clock.advance(1.5)
        with pytest.raises(JobCancelled) as err:
            token.check()
        assert "deadline exceeded" in str(err.value)
        assert err.value.job_id == "job-x"

    def test_explicit_cancel(self):
        token = CancelToken("job-y")
        token.cancel("operator said so")
        with pytest.raises(JobCancelled, match="operator said so"):
            token.check()

    def test_scope_fails_fast_when_expired(self):
        clock = FakeClock(t=5.0)
        token = CancelToken("job-z", deadline_at=1.0, clock=clock)
        with pytest.raises(JobCancelled):
            with cancel_scope(token):
                pytest.fail("body must not run for an already-expired token")

    def test_deadline_aborts_solver_at_sync_point(self):
        """The simulator's barriers observe the thread-local token: a
        deadline that expires mid-solve unwinds as JobCancelled, and
        the solver's fault machinery does not absorb it."""
        from repro.core import connected_components
        from repro.graph import random_graph
        from repro.runtime import hps_cluster

        g = random_graph(512, 2048, seed=0)
        machine = hps_cluster(4, 2)
        token = CancelToken("job-dl", deadline_at=time.monotonic() - 1.0)
        token._clock = time.monotonic
        with pytest.raises(JobCancelled):
            with cancel_scope(token):
                connected_components(g, machine)

    def test_scope_restores_previous_token(self):
        outer = CancelToken("outer")
        inner = CancelToken("inner")
        from repro.service.deadlines import _ACTIVE

        with cancel_scope(outer):
            with cancel_scope(inner):
                assert _ACTIVE.token is inner
            assert _ACTIVE.token is outer
        assert _ACTIVE.token is None

    def test_modeled_time_unchanged_by_poll_hook(self):
        """The cancellation poll is observation-only: the same solve
        with and without an active scope models identical time."""
        from repro.core import connected_components
        from repro.graph import random_graph
        from repro.runtime import hps_cluster

        g = random_graph(256, 1024, seed=1)
        machine = hps_cluster(2, 2)
        bare = connected_components(g, machine).info.sim_time_ms
        token = CancelToken("job-obs", deadline_at=time.monotonic() + 3600)
        with cancel_scope(token):
            scoped = connected_components(g, machine).info.sim_time_ms
        assert scoped == bare


class TestBackoffPolicy:
    def test_exponential_with_cap(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=0.5, max_attempts=5)
        assert [policy.delay(i) for i in range(4)] == [0.1, 0.2, 0.4, 0.5]

    def test_zero_jitter_ignores_key(self):
        # The default policy is byte-identical with or without a key.
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=0.5, max_attempts=5)
        assert [policy.delay(i, key="job-a") for i in range(4)] == [0.1, 0.2, 0.4, 0.5]

    def test_seeded_jitter_schedule_is_pinned(self):
        # crc32-seeded jitter: the exact schedule for a given key is part
        # of the replay contract — these floats must never drift.
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=10.0, max_attempts=5, jitter=0.5)
        assert [policy.delay(i, key="job-a") for i in range(4)] == [
            0.06547284920234234,
            0.12197209745645524,
            0.32594894794747237,
            0.7346787232905627,
        ]

    def test_seeded_jitter_desynchronizes_keys_but_replays(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=10.0, max_attempts=5, jitter=0.5)
        a = [policy.delay(i, key="job-a") for i in range(4)]
        b = [policy.delay(i, key="job-b") for i in range(4)]
        assert a != b  # distinct jobs spread out...
        assert a == [policy.delay(i, key="job-a") for i in range(4)]  # ...identically on replay
        plain = [min(10.0, 0.1 * 2.0 ** i) for i in range(4)]
        for seq in (a, b):
            for got, ceiling in zip(seq, plain):
                assert 0.5 * ceiling <= got <= ceiling  # within the jitter band


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=10.0, clock=clock)
        for _ in range(3):
            assert breaker.allow() == 0.0
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow() == pytest.approx(10.0)
        assert breaker.opens_total == 1

    def test_success_resets_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_one_trial(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow() == 0.0        # the trial
        assert breaker.allow() > 0.0         # concurrent request still blocked
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_replay_terminal_and_orphans(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync=False)
        done = Job(spec=_spec())
        orphan = Job(spec=_spec())
        journal.record("submit", done)
        journal.record("submit", orphan)
        journal.record("start", done)
        journal.record("start", orphan)
        done.transition(JobState.DONE)
        journal.record("done", done, result={"answer": 42})
        journal.close()

        terminal, orphans = replay_journal(path)
        assert terminal[done.job_id]["state"] == JobState.DONE
        assert terminal[done.job_id]["result"] == {"answer": 42}
        assert [j.job_id for j in orphans] == [orphan.job_id]
        assert orphans[0].state == JobState.QUEUED

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync=False)
        job = Job(spec=_spec())
        journal.record("submit", job)
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"event": "done", "job_id": "' + job.job_id)  # crash mid-append
        terminal, orphans = replay_journal(path)
        assert terminal == {}
        assert [j.job_id for j in orphans] == [job.job_id]

    def test_missing_journal_is_empty(self, tmp_path):
        assert replay_journal(tmp_path / "nope.jsonl") == ({}, [])

    def test_record_after_close_is_noop(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync=False)
        journal.close()
        journal.record("submit", Job(spec=_spec()))  # must not raise

    def test_orphan_preserves_attempts(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync=False)
        job = Job(spec=_spec())
        job.attempts = 2
        journal.record("submit", job)
        journal.record("start", job)
        journal.close()
        _, orphans = replay_journal(path)
        assert orphans[0].attempts == 2


# ---------------------------------------------------------------------------
# Degradation policy
# ---------------------------------------------------------------------------


class TestDegradationPolicy:
    def test_mode_ladder(self):
        policy = DegradationPolicy(degraded_at=0.5, overload_at=0.85)
        assert policy.mode(0.0) == ServiceMode.NORMAL
        assert policy.mode(0.49) == ServiceMode.NORMAL
        assert policy.mode(0.5) == ServiceMode.DEGRADED
        assert policy.mode(0.85) == ServiceMode.OVERLOAD
        assert policy.mode(1.0) == ServiceMode.OVERLOAD

    def test_overload_refuses_low_priority_only(self):
        policy = DegradationPolicy()
        assert not policy.admits(ServiceMode.OVERLOAD, 0)
        assert policy.admits(ServiceMode.OVERLOAD, 1)
        assert policy.admits(ServiceMode.DEGRADED, 0)
        assert policy.snapshot()["low_priority_refused"] == 1

    def test_probes_only_in_normal_mode(self):
        policy = DegradationPolicy()
        assert policy.allow_probes(ServiceMode.NORMAL)
        assert not policy.allow_probes(ServiceMode.DEGRADED)
        assert not policy.allow_probes(ServiceMode.OVERLOAD)

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            DegradationPolicy(degraded_at=0.9, overload_at=0.5)


# ---------------------------------------------------------------------------
# Job spec validation
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_happy_path_from_payload(self):
        spec = JobSpec.from_payload({"algo": "mst", "n": 128, "priority": "high"})
        assert spec.algo == "mst"
        assert spec.m == 512
        assert spec.priority_rank == 2

    @pytest.mark.parametrize("payload", [
        {"algo": "pagerank"},
        {"n": 1},
        {"n": 10_000_000},
        {"density": 0.1},
        {"priority": "urgent"},
        {"deadline_s": -1},
        {"tenant": ""},
        {"tenant": "x" * 65},
        {"loss": 1.5},
        {"tprime": 0},
        {"n": "lots"},
        {"integrity": "yes"},
        {"algo": "bfs", "loss": 0.1},
        {"algo": "bfs", "integrity": True},
        {"frobnicate": 1},
    ])
    def test_rejects_bad_payloads(self, payload):
        with pytest.raises(UsageError):
            JobSpec.from_payload(payload)

    def test_rejects_non_object(self):
        with pytest.raises(UsageError):
            JobSpec.from_payload([1, 2, 3])

    def test_graph_fingerprint_is_input_identity(self):
        a = JobSpec.from_payload({"n": 128, "seed": 3})
        b = JobSpec.from_payload({"n": 128, "seed": 3, "priority": "high", "tenant": "x"})
        c = JobSpec.from_payload({"n": 128, "seed": 4})
        assert a.graph_fingerprint() == b.graph_fingerprint()
        assert a.graph_fingerprint() != c.graph_fingerprint()

    def test_job_ids_are_unique(self):
        ids = {Job(spec=_spec()).job_id for _ in range(64)}
        assert len(ids) == 64


class TestVariantField:
    """The optional ``variant`` submit field: registry-validated sugar
    for ``impl`` selecting a Liu–Tarjan CC variant."""

    def test_variant_resolves_to_effective_impl(self):
        spec = JobSpec.from_payload({"algo": "cc", "variant": "lt-rfa", "n": 64})
        assert spec.variant == "lt-rfa"
        assert spec.effective_impl == "lt-rfa"
        validate_spec_impl(spec)

    def test_variant_and_impl_are_mutually_exclusive(self):
        with pytest.raises(UsageError, match="mutually exclusive"):
            JobSpec.from_payload({"variant": "lt-rf", "impl": "collective"})

    def test_variant_on_non_cc_algo_rejected(self):
        with pytest.raises(UsageError, match="only supported for cc"):
            JobSpec.from_payload({"algo": "mst", "variant": "lt-rf"})

    def test_unknown_variant_rejected_against_registry(self):
        spec = JobSpec.from_payload({"algo": "cc", "variant": "lt-zz"})
        with pytest.raises(UsageError, match="'variant' must be one of"):
            validate_spec_impl(spec)

    def test_variant_survives_journal_round_trip(self):
        spec = JobSpec.from_payload({"algo": "cc", "variant": "lt-esa"})
        again = JobSpec(**spec.to_dict())
        assert again.effective_impl == "lt-esa"

    def test_submit_unknown_variant_is_400(self):
        svc = _service()
        status, body, _ = svc.submit({"algo": "cc", "n": 64, "variant": "sv"})
        assert status == 400
        assert "variant" in body["error"]

    def test_submit_variant_on_mst_is_400(self):
        svc = _service()
        status, body, _ = svc.submit({"algo": "mst", "n": 64, "variant": "lt-rf"})
        assert status == 400
        assert "variant" in body["error"]

    def test_variant_job_runs_and_verifies(self):
        svc = _service()
        status, body, _ = svc.submit({
            "algo": "cc", "n": 64, "machine": "2x2", "variant": "lt-pfa",
            "kind": "powerlaw",
        })
        assert status == 202
        job = svc.jobs[body["job_id"]]
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.DONE, job.error
        assert job.result["verify"]["status"] == "verified"
        assert job.result["plan"]["impl"] == "lt-pfa"

    def test_faults_with_unsupporting_impl_rejected_via_registry(self):
        spec = JobSpec.from_payload({"algo": "cc", "impl": "cgm", "loss": 0.01})
        with pytest.raises(UsageError, match="fault injection"):
            validate_spec_impl(spec)

    def test_submit_refuses_fault_classes_the_impl_cannot_fire(self):
        """Crash, node-loss and corruption events fire only under the round
        driver: ``naive`` would drop them silently, so submit answers 400.
        Loss is charged on every message, so ``naive`` still takes it."""
        svc = _service()
        base = {"algo": "cc", "impl": "naive", "n": 256, "machine": "4x2"}
        for fault in ({"node_loss_at": 1e-6}, {"corruption": 5.0}):
            status, body, _ = svc.submit({**base, **fault})
            assert status == 400, body
            assert "is not supported for CC impl 'naive'" in body["error"]
        status, body, _ = svc.submit({**base, "loss": 0.01})
        assert status == 202, body

    def test_integrity_supported_for_lt_variants(self):
        spec = JobSpec.from_payload({"algo": "cc", "variant": "lt-rf", "integrity": True})
        validate_spec_impl(spec)  # must not raise: LT owns a repair loop


# ---------------------------------------------------------------------------
# GraphService admission flows (no HTTP)
# ---------------------------------------------------------------------------


def _service(**overrides) -> GraphService:
    config = ServiceConfig(
        workers=1, journal_path=None, default_deadline_s=30.0, **overrides
    )
    return GraphService(config)


class TestAdmissionFlows:
    def test_bad_request_is_400(self):
        svc = _service()
        status, body, _ = svc.submit({"algo": "pagerank"})
        assert status == 400
        assert "algo" in body["error"]

    @pytest.mark.parametrize("request_body, named", [
        ({"algo": "cc", "impl": "naive", "redundancy": "buddy"}, "node-loss resilience"),
        ({"algo": "mst", "impl": "kruskal", "redundancy": "parity"}, "node-loss resilience"),
        ({"machine": "banana"}, "machine"),
        ({"opts": "warp"}, "opts"),
        ({"stragglers": 100, "machine": "2x2"}, "100 stragglers"),
        (
            {"node_loss_at": 1e-4, "node_loss_node": 9, "redundancy": "buddy", "machine": "2x2"},
            "lost node 9",
        ),
    ])
    def test_request_that_cannot_run_is_400(self, request_body, named):
        svc = _service()
        status, body, _ = svc.submit({"n": 64, "tenant": "t", **request_body})
        assert status == 400
        assert named in body["error"]
        assert len(svc.queue) == 0
        assert svc.executor.breaker_for("t")._failures == 0

    def test_quota_exhaustion_is_429_with_retry_after(self):
        svc = _service(quota_rate=1.0, quota_burst=2.0, queue_capacity=64)
        results = [svc.submit({"n": 64, "machine": "2x2"}) for _ in range(3)]
        assert [r[0] for r in results] == [202, 202, 429]
        status, body, headers = results[-1]
        assert "Retry-After" in headers
        assert body["retry_after_s"] > 0

    def test_queue_full_is_429(self):
        svc = _service(queue_capacity=2, quota_rate=1000.0, quota_burst=1000.0)
        # workers never started -> jobs stay queued
        statuses = [svc.submit({"n": 64, "machine": "2x2"})[0] for _ in range(3)]
        assert statuses == [202, 202, 429]
        assert svc.metrics.counters["rejected_queue_full"] == 1

    def test_queue_full_sheds_lower_priority_for_higher(self):
        svc = _service(queue_capacity=2, quota_rate=1000.0, quota_burst=1000.0)
        svc.submit({"n": 64, "machine": "2x2", "priority": "low"})
        status, body, _ = svc.submit({"n": 64, "machine": "2x2", "priority": "low"})
        shed_candidate = body["job_id"]
        status, _, _ = svc.submit({"n": 64, "machine": "2x2", "priority": "high"})
        assert status == 202
        status, body, _ = svc.status(shed_candidate)
        assert body["state"] == JobState.SHED
        assert body["retriable"]

    def test_overload_refuses_low_priority_at_the_door(self):
        svc = _service(queue_capacity=4, overload_at=0.5, degraded_at=0.25,
                       quota_rate=1000.0, quota_burst=1000.0)
        svc.submit({"n": 64, "machine": "2x2"})
        svc.submit({"n": 64, "machine": "2x2"})
        status, body, _ = svc.submit({"n": 64, "machine": "2x2", "priority": "low"})
        assert status == 429
        assert body["mode"] == ServiceMode.OVERLOAD
        status, _, _ = svc.submit({"n": 64, "machine": "2x2", "priority": "normal"})
        assert status == 202

    def test_open_breaker_is_503(self):
        svc = _service()
        breaker = svc.executor.breaker_for("flaky")
        for _ in range(svc.config.breaker_failures):
            breaker.record_failure()
        status, body, headers = svc.submit({"n": 64, "machine": "2x2", "tenant": "flaky"})
        assert status == 503
        assert "Retry-After" in headers
        # Other tenants are unaffected.
        assert svc.submit({"n": 64, "machine": "2x2", "tenant": "steady"})[0] == 202

    def test_unknown_job_is_404(self):
        svc = _service()
        assert svc.status("job-nope")[0] == 404
        assert svc.result("job-nope")[0] == 404

    def test_result_before_done_is_409(self):
        svc = _service()
        _, body, _ = svc.submit({"n": 64, "machine": "2x2"})
        assert svc.result(body["job_id"])[0] == 409

    def test_result_of_failed_job_is_410(self):
        svc = _service()
        _, body, _ = svc.submit({"n": 64, "machine": "2x2"})
        job = svc.jobs[body["job_id"]]
        job.transition(JobState.FAILED, retriable=True, error="boom")
        status, payload, _ = svc.result(job.job_id)
        assert status == 410
        assert payload["status"]["error"] == "boom"


class _OrderJournal:
    """Journal stub: notes, for every event, the state the job was in
    when the line was written (a terminal state there means a client
    could read the outcome before it was durable)."""

    def __init__(self, path=None) -> None:
        self.path = path
        self.seen = []

    def record(self, event, job, **fields) -> None:
        self.seen.append((event, job.state))

    def close(self) -> None:
        pass


def _journaled(svc: GraphService) -> _OrderJournal:
    svc.journal = svc.executor.journal = _OrderJournal(svc.journal.path)
    return svc.journal


class TestTerminalStatesAreJournaledFirst:
    """ROADMAP item 9's first rule: a job is ``done`` (or failed, or
    cancelled) to ``/status`` only once that line is in the journal."""

    def _terminal(self, journal):
        return [(event, state) for event, state in journal.seen if event in TERMINAL_STATES]

    def test_done(self):
        svc = _service()
        journal = _journaled(svc)
        _, body, _ = svc.submit({"n": 64, "machine": "2x2"})
        svc.executor.execute(svc.queue.take(0))
        assert svc.jobs[body["job_id"]].state == JobState.DONE
        assert self._terminal(journal) == [("done", JobState.RUNNING)]

    def test_failed_verification(self, monkeypatch):
        svc = _service()
        journal = _journaled(svc)
        monkeypatch.setattr(type(svc.executor), "_verify", lambda self, spec, payload: "forced")
        svc.submit({"n": 64, "machine": "2x2"})
        svc.executor.execute(svc.queue.take(0))
        assert self._terminal(journal) == [("failed", JobState.RUNNING)]

    def test_cancelled_while_queued(self):
        svc = _service()
        journal = _journaled(svc)
        svc.submit({"n": 64, "machine": "2x2", "deadline_s": 0.001})
        time.sleep(0.01)
        svc.executor.execute(svc.queue.take(0))
        assert self._terminal(journal) == [("cancelled", JobState.QUEUED)]

    def test_internal_error(self, monkeypatch):
        svc = _service()
        journal = _journaled(svc)

        def boom(job):
            svc.executor._stopping.set()  # one pass of the worker loop
            raise RuntimeError("boom")

        monkeypatch.setattr(svc.executor, "execute", boom)
        _, body, _ = svc.submit({"n": 64, "machine": "2x2"})
        svc.executor._loop()
        assert svc.jobs[body["job_id"]].state == JobState.FAILED
        assert self._terminal(journal) == [("failed", JobState.QUEUED)]

    def test_recovery_into_a_full_queue(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync=False)
        for _ in range(2):
            journal.record("submit", Job(spec=_spec()))
        journal.close()
        svc = _service(queue_capacity=1)
        stub = _journaled(svc)
        stub.path = path
        svc._recover()
        assert svc.recovered_jobs == 1
        assert self._terminal(stub) == [("failed", JobState.QUEUED)]


class TestExecutorContracts:
    def test_expired_deadline_cancels_without_solving(self):
        svc = _service()
        _, body, _ = svc.submit({"n": 64, "machine": "2x2", "deadline_s": 0.001})
        job = svc.jobs[body["job_id"]]
        time.sleep(0.01)
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.CANCELLED
        assert job.retriable
        assert "deadline" in job.error

    def test_wrong_result_is_never_served(self, monkeypatch):
        """The verified-result contract: if the oracle says wrong, the
        job fails (retriable) — the answer is not returned."""
        svc = _service()
        monkeypatch.setattr(
            type(svc.executor), "_verify", lambda self, spec, payload: "forced defect"
        )
        _, body, _ = svc.submit({"n": 64, "machine": "2x2"})
        job = svc.jobs[body["job_id"]]
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.FAILED
        assert job.retriable
        assert "verification" in job.error
        assert job.result is None
        assert svc.result(job.job_id)[0] == 410
        assert svc.metrics.counters["wrong_results_blocked"] >= 1

    @pytest.mark.parametrize("algo, density, entry, defect", [
        ("cc", 0.5, "connected_components", "reference says"),  # sparse: many components
        ("mst", 4.0, "minimum_spanning_forest", "!= minimum"),  # dense: many spanning trees
    ])
    def test_wrong_answer_from_the_solver_is_blocked(
        self, monkeypatch, algo, density, entry, defect
    ):
        """The contract end to end, ``_verify`` untouched: the *solver*
        hands back a plausible wrong answer (every component merged into
        one label; the maximum spanning forest) and it must not be served."""
        import repro.core

        real = getattr(repro.core, entry)

        def corrupted(graph, machine, **kwargs):
            if algo == "mst":
                return real(graph.with_weights(graph.w.max() - graph.w), machine, **kwargs)
            result = real(graph, machine, **kwargs)
            result.labels = np.zeros_like(result.labels)
            return result

        monkeypatch.setattr(repro.core, entry, corrupted)
        svc = _service()
        svc.executor.backoff = BackoffPolicy(base_s=0.0, max_attempts=2)
        _, body, _ = svc.submit({"algo": algo, "n": 64, "density": density, "machine": "2x2"})
        job = svc.jobs[body["job_id"]]
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.FAILED
        assert job.retriable
        assert "result failed verification" in job.error and defect in job.error
        assert job.result is None
        assert svc.result(job.job_id)[0] == 410
        assert svc.metrics.counters["wrong_results_blocked"] >= 1

    def test_reference_is_computed_once_per_cached_graph(self, monkeypatch):
        """What a certificate compares against depends on the graph
        alone: the first job on a fingerprint computes it, the next one
        reuses it, and it goes with the cache entry."""
        import repro.service.executor as executor

        calls = {"cc": 0, "mst": 0}
        real_count, real_msf = executor.count_components_reference, executor.msf_reference

        def count(graph):
            calls["cc"] += 1
            return real_count(graph)

        def msf(graph):
            calls["mst"] += 1
            return real_msf(graph)

        monkeypatch.setattr(executor, "count_components_reference", count)
        monkeypatch.setattr(executor, "msf_reference", msf)
        svc = _service()

        def run(**body):
            _, reply, _ = svc.submit({"n": 64, "machine": "2x2", **body})
            svc.executor.execute(svc.queue.take(0))
            assert svc.jobs[reply["job_id"]].result["verify"]["status"] == "verified"

        run(algo="mst", seed=1)
        run(algo="mst", seed=1)
        run(algo="cc", seed=1)
        run(algo="cc", seed=1)
        assert calls == {"cc": 1, "mst": 1}
        svc.executor.graphs.capacity = 1
        run(algo="cc", seed=2)  # evicts seed 1, and its reference with it
        run(algo="cc", seed=1)
        assert calls == {"cc": 3, "mst": 1}

    def test_service_path_never_imports_networkx(self):
        """One verified job per algorithm, and one per sequential or CGM
        baseline impl, in a fresh interpreter where networkx and SciPy
        cannot be imported: the service solves every impl it accepts and
        verifies it by certificate with NumPy alone."""
        script = (
            "import sys\n"
            "class Blocked:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] in ('networkx', 'scipy'):\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}')\n"
            "sys.meta_path.insert(0, Blocked())\n"
            "from repro.service import GraphService, ServiceConfig\n"
            "svc = GraphService(ServiceConfig(workers=1, journal_path=None))\n"
            "for algo, impl in [('cc', None), ('mst', None), ('bfs', None),\n"
            "                   ('cc', 'sequential'), ('cc', 'cgm'), ('mst', 'kruskal'),\n"
            "                   ('mst', 'prim'), ('mst', 'boruvka'), ('bfs', 'sequential')]:\n"
            "    payload = {'algo': algo, 'n': 64, 'machine': '2x2'}\n"
            "    if impl:\n"
            "        payload['impl'] = impl\n"
            "    _, body, _ = svc.submit(payload)\n"
            "    svc.executor.execute(svc.queue.take(0))\n"
            "    job = svc.jobs[body['job_id']]\n"
            "    assert job.result is not None, (algo, impl, job.state, job.error)\n"
            "    verify = job.result['verify']\n"
            "    assert verify == {'status': 'verified', 'oracle': 'certificate'}, verify\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_workers_never_solve_at_once(self, monkeypatch):
        """Two workers, two jobs: the solves run one after the other.
        Each recorded solve sleeps, so two that overlapped would show."""
        from repro.service.executor import JobExecutor

        spans, real = [], JobExecutor._solve

        def solve(executor, *args):
            start = time.perf_counter()
            time.sleep(0.05)
            try:
                return real(executor, *args)
            finally:
                spans.append((start, time.perf_counter()))

        monkeypatch.setattr(JobExecutor, "_solve", solve)
        svc = GraphService(ServiceConfig(workers=2, journal_path=None, default_deadline_s=30.0))
        ids = [svc.submit({"n": 64, "machine": "2x2", "seed": seed})[1]["job_id"]
               for seed in (1, 2)]
        svc.start()
        try:
            deadline = time.monotonic() + 60
            while (any(svc.jobs[i].state not in TERMINAL_STATES for i in ids)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            svc.stop()
        assert [svc.jobs[i].state for i in ids] == [JobState.DONE] * 2
        (_, first_end), (second_start, _) = sorted(spans)
        assert first_end <= second_start

    def test_verified_result_has_contract_blocks(self):
        svc = _service()
        _, body, _ = svc.submit({"n": 64, "machine": "2x2", "algo": "mst"})
        job = svc.jobs[body["job_id"]]
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.DONE
        result = job.result
        assert result["verify"] == {"status": "verified", "oracle": "certificate"}
        assert result["plan"]["source"] == "explicit"
        assert result["attempts"] == 1

    def test_fault_plan_that_does_not_fit_fails_once_without_breaker_charge(self):
        """A job that never passed submit validation (one replayed from
        an older journal) and asks for more stragglers than its machine
        has threads: a request error, not a solve failure."""
        svc = _service()
        spec = JobSpec.from_payload({"n": 64, "machine": "2x2", "stragglers": 100, "tenant": "t"})
        job = Job(spec=spec)
        svc.executor.execute(job)
        assert job.state == JobState.FAILED
        assert not job.retriable
        assert "100 stragglers" in job.error
        assert job.attempts == 0
        assert svc.executor.breaker_for("t")._failures == 0

    def test_failures_feed_breaker_and_retry(self, monkeypatch):
        from repro.errors import FaultError

        svc = _service()
        calls = {"n": 0}

        def explode(self, spec, machine, impl, opts, tprime, faults):
            calls["n"] += 1
            raise FaultError("injected")

        monkeypatch.setattr(type(svc.executor), "_solve", explode)
        svc.executor.backoff = BackoffPolicy(base_s=0.0, max_attempts=3)
        _, body, _ = svc.submit({"n": 64, "machine": "2x2", "tenant": "t"})
        job = svc.jobs[body["job_id"]]
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.FAILED
        assert calls["n"] == 3  # retried to the attempt budget
        assert svc.executor.breaker_for("t")._failures == 3

    def test_degraded_mode_skips_probe_solves(self, tmp_path, monkeypatch):
        """In degraded mode an auto job must not pay for probe solves:
        with an empty cache it falls back to the default configuration."""
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "cache.json"))
        svc = _service(degraded_at=0.01, queue_capacity=64,
                       quota_rate=1000.0, quota_burst=1000.0)
        _, body, _ = svc.submit({
            "n": 64, "machine": "2x2", "impl": "auto", "opts": "auto", "tprime": "auto",
        })
        svc.submit({"n": 64, "machine": "2x2"})  # stays queued: occupancy > degraded_at
        job = svc.jobs[body["job_id"]]
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.DONE
        assert job.result["plan"]["source"] == "default"
        assert svc.policy.snapshot()["plan_probe_skipped"] == 1

    @pytest.mark.parametrize("fields", [
        {"impl": "auto", "tprime": 2}, {"impl": "collective", "tprime": "auto"},
    ], ids=["auto-impl", "auto-tprime"])
    def test_mixed_auto_job_takes_the_best_entry_consistent_with_it(
        self, fields, tmp_path, monkeypatch
    ):
        """An explicit t' with ``impl: auto`` runs the impl measured best
        at that t'; an explicit impl with ``tprime: auto`` runs that impl's
        best t' — not the fields of the plan's overall winner."""
        from repro.service.executor import parse_service_machine
        from repro.tuning import Workload

        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "cache.json"))
        svc = _service()
        _, body, _ = svc.submit(dict(fields, n=256, machine="2x2"))
        job = svc.jobs[body["job_id"]]
        svc.executor.execute(svc.queue.take(0))
        assert job.state == JobState.DONE, job.error
        spec = job.spec
        plan = svc.executor.plan_cache.get(
            parse_service_machine("2x2", 256),
            Workload(kind="cc", n=256, m=spec.m, graph_kind=spec.kind),
        )
        entry = plan.choose(fields["impl"], fields["tprime"])
        assert (job.result["plan"]["impl"], job.result["plan"]["tprime"]) == (
            entry.impl, entry.tprime,
        )
        assert job.result["plan"]["source"] == "tuned"


# ---------------------------------------------------------------------------
# HTTP end-to-end
# ---------------------------------------------------------------------------


def _call(url: str, payload=None, timeout=30.0):
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _poll_terminal(url: str, job_id: str, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _call(f"{url}/status/{job_id}")
        assert status == 200
        if body["state"] in TERMINAL_STATES:
            return body
        time.sleep(0.02)
    pytest.fail(f"job {job_id} never reached a terminal state")


@pytest.fixture
def live_server(tmp_path):
    server = ServiceServer(ServiceConfig(
        port=0, workers=2, journal_path=str(tmp_path / "journal.jsonl"),
        journal_fsync=False, quota_rate=1000.0, quota_burst=1000.0,
    ))
    server.start_background()
    yield server
    server.stop()


class TestHTTPEndToEnd:
    def test_submit_status_result_roundtrip(self, live_server):
        url = live_server.url
        status, body = _call(f"{url}/submit", {"algo": "cc", "n": 128, "machine": "2x2"})
        assert status == 202
        final = _poll_terminal(url, body["job_id"])
        assert final["state"] == JobState.DONE
        status, result = _call(f"{url}/result/{body['job_id']}")
        assert status == 200
        assert result["result"]["verify"]["status"] == "verified"
        assert result["result"]["answer"]["num_components"] >= 1

    def test_endpoints_and_errors(self, live_server):
        url = live_server.url
        assert _call(f"{url}/healthz")[0] == 200
        status, metrics = _call(f"{url}/metrics")
        assert status == 200
        assert "queue" in metrics and "counters" in metrics
        assert _call(f"{url}/status/job-unknown")[0] == 404
        assert _call(f"{url}/nope")[0] == 404
        status, body = _call(f"{url}/submit", {"algo": "wat"})
        assert status == 400

    def test_kept_alive_replies_do_not_stall(self, live_server):
        """Headers and body leave in one segment.  Written separately,
        the body waits behind Nagle for the client's delayed ACK: ~40 ms
        a reply, >= 0.8 s for these twenty."""
        host, port = live_server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())
            assert time.perf_counter() - t0 < 0.4
        finally:
            conn.close()

    def test_malformed_json_is_400(self, live_server):
        req = urllib.request.Request(
            f"{live_server.url}/submit", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_concurrent_tenants_all_verified(self, live_server):
        url = live_server.url
        ids = []
        for i in range(6):
            status, body = _call(f"{url}/submit", {
                "algo": "cc" if i % 2 else "mst", "n": 128, "machine": "2x2",
                "tenant": f"tenant-{i % 3}", "seed": i % 2,
            })
            assert status == 202
            ids.append(body["job_id"])
        for job_id in ids:
            final = _poll_terminal(url, job_id)
            assert final["state"] == JobState.DONE
            _, result = _call(f"{url}/result/{job_id}")
            assert result["result"]["verify"]["status"] == "verified"


class TestKillAndRestartRecovery:
    def test_every_journaled_job_is_accounted_for(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        config = ServiceConfig(
            port=0, workers=1, journal_path=journal, journal_fsync=False,
            quota_rate=1000.0, quota_burst=1000.0,
        )
        server = ServiceServer(config)
        server.start_background()
        url = server.url
        ids = []
        for i in range(5):
            status, body = _call(f"{url}/submit", {
                "algo": "cc", "n": 256, "machine": "2x2", "seed": i, "deadline_s": 60,
            })
            assert status == 202
            ids.append(body["job_id"])
        # Let at least one finish, then kill everything at once.
        done_before = _poll_terminal(url, ids[0])
        assert done_before["state"] == JobState.DONE
        server.crash()

        restarted = ServiceServer(config)
        restarted.start_background()
        try:
            url = restarted.url
            # The finished job survives with its result, marked as history.
            status, body = _call(f"{url}/status/{ids[0]}")
            assert status == 200 and body["state"] == JobState.DONE
            assert body.get("recovered_from_journal")
            status, result = _call(f"{url}/result/{ids[0]}")
            assert status == 200
            assert result["result"]["verify"]["status"] == "verified"
            # Every other journaled job reaches a terminal state.
            for job_id in ids[1:]:
                final = _poll_terminal(url, job_id)
                assert final["state"] in TERMINAL_STATES
            statuses = {jid: _call(f"{url}/status/{jid}")[1]["state"] for jid in ids}
            assert all(state in TERMINAL_STATES for state in statuses.values())
        finally:
            restarted.stop()

    def test_occupied_port_raises_usage_error(self, tmp_path):
        server = ServiceServer(ServiceConfig(port=0, journal_path=None))
        try:
            _, port = server.address
            with pytest.raises(UsageError, match="cannot bind"):
                ServiceServer(ServiceConfig(port=port, journal_path=None))
        finally:
            server.httpd.server_close()


class TestLoadtest:
    """``run_loadtest`` against an in-process server, one small level."""

    @staticmethod
    def _run(**service) -> dict:
        server = ServiceServer(ServiceConfig(port=0, **service)).start_background()
        try:
            return run_loadtest(LoadtestConfig(
                base_url=server.url, rates_per_s=(20.0,), jobs_per_level=4, n=128,
            ))
        finally:
            server.stop()

    def test_small_level_holds_contract(self):
        report = self._run()
        level = report["levels"][0]
        assert report["ok"] and report["contract_violations"] == []
        assert level["offered"] == 4 and level["completed"] > 0
        assert level["latency_p50_s"] is not None

    def test_unverified_results_are_violations(self):
        report = self._run(verify=False)
        level = report["levels"][0]
        assert not report["ok"]
        assert level["completed"] > 0
        unverified = [
            v for v in report["contract_violations"] if "verify status 'unverified'" in v
        ]
        assert len(unverified) == level["completed"]


class TestServiceSoak:
    def test_small_campaign_holds_contract(self, tmp_path):
        report = run_service_soak(
            ServiceSoakConfig(jobs=6, n=128, restart=True, poll_timeout_s=120.0),
            out_dir=tmp_path,
        )
        summary = report["summary"]
        assert summary["violations"] == []
        assert summary["submitted"] == 6
        assert (tmp_path / "BENCH_service_soak.json").exists()
