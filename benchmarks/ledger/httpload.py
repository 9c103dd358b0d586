"""The load generator of the ``service-open`` workload.

One thread plays every client.  It submits job bodies, polls the jobs in
flight, and times each job from the moment it was *due* to the poll that
first sees it terminal — so a stall of the server (or of this generator)
counts against the jobs queued behind it, as independent clients would
feel it.  The same loops drive the HTTP API of a server process
(:class:`HttpClient`) and, in the traced run, an in-process
``GraphService`` (:class:`InProcessClient`).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional, Tuple

POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled", "shed")


class HttpClient:
    """JSON calls to ``python -m repro serve``, one connection per call.

    Independent clients do not share a connection, and the program's own
    load test (``repro.service.loadtest``) connects per request too.  A
    kept-alive connection to this server stalls about 40 ms on every
    reply (it writes headers and body in two small segments, which
    Nagle's algorithm and the client's delayed ACK hold apart), and that
    stall would be all this workload measured.
    """

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)

    def _call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Connection": "close"}
        if data:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(*self.address, timeout=JOB_TIMEOUT_S)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def submit(self, body: dict) -> Tuple[int, dict]:
        return self._call("POST", "/submit", body)

    def status(self, job_id: str) -> dict:
        return self._call("GET", f"/status/{job_id}")[1]

    def result(self, job_id: str) -> dict:
        return self._call("GET", f"/result/{job_id}")[1]


class InProcessClient:
    """The same three calls straight into a ``GraphService``."""

    def __init__(self, service) -> None:
        self.service = service

    def submit(self, body: dict) -> Tuple[int, dict]:
        status, payload, _headers = self.service.submit(body)
        return status, payload

    def status(self, job_id: str) -> dict:
        return self.service.status(job_id)[1]

    def result(self, job_id: str) -> dict:
        return self.service.result(job_id)[1]


class LoadRun:
    """Jobs in flight and the outcome of those that finished."""

    def __init__(self, client) -> None:
        self.client = client
        self.outstanding: Dict[str, tuple] = {}  # job id -> (due time, request class)
        self.latencies: List[float] = []
        self.by_class: Dict[tuple, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.lag_max = 0.0
        self.failures: List[str] = []

    def submit(self, body: dict, due: float) -> None:
        self.attempted += 1
        self.lag_max = max(self.lag_max, time.perf_counter() - due)
        status, reply = self.client.submit(body)
        if status != 202:
            self.refused += 1
            self._fail(f"submit answered {status}: {reply.get('error')}")
            return
        shape = (body.get("algo"), body.get("variant") or body.get("impl"), body.get("kind"))
        self.outstanding[reply["job_id"]] = (due, shape)

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def poll(self) -> None:
        for job_id, (due, shape) in list(self.outstanding.items()):
            state = self.client.status(job_id).get("state")
            now = time.perf_counter()
            if state in TERMINAL:
                del self.outstanding[job_id]
                self._finish(job_id, state, now - due, shape)
            elif now - due > JOB_TIMEOUT_S:
                del self.outstanding[job_id]
                self._fail(f"{job_id}: no terminal state after {JOB_TIMEOUT_S:.0f} s")

    def _finish(self, job_id: str, state: str, latency: float, shape: tuple) -> None:
        if state != "done":
            self._fail(f"{job_id}: ended {state}")
            return
        result = self.client.result(job_id).get("result") or {}
        if (result.get("verify") or {}).get("status") != "verified":
            self._fail(f"{job_id}: served without a verified result")
            return
        self.latencies.append(latency)
        self.by_class.setdefault(shape, []).append(latency)


def open_loop(run: LoadRun, bodies: List[dict], offsets: List[float]) -> None:
    """Submit ``bodies[i]`` at ``offsets[i]`` seconds from now whatever
    the server is doing; return when every job is terminal."""
    start = time.perf_counter()
    sent = 0
    while sent < len(bodies) or run.outstanding:
        now = time.perf_counter()
        while sent < len(bodies) and start + offsets[sent] <= now:
            run.submit(bodies[sent], start + offsets[sent])
            sent += 1
        run.poll()
        pause = POLL_S
        if sent < len(bodies):
            pause = min(pause, max(0.0, start + offsets[sent] - time.perf_counter()))
        time.sleep(pause)


def closed_loop(run: LoadRun, bodies: Iterator[dict], in_flight: int, seconds: float,
                max_jobs: Optional[int] = None) -> float:
    """Keep ``in_flight`` jobs outstanding for ``seconds`` (or until
    ``run`` has attempted ``max_jobs``), then drain; returns the seconds
    from the first submission to the last completion."""
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        while (
            len(run.outstanding) < in_flight
            and time.perf_counter() < deadline
            and (max_jobs is None or run.attempted < max_jobs)
        ):
            run.submit(next(bodies), time.perf_counter())
        if not run.outstanding:
            return time.perf_counter() - start
        run.poll()
        time.sleep(POLL_S)
