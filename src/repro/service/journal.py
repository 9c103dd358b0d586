"""Crash-safe append-only job journal.

Every job lifecycle transition is appended as one JSON line —
``submit``, ``start``, ``done``, ``failed``, ``cancelled``, ``shed``,
``recovered`` — flushed and fsync'd before the transition is
acknowledged, so a ``kill -9`` can lose at most a transition that was
never acknowledged.  A torn final line (the crash landed mid-append) is
detected by the JSON parser during replay and ignored; every complete
line before it is intact because appends are serialized under a lock.

Replay folds the line stream into one record per job id:

* jobs whose last event is **terminal** keep their final status (and,
  for ``done``, the result payload) — a restarted server keeps serving
  ``/status`` and ``/result`` for them;
* jobs last seen as ``submit``/``start``/``recovered`` are **in-flight
  orphans**: the restarted server re-enqueues each one (state
  ``queued``, journaled as ``recovered``) so no journaled work is ever
  silently lost.  Expired deadlines surface as clean ``cancelled``
  (retriable) outcomes on the next dequeue rather than vanishing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, TextIO

from .jobs import Job, JobSpec, JobState

__all__ = ["JobJournal", "finish", "replay_journal"]

_TERMINAL_EVENTS = {"done", "failed", "cancelled", "shed"}


class JobJournal:
    """Append-only journal; one writer object per server process."""

    def __init__(self, path: "str | os.PathLike", fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = open(self.path, "a", encoding="utf-8")

    def record(self, event: str, job: Job, **fields) -> None:
        """Append one transition; durable before this method returns."""
        entry = {
            "ts": time.time(),
            "event": event,
            "job_id": job.job_id,
            "tenant": job.spec.tenant,
            "attempts": job.attempts,
        }
        if event == "submit":
            entry["spec"] = job.spec.to_dict()
            entry["deadline_s"] = job.spec.deadline_s
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True, default=float) + "\n"
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line)
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def finish(journal, job: Job, state: str, **fields) -> None:
    """End ``job`` in the terminal ``state``: journal it (the event is
    named like the state) and only then make it visible, so no client
    is told an outcome that a ``kill -9`` could still lose.  ``fields``
    are journaled and set on the job alike; ``finished_at`` is stamped
    once the line is durable."""
    journal.record(state, job, **fields)
    job.transition(state, finished_at=time.time(), **fields)


def replay_journal(path: "str | os.PathLike") -> "tuple[Dict[str, dict], List[Job]]":
    """Fold a journal into ``(terminal_records, orphans)``.

    ``terminal_records`` maps job id -> the final journaled record
    (with ``state``, ``error``, ``result`` where applicable) for jobs
    that finished.  ``orphans`` are reconstructed :class:`Job` objects
    for journaled jobs with no terminal event — the work a crash left
    in flight, which the caller must re-enqueue or cleanly fail.
    """
    path = Path(path)
    specs: Dict[str, dict] = {}
    last: Dict[str, dict] = {}
    order: List[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return {}, []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            # Torn tail from a mid-append crash: everything before it
            # is complete; nothing after it can exist.
            break
        job_id = entry.get("job_id")
        if not job_id:
            continue
        if job_id not in last:
            order.append(job_id)
        if entry.get("event") == "submit":
            specs[job_id] = entry
        last[job_id] = entry

    terminal: Dict[str, dict] = {}
    orphans: List[Job] = []
    state_by_event = {
        "done": JobState.DONE,
        "failed": JobState.FAILED,
        "cancelled": JobState.CANCELLED,
        "shed": JobState.SHED,
    }
    for job_id in order:
        entry = last[job_id]
        event = entry.get("event")
        if event in _TERMINAL_EVENTS:
            terminal[job_id] = {
                "job_id": job_id,
                "tenant": entry.get("tenant", "default"),
                "state": state_by_event[event],
                "attempts": int(entry.get("attempts", 0)),
                "retriable": bool(entry.get("retriable", False)),
                "error": entry.get("error"),
                "result": entry.get("result"),
                "spec": specs.get(job_id, {}).get("spec"),
            }
            continue
        submit = specs.get(job_id)
        if submit is None:
            # started-but-never-submitted cannot happen in one journal;
            # a foreign or truncated record is not actionable.
            continue
        try:
            spec = JobSpec(**submit["spec"])
        except Exception:
            continue  # schema drift: skip rather than crash recovery
        job = Job(spec=spec, job_id=job_id)
        job.attempts = int(entry.get("attempts", 0))
        # Deadlines are wall-relative to the original submission; after
        # a restart the budget is conservatively restarted rather than
        # resurrected (the original monotonic epoch died with the
        # crashed process).
        orphans.append(job)
    return terminal, orphans
