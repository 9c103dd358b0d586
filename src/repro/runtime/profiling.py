"""Per-phase profiling of simulated runs.

The trace's six categories say *what kind* of time a run spent; the
phase profiler says *where*: one record per collective call (and per
explicitly marked phase) with the phase's duration, the mean thread
time, and the skew — the max/mean ratio that exposes hotspots like the
label-concentrated serves the ``offload`` optimization targets.

Enable per-runtime (``PGASRuntime(machine, profile=True)``), and the
records land in ``rt.profiler.records``; or wrap any solves in
:func:`profiled`, and every runtime built inside the block appends its
records to the session (``session.records``).  Either list renders with
:func:`render_phases`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "PhaseRecord",
    "PhaseProfiler",
    "ProfileSession",
    "RoundWindow",
    "current_profile_session",
    "profiled",
    "render_phases",
]


@dataclass(frozen=True)
class PhaseRecord:
    """One profiled phase (usually one collective call)."""

    name: str
    requests: int
    duration_s: float    # phase wall on the simulated clock (max thread)
    imbalance_s: float   # max - min thread time at the phase's final barrier
    hottest_thread: int
    retries: int = 0     # message retransmits injected during the phase

    @property
    def wait_fraction(self) -> float:
        """Fraction of the phase the fastest thread spent waiting at the
        closing barrier — ~0 means balanced, ~1 means one thread did
        everything (a hotspot)."""
        return self.imbalance_s / self.duration_s if self.duration_s > 0 else 0.0


@dataclass(frozen=True)
class RoundWindow:
    """Summary of the phase records between two profiler checkpoints —
    what the online tuning adapter reads after each CC/MST round."""

    phases: int
    duration_s: float        # sum of phase durations in the window
    requests: int
    max_wait_fraction: float  # worst barrier-wait share of any phase
    hottest_thread: int       # hottest thread of that worst phase


class PhaseProfiler:
    """Collects :class:`PhaseRecord`s from a run's clock deltas."""

    def __init__(self) -> None:
        self.records: List[PhaseRecord] = []

    def checkpoint(self) -> int:
        """Mark the current record count; pass to :meth:`window_since`."""
        return len(self.records)

    def window_since(self, checkpoint: int) -> RoundWindow:
        """Summarize the records appended since ``checkpoint``."""
        window = self.records[checkpoint:]
        worst = max(window, key=lambda r: r.wait_fraction, default=None)
        return RoundWindow(
            phases=len(window),
            duration_s=sum(r.duration_s for r in window),
            requests=sum(r.requests for r in window),
            max_wait_fraction=worst.wait_fraction if worst is not None else 0.0,
            hottest_thread=worst.hottest_thread if worst is not None else 0,
        )

    def record(
        self,
        name: str,
        requests: int,
        before: np.ndarray,
        after: np.ndarray,
        imbalance_s: float = 0.0,
        hottest_thread: int = 0,
        retries: int = 0,
    ) -> None:
        delta = after - before
        self.records.append(
            PhaseRecord(
                name=name,
                requests=int(requests),
                duration_s=float(delta.max(initial=0.0)),
                imbalance_s=float(imbalance_s),
                hottest_thread=int(hottest_thread),
                retries=int(retries),
            )
        )

    def total_s(self) -> float:
        return sum(r.duration_s for r in self.records)

    def hottest(self, k: int = 5) -> List[PhaseRecord]:
        """The k most expensive phases."""
        return sorted(self.records, key=lambda r: r.duration_s, reverse=True)[:k]

    def by_name(self) -> dict[str, float]:
        """Total duration per phase name."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0.0) + r.duration_s
        return out


def render_phases(records: Sequence[PhaseRecord], limit: int | None = 20) -> str:
    """Aligned table of phase records (most expensive first)."""
    from ..bench.report import format_table

    chosen = sorted(records, key=lambda r: r.duration_s, reverse=True)
    if limit is not None:
        chosen = chosen[:limit]
    rows = [
        [r.name, r.requests, f"{r.duration_s * 1e3:.4f}", f"{r.imbalance_s * 1e3:.4f}",
         f"{r.wait_fraction:.2f}", r.hottest_thread, r.retries]
        for r in chosen
    ]
    return format_table(
        ["phase", "requests", "ms", "imbalance ms", "wait frac", "hot thread", "retries"], rows
    )


class ProfileSession:
    """Aggregates the profilers of every runtime created inside a
    :func:`profiled` block."""

    def __init__(self) -> None:
        self.profilers: List[PhaseProfiler] = []

    @property
    def records(self) -> List[PhaseRecord]:
        out: List[PhaseRecord] = []
        for profiler in self.profilers:
            out.extend(profiler.records)
        return out

    def render(self, limit: int | None = 20) -> str:
        return render_phases(self.records, limit)


_ACTIVE_SESSIONS: List[ProfileSession] = []


def current_profile_session() -> "ProfileSession | None":
    """The innermost active :func:`profiled` session, if any."""
    return _ACTIVE_SESSIONS[-1] if _ACTIVE_SESSIONS else None


class profiled:
    """Context manager that profiles every solve run inside it::

        with repro.profiled() as session:
            repro.connected_components(g, machine)
        print(session.render())

    Any :class:`~repro.runtime.runtime.PGASRuntime` constructed while the
    block is active records its collective phases into the session.
    """

    def __enter__(self) -> ProfileSession:
        self.session = ProfileSession()
        _ACTIVE_SESSIONS.append(self.session)
        return self.session

    def __exit__(self, *exc) -> None:
        _ACTIVE_SESSIONS.remove(self.session)
