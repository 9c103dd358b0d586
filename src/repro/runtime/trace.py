"""Execution trace: operation counters and time-category breakdown.

The paper's Fig. 5/6 break execution time into six categories; the trace
records the same six so the optimization-ablation benchmarks can emit the
same stacked bars:

* ``Comm``      — time in ``upc_memget`` / ``upc_memput`` (bulk transfers
                  and fine-grained remote accesses);
* ``Sort``      — sorting/grouping requests by target;
* ``Copy``      — reading/writing the local portion of shared arrays;
* ``Irregular`` — reordering retrieved elements to match request order;
* ``Setup``     — building the SMatrix/PMatrix structures (the all-to-all);
* ``Work``      — allocation, initialization, target-id computation and
                  the algorithm's own compute.

Two fault-layer categories (``Retry``, ``Fault``) sit alongside the six:
they record retransmission penalties and crash-recovery/checkpoint time
when a :mod:`repro.faults` plan is active, and stay exactly zero
otherwise (see ``docs/fault-model.md``).

Counters additionally record message/byte/access totals so tests can
assert communication-efficiency claims (e.g. "after rewriting, each
collective incurs O(p) messages per thread") independent of the time
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

__all__ = ["Category", "Counters", "Trace"]


class Category:
    """Time categories (string constants).

    ``FIG5`` holds the paper's six Fig. 5 categories; ``ALL`` extends
    them with the fault-layer categories (``Retry`` — timeout/backoff/
    retransmit time of lost messages; ``Fault`` — crash recovery and
    checkpoint passes), which stay zero whenever no fault plan is
    active.
    """

    COMM = "Comm"
    SORT = "Sort"
    COPY = "Copy"
    IRREGULAR = "Irregular"
    SETUP = "Setup"
    WORK = "Work"
    RETRY = "Retry"
    FAULT = "Fault"

    FIG5 = (COMM, SORT, COPY, IRREGULAR, SETUP, WORK)
    ALL = FIG5 + (RETRY, FAULT)


@dataclass
class Counters:
    """Raw operation counts accumulated over a run."""

    remote_messages: int = 0
    remote_bytes: int = 0
    fine_remote_accesses: int = 0
    local_random_accesses: int = 0
    local_seq_elements: int = 0
    alu_ops: int = 0
    lock_ops: int = 0
    lock_inits: int = 0
    barriers: int = 0
    collective_calls: int = 0
    sorted_elements: int = 0
    iterations: int = 0
    retries: int = 0
    crashes: int = 0
    checkpoint_restores: int = 0
    tuning_adaptations: int = 0
    corruptions_injected: int = 0
    corruptions_detected: int = 0
    repairs: int = 0
    node_losses: int = 0
    blocks_reconstructed: int = 0
    replicas_written: int = 0
    epoch_changes: int = 0

    def add(self, **deltas: int) -> None:
        for key, value in deltas.items():
            if not hasattr(self, key):
                raise AttributeError(f"unknown counter {key!r}")
            setattr(self, key, getattr(self, key) + int(value))

    def as_dict(self) -> Dict[str, int]:
        return {k: int(v) for k, v in self.__dict__.items()}


#: Fixed category -> accumulator-slot mapping (insertion order of
#: ``Category.ALL``, which is also the reporting order).
_CAT_INDEX = {c: i for i, c in enumerate(Category.ALL)}

#: Default bound on retained free-form events.  A long-lived service runs
#: the adapter's decision stream for hours; without a cap the list grows
#: linearly with solve count.  Runtimes built with ``profile=True`` lift
#: the cap (``event_cap = None``) for full fidelity.
DEFAULT_EVENT_CAP = 256


class Trace:
    """Counters plus per-category accumulated thread-seconds.

    ``category_seconds[c]`` is the total time charged to category ``c``
    summed over all threads; divide by the thread count for the average
    per-thread breakdown the figures report.

    Internally the per-category totals live in a flat list indexed by
    the fixed ``Category.ALL`` position — ``charge_category`` is on the
    charging hot path, and a list slot add beats per-call dict churn.
    The additions happen in exactly the same order either way, so the
    float64 totals are bit-identical to the dict-accumulator layout.
    """

    __slots__ = ("counters", "_cat", "events", "event_cap", "dropped_events")

    def __init__(self, counters: Counters | None = None, category_seconds=None) -> None:
        self.counters = counters if counters is not None else Counters()
        self._cat: List[float] = [0.0] * len(Category.ALL)
        if category_seconds:
            for cat, sec in category_seconds.items():
                self._cat[_CAT_INDEX[cat]] = float(sec)
        #: Structured decision records (e.g. the autotuner's mid-solve
        #: adaptations); free-form strings, in the order they happened.
        self.events: List[str] = []
        self.event_cap: "int | None" = DEFAULT_EVENT_CAP
        self.dropped_events = 0

    @property
    def category_seconds(self) -> Dict[str, float]:
        """Per-category totals as a fresh ``{category: seconds}`` dict."""
        cat = self._cat
        return {c: cat[i] for c, i in _CAT_INDEX.items()}

    def record_event(self, event: str) -> None:
        """Append a decision/annotation record to the trace (used by the
        online tuning adapter so every adaptation is auditable).  Beyond
        ``event_cap`` events are counted, not stored."""
        if self.event_cap is not None and len(self.events) >= self.event_cap:
            self.dropped_events += 1
            return
        self.events.append(str(event))

    def charge_category(self, category: str, thread_seconds: float) -> None:
        i = _CAT_INDEX.get(category)
        if i is None:
            raise KeyError(f"unknown time category {category!r}; expected one of {Category.ALL}")
        if thread_seconds < 0:
            raise ValueError("cannot charge negative time to a category")
        self._cat[i] += float(thread_seconds)

    def breakdown(self, nthreads: int) -> Dict[str, float]:
        """Average per-thread seconds in each category."""
        if nthreads <= 0:
            raise ValueError("nthreads must be positive")
        cat = self._cat
        return {c: cat[i] / nthreads for c, i in _CAT_INDEX.items()}

    def total_thread_seconds(self) -> float:
        return sum(self._cat)

    def merge(self, other: "Trace") -> None:
        """Accumulate another trace into this one (used when a solve is
        composed of sub-phases traced separately)."""
        for key, value in other.counters.as_dict().items():
            self.counters.add(**{key: value})
        for i, sec in enumerate(other._cat):
            self._cat[i] += sec
        for event in other.events:
            self.record_event(event)
        self.dropped_events += other.dropped_events

    def summary_lines(self, nthreads: int) -> Iterable[str]:
        bd = self.breakdown(nthreads)
        yield "category breakdown (avg seconds/thread):"
        for cat in Category.ALL:
            yield f"  {cat:<10s} {bd[cat] * 1e3:10.3f} ms"
        c = self.counters
        yield (
            f"counters: msgs={c.remote_messages} bytes={c.remote_bytes}"
            f" fine={c.fine_remote_accesses} rand={c.local_random_accesses}"
            f" locks={c.lock_ops} barriers={c.barriers} colls={c.collective_calls}"
        )
        if c.retries or c.crashes or c.checkpoint_restores:
            yield (
                f"faults  : retries={c.retries} crashes={c.crashes}"
                f" restores={c.checkpoint_restores}"
            )
        if c.corruptions_injected or c.corruptions_detected or c.repairs:
            yield (
                f"silent  : injected={c.corruptions_injected}"
                f" detected={c.corruptions_detected} repairs={c.repairs}"
            )
        if c.node_losses or c.replicas_written or c.blocks_reconstructed or c.epoch_changes:
            yield (
                f"resil   : losses={c.node_losses} epochs={c.epoch_changes}"
                f" replicas={c.replicas_written} rebuilt={c.blocks_reconstructed}"
            )
        for event in self.events:
            yield f"event   : {event}"
        if self.dropped_events:
            yield f"event   : ... {self.dropped_events} further event(s) dropped (cap {self.event_cap})"
