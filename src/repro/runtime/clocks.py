"""Per-thread virtual clocks for the simulated SPMD execution.

Each of the ``s = p * t`` simulated threads owns a clock (seconds).  The
algorithms never sleep or measure wall time; they *charge* modeled costs
to clocks through the runtime.  Synchronization semantics:

* ``charge`` — advance selected clocks by per-thread amounts (local work
  proceeds in parallel across threads);
* ``node_serialize`` — communication issued by the threads of one node
  shares that node's NIC, so each thread's effective communication time
  is the *sum* over its node ("the messages from the t threads on one
  node are serialized", Section III);
* ``barrier`` — all participants advance to the maximum clock plus the
  barrier cost (lock-step collectives).

The reported execution time of a run is the maximum clock.

A :class:`ClockTape` records those operations for one solve (inside a
:func:`recording` block) and replays them at other ``t'``.
"""

from __future__ import annotations

import threading
from typing import Callable, List

import numpy as np

from ..errors import ConfigError
from .machine import MachineConfig

__all__ = ["ClockTape", "ThreadClocks", "current_tape", "recording"]

_ADD, _THREAD, _BARRIER, _SERVE = range(4)


class ClockTape:
    """Every clock operation of one solve, in order, replayable at any ``t'``.

    ``t'`` never changes what a solve computes: it reaches the model only
    in the two local-serve charges
    (:func:`~repro.scheduling.virtual_threads.charge_local_serve` and
    :func:`~repro.collectives.getd.charge_shared_memory_serve`).  So at
    fixed flags on one machine, one solve fixes the whole sequence of
    clock operations.  The tape keeps each added vector, each single-thread
    charge and each barrier cost as charged, and at the two serve sites the
    ``t'``-free pricing closure instead of its ``t'``-specific vectors.
    :meth:`replay` drives a ``(k, s)`` clock matrix through the same
    operations in the same order, one row per ``t'``, so row ``i``'s max
    is, bit for bit, the ``sim_time`` a full solve at ``tprimes[i]`` reports.

    A replay is only exact when nothing read the clocks mid-solve to
    decide what to charge: fault timing, the online adapter and the
    redundancy and integrity layers do, so :meth:`bind` refuses a runtime
    that carries any of them, or the phase profiler the adapter reads.
    """

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self._clocks: "ThreadClocks | None" = None

    def bind(self, clocks: "ThreadClocks", refused: "List[str]") -> None:
        """Start recording ``clocks``; ``refused`` names the layers of the
        runtime that read the clocks mid-solve (each makes a replay wrong)."""
        if refused:
            raise ConfigError(
                f"a clock tape cannot record a run with {', '.join(refused)}:"
                " those layers read the clocks mid-solve, so a replay would differ"
            )
        if self._clocks is not None:
            raise ConfigError("a clock tape records exactly one runtime")
        self._clocks = clocks
        clocks.tape = self

    def serve(self, price: Callable) -> None:
        """Record a local serve phase as its pricing closure: ``price(t')``
        returns the per-thread amounts the phase adds, in charge order."""
        self.ops.append((_SERVE, price))

    def replay(self, tprimes) -> np.ndarray:
        """The recorded solve's ``sim_time`` (seconds) at each ``t'`` in
        ``tprimes``."""
        if self._clocks is None:
            raise ConfigError("the clock tape recorded no runtime")
        column = np.asarray(tprimes, dtype=np.int64).reshape(-1, 1)
        times = np.zeros((column.shape[0], self._clocks.s), dtype=np.float64)
        for kind, arg in self.ops:
            if kind == _ADD:
                times += arg
            elif kind == _BARRIER:
                times[:] = times.max(axis=1, keepdims=True) + arg
            elif kind == _THREAD:
                times[:, arg[0]] += arg[1]
            else:
                for amounts in arg(column):
                    times += amounts
        return times.max(axis=1, initial=0.0)


#: Per-thread stack of active :func:`recording` tapes: a recording on one
#: thread (a planner's probe solve) never reaches a runtime another
#: thread builds for its own solve.
_ACTIVE = threading.local()


def _active_tapes() -> List[ClockTape]:
    tapes = getattr(_ACTIVE, "tapes", None)
    if tapes is None:
        tapes = _ACTIVE.tapes = []
    return tapes


def current_tape() -> "ClockTape | None":
    """The innermost :func:`recording` tape active on this thread, if any."""
    tapes = _active_tapes()
    return tapes[-1] if tapes else None


class recording:
    """Context manager that tapes the clocks of the solve run inside it::

        with recording() as tape:
            repro.connected_components(g, machine, tprime=1)
        sim_times = tape.replay([1, 2, 4])

    The :class:`~repro.runtime.runtime.PGASRuntime` constructed on this
    thread while the block is active binds the tape; a second one raises.
    Runtimes built on other threads do not see it.
    """

    def __enter__(self) -> ClockTape:
        self.tape = ClockTape()
        _active_tapes().append(self.tape)
        return self.tape

    def __exit__(self, *exc) -> None:
        _active_tapes().remove(self.tape)
        if self.tape._clocks is not None:
            self.tape._clocks.tape = None


class ThreadClocks:
    """Virtual clocks for ``s`` simulated threads on ``p`` nodes."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        self.s = machine.total_threads
        self.times = np.zeros(self.s, dtype=np.float64)
        #: imbalance (max - min) observed at the most recent barrier,
        #: before clocks were equalized — profiling reads this to expose
        #: hotspots that barriers would otherwise hide.
        self.last_barrier_skew = 0.0
        self.last_hot_thread = 0
        #: thread -> node map (node-major layout, matching UPC blocked THREADS)
        self.node_of = np.arange(self.s, dtype=np.int64) // machine.threads_per_node
        #: the :class:`ClockTape` recording these clocks, if any
        self.tape: "ClockTape | None" = None

    # -- charging -----------------------------------------------------------

    def _amounts(self, amount) -> np.ndarray:
        arr = np.asarray(amount, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(self.s, float(arr))
        if arr.shape != (self.s,):
            raise ConfigError(f"expected scalar or shape ({self.s},), got {arr.shape}")
        if np.any(arr < 0):
            raise ConfigError("cannot charge negative time")
        return arr

    def charge(self, amount) -> np.ndarray:
        """Advance every clock by its own amount (scalar broadcasts).

        Returns the per-thread amounts actually charged.
        """
        arr = self._amounts(amount)
        self.times += arr
        if self.tape is not None:
            self.tape.ops.append((_ADD, arr.copy()))
        return arr

    def charge_thread(self, thread: int, amount: float) -> None:
        """Advance a single thread's clock."""
        if not 0 <= thread < self.s:
            raise ConfigError(f"thread id {thread} out of range")
        if amount < 0:
            raise ConfigError("cannot charge negative time")
        self.times[thread] += amount
        if self.tape is not None:
            self.tape.ops.append((_THREAD, (thread, amount)))

    def node_serialize(self, amount) -> np.ndarray:
        """Charge per-thread communication amounts serialized through each
        node's NIC: every thread on a node advances by the node's total.

        Returns the per-thread amounts actually charged (the node sums).
        """
        arr = self._amounts(amount)
        node_sum = np.bincount(self.node_of, weights=arr, minlength=self.machine.nodes)
        per_thread = node_sum[self.node_of]
        self.times += per_thread
        if self.tape is not None:
            self.tape.ops.append((_ADD, per_thread))
        return per_thread

    # -- synchronization ----------------------------------------------------

    def barrier(self, cost: float = 0.0) -> float:
        """All threads advance to ``max(times) + cost``.

        Returns the new common clock value.
        """
        if cost < 0:
            raise ConfigError("cannot charge negative barrier cost")
        self.last_barrier_skew = float(self.times.max() - self.times.min())
        self.last_hot_thread = int(np.argmax(self.times))
        now = float(self.times.max()) + cost
        self.times[:] = now
        if self.tape is not None:
            self.tape.ops.append((_BARRIER, cost))
        return now

    def skew(self) -> float:
        """Current clock imbalance (max - min); useful for hotspot tests."""
        return float(self.times.max() - self.times.min())

    # -- reporting ----------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Simulated execution time so far (the slowest thread's clock)."""
        return float(self.times.max(initial=0.0))

    @property
    def mean_elapsed(self) -> float:
        return float(self.times.mean()) if self.s else 0.0

    def copy(self) -> "ThreadClocks":
        clone = ThreadClocks(self.machine)
        clone.times = self.times.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadClocks(s={self.s}, elapsed={self.elapsed:.6f}s, skew={self.skew():.6f}s)"
