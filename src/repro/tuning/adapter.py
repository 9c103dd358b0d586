"""Online adaptation: revise (flags, t') between rounds of a live solve.

The plan is measured on a small replica; the solve is evidence.  After every grafting /
Borůvka round the adapter reads the :class:`~repro.runtime.profiling.
RoundWindow` the phase profiler collected and applies two rules, in the
spirit of DASH's runtime re-tuning:

* **hotspot rule** — if some phase in the round spent more than
  ``wait_threshold`` of its duration with threads parked at the barrier
  (one thread served nearly everything), enable ``offload``: that skew
  is the label-concentration hotspot the optimization exists for.  CC
  only — the MST solver's ``D[0]`` invariant forbids offload there, and
  the adapter is constructed with ``allow_offload=False`` for it.
* **divergence rule** — if a round ran slower than ``divergence`` × the
  best round seen so far at the current configuration (rounds under
  ``compact`` should get *cheaper*, never sharply worse), move ``t'``
  one step toward the cache-fit value :func:`~repro.scheduling.
  cache_model.best_tprime` predicts.  One step per round, capped by
  ``max_adaptations`` total.

Every decision (and every round where the adapter held still for a
reason worth auditing) is appended to the runtime trace via
:meth:`~repro.runtime.trace.Trace.record_event` and counted in
``counters.tuning_adaptations`` — adaptation never changes *results*
(flags and t' are performance knobs only), so auditability is the whole
correctness story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.optimizations import OptimizationFlags
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.profiling import PhaseProfiler
from ..runtime.runtime import PGASRuntime
from ..scheduling.cache_model import best_tprime

__all__ = ["OnlineAdapter", "AdapterConfig"]


@dataclass(frozen=True)
class AdapterConfig:
    """Thresholds of the two adaptation rules."""

    #: Enable offload when a phase's barrier-wait share exceeds this.
    wait_threshold: float = 0.55
    #: Adjust t' when a round exceeds this multiple of the best round.
    divergence: float = 1.5
    #: Total adaptation budget per solve (stability: the adapter must
    #: converge, not oscillate).
    max_adaptations: int = 4
    #: Rounds to observe before the divergence rule may fire (round 1
    #: has no baseline).
    warmup_rounds: int = 1


class OnlineAdapter:
    """Feedback controller threaded through a collective solve.

    Usage (inside the solvers)::

        adapter.begin(rt)               # after the runtime exists
        while not converged:
            ...one round...
            opts, tprime = adapter.on_round(opts, tprime)

    The adapter owns no solve state; it only reads the profiler window
    of the round that just finished and returns the configuration for
    the next one.
    """

    def __init__(
        self,
        machine: MachineConfig,
        n: int,
        allow_offload: bool = True,
        config: AdapterConfig = AdapterConfig(),
    ) -> None:
        self.machine = machine
        self.config = config
        self.allow_offload = allow_offload
        self._n = n
        block_elems = max(1, n // machine.total_threads)
        #: The cache-fit t' the divergence rule steps toward.
        self.target_tprime = best_tprime(block_elems, CostModel(machine))
        self.adaptations = 0
        self.decisions: List[str] = []
        self._rt: Optional[PGASRuntime] = None
        self._profiler: Optional[PhaseProfiler] = None
        self._mark = 0
        self._round = 0
        self._best_round_s: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def begin(self, rt: PGASRuntime) -> None:
        """Attach to a runtime (requires ``PGASRuntime(profile=True)`` —
        the solvers force that on when an adapter is present)."""
        self._rt = rt
        self._profiler = rt.profiler
        if self._profiler is not None:
            self._mark = self._profiler.checkpoint()

    def _record(self, decision: str) -> None:
        self.decisions.append(decision)
        if self._rt is not None:
            self._rt.trace.record_event(f"tuning: {decision}")
            self._rt.counters.add(tuning_adaptations=1)

    def on_membership_change(self, rt: PGASRuntime) -> None:
        """Re-plan for a post-loss machine (called by
        :meth:`repro.resilience.ResilientSession.recover_loss`): rebind
        to the recovered runtime's profiler, recompute the cache-fit t'
        target for the new thread count, and drop the old best-round
        baseline — round durations on the shrunken (or spare-patched)
        machine are not comparable to the old membership's."""
        old_threads = self.machine.total_threads
        self.machine = rt.machine
        block_elems = max(1, self._n // max(1, rt.machine.total_threads))
        self.target_tprime = best_tprime(block_elems, CostModel(rt.machine))
        self._best_round_s = None
        self.begin(rt)
        self._record(
            f"membership change: {old_threads} -> {rt.machine.total_threads} threads,"
            f" target t'={self.target_tprime}"
        )

    # -- per-round hook -----------------------------------------------------

    def on_round(self, opts: OptimizationFlags, tprime: int) -> tuple:
        """Digest the round that just finished; return the (possibly
        revised) configuration for the next one."""
        self._round += 1
        if self._profiler is None:
            return opts, tprime
        window = self._profiler.window_since(self._mark)
        self._mark = self._profiler.checkpoint()
        if window.phases == 0:
            return opts, tprime

        budget_left = self.adaptations < self.config.max_adaptations

        # Hotspot rule: sustained one-thread serves -> offload.
        if (
            budget_left
            and self.allow_offload
            and not opts.offload
            and window.max_wait_fraction > self.config.wait_threshold
        ):
            self.adaptations += 1
            self._record(
                f"round {self._round}: enable offload"
                f" (wait fraction {window.max_wait_fraction:.2f}"
                f" on thread {window.hottest_thread})"
            )
            opts = opts.with_(offload=True)
            # The config changed; the old best-round baseline no longer
            # describes the current configuration.
            self._best_round_s = None
            return opts, tprime

        # Divergence rule: this round sharply worse than the best seen.
        baseline = self._best_round_s
        if (
            budget_left
            and baseline is not None
            and self._round > self.config.warmup_rounds
            and tprime != self.target_tprime
            and window.duration_s > self.config.divergence * baseline
        ):
            step = 1 if self.target_tprime > tprime else -1
            new_tprime = tprime + step * max(1, abs(self.target_tprime - tprime) // 2)
            self.adaptations += 1
            self._record(
                f"round {self._round}: t' {tprime} -> {new_tprime}"
                f" (round {window.duration_s * 1e3:.3f} ms vs best"
                f" {baseline * 1e3:.3f} ms, target t'={self.target_tprime})"
            )
            tprime = new_tprime
            self._best_round_s = None
            return opts, tprime

        if baseline is None or window.duration_s < baseline:
            self._best_round_s = window.duration_s
        return opts, tprime
