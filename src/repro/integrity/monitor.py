"""Checksummed shared arrays and end-to-end payload protection.

The :class:`IntegrityMonitor` is the detection half of the silent-fault
story (injection lives in :mod:`repro.faults`, repair in the solvers):

* **Block digests.**  Every protected shared array gets a per-owner-
  block digest, maintained incrementally by the runtime's charged write
  helpers and re-verified at every synchronization point — so a bit flip
  that lands in an owner block is caught at the first barrier after it
  strikes, before any thread consumes the value.  The simulation keeps a
  private shadow copy per array and compares elementwise, which detects
  exactly what a per-block digest would while staying trivially honest
  about *where* the corruption sits; the modeled cost is the digest
  cost — one streamed pass over the owner block at memory bandwidth,
  charged to the ``Fault`` category.
* **Payload checksums.**  :func:`guard_payload` wraps the wire leg of
  the multi-node collectives: the sender summarises the buffer, the
  receiver re-summarises and compares (two charged passes), and a
  mismatch triggers a retransmission from the clean buffer — bounded by
  the plan's :class:`~repro.faults.RetryPolicy` budget.
* **Invariant checks.**  Per-round algorithmic verification (CC forest
  invariants, MST cut-property spot checks) for corruption that slips
  past — or runs without — the checksums.

Detection raises :class:`~repro.errors.IntegrityError`; the solvers
catch it, restore the round checkpoint, resync the shadows, and replay.
The monitor never touches the fault injector's RNG streams and never
charges anything when no config is active, so integrity-off runs stay
bit-identical to builds without this module.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import IntegrityError
from ..perf import arena
from ..runtime.trace import Category
from .config import IntegrityConfig
from .invariants import (
    cc_invariant_violation,
    lt_invariant_violation,
    mst_selection_violation,
    star_invariant_violation,
)

__all__ = ["IntegrityMonitor", "guard_payload"]


class IntegrityMonitor:
    """Per-run detection state: shadow digests and the sampling RNG.

    Construct one per :class:`~repro.runtime.runtime.PGASRuntime` (the
    runtime does this when handed an :class:`IntegrityConfig`); arrays
    opt in through :meth:`~repro.runtime.runtime.PGASRuntime.protect_array`.
    """

    def __init__(self, config: IntegrityConfig, rt) -> None:
        self.config = config
        self.rt = rt
        #: id(arr) -> (arr, shadow copy standing in for its block digests).
        self._tracked: Dict[int, Tuple] = {}
        #: Private Generator for the MST spot-check sample — independent
        #: of the fault plan's streams so protection never perturbs
        #: injection (and vice versa).
        self._sample_rng = np.random.default_rng(config.seed)

    # -- digest bookkeeping (charged at memory bandwidth) --------------------

    def _charge_digest(self, counts, bytes_per: int) -> None:
        """One digest pass over ``counts`` elements per thread."""
        self.rt.charge(
            Category.FAULT,
            self.rt.cost.seq_access_time(np.asarray(counts, dtype=np.float64), bytes_per),
        )

    def track(self, arr) -> None:
        """Start maintaining block digests for ``arr`` (charged initial
        pass); no-op without checksums or if already tracked."""
        if not self.config.checksums or id(arr) in self._tracked:
            return
        self._tracked[id(arr)] = (arr, arr.data.copy())
        self._charge_digest(arr.local_sizes(), arr.nbytes_per_elem)

    def note_write(self, arr, indices=None) -> None:
        """Fold a legitimate charged write into the digests.

        ``indices`` may be explicit positions, a boolean mask, or
        ``None`` for a full-block overwrite.  The shadow update itself is
        raw NumPy — digest bookkeeping is the monitor's private state,
        invisible to the race detector, never double-charged as an
        algorithmic access; only the digest pass itself is priced.
        """
        rec = self._tracked.get(id(arr))
        if rec is None:
            return
        _, shadow = rec
        if indices is None:
            shadow[:] = arr.data
            written = arr.local_sizes().astype(np.float64)
        else:
            idx = np.asarray(indices)
            if idx.dtype == np.bool_:
                idx = np.flatnonzero(idx)
            if idx.size == 0:
                return
            with arena.lease_intp(idx) as idx:
                shadow[idx] = arr.data[idx]
                written = np.bincount(arr.owner_thread(idx), minlength=self.rt.s)
        self._charge_digest(written, arr.nbytes_per_elem)

    def resync(self, arr) -> None:
        """Rebuild ``arr``'s digests from its current (just-restored)
        contents — the repair path calls this after a checkpoint
        restore, priced as one full digest pass."""
        rec = self._tracked.get(id(arr))
        if rec is None:
            return
        _, shadow = rec
        shadow[:] = arr.data
        self._charge_digest(arr.local_sizes(), arr.nbytes_per_elem)

    def on_barrier(self) -> None:
        """Verify every tracked array's digests (one charged pass each);
        raises :class:`IntegrityError` naming the damaged arrays.

        Runs at *every* synchronization point, right after the injector's
        corruption poll: a flip must be caught before the next charged
        write could launder it into a refreshed digest.
        """
        if not self._tracked:
            return
        detected = 0
        damaged = []
        for arr, shadow in self._tracked.values():
            self._charge_digest(arr.local_sizes(), arr.nbytes_per_elem)
            # Digest verification runs at every barrier; compare into
            # a pooled buffer instead of allocating a fresh mask.
            with arena.lease(arr.data.shape[0], np.bool_) as diff:
                np.not_equal(arr.data, shadow, out=diff)
                bad = int(np.count_nonzero(diff))
            if bad:
                detected += bad
                damaged.append(f"{arr.name or 'array'}:{bad}")
        if detected:
            self.rt.counters.add(corruptions_detected=detected)
            raise IntegrityError(
                f"block digest mismatch ({', '.join(damaged)})", detected=detected
            )

    # -- per-round algorithmic verification ----------------------------------

    def _invariant_failure(self, what: str, msg: str) -> None:
        self.rt.counters.add(corruptions_detected=1)
        raise IntegrityError(f"{what}: {msg}")

    def verify_cc_round(self, d) -> None:
        """CC round-top forest invariants (two charged passes: stream the
        labels, gather each label's label)."""
        if not self.config.invariants:
            return
        self._charge_digest(2.0 * d.local_sizes(), d.nbytes_per_elem)
        msg = cc_invariant_violation(d.data)
        if msg is not None:
            self._invariant_failure("cc round invariant", msg)

    def verify_lt_round(self, d, prev=None, final: bool = False) -> None:
        """Liu–Tarjan round-top invariants: valid monotone labels forming
        a downward-pointing rooted forest, non-increasing against the
        previous round top, and — with ``final=True`` — all-stars at
        termination.  Two charged passes (stream the labels, compare to
        the id ramp), plus one per optional check."""
        if not self.config.invariants:
            return
        passes = 2.0 + (prev is not None) + final
        self._charge_digest(passes * d.local_sizes(), d.nbytes_per_elem)
        msg = lt_invariant_violation(d.data, prev=prev, final=final)
        if msg is not None:
            self._invariant_failure("lt round invariant", msg)

    def verify_star_round(self, d) -> None:
        """Star invariant of solvers that guarantee only stars: valid
        labels forming all stars (MST at every round top, SV at
        termination)."""
        if not self.config.invariants:
            return
        self._charge_digest(2.0 * d.local_sizes(), d.nbytes_per_elem)
        msg = star_invariant_violation(d.data)
        if msg is not None:
            self._invariant_failure("star invariant", msg)

    def verify_mst_selection(self, minedge, roots, positions, du_c, dv_c, w_c) -> None:
        """Cut-property spot check on a sample of this round's winners
        (``config.mst_samples`` of them), priced as a handful of random
        accesses per thread."""
        if not self.config.invariants or roots.size == 0:
            return
        k = min(self.config.mst_samples, roots.size)
        if k < roots.size:
            sel = np.sort(self._sample_rng.choice(roots.size, size=k, replace=False))
        else:
            sel = np.arange(roots.size)
        self.rt.charge(
            Category.FAULT,
            self.rt.cost.op_time(np.full(self.rt.s, 4.0 * k / self.rt.s)),
        )
        msg = mst_selection_violation(
            minedge.data[roots[sel]], roots[sel], positions[sel], du_c, dv_c, w_c
        )
        if msg is not None:
            self._invariant_failure("mst selection check", msg)


def guard_payload(rt, values, sizes, bytes_per, domain=None, packed=False, absent=None):
    """The wire leg of a multi-node collective payload.

    ``absent`` lists (ascending) the positions of ``values`` that never
    travel (offloaded ``GetD`` requests); ``sizes`` counts the records
    that do, and the injector draws over exactly those.

    Composes injection and protection:

    * with an active ``payload_corruption`` rate, each transmission of
      the buffer may flip records (counted as injected);
    * with checksums on, sender and receiver each pay one digest pass
      over the buffer (always — protection costs even when nothing goes
      wrong), a corrupted delivery is detected (counted), discarded, and
      retransmitted from the clean buffer (checksum passes + wire time
      again, on the ``Fault``/``Comm`` clocks), bounded by the retry
      policy's ``max_attempts``;
    * unprotected corrupted deliveries are returned as-is — the silent
      wrong value integrity exists to close.

    Returns the delivered buffer.
    """
    inj = rt.faults
    corrupting = inj is not None and inj.plan.payload_corruption > 0.0
    mon = rt.integrity
    protected = mon is not None and mon.config.checksums
    if not corrupting and not protected:
        return values
    counts = np.asarray(sizes, dtype=np.float64)
    if protected:
        # Sender digest + receiver verify: two passes over the payload.
        rt.charge(Category.FAULT, rt.cost.seq_access_time(2.0 * counts, bytes_per))
    if not corrupting:
        return values
    attempts = 0
    while True:
        delivered, flipped = inj.corrupt_payload(
            values, domain=domain, packed=packed, absent=absent
        )
        if flipped:
            rt.counters.add(corruptions_injected=flipped)
        if not protected:
            return delivered
        if not flipped:
            return values
        rt.counters.add(corruptions_detected=flipped)
        attempts += 1
        if attempts >= inj.retry.max_attempts:
            raise IntegrityError(
                f"collective payload failed its checksum {attempts} consecutive times",
                detected=flipped,
            )
        # Retransmission: fresh digest passes plus the wire time of
        # shipping the records again through each node's NIC.
        rt.charge(Category.FAULT, rt.cost.seq_access_time(2.0 * counts, bytes_per))
        rt.charge_comm(rt.cost.remote_message_time(counts * bytes_per))
        rt.counters.add(remote_messages=int(np.count_nonzero(counts)))
