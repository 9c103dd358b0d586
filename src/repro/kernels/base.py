"""The kernel-backend interface.

A *kernel backend* implements the handful of array primitives that
dominate the fast engine's wall-clock profile — grouped minima for the
CRCW scatters, presence-mask distinct counts for the cost model's
cold-miss bounds, and the pair-key exchange packing of the all-to-all
setup.  Backends are interchangeable at runtime (``REPRO_PERF_BACKEND``
/ ``--backend``) and bound by the same contract as the fast/legacy
engine switch: **bit-identical modeled time and result bytes** on the
golden fingerprint matrix (:mod:`repro.perf.golden`), enforced by
``tests/test_kernels.py`` for every backend importable on the host.

Subclasses override the operations they implement natively and list
them in :attr:`KernelBackend.native_ops`; everything else inherits the
NumPy baseline (:class:`repro.kernels.numpy_backend.NumpyKernels`), so
a partial backend — e.g. scipy.sparse, which only reformulates the
collective exchanges — degrades to the baseline per-op rather than
per-process.

The interface deliberately traffics in plain arrays and scalars, never
in :class:`~repro.runtime.shared_array.SharedArray` or
:class:`~repro.runtime.partitioned.PartitionedArray` objects: argument
validation, legacy-engine fallbacks, and cost accounting stay at the
call sites; backends are pure compute.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelBackend", "KERNEL_OPS"]

#: The dispatchable operations every backend must answer (natively or
#: by inheriting the NumPy baseline).
KERNEL_OPS = (
    "group_minima",
    "exchange_matrix",
    "owner_distinct",
    "segment_distinct",
    "concat_segments",
)


class KernelBackend:
    """Base class for kernel backends (see module docstring).

    ``name`` is the registry key; ``requires`` names the optional
    package the backend needs (``None`` for always-available);
    ``native_ops`` lists the operations the subclass implements itself
    — the capability table in ``docs/performance.md`` and
    :func:`repro.kernels.backend_capabilities` render exactly this.
    """

    name = "base"
    requires: "str | None" = None
    native_ops: tuple = ()

    # -- dispatchable operations ------------------------------------------

    def group_minima(self, idx: np.ndarray, vals: np.ndarray):
        """Min-reduce duplicate scatter targets.

        Returns ``(targets, minima)``: ascending unique target indices
        and the minimum value proposed for each — the adjudication core
        of ``SharedArray.scatter_min`` / ``scatter_store_min``.  ``idx``
        is non-negative int64 (callers bounds-check it against their
        array); how a backend groups the proposals — a streaming
        ``minimum.at`` on numpy, sort + compiled scan on numba — is its
        own business.
        """
        raise NotImplementedError

    def exchange_matrix(self, requesters: np.ndarray, owners: np.ndarray, s: int) -> np.ndarray:
        """The ``(s, s)`` SMatrix: counts of (owner, requester) pairs in
        a request vector (``collectives.alltoall.send_matrix`` core)."""
        raise NotImplementedError

    def owner_distinct(self, idx: np.ndarray, size: int, block: int, s: int) -> np.ndarray:
        """Distinct requested indices per owning thread of a blocked
        shared array (``collectives.getd.owner_distinct_counts`` core).
        ``idx`` is already validated to ``[0, size)``."""
        raise NotImplementedError

    def segment_distinct(
        self, tids: np.ndarray, vals: np.ndarray, parts: int, vmin: int, vrange: int
    ) -> np.ndarray:
        """Distinct values per segment of a partitioned array
        (``PartitionedArray.segment_distinct`` core).  Only called when
        ``parts * vrange`` fits the presence-mask slot cap; ``vals`` is
        int64 with values in ``[vmin, vmin + vrange)``."""
        raise NotImplementedError

    def concat_segments(
        self,
        a_data: np.ndarray,
        a_offsets: np.ndarray,
        b_data: np.ndarray,
        b_offsets: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Interleave two partitioned payloads segment-by-segment into
        one flat array laid out by ``offsets``
        (``PartitionedArray.concat_pairwise`` core)."""
        raise NotImplementedError

    # -- registry metadata ------------------------------------------------

    @classmethod
    def missing_reason(cls) -> "str | None":
        """Why this backend cannot run here, or ``None`` if it can."""
        return None

    @classmethod
    def available(cls) -> bool:
        """True when the backend's optional dependency is importable."""
        return cls.missing_reason() is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} native={self.native_ops}>"
