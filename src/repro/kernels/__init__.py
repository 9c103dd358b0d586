"""The kernel ops under the collective data plane.

Five array primitives dominate the simulator's wall-clock profile —
grouped minima for the CRCW scatters, the pair-count SMatrix of the
all-to-all setup (built from the request targets and the partition
layout, so no owner-id vector exists), presence-mask distinct counts
for the cost model's cold-miss bounds, and the per-thread payload
interleave.
:class:`~repro.kernels.numpy_backend.NumpyKernels` implements them;
``SharedArray``, ``PartitionedArray`` and the collectives reach them
through :func:`active_backend`.  They are wall-clock machinery, like
the rest of :mod:`repro.perf`: pure compute on plain arrays that never
feeds the cost model, pinned by ``tests/golden/fingerprints.json``.
"""

from __future__ import annotations

from .numpy_backend import NumpyKernels

__all__ = ["KERNEL_OPS", "active_backend", "backend_name"]

KERNEL_OPS = (
    "group_minima",
    "exchange_matrix",
    "owner_distinct",
    "segment_distinct",
    "concat_segments",
)

_KERNELS = NumpyKernels()


def active_backend() -> NumpyKernels:
    """The instance whose methods are the five :data:`KERNEL_OPS`."""
    return _KERNELS


def backend_name() -> str:
    """Name of the (only) kernel implementation, for host records."""
    return "numpy"
