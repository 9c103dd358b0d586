"""Persistence for edge lists.

Public I/O for graphs built outside this package or kept between runs.
The generated inputs of the benchmarks are never stored: the generators
are deterministic and cheap, so every run builds its own.  Format: NumPy
``.npz`` with ``n``, ``u``, ``v`` and optionally ``w``.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

import numpy as np

from ..errors import GraphError
from .edgelist import EdgeList

__all__ = ["save_edgelist", "load_edgelist"]


def save_edgelist(graph: EdgeList, path: str | os.PathLike) -> None:
    """Write ``graph`` to ``path`` (.npz, compressed).

    The write is atomic with a *unique* temp name, so concurrent writers
    of the same path never interleave on a shared temp file and a reader
    never sees a torn file; the last rename wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {"n": np.int64(graph.n), "u": graph.u, "v": graph.v}
    if graph.w is not None:
        arrays["w"] = graph.w
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_edgelist(path: str | os.PathLike) -> EdgeList:
    """Read an edge list written by :func:`save_edgelist`."""
    with np.load(path) as data:
        missing = {"n", "u", "v"} - set(data.files)
        if missing:
            raise GraphError(f"{path}: missing arrays {sorted(missing)}")
        w = data["w"] if "w" in data.files else None
        return EdgeList(int(data["n"]), data["u"], data["v"], w)

