"""Optimization flags (the paper's Section V engineering techniques).

The paper evaluates six cumulative optimizations on top of the
collective-based rewrite (Figs. 5-6):

* ``compact``  — filter edges that fell inside a component; shrinks both
  local work and communication in later iterations;
* ``offload``  — don't request ``D[0]`` (it is constant 0): drop those
  indices from the request list, defusing the communication hotspot at
  the thread owning vertex 0;
* ``circular`` — communicate in the order ``i, i+1, ..., (i+s-1) mod s``
  so each step pairs every sender with a distinct receiver (vs. the
  linear order where all threads hit thread 0, then thread 1, ...);
* ``localcpy`` — access the local portion of shared arrays through
  private pointers, skipping the UPC runtime's affinity checks;
* ``ids``      — compute target thread ids with direct (vectorizable)
  arithmetic instead of compiler intrinsics, and cache them across
  iterations (the request arrays — edge endpoints — do not change);
* ``rdma``     — use remote DMA for the coalesced bulk transfers,
  skipping per-message software overhead.

``OptimizationFlags.cumulative()`` reproduces the left-to-right bar
accumulation of Fig. 5 (``base``, ``compact``, ``offload``, ``circular``,
``localcpy``, ``id``).  Each bar is lower than the last, so the autotuner
fixes the flags at the paper's "Optimized" configuration (``all()``)
and searches only the solver and ``t'``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator

from ..errors import ConfigError

__all__ = ["OptimizationFlags", "FIG5_ORDER"]

#: Left-to-right bar order of the paper's Fig. 5.
FIG5_ORDER = ("compact", "offload", "circular", "localcpy", "ids")


@dataclass(frozen=True)
class OptimizationFlags:
    """Which Section V optimizations are active.

    ``hierarchical`` is *not* one of the paper's optimizations — it is
    the paper's Section VI/VII **future-work proposal**, implemented
    here: "The thread-process hierarchy is exposed to the runtime, and
    the AlltoAll collective does not have to involve s = p x t threads in
    communication across the network.  Instead, it may involve only p
    processes."  With it on, each node's threads aggregate their
    SMatrix/PMatrix entries and payload messages locally, and only one
    leader per node talks across the network — which removes the
    256-thread incast collapse of Figs. 7-10.  It is off in ``all()`` so
    the paper's measured configurations stay faithful; see
    ``benchmarks/bench_future_hierarchical.py``.
    """

    compact: bool = False
    offload: bool = False
    circular: bool = False
    localcpy: bool = False
    ids: bool = False
    rdma: bool = False
    hierarchical: bool = False

    @classmethod
    def none(cls) -> "OptimizationFlags":
        """The ``base`` configuration of Fig. 5 (collectives only)."""
        return cls()

    @classmethod
    def all(cls) -> "OptimizationFlags":
        """Everything the paper evaluated — its "Optimized" configuration
        (``hierarchical`` stays off: the paper proposed it as future
        work)."""
        return cls(compact=True, offload=True, circular=True, localcpy=True, ids=True, rdma=True)

    @classmethod
    def only(cls, *names: str) -> "OptimizationFlags":
        valid = {f.name for f in fields(cls)}
        unknown = set(names) - valid
        if unknown:
            raise ConfigError(f"unknown optimization flags {sorted(unknown)}; valid: {sorted(valid)}")
        return cls(**{name: True for name in names})

    @classmethod
    def parse(cls, text: str) -> "OptimizationFlags | str":
        """Read an opts string: ``all``, ``none``/``base`` and flag names,
        joined by ``,`` or ``+`` (so ``all,hierarchical``, and every
        :meth:`key` spelling, parse).  ``auto``, which hands the flags to
        the tuner, must stand alone and comes back as ``"auto"``."""
        tokens = [t.strip() for t in text.replace("+", ",").split(",") if t.strip()]
        if "auto" in tokens:
            if tokens != ["auto"]:
                raise ConfigError(f"'auto' cannot combine with other opts: got {text!r}")
            return "auto"
        names = set()
        for token in tokens:
            if token == "all":
                names.update(cls.all().enabled())
            elif token not in ("none", "base"):
                names.add(token)
        return cls.only(*names)

    @classmethod
    def cumulative(cls) -> Iterator[tuple[str, "OptimizationFlags"]]:
        """Yield ``(label, flags)`` pairs matching Fig. 5's cumulative
        bars: base, then each optimization added in paper order."""
        flags = cls.none()
        yield "base", flags
        for name in FIG5_ORDER:
            flags = replace(flags, **{name: True})
            label = "id" if name == "ids" else name
            yield label, flags

    def key(self) -> str:
        """Canonical, order-stable spelling of the enabled flags (used as
        part of tuning-plan cache keys); ``base`` when none are on."""
        names = self.enabled()
        return "+".join(names) if names else "base"

    def with_(self, **updates: bool) -> "OptimizationFlags":
        valid = {f.name for f in fields(self)}
        unknown = set(updates) - valid
        if unknown:
            raise ConfigError(f"unknown optimization flags {sorted(unknown)}")
        return replace(self, **updates)

    def enabled(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self) if getattr(self, f.name))
