"""The Liu–Tarjan variant lattice: three independent axes.

Connect axis (how edges propose parent updates; all proposals are
computed from the round-top label snapshot and min-adjudicated):

``parent`` (``p``)
    Parent-connect.  For an edge whose endpoints carry labels
    ``du < dv``, propose ``D[dv] <- du`` (and symmetrically) — the
    *parent* of the larger side is lowered, unconditionally.
``extended`` (``e``)
    Extended-connect: parent-connect plus a direct child write
    ``D[v] <- du`` on the larger side's endpoint itself, so the vertex
    and its old parent both learn the smaller label in one round.
``root`` (``r``)
    Directed-root-connect: propose only when the larger side's label is
    a root (``D[dv] == dv``) — exactly the Bader–Cong grafting condition
    of the paper's CC (:func:`repro.cc.common.graft_proposals`).

Shortcut axis:

``partial`` (``s``)
    One synchronous ``D[v] <- D[D[v]]`` round per iteration (as in SV).
``full`` (``f``)
    Pointer jumping iterated until every tree is a rooted star (as in
    the paper's optimized CC).

Alter axis (optional ``a`` suffix): after the shortcut, replace each
edge ``(u, v)`` by ``(D[u], D[v])`` — subsequent rounds then fetch
labels of labels, which concentrates traffic on low vertex ids (the
hotspot the ``offload`` optimization defuses).

Names follow the grammar ``lt-{c}{s}[a]`` with ``c`` in ``{p, e, r}``
and ``s`` in ``{s, f}`` — e.g. ``lt-psa`` is parent-connect + partial
shortcut + alter (closest to Liu–Tarjan's headline simple algorithm).
Twelve variants total.

``lt-rf``, directed-root-connect + full shortcut, *is* the paper's
optimized CC: :func:`~repro.cc.collective.solve_cc_collective` runs
this lattice point, adding only CC's own round invariants and the
online adapter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["LTVariant", "parse_variant", "ALL_VARIANTS", "LT_VARIANT_NAMES"]

_CONNECTS = {"p": "parent", "e": "extended", "r": "root"}
_SHORTCUTS = {"s": "partial", "f": "full"}


@dataclass(frozen=True)
class LTVariant:
    """One point of the Liu–Tarjan lattice."""

    connect: str  # "parent" | "extended" | "root"
    shortcut: str  # "partial" | "full"
    alter: bool = False

    def __post_init__(self) -> None:
        if self.connect not in _CONNECTS.values():
            raise ConfigError(
                f"unknown connect rule {self.connect!r}; expected one of"
                f" {sorted(_CONNECTS.values())}"
            )
        if self.shortcut not in _SHORTCUTS.values():
            raise ConfigError(
                f"unknown shortcut rule {self.shortcut!r}; expected one of"
                f" {sorted(_SHORTCUTS.values())}"
            )

    @property
    def name(self) -> str:
        code = self.connect[0] + ("s" if self.shortcut == "partial" else "f")
        return f"lt-{code}{'a' if self.alter else ''}"

    def describe(self) -> str:
        parts = [f"{self.connect}-connect"]
        parts.append("full shortcut" if self.shortcut == "full" else "partial shortcut")
        if self.alter:
            parts.append("alter")
        return " + ".join(parts)


def parse_variant(name: "str | LTVariant") -> LTVariant:
    """``lt-{p|e|r}{s|f}[a]`` -> :class:`LTVariant` (ConfigError on junk)."""
    if isinstance(name, LTVariant):
        return name
    text = str(name)
    code = text[3:] if text.startswith("lt-") else text
    if len(code) in (2, 3) and code[0] in _CONNECTS and code[1] in _SHORTCUTS:
        if len(code) == 2:
            return LTVariant(_CONNECTS[code[0]], _SHORTCUTS[code[1]])
        if code[2] == "a":
            return LTVariant(_CONNECTS[code[0]], _SHORTCUTS[code[1]], alter=True)
    raise ConfigError(
        f"unknown Liu–Tarjan variant {name!r}; expected lt-{{p|e|r}}{{s|f}}[a]"
        f" (e.g. one of {LT_VARIANT_NAMES})"
    )


ALL_VARIANTS: tuple = tuple(
    LTVariant(connect, shortcut, alter)
    for connect in ("parent", "extended", "root")
    for shortcut in ("partial", "full")
    for alter in (False, True)
)

LT_VARIANT_NAMES: tuple = tuple(v.name for v in ALL_VARIANTS)
