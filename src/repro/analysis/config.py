"""Scope, waivers and path rendering for the static verifier.

The module classification the verifier's rules consult
(:func:`is_checked`, :func:`is_wallclock`), the waiver parser, and the
path normalization findings sort on.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Set

__all__ = [
    "CHECKED_PARTS",
    "WHITELIST_PARTS",
    "WALLCLOCK_PARTS",
    "Waivers",
    "display_path",
    "is_checked",
    "is_wallclock",
]

#: Modules allowed to touch ``SharedArray.data`` directly — they *are*
#: the charged machinery (plus the analysis package itself).  CM01 and
#: the flow rules skip them; they still feed the call graph.
WHITELIST_PARTS = (
    "repro/runtime/",
    "repro/collectives/",
    "repro/analysis/",
    "repro/scheduling/",
    "repro/faults/",
    "repro/integrity/",
    # Wall-clock machinery: the arena, the memoized derived-artifact
    # caches, the kernels, and the golden harness operate on raw buffers
    # by design and never produce charged time (the golden suite exists
    # to prove exactly that).
    "repro/perf/",
    "repro/kernels/",
)

#: Whitelisted files that are checked anyway: the round driver holds the
#: one fault-recovery ``try`` the checkpointing solvers share, which is
#: what FX01 reasons about.
CHECKED_PARTS = ("repro/faults/rounds.py",)

#: Modules that live in wall-clock time *on purpose* — operational code,
#: not modeled paths — where ND01 does not apply.  The service
#: layer's quotas, deadlines, breaker cool-downs, and journal timestamps
#: are real-time concerns; the solves it dispatches keep their own
#: modeled clocks (bit-identical with the service's sync-poll hook
#: active — pinned by tests/test_service.py).
WALLCLOCK_PARTS = (
    "repro/service/",
)


def _under(path: Path | str, parts) -> bool:
    text = Path(path).resolve().as_posix()
    return any(part in text for part in parts)


def is_checked(path: Path | str) -> bool:
    """Whether CM01 and the flow rules (SY/CH/FX) report on ``path``:
    every file but the whitelisted runtime layers, plus
    :data:`CHECKED_PARTS`."""
    return _under(path, CHECKED_PARTS) or not _under(path, WHITELIST_PARTS)


def is_wallclock(path: Path | str) -> bool:
    return _under(path, WALLCLOCK_PARTS)


def display_path(path: Path | str) -> str:
    """Stable rendering of a finding path: POSIX separators, relative to
    the current working directory when the file lives under it.

    Findings sort on this string, so two runs of the analysis from the
    same checkout root produce byte-identical output regardless of how
    the scan roots were spelled (absolute, relative, ``..``-laden) or of
    the host's path-separator convention — CI diffs stay deterministic.
    """
    p = Path(path).resolve()
    try:
        return p.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return p.as_posix()


class Waivers:
    """Per-file waiver comments, resolved by line number.

    Two spellings, on the offending line, its last line, or the line
    above::

        before = d.data.copy()  # repro: charged-local (covered by ch pass)
        d.data[:] = state["d"]  # repro: waive[CM01] checkpointer charged restore

    ``# repro: charged-local`` waives the charge-coverage rules (CM01,
    CH01, CH02 — the access is owner-local and its cost is accounted by
    an adjacent charge).
    ``# repro: waive[RULE]`` waives any one rule.  Both require a
    justification.
    """

    #: Rules the ``charged-local`` shorthand covers.
    CHARGE_RULES = ("CM01", "CH01", "CH02")

    def __init__(self, source: str) -> None:
        self.charged_local: Set[int] = set()
        self.by_rule: dict[int, Set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "# repro:" not in text:
                continue
            tag = text.split("# repro:", 1)[1].strip()
            if tag.startswith("charged-local"):
                self.charged_local.add(lineno)
            elif tag.startswith("waive["):
                rule = tag[len("waive[") :].split("]", 1)[0].strip()
                self.by_rule.setdefault(lineno, set()).add(rule)

    def _lines(self, node: ast.AST) -> Iterable[int]:
        lineno = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", lineno) or lineno
        return (lineno, end, lineno - 1)

    def waives(self, node: ast.AST, rule: str) -> bool:
        for line in self._lines(node):
            if rule in self.by_rule.get(line, ()):
                return True
            if rule in self.CHARGE_RULES and line in self.charged_local:
                return True
        return False
