"""Per-statement rules of the static verifier (``python -m repro analyze``).

The flow verifier (:mod:`repro.analysis.flow`) parses each file once
and runs :func:`statement_findings` over that tree, next to its own
per-function pass.  These rules look at one expression at a time:

``CM01``  raw subscripted ``.data[...]`` access on a :class:`SharedArray`
          in a checked module (uncharged access = unsound modeled time)
``ND01``  wall-clock nondeterminism (``time.time`` / ``time.time_ns``)
          outside the wall-clock modules (``time.perf_counter`` is exempt —
          it is the *reporting* clock for simulation overhead, never
          modeled time)
``ND02``  seedless randomness: legacy ``np.random.<dist>()`` calls,
          ``np.random.default_rng()`` with no seed argument, stdlib
          global-state ``random.<dist>()`` samplers, and unseeded
          ``random.Random()`` instances

Shared-array identification is *inference-based*, not type-based: a name
is treated as shared within a function if it is assigned from
``*.shared_array(...)`` / ``SharedArray(...)``, used with owner-affinity
or raw-comm methods (``owner_thread``, ``local_sizes``, ``gather``, ...),
or passed as the array operand of ``getd``/``setd``/``setdmin``.
``PartitionedArray`` objects (flat exchange buffers) also expose
``.data`` but never match these signals, so their accesses are not
flagged.  Nested functions inherit the enclosing function's inferred set
(closures over shared arrays are common in the solvers).  The flow rules
use the same inference.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Set

from .config import Waivers

__all__ = ["Finding", "statement_findings"]

#: Constructor / owner-affinity signals that mark a name as shared.
_SHARED_CTORS = {"shared_array", "SharedArray"}
_SHARED_METHODS = {
    "owner_thread",
    "owner_node",
    "local_sizes",
    "local_view",
    "local_range",
    "snapshot",
    "gather",
    "scatter",
    "scatter_min",
    "scatter_store_min",
}
#: Collectives whose second positional argument is the shared array.
_COLLECTIVE_FNS = {"getd", "setd", "setdmin"}

#: Legacy np.random attributes that are fine (not samplers).
_ND_OK = {"default_rng", "SeedSequence", "Generator", "BitGenerator", "PCG64", "Philox"}

#: Stdlib ``random`` module attributes that are fine when called: class
#: constructors (flagged separately when seedless) and state plumbing —
#: everything else on the module is a global-state sampler.
_STDLIB_RANDOM_OK = {
    "Random",
    "SystemRandom",
    "seed",
    "getstate",
    "setstate",
}


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _call_name(node: ast.Call) -> str:
    """Last component of the called name (``rt.barrier`` -> ``barrier``)."""
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return ""


def _infer_shared_names(fn: ast.AST, inherited: Set[str]) -> Set[str]:
    """Names bound to shared arrays within ``fn`` (plus ``inherited``
    names closed over from the enclosing function)."""
    shared = set(inherited)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _call_name(node.value) in _SHARED_CTORS:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        shared.add(tgt.id)
        elif isinstance(node, ast.Call):
            fn_name = _call_name(node)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SHARED_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                shared.add(node.func.value.id)
            elif fn_name in _COLLECTIVE_FNS and len(node.args) >= 2:
                arr = node.args[1]
                if isinstance(arr, ast.Name):
                    shared.add(arr.id)
    return shared


class _StatementRules(ast.NodeVisitor):
    def __init__(self, path: str, waivers: Waivers, cost: bool, wallclock: bool) -> None:
        self.path = path
        self.waivers = waivers
        self.cost = cost
        self.wallclock = wallclock
        self.findings: List[Finding] = []
        self._shared_stack: List[Set[str]] = [set()]

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if not self.waivers.waives(node, rule):
            self.findings.append(Finding(self.path, getattr(node, "lineno", 0), rule, message))

    # -- scope handling --------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        if not self.cost:
            self.generic_visit(node)
            return
        self._shared_stack.append(_infer_shared_names(node, self._shared_stack[-1]))
        self.generic_visit(node)
        self._shared_stack.pop()

    # -- CM01 ------------------------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        target = node.value
        if (
            self.cost
            and isinstance(target, ast.Attribute)
            and target.attr == "data"
            and isinstance(target.value, ast.Name)
            and target.value.id in self._shared_stack[-1]
        ):
            self._emit(
                node,
                "CM01",
                f"raw SharedArray access {target.value.id}.data[...] outside the "
                "runtime whitelist; route through a charged helper "
                "(owner_block_*/fine_grained_*/collectives) or waive with "
                "'# repro: charged-local'",
            )
        self.generic_visit(node)

    # -- ND01 / ND02 -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_nondeterminism(node)
        self.generic_visit(node)

    def _check_nondeterminism(self, node: ast.Call) -> None:
        fn = node.func
        if not isinstance(fn, ast.Attribute):
            return
        if not self.wallclock and isinstance(fn.value, ast.Name) and fn.value.id == "time":
            if fn.attr in ("time", "time_ns"):
                self._emit(
                    node,
                    "ND01",
                    f"wall-clock time.{fn.attr}() in a modeled path; modeled "
                    "results must not depend on host time",
                )
        if fn.attr == "default_rng" and not node.args and not node.keywords:
            self._emit(
                node,
                "ND02",
                "default_rng() without a seed; pass an explicit seed so "
                "runs are reproducible",
            )
        if (
            isinstance(fn.value, ast.Attribute)
            and fn.value.attr == "random"
            and isinstance(fn.value.value, ast.Name)
            and fn.value.value.id in ("np", "numpy")
            and fn.attr not in _ND_OK
        ):
            self._emit(
                node,
                "ND02",
                f"legacy global-state np.random.{fn.attr}(); use a seeded "
                "np.random.default_rng(seed) Generator",
            )
        if isinstance(fn.value, ast.Name) and fn.value.id == "random":
            if fn.attr not in _STDLIB_RANDOM_OK:
                self._emit(
                    node,
                    "ND02",
                    f"global-state random.{fn.attr}() draws from the shared "
                    "seedless stream; use a seeded random.Random(seed) "
                    "instance",
                )
            elif fn.attr == "Random" and not node.args and not node.keywords:
                self._emit(
                    node,
                    "ND02",
                    "random.Random() without a seed; pass an explicit seed "
                    "so runs are reproducible",
                )


def statement_findings(
    tree: ast.Module, path: str, waivers: Waivers, *, cost: bool, wallclock: bool
) -> List[Finding]:
    """One parsed module's statement findings, waivers applied: CM01
    only when ``cost``, ND01 only when not ``wallclock``, ND02 always."""
    rules = _StatementRules(path, waivers, cost, wallclock)
    rules.visit(tree)
    return rules.findings
