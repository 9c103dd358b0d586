"""The static verifier (``python -m repro analyze``).

Each file is parsed once.  The per-statement rules (CM01, ND01, ND02 —
:mod:`repro.analysis.lint`) run over that tree; this module walks each
function as structured control flow, propagates *effect summaries*
through the call graph, and proves three whole-program properties of the
simulated-PGAS solvers:

``SY`` — static barrier/collective matching.  Every function is
summarized as the sequence of sync effects it executes (``barrier``,
``allreduce``, ``getd``/``setd``/``setdmin``), call-expanded through
helpers.  Control flow that can make two simulated threads execute
*different* collective sequences is a static deadlock (or silent
modeled-time divergence).  The key ingredient is a uniformity lattice:
a condition is *divergent* only when derived from per-thread shared
data (``.data`` reads, collective results, fine-grained reads); values
from :meth:`~repro.runtime.PGASRuntime.allreduce_flag` are *uniform* —
every thread sees the same flag — so the canonical
``if not rt.allreduce_flag(...): break`` termination idiom verifies
clean without waivers.

``CH`` — charge-coverage taint.  Values derived from shared-array data
are tainted; a tainted value escaping a function (``return``) with no
*dominating* charge — some entry-to-return path that never charged the
cost model — means modeled milliseconds silently missed a data access.
Raw comm primitives (``gather``/``scatter*``) need a dominating charge
too (CH02).

``FX`` — fault-path safety.  In a solver that constructs fault-recovery
machinery (:class:`~repro.faults.checkpoint.RoundCheckpointer` or a
``RetryPolicy``), every *faultable* effect — one that can raise
``ThreadCrash``/``IntegrityError``/``FaultError`` under an active fault
plan — must be reachable only inside a ``try`` that catches those
exceptions.  A faultable call outside recovery scope means an injected
crash escapes the replay machinery the solver claims to have.

Rule catalog (flow rules; :data:`CATALOG` lists all nine)
------------
``SY01``  rejoining branches under a thread-divergent condition execute
          different call-expanded collective sequences
``SY02``  loop with collective effects in its body exits on a
          thread-divergent condition (different round counts per thread)
``SY03``  early ``return`` under a thread-divergent condition skips
          collectives other threads still execute
``CH01``  shared-data-derived value escapes a function with no charge
          dominating the escape on every path
``CH02``  raw comm primitive (``gather``/``scatter*``) with no dominating
          charge on some path
``FX01``  faultable effect outside any fault-recovery ``try`` scope in a
          checkpointing solver

All effect facts come from the declarative registry in
:mod:`repro.analysis.effects`; a drift test pins the registry to the
real runtime surface.  ``raise`` terminates *all* simulated threads
(global abort), so paths ending in ``raise`` are exempt from SY rules.
Waivers use the ``# repro: waive[RULE]`` / ``# repro: charged-local``
spellings from :mod:`repro.analysis.config`.

Scope: summaries are computed for every scanned file, but CM01 and the
flow rules report only on files :func:`~repro.analysis.config.is_checked`
accepts — everything but the whitelisted runtime layers, plus the round
driver ``faults/rounds.py`` that runs the solvers' recovery loop.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigError
from .config import Waivers, display_path, is_checked, is_wallclock
from .effects import Effect, effect_of
from .lint import Finding, _call_name, _infer_shared_names, statement_findings

__all__ = ["CATALOG", "FunctionSummary", "run_verify", "verify_file"]

CATALOG = {
    "CM01": "uncharged subscripted SharedArray .data access outside the runtime whitelist",
    "ND01": "wall-clock time source in a modeled path",
    "ND02": "seedless randomness (numpy or stdlib) in a modeled path",
    "SY01": "branches under a thread-divergent condition run different collective sequences",
    "SY02": "loop with collective effects exits on a thread-divergent condition",
    "SY03": "thread-divergent early return skips collectives other threads execute",
    "CH01": "shared-data-derived value escapes with no dominating charge on some path",
    "CH02": "raw comm primitive with no dominating charge on some path",
    "FX01": "faultable effect outside fault-recovery scope in a checkpointing solver",
}

#: Exception names whose handlers constitute a fault-recovery scope.
_FAULT_EXCS = {
    "ThreadCrash",
    "IntegrityError",
    "FaultError",
    "NodeLoss",
    "UnrecoverableLossError",
    "ReproError",
    "Exception",
    "BaseException",
}

#: Constructors whose presence marks a function as fault-enabled (FX).
#: ResilientSession rides along: a solver that wires loss recovery has
#: opted into the fault story, so its reconstruction/remap paths must
#: sit inside fault-catching scopes like every other faultable effect.
_RECOVERY_CTORS = {"RoundCheckpointer", "RetryPolicy", "ResilientSession"}


class FunctionSummary:
    """Call-graph-propagated effect summary of one function."""

    __slots__ = (
        "sync_seq",
        "always_charges",
        "returns_tainted",
        "returns_accounted",
        "has_faultable",
    )

    def __init__(
        self,
        sync_seq: Tuple[str, ...] = (),
        always_charges: bool = False,
        returns_tainted: bool = False,
        returns_accounted: bool = True,
        has_faultable: bool = False,
    ) -> None:
        self.sync_seq = sync_seq
        self.always_charges = always_charges
        self.returns_tainted = returns_tainted
        # True when every tainted return was dominated by a charge —
        # the callee already accounted the shared-data access it hands
        # back, so a caller returning it adds no new charge debt.
        self.returns_accounted = returns_accounted
        self.has_faultable = has_faultable


#: Summary used while a recursive cycle is being computed.
_NEUTRAL = FunctionSummary()

#: Taint lattice bits returned by ``_FunctionAnalyzer._eval``.  TAINT
#: marks thread-divergent values (the SY rules key on this); DEBT marks
#: shared-data reads not yet accounted by a charge (the CH rules key on
#: this).  DEBT implies TAINT at every source.
_TAINT = 1
_DEBT = 2


class _State:
    """Abstract machine state along one control-flow path."""

    __slots__ = ("taint", "debt", "charged", "protected", "seq", "terminated")

    def __init__(self) -> None:
        self.taint: Set[str] = set()
        self.debt: Set[str] = set()
        self.charged = False
        self.protected = False
        self.seq: List[str] = []
        self.terminated: Optional[str] = None  # return | raise | break | continue

    def copy(self) -> "_State":
        st = _State()
        st.taint = set(self.taint)
        st.debt = set(self.debt)
        st.charged = self.charged
        st.protected = self.protected
        st.seq = list(self.seq)
        st.terminated = self.terminated
        return st

    def flags_of(self, name: str) -> int:
        return (_TAINT if name in self.taint else 0) | (_DEBT if name in self.debt else 0)


class _Loop:
    """Per-loop context: break structure observed while walking the body."""

    __slots__ = ("cond_depth", "has_break", "tainted_break")

    def __init__(self, cond_depth: int) -> None:
        self.cond_depth = cond_depth
        self.has_break = False
        self.tainted_break = False


def _fmt(tokens: Sequence[str]) -> str:
    return "[" + (" ".join(tokens) if tokens else "none") + "]"


def _exc_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["BaseException"]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = []
    for node in nodes:
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Name):
            names.append(node.id)
    return names


def _handles_faults(node: ast.Try) -> bool:
    return any(
        name in _FAULT_EXCS for handler in node.handlers for name in _exc_names(handler)
    )


def _constructs_recovery(fn: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call) and _call_name(node) in _RECOVERY_CTORS
        for node in ast.walk(fn)
    )


class _FunctionAnalyzer:
    """Walk one function body as structured control flow.

    Runs in two modes: *summary* mode (``emit is None`` — collect the
    :class:`FunctionSummary`, no findings) and *check* mode (emit
    findings).  Both share the identical walk so the summary a caller
    sees and the behavior the checker verifies can never disagree.
    """

    def __init__(
        self,
        program: "_Program",
        path: str,
        fn: ast.AST,
        shared: Set[str],
        waivers: Waivers,
        emit: Optional[Callable[[Finding], None]],
    ) -> None:
        self.program = program
        self.path = path
        self.fn = fn
        self.shared = shared
        self.waivers = waivers
        self.emit = emit
        # FX01 is only ever reported, never summarized.
        self.fx_enabled = emit is not None and _constructs_recovery(fn)
        self.local_defs: Dict[str, ast.AST] = {}
        self.cond_taint: List[bool] = []
        self.loops: List[_Loop] = []
        # Summary accumulators.
        self.always_charges = True
        self.returns_tainted = False
        self.returns_accounted = True
        self.unprotected_faultable = False

    # -- driver ----------------------------------------------------------

    def run(self) -> _State:
        st = _State()
        body = self.fn.body if isinstance(self.fn, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
        self._stmts(body, st, rest_sync=False)
        if st.terminated is None:  # implicit `return None`
            self.always_charges = self.always_charges and st.charged
        return st

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if self.emit is None or self.waivers.waives(node, rule):
            return
        self.emit(Finding(self.path, getattr(node, "lineno", 0), rule, message))

    # -- statements ------------------------------------------------------

    def _stmts(self, stmts: Sequence[ast.stmt], st: _State, rest_sync: bool) -> None:
        for i, stmt in enumerate(stmts):
            if st.terminated is not None:
                return
            later = rest_sync or any(self._contains_sync(s) for s in stmts[i + 1 :])
            self._stmt(stmt, st, later)

    def _stmt(self, stmt: ast.stmt, st: _State, rest_sync: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.local_defs[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            flags = self._eval(stmt.value, st)
            for tgt in stmt.targets:
                self._bind(tgt, flags, st)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, st), st)
        elif isinstance(stmt, ast.AugAssign):
            flags = self._eval(stmt.value, st)
            if isinstance(stmt.target, ast.Name):
                if flags & _TAINT:
                    st.taint.add(stmt.target.id)
                if flags & _DEBT:
                    st.debt.add(stmt.target.id)
            else:
                self._eval(stmt.target, st)
        elif isinstance(stmt, (ast.Expr, ast.Assert)):
            self._eval(stmt.value if isinstance(stmt, ast.Expr) else stmt.test, st)
        elif isinstance(stmt, ast.Return):
            flags = self._eval(stmt.value, st)
            self.returns_tainted = self.returns_tainted or bool(flags & _TAINT)
            self.always_charges = self.always_charges and st.charged
            if flags & _TAINT and not st.charged:
                self.returns_accounted = False
            if flags & _DEBT and not st.charged:
                self._report(
                    stmt,
                    "CH01",
                    "value derived from shared-array data escapes with no "
                    "charge dominating this return; some path never accounted "
                    "the access in modeled time",
                )
            st.terminated = "return"
        elif isinstance(stmt, ast.Raise):
            st.terminated = "raise"
        elif isinstance(stmt, ast.Break):
            st.terminated = "break"
            if self.loops:
                loop = self.loops[-1]
                loop.has_break = True
                if any(self.cond_taint[loop.cond_depth :]):
                    loop.tainted_break = True
        elif isinstance(stmt, ast.Continue):
            st.terminated = "continue"
        elif isinstance(stmt, ast.If):
            self._if(stmt, st, rest_sync)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loop(stmt, st, rest_sync)
        elif isinstance(stmt, ast.Try):
            self._try(stmt, st, rest_sync)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                flags = self._eval(item.context_expr, st)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, flags, st)
            self._stmts(stmt.body, st, rest_sync)
        elif isinstance(stmt, ast.Match):
            self._eval(stmt.subject, st)
            arms = []
            for case in stmt.cases:
                arm = st.copy()
                self._stmts(case.body, arm, rest_sync)
                arms.append(arm)
            live = [a for a in arms if a.terminated is None]
            if live:
                st.taint = set().union(*(a.taint for a in live))
                st.debt = set().union(*(a.debt for a in live))
                st.charged = all(a.charged for a in live)
                st.seq = live[0].seq
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    st.taint.discard(tgt.id)
                    st.debt.discard(tgt.id)
        # Import/Global/Nonlocal/Pass/ClassDef: no effect on the lattice.

    def _bind(self, target: ast.AST, flags: int, st: _State) -> None:
        if isinstance(target, ast.Name):
            if flags & _TAINT:
                st.taint.add(target.id)
            else:
                st.taint.discard(target.id)
            if flags & _DEBT:
                st.debt.add(target.id)
            else:
                st.debt.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, flags, st)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, flags, st)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self._eval(target.value, st)

    # -- branching -------------------------------------------------------

    def _if(self, node: ast.If, st: _State, rest_sync: bool) -> None:
        cond_t = self._eval(node.test, st)
        before = len(st.seq)
        body_st, else_st = st.copy(), st.copy()
        self.cond_taint.append(cond_t)
        self._stmts(node.body, body_st, rest_sync)
        self._stmts(node.orelse, else_st, rest_sync)
        self.cond_taint.pop()
        body_tok = body_st.seq[before:]
        else_tok = else_st.seq[before:]

        if cond_t:
            if (
                body_st.terminated is None
                and else_st.terminated is None
                and body_tok != else_tok
            ):
                self._report(
                    node,
                    "SY01",
                    "branches under a thread-divergent condition execute "
                    f"different collective sequences ({_fmt(body_tok)} vs "
                    f"{_fmt(else_tok)}); simulated threads would deadlock or "
                    "silently diverge in modeled time",
                )
            for term, other_tok in (
                (body_st.terminated, else_tok),
                (else_st.terminated, body_tok),
            ):
                if term == "return" and (other_tok or rest_sync):
                    self._report(
                        node,
                        "SY03",
                        "early return under a thread-divergent condition "
                        "skips collectives that other simulated threads "
                        "will still execute",
                    )

        live = [s for s in (body_st, else_st) if s.terminated is None]
        if live:
            st.taint = set().union(*(s.taint for s in live))
            st.debt = set().union(*(s.debt for s in live))
            st.charged = all(s.charged for s in live)
            st.seq = live[0].seq
        else:
            terms = (body_st.terminated, else_st.terminated)
            st.terminated = "return" if "return" in terms else terms[0]

    # -- loops -----------------------------------------------------------

    def _loop(self, node, st: _State, rest_sync: bool) -> None:
        is_while = isinstance(node, ast.While)
        # Pre-pass on a scratch state: discover loop-carried taint and
        # whether the body emits sync tokens, with findings suppressed.
        scratch = st.copy()
        saved_emit, self.emit = self.emit, None
        self.loops.append(_Loop(len(self.cond_taint)))
        if is_while:
            self._eval(node.test, scratch)
        else:
            self._bind(node.target, self._eval(node.iter, scratch), scratch)
        pre_mark = len(st.seq)
        self._stmts(node.body, scratch, rest_sync)
        self.loops.pop()
        self.emit = saved_emit
        body_has_sync = len(scratch.seq) > pre_mark
        # Loop-carried names visible to the test on iterations > 1.
        st.taint |= scratch.taint
        st.debt |= scratch.debt

        before = len(st.seq)
        loop = _Loop(len(self.cond_taint))
        self.loops.append(loop)
        if is_while:
            exit_cond_tainted = self._eval(node.test, st)
            if isinstance(node.test, ast.Constant):
                exit_cond_tainted = False  # `while True`: exits only via break
        else:
            exit_cond_tainted = self._eval(node.iter, st)
            self._bind(node.target, exit_cond_tainted, st)
        body_st = st.copy()
        body_st.terminated = None
        self._stmts(node.body, body_st, rest_sync or body_has_sync)
        self.loops.pop()
        tokens = body_st.seq[before:]

        if tokens and (exit_cond_tainted or loop.tainted_break):
            self._report(
                node,
                "SY02",
                f"loop with collective effects ({_fmt(tokens)}) exits on a "
                "thread-divergent condition; simulated threads could execute "
                "different numbers of collective rounds",
            )

        st.taint |= body_st.taint
        st.debt |= body_st.debt
        st.seq = st.seq[:before] + ([f"loop({' '.join(tokens)})"] if tokens else [])
        runs_at_least_once = (
            is_while and isinstance(node.test, ast.Constant) and bool(node.test.value)
        )
        if runs_at_least_once:
            st.charged = body_st.charged
        if node.orelse:
            self._stmts(node.orelse, st, rest_sync)

    # -- try / fault-recovery scope --------------------------------------

    def _try(self, node: ast.Try, st: _State, rest_sync: bool) -> None:
        body_st = st.copy()
        body_st.protected = body_st.protected or _handles_faults(node)
        self._stmts(node.body, body_st, rest_sync)
        taint = set(body_st.taint)
        debt = set(body_st.debt)
        for handler in node.handlers:
            h_st = body_st.copy()
            h_st.protected = True
            h_st.terminated = None
            if handler.name:
                h_st.taint.discard(handler.name)
                h_st.debt.discard(handler.name)
            self._stmts(handler.body, h_st, rest_sync)
            taint |= h_st.taint
            debt |= h_st.debt
        st.taint = taint
        st.debt = debt
        st.charged = body_st.charged
        st.seq = body_st.seq
        st.terminated = body_st.terminated
        if node.finalbody:
            saved = st.terminated
            st.terminated = None
            self._stmts(node.finalbody, st, rest_sync)
            st.terminated = st.terminated or saved

    # -- expressions -----------------------------------------------------

    def _eval(self, node: Optional[ast.AST], st: _State) -> int:
        if node is None or isinstance(node, ast.Constant):
            return 0
        if isinstance(node, ast.Name):
            return st.flags_of(node.id)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, st)
            if (
                node.attr == "data"
                and isinstance(node.value, ast.Name)
                and node.value.id in self.shared
            ):
                return _TAINT | _DEBT
            return base
        if isinstance(node, ast.Call):
            return self._call(node, st)
        if isinstance(node, ast.Lambda):
            return 0
        if isinstance(node, ast.NamedExpr):
            flags = self._eval(node.value, st)
            self._bind(node.target, flags, st)
            return flags
        flags = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                flags |= self._eval(child, st)
            elif isinstance(child, ast.comprehension):
                flags |= self._eval(child.iter, st)
                for cond in child.ifs:
                    flags |= self._eval(cond, st)
        return flags

    def _call(self, node: ast.Call, st: _State) -> int:
        arg_flags = 0
        for arg in node.args:
            expr = arg.value if isinstance(arg, ast.Starred) else arg
            arg_flags |= self._eval(expr, st)
        for kw in node.keywords:
            arg_flags |= self._eval(kw.value, st)
        recv_flags = (
            self._eval(node.func.value, st)
            if isinstance(node.func, ast.Attribute)
            else 0
        )
        name = _call_name(node)

        effect = effect_of(name)
        if effect is not None and self._effect_applies(node, effect):
            if effect.sync:
                st.seq.append(effect.token)
            if effect.raw_comm and not st.charged:
                self._report(
                    node,
                    "CH02",
                    f"raw {name}() communication with no dominating charge on "
                    "this path; charge the cost model (or route through a "
                    "charged collective) before moving shared data",
                )
            if effect.charges:
                st.charged = True
            if effect.faultable and not st.protected:
                self.unprotected_faultable = True
                if self.fx_enabled:
                    self._report(
                        node,
                        "FX01",
                        f"faultable {name}() outside any fault-recovery scope "
                        "in a checkpointing solver; an injected crash here "
                        "escapes the replay machinery",
                    )
            if effect.uniform:
                return 0
            if effect.taints:
                return _TAINT | _DEBT | arg_flags | recv_flags
            return arg_flags | recv_flags

        # Call-graph resolution is for *bare-name* calls only: an
        # attribute call (`np.random.permutation(...)`)
        # must not resolve to an unrelated module-level function that
        # happens to share the name.
        summary = self._resolve(name) if isinstance(node.func, ast.Name) else None
        if summary is not None:
            st.seq.extend(summary.sync_seq)
            if summary.has_faultable and not st.protected:
                self.unprotected_faultable = True
                if self.fx_enabled:
                    self._report(
                        node,
                        "FX01",
                        f"call to {name}() (which has faultable comm effects) "
                        "outside any fault-recovery scope in a checkpointing "
                        "solver",
                    )
            if summary.always_charges:
                st.charged = True
            flags = arg_flags
            if summary.returns_tainted:
                flags |= _TAINT
                if not summary.returns_accounted:
                    flags |= _DEBT
            return flags

        return arg_flags | recv_flags

    def _effect_applies(self, node: ast.Call, effect: Effect) -> bool:
        """Shared-array effects are name-collision-prone (``gather``,
        ``snapshot``, ...), so they only apply when the receiver is an
        inferred shared array; other owners match by name."""
        if effect.owner != "shared_array":
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.shared
        )

    def _resolve(self, name: str) -> Optional[FunctionSummary]:
        local = self.local_defs.get(name)
        if local is not None:
            return self.program.summary_for(self.path, local, self.shared)
        return self.program.resolve_global(name)

    # -- helpers ---------------------------------------------------------

    def _contains_sync(self, stmt: ast.stmt) -> bool:
        for name, bare in self.program.calls_in(stmt):
            effect = effect_of(name)
            if effect is not None:
                if effect.sync:
                    return True
                continue
            if bare:
                summary = self._resolve(name)
                if summary is not None and summary.sync_seq:
                    return True
        return False


class _Program:
    """Whole-scan context: parsed files, call-graph index, summaries."""

    def __init__(self) -> None:
        self.files: Dict[str, ast.Module] = {}
        self.waivers: Dict[str, Waivers] = {}
        self._global_defs: Dict[str, Optional[Tuple[str, ast.AST]]] = {}
        self._summaries: Dict[int, FunctionSummary] = {}
        self._in_progress: Set[int] = set()
        self._calls: Dict[int, List[Tuple[str, bool]]] = {}
        self.syntax_errors: List[Finding] = []

    def add_file(self, path: Path) -> None:
        shown = display_path(path)
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as err:  # pragma: no cover - tree is syntax-clean
            self.syntax_errors.append(
                Finding(shown, err.lineno or 0, "CM00", f"syntax error: {err.msg}")
            )
            return
        self.files[shown] = tree
        self.waivers[shown] = Waivers(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Only unambiguous module-level names resolve across
                # files; collisions (and methods) stay opaque.
                if node.name in self._global_defs:
                    self._global_defs[node.name] = None
                else:
                    self._global_defs[node.name] = (shown, node)

    def calls_in(self, stmt: ast.stmt) -> List[Tuple[str, bool]]:
        """``(name, is_bare_name)`` of every call in ``stmt``, in walk
        order, computed once (statement lists re-ask for every prefix)."""
        calls = self._calls.get(id(stmt))
        if calls is None:
            calls = self._calls[id(stmt)] = [
                (_call_name(node), isinstance(node.func, ast.Name))
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
            ]
        return calls

    def resolve_global(self, name: str) -> Optional[FunctionSummary]:
        entry = self._global_defs.get(name)
        if entry is None:
            return None
        path, node = entry
        return self.summary_for(path, node, set())

    def summary_for(
        self, path: str, fn: ast.AST, inherited_shared: Set[str]
    ) -> FunctionSummary:
        key = id(fn)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return _NEUTRAL  # recursion: neutral fixpoint seed
        self._in_progress.add(key)
        try:
            shared = _infer_shared_names(fn, inherited_shared)
            analyzer = _FunctionAnalyzer(
                self, path, fn, shared, self.waivers.get(path, Waivers("")), emit=None
            )
            end = analyzer.run()
            summary = FunctionSummary(
                sync_seq=tuple(end.seq),
                always_charges=analyzer.always_charges,
                returns_tainted=analyzer.returns_tainted,
                returns_accounted=analyzer.returns_accounted,
                has_faultable=analyzer.unprotected_faultable,
            )
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = summary
        return summary

    def check_file(self, path: Path) -> List[Finding]:
        shown = display_path(path)
        tree = self.files.get(shown)
        if tree is None:
            return []
        waivers = self.waivers[shown]
        checked = is_checked(path)
        findings = statement_findings(
            tree, shown, waivers, cost=checked, wallclock=is_wallclock(path)
        )
        if not checked:
            return findings

        def check_fn(fn: ast.AST) -> None:
            shared = _infer_shared_names(fn, set())
            analyzer = _FunctionAnalyzer(
                self, shown, fn, shared, waivers, emit=findings.append
            )
            analyzer.run()

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_fn(node)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        check_fn(member)
        return findings


def _collect_files(paths: Sequence[str | Path]) -> List[Path]:
    files: List[Path] = []
    for root in paths:
        root = Path(root)
        if not root.exists():
            raise ConfigError(f"analyze: no such file or directory: {root}")
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    return files


def run_verify(paths: Sequence[str | Path]) -> List[Finding]:
    """Run every rule in :data:`CATALOG` over ``paths`` (files or dirs).

    Every scanned file contributes call-graph summaries; CM01 and the
    flow rules report only on files
    :func:`~repro.analysis.config.is_checked` accepts.  Order is
    path-stable: sorted by (display path, line, rule).
    """
    files = _collect_files(paths)
    program = _Program()
    for file in files:
        program.add_file(file)
    findings = list(program.syntax_errors)
    for file in files:
        findings.extend(program.check_file(file))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def verify_file(path: Path) -> List[Finding]:
    """Verify a single file in isolation (no cross-file call graph)."""
    return run_verify([path])
