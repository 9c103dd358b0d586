"""Interprocedural flow verifier: effects-registry drift, seeded defect
fixtures with their clean twins, rule semantics on snippets, and the
tree-wide "repro package verifies clean" acceptance pin."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import CATALOG, registry_drift, run_verify, verify_file
from repro.analysis.effects import EFFECTS, Effect

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"


def verify_snippet(tmp_path: Path, code: str, name: str = "algo.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return verify_file(path)


def keyed(findings):
    return [(f.line, f.rule) for f in findings]


class TestRegistryDrift:
    def test_registry_matches_live_surface(self):
        """The drift gate: every public runtime/collective API is
        registered, and no record describes a vanished API."""
        problems = registry_drift()
        assert problems == [], "\n".join(problems)

    def test_new_runtime_api_reported_unregistered(self, monkeypatch):
        from repro.runtime.runtime import PGASRuntime

        monkeypatch.setattr(
            PGASRuntime, "brand_new_api", lambda self: None, raising=False
        )
        problems = registry_drift()
        assert any("unregistered runtime API 'brand_new_api'" in p for p in problems)

    def test_removed_api_reported_stale(self, monkeypatch):
        monkeypatch.setitem(EFFECTS, "ghost_api", Effect(owner="runtime"))
        problems = registry_drift()
        assert any("stale registry entry 'ghost_api'" in p for p in problems)

    def test_sync_effects_all_carry_tokens(self):
        for name, eff in EFFECTS.items():
            assert not eff.sync or eff.token, name


class TestSeededFixtures:
    """Each fixture module plants one class of defect; the verifier must
    flag every seeded line and stay silent on the corrected twin."""

    def test_divergent_loop_sy_defects(self):
        findings = verify_file(FIXTURES / "divergent_loop.py")
        assert keyed(findings) == [(16, "SY02"), (25, "SY01"), (35, "SY03")]

    def test_divergent_loop_clean_twin(self):
        assert verify_file(FIXTURES / "divergent_loop_clean.py") == []

    def test_uncharged_escape_ch_defects(self):
        findings = verify_file(FIXTURES / "uncharged_escape.py")
        assert keyed(findings) == [
            (13, "CH01"),
            (19, "CH02"),
            (20, "CH01"),
            (28, "CH01"),
        ]

    def test_uncharged_escape_clean_twin(self):
        assert verify_file(FIXTURES / "uncharged_escape_clean.py") == []

    def test_unscoped_comm_fx_defect(self):
        findings = verify_file(FIXTURES / "unscoped_comm.py")
        assert keyed(findings) == [(19, "FX01")]

    def test_unscoped_comm_clean_twin(self):
        assert verify_file(FIXTURES / "unscoped_comm_clean.py") == []

    def test_divergent_round_step_sy_defect(self):
        """A step handed to ``run_rounds`` is still checked: it is
        module-level, not a closure the driver alone can see."""
        findings = verify_file(FIXTURES / "divergent_round.py")
        assert keyed(findings) == [(19, "SY01")]

    def test_divergent_round_step_clean_twin(self):
        assert verify_file(FIXTURES / "divergent_round_clean.py") == []


class TestSyncRules:
    def test_allreduce_verdict_is_uniform(self, tmp_path):
        """The blessed exit idiom: an allreduce result is identical on
        every simulated thread, so branching on it is safe."""
        findings = verify_snippet(
            tmp_path,
            """
            def relax(rt, d, idx):
                while True:
                    grand = rt.fine_grained_read(d, idx)
                    if not rt.allreduce_flag(grand.any()):
                        break
            """,
        )
        assert findings == []

    def test_raise_is_global_abort(self, tmp_path):
        """``raise`` tears down the whole simulated job, so a tainted
        guard around one is not a divergence point."""
        findings = verify_snippet(
            tmp_path,
            """
            def check(rt, d, idx):
                vals = rt.fine_grained_read(d, idx)
                if vals.min() < 0:
                    raise ValueError("negative label")
                rt.barrier()
            """,
        )
        assert findings == []

    def test_divergence_through_helper_call(self, tmp_path):
        """Interprocedural: the branch itself calls a helper whose
        summary contains a sync token — SY01 still fires."""
        findings = verify_snippet(
            tmp_path,
            """
            def settle(rt, d, idx, vals):
                setd(rt, d, idx, vals)

            def kernel(rt, d, idx, vals):
                mine = d.local_view(0)
                if mine.any():
                    settle(rt, d, idx, vals)
            """,
        )
        assert keyed(findings) == [(7, "SY01")]

    def test_uniform_guard_untainted(self, tmp_path):
        findings = verify_snippet(
            tmp_path,
            """
            def kernel(rt, d, idx, vals):
                if rt.allreduce_flag(vals.any()):
                    setd(rt, d, idx, vals)
            """,
        )
        assert findings == []


class TestChargeRules:
    def test_charge_on_every_path_accounts_escape(self, tmp_path):
        findings = verify_snippet(
            tmp_path,
            """
            def kernel(rt, d):
                head = d.local_view(0)
                if rt.profile:
                    rt.charge_thread(2.0)
                else:
                    rt.charge_thread(1.0)
                return head
            """,
        )
        assert findings == []

    def test_wrapper_of_accounted_callee_is_clean(self, tmp_path):
        """A callee that charge-dominates its own tainted return hands
        back *accounted* data — the thin wrapper owes nothing."""
        findings = verify_snippet(
            tmp_path,
            """
            def inner(rt, d):
                vals = d.snapshot()
                rt.charge_thread(float(vals.size))
                return vals

            def outer(rt, d):
                return inner(rt, d)
            """,
        )
        assert findings == []

    def test_wrapper_of_unaccounted_callee_flagged(self, tmp_path):
        findings = verify_snippet(
            tmp_path,
            """
            def inner(d):
                return d.snapshot()

            def outer(rt, d):
                return inner(d)
            """,
        )
        assert keyed(findings) == [(3, "CH01"), (6, "CH01")]


class TestFaultRules:
    def test_fx_only_in_fault_enabled_functions(self, tmp_path):
        """Plain solvers run no fault plan — unprotected collectives are
        the normal case, not an FX finding."""
        findings = verify_snippet(
            tmp_path,
            """
            def kernel(rt, d, idx, vals):
                setd(rt, d, idx, vals)
            """,
        )
        assert findings == []

    def test_fault_scope_recognises_threadcrash_handler(self, tmp_path):
        findings = verify_snippet(
            tmp_path,
            """
            def kernel(rt, d, idx, vals):
                ck = RoundCheckpointer(rt, enabled=True)
                ck.save(arrays={})
                try:
                    setd(rt, d, idx, vals)
                except ThreadCrash:
                    ck.restore()
            """,
        )
        assert findings == []


class TestScopeAndTree:
    def test_catalog_has_all_rules(self):
        assert set(CATALOG) == {
            "CM01", "ND01", "ND02", "SY01", "SY02", "SY03", "CH01", "CH02", "FX01",
        }

    def test_whitelisted_modules_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "runtime"
        pkg.mkdir(parents=True)
        path = pkg / "inner.py"
        path.write_text("def f(d):\n    return d.snapshot()\n")
        assert run_verify([path]) == []

    def test_round_driver_is_fault_checked(self, tmp_path):
        """The driver's module is in scope, so its one recovery ``try``
        is what FX01 reasons about: a faultable call hoisted out of it
        is flagged."""
        source = (SRC / "faults" / "rounds.py").read_text()
        assert verify_file(SRC / "faults" / "rounds.py") == []
        anchor = "        try:\n            if verify is not None"
        assert anchor in source
        mutant = tmp_path / "repro" / "faults" / "rounds.py"
        mutant.parent.mkdir(parents=True)
        mutant.write_text(source.replace(anchor, "        rt.barrier()\n" + anchor))
        assert [f.rule for f in verify_file(mutant)] == ["FX01"]

    def test_source_tree_verifies_clean(self):
        """The acceptance gate: the shipped tree carries no divergent
        collectives, uncharged escapes, or unscoped faultable effects."""
        findings = run_verify([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_run_verify_order_is_path_stable(self):
        findings = run_verify([FIXTURES])
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.rule)
        )
        assert [f.path for f in findings] == sorted(f.path for f in findings)
