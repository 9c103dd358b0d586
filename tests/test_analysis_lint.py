"""Statement rules of the static verifier (CM01, ND01, ND02): shared-array
inference, waivers, scope, the retired CM02/CM03 rules' successors, and
the ``analyze`` CLI."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import verify_file
from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def check_snippet(tmp_path: Path, code: str, name: str = "algo.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return verify_file(path)


def rules(findings):
    return [f.rule for f in findings]


class TestCM01:
    def test_raw_data_subscript_flagged(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(rt):
                d = rt.shared_array(np.zeros(8))
                d.data[0] = 1
            """,
        )
        assert rules(findings) == ["CM01"]
        assert findings[0].line == 6
        assert "d.data[...]" in findings[0].message

    def test_partitioned_array_not_flagged(self, tmp_path):
        """PartitionedArray also exposes .data — no shared signals, so
        subscripting it is fine."""
        findings = check_snippet(
            tmp_path,
            """
            def kernel(part, mask):
                return part.data[mask]
            """,
        )
        assert findings == []

    def test_inference_from_owner_methods(self, tmp_path):
        """A parameter used with owner-affinity methods is shared even
        though the function never allocates it (returning the raw read
        also escapes uncharged, hence CH01 on the same line)."""
        findings = check_snippet(
            tmp_path,
            """
            def kernel(arr, idx):
                owners = arr.owner_thread(idx)
                return arr.data[idx], owners
            """,
        )
        assert rules(findings) == ["CH01", "CM01"]

    def test_inference_from_collective_operand(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            def kernel(rt, d, part):
                got = getd(rt, d, part)
                d.data[0] = got[0]
            """,
        )
        assert rules(findings) == ["CM01"]

    def test_nested_function_inherits_shared_set(self, tmp_path):
        """Closures over shared arrays (the sv/mst pattern) are caught."""
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def solve(rt):
                d = rt.shared_array(np.zeros(8))

                def peek():
                    return d.data[0]

                return peek
            """,
        )
        assert rules(findings) == ["CM01"]

    def test_whitelisted_modules_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "runtime"
        pkg.mkdir(parents=True)
        path = pkg / "inner.py"
        path.write_text("def f(rt):\n    d = rt.shared_array(x)\n    d.data[0] = 1\n")
        assert verify_file(path) == []

    def test_bare_attribute_access_not_flagged(self, tmp_path):
        """Only subscripted stores/loads are unsound; passing .data to a
        charged helper is the normal idiom."""
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(rt):
                d = rt.shared_array(np.zeros(8))
                return d.data.copy()
            """,
        )
        assert findings == []


class TestRetiredRules:
    """CM02 and CM03 were folded into the flow rules that replaced them:
    the same snippets now answer to CH02 and SY01."""

    @pytest.mark.parametrize(
        "code, expected",
        [
            pytest.param(
                """
                def kernel(d, idx):
                    owners = d.owner_thread(idx)
                    return d.gather(idx), owners
                """,
                (4, "CH02"),
                id="CM02-uncharged-gather-is-CH02",
            ),
            pytest.param(
                """
                import numpy as np

                def kernel(rt):
                    d = rt.shared_array(np.zeros(8))
                    if d.data.any():
                        rt.barrier()
                """,
                (6, "SY01"),
                id="CM03-shared-condition-is-SY01",
            ),
            pytest.param(
                """
                def kernel(rt, flag):
                    if flag:
                        rt.barrier()
                """,
                None,
                id="CM03-parameter-condition-is-uniform",
            ),
        ],
    )
    def test_retired_rules_have_successors(self, tmp_path, code, expected):
        keyed = [(f.line, f.rule) for f in check_snippet(tmp_path, code)]
        if expected is None:
            assert keyed == []
        else:
            assert expected in keyed


class TestND:
    def test_wall_clock_flagged(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import time

            def kernel():
                return time.time()
            """,
        )
        assert rules(findings) == ["ND01"]

    def test_perf_counter_exempt(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import time

            def kernel():
                return time.perf_counter()
            """,
        )
        assert findings == []

    def test_legacy_np_random_flagged(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel():
                return np.random.rand(4)
            """,
        )
        assert rules(findings) == ["ND02"]

    def test_seedless_default_rng_flagged(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel():
                return np.random.default_rng()
            """,
        )
        assert rules(findings) == ["ND02"]

    def test_seeded_default_rng_passes(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(seed):
                return np.random.default_rng(seed).random(4)
            """,
        )
        assert findings == []

    def test_stdlib_global_random_flagged(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import random

            def kernel():
                return random.random() < 0.5
            """,
        )
        assert rules(findings) == ["ND02"]
        assert "random.random()" in findings[0].message

    def test_stdlib_seedless_instance_flagged(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import random

            def kernel():
                rng = random.Random()
                return rng.random()
            """,
        )
        assert rules(findings) == ["ND02"]

    def test_stdlib_seeded_instance_passes(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import random

            def kernel(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
        )
        assert findings == []


class TestWaivers:
    def test_charged_local_waives_cm01(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(rt):
                d = rt.shared_array(np.zeros(8))
                d.data[0] = 1  # repro: charged-local (init pass covers it)
            """,
        )
        assert findings == []

    def test_waive_rule_on_line_above(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(rt):
                d = rt.shared_array(np.zeros(8))
                # repro: waive[CM01] checkpoint restore, charged elsewhere
                d.data[0] = 1
            """,
        )
        assert findings == []

    def test_waiver_is_rule_specific(self, tmp_path):
        findings = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(rt):
                d = rt.shared_array(np.zeros(8))
                d.data[0] = 1  # repro: waive[ND01] wrong rule
            """,
        )
        assert rules(findings) == ["CM01"]


class TestSharedConfig:
    def test_lint_and_flow_share_scoping_predicates(self, tmp_path):
        """One scope predicate: every file but the whitelisted runtime
        layers is checked, plus the named round driver."""
        from repro.analysis import flow
        from repro.analysis.config import Waivers, is_checked, is_wallclock

        assert flow.is_checked is is_checked
        assert flow.Waivers is Waivers
        assert is_checked(tmp_path / "user.py")
        assert is_checked(tmp_path / "repro" / "cc" / "collective.py")
        assert is_checked(tmp_path / "repro" / "service" / "executor.py")
        assert is_checked(tmp_path / "repro" / "faults" / "rounds.py")
        assert not is_checked(tmp_path / "repro" / "faults" / "injector.py")
        assert not is_checked(tmp_path / "repro" / "runtime" / "runtime.py")
        assert is_wallclock(tmp_path / "repro" / "service" / "executor.py")
        assert not is_wallclock(tmp_path / "repro" / "cc" / "collective.py")


class TestTreeAndCli:
    def test_cli_analyze_clean_tree(self, capsys):
        assert main(["analyze", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_analyze_missing_path(self, capsys):
        """Repo convention: one-line ``error: ...`` + exit 2, no traceback."""
        assert main(["analyze", "/no/such/path"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no such file" in err

    def test_cli_analyze_dirty_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def f(rt):\n    d = rt.shared_array(x)\n    d.data[0] = 1\n"
        )
        assert main(["analyze", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CM01" in out and "1 finding(s)" in out

    @pytest.mark.parametrize("impl", ["collective", "naive"])
    def test_cli_analyze_flag_on_cc(self, impl, capsys):
        """--analyze prints the sanitizer report; the collective solver is
        race-free (exit 0), the naive translation is not (exit 3)."""
        code = main(
            ["cc", "--n", "400", "--machine", "2x2", "--no-calibrate",
             "--impl", impl, "--analyze"]
        )
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert code == (0 if impl == "collective" else 3)
