"""Tests for the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro ...`` exactly as a user would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cc_defaults(self):
        args = build_parser().parse_args(["cc"])
        assert args.impl == "collective"
        assert args.machine == "16x8"

    def test_rejects_unknown_impl(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cc", "--impl", "magic"])

    @pytest.mark.parametrize(
        "argv", (["cc", "--backend", "numpy"], ["mst", "--shard-workers", "2"], ["perf"])
    )
    def test_retired_options_are_plain_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_tprime_auto_accepted(self):
        args = build_parser().parse_args(["cc", "--tprime", "auto"])
        assert args.tprime == "auto"

    def test_tprime_int_accepted(self):
        args = build_parser().parse_args(["cc", "--tprime", "4"])
        assert args.tprime == 4

    def test_tprime_rejects_junk(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cc", "--tprime", "junk"])

    def test_tprime_rejects_nonpositive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cc", "--tprime", "0"])


class TestCommands:
    def test_cc_runs(self, capsys):
        assert main(["cc", "--n", "2000", "--machine", "4x2", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "components:" in out
        assert "modeled" in out

    def test_cc_hybrid_kind(self, capsys):
        assert main(["cc", "--n", "2000", "--kind", "hybrid", "--machine", "4x2"]) == 0

    def test_cc_smp_machine(self, capsys):
        assert main(["cc", "--n", "2000", "--machine", "smp", "--impl", "smp"]) == 0

    def test_cc_seq_machine(self, capsys):
        assert main(["cc", "--n", "2000", "--machine", "seq", "--impl", "sequential"]) == 0

    def test_cc_custom_opts(self, capsys):
        assert main(
            ["cc", "--n", "2000", "--machine", "4x2", "--opts", "compact,circular"]
        ) == 0

    def test_cc_hierarchical(self, capsys):
        assert main(["cc", "--n", "2000", "--machine", "4x2", "--hierarchical"]) == 0

    def test_mst_runs(self, capsys):
        assert main(["mst", "--n", "2000", "--machine", "4x2", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "total weight" in out

    def test_mst_kruskal(self, capsys):
        assert main(["mst", "--n", "2000", "--machine", "seq", "--impl", "kruskal"]) == 0

    def test_listrank_all_impls(self, capsys):
        for impl in ("wyllie", "cgm", "sequential"):
            assert main(["listrank", "--n", "500", "--machine", "4x2", "--impl", impl]) == 0
            out = capsys.readouterr().out
            assert "True" in out  # head rank == n-1 check printed

    def test_info(self, capsys):
        assert main(["info", "--n", "10000"]) == 0
        out = capsys.readouterr().out
        assert "hps_cluster" in out
        assert "per-call scale" in out

    def test_figures_subset(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
        assert main(["figures", "--scale", "0.05", "--only", "sec3"]) == 0
        out = capsys.readouterr().out
        assert "Sec. III" in out

    def test_figures_unknown_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
        with pytest.raises(SystemExit):
            main(["figures", "--only", "fig99"])

    def test_bad_machine_spec(self):
        with pytest.raises(SystemExit):
            main(["cc", "--n", "1000", "--machine", "banana"])

    def test_bad_opts(self):
        with pytest.raises(SystemExit):
            main(["cc", "--n", "1000", "--machine", "4x2", "--opts", "warp"])

    def test_bad_machine_shape_separator(self):
        with pytest.raises(SystemExit):
            main(["cc", "--n", "1000", "--machine", "16y8"])

    def test_opts_auto_rejects_hierarchical(self):
        with pytest.raises(SystemExit):
            main([
                "cc", "--n", "1000", "--machine", "4x2",
                "--opts", "auto", "--hierarchical",
            ])

    def test_cc_with_fault_flags(self, capsys):
        assert main([
            "cc", "--n", "2000", "--machine", "4x2", "--validate",
            "--fault-loss", "1e-3", "--fault-stragglers", "1", "--fault-seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults  :" in out

    def test_mst_with_fault_flags(self, capsys):
        assert main([
            "mst", "--n", "2000", "--machine", "4x2", "--validate",
            "--fault-loss", "1e-3",
        ]) == 0

    def test_fault_flags_deterministic(self, capsys):
        argv = [
            "cc", "--n", "2000", "--machine", "4x2",
            "--fault-loss", "1e-3", "--fault-stragglers", "1", "--fault-seed", "9",
        ]
        def modeled_lines(text):
            # Everything except the real wall-clock line is deterministic.
            return [ln for ln in text.splitlines() if not ln.startswith("wall")]

        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert modeled_lines(first) == modeled_lines(second)

    def test_fault_flags_rejected_for_bfs(self, capsys):
        assert main(["bfs", "--n", "1000", "--machine", "4x2", "--fault-loss", "1e-3"]) == 2
        err = capsys.readouterr().err
        assert "only supported for cc/mst" in err

    def test_fault_flags_rejected_for_listrank(self, capsys):
        assert main(["listrank", "--n", "500", "--machine", "4x2", "--fault-stragglers", "1"]) == 2

    def test_cc_with_corruption_and_integrity(self, capsys):
        assert main([
            "cc", "--n", "2000", "--machine", "4x2", "--validate",
            "--fault-corruption", "0.2", "--fault-payload-corruption", "5e-5",
            "--integrity",
        ]) == 0
        out = capsys.readouterr().out
        assert "silent  :" in out
        assert "detected" in out

    def test_integrity_rejected_for_bfs(self, capsys):
        assert main(["bfs", "--n", "1000", "--machine", "4x2", "--integrity"]) == 2
        err = capsys.readouterr().err
        assert "only supported for cc/mst" in err

    def test_corruption_rejected_for_listrank(self, capsys):
        assert main([
            "listrank", "--n", "500", "--machine", "4x2", "--fault-corruption", "0.1",
        ]) == 2

    def test_soak_runs_and_writes_report(self, capsys, tmp_path):
        assert main([
            "soak", "--iterations", "1", "--seed", "0", "--algo", "cc",
            "--n", "512", "--out-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "all protected runs verified" in out
        assert (tmp_path / "BENCH_soak.json").exists()

    def test_soak_rejects_bad_machine(self):
        with pytest.raises(SystemExit):
            main(["soak", "--machine", "smp"])


class TestFailurePaths:
    """``python -m repro`` must fail *cleanly*: nonzero exit, a one-line
    ``error:`` message on stderr, and no traceback."""

    def assert_clean_failure(self, proc: subprocess.CompletedProcess) -> None:
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "Traceback" not in proc.stdout

    def test_negative_n(self):
        proc = run_cli("cc", "--n", "-5", "--machine", "4x2")
        self.assert_clean_failure(proc)
        assert proc.returncode == 2
        assert proc.stderr.strip().startswith("error:")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_bad_machine(self):
        proc = run_cli("cc", "--n", "1000", "--machine", "banana")
        self.assert_clean_failure(proc)

    def test_bad_impl(self):
        proc = run_cli("cc", "--impl", "magic")
        self.assert_clean_failure(proc)

    def test_bad_opts_flag(self):
        proc = run_cli("cc", "--n", "1000", "--machine", "4x2", "--opts", "warp")
        self.assert_clean_failure(proc)

    def test_fault_loss_out_of_range(self):
        proc = run_cli("cc", "--n", "1000", "--machine", "4x2", "--fault-loss", "1.5")
        self.assert_clean_failure(proc)
        assert proc.returncode == 2
        assert proc.stderr.strip().startswith("error:")

    def test_fault_flags_on_bfs_subprocess(self):
        proc = run_cli("bfs", "--n", "500", "--machine", "2x2", "--fault-loss", "1e-3")
        self.assert_clean_failure(proc)
        assert proc.returncode == 2

    def test_analyze_unknown_rule(self, tmp_path):
        """A typo and a retired rule (CM03, now SY01/SY03) alike."""
        (tmp_path / "ok.py").write_text("def f():\n    return 0\n")
        for rule in ("SY99", "CM03"):
            proc = run_cli("analyze", "--rules", rule, str(tmp_path))
            self.assert_clean_failure(proc)
            assert proc.returncode == 2
            assert proc.stderr.strip().startswith("error:")
            assert "unknown rule" in proc.stderr and rule in proc.stderr

    def test_missing_command(self):
        proc = run_cli()
        self.assert_clean_failure(proc)

    def test_success_smoke(self):
        proc = run_cli("cc", "--n", "1000", "--machine", "2x2")
        assert proc.returncode == 0
        assert "components:" in proc.stdout


class TestAnalyzeCli:
    """The ``analyze`` command: formats and rule filters."""

    @pytest.fixture
    def dirty_dir(self, tmp_path):
        """One statement defect (CM01) and one flow defect (CH01)."""
        (tmp_path / "store.py").write_text(
            "def f(rt):\n    d = rt.shared_array(x)\n    d.data[0] = 1\n"
        )
        (tmp_path / "peek.py").write_text(
            "def peek(d):\n    return d.local_view(0)\n"
        )
        return tmp_path

    def test_analyze_reports_both_analyses(self, dirty_dir, capsys):
        assert main(["analyze", str(dirty_dir)]) == 1
        out = capsys.readouterr().out
        assert "CM01" in out and "CH01" in out

    def test_rules_filter_narrows_findings(self, dirty_dir, capsys):
        assert main(["analyze", "--rules", "CH01", str(dirty_dir)]) == 1
        out = capsys.readouterr().out
        assert "CH01" in out and "CM01" not in out

    def test_rules_filter_can_select_to_clean(self, dirty_dir, capsys):
        assert main(["analyze", "--rules", "ND01,SY01", str(dirty_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_format_json_is_parseable(self, dirty_dir, capsys):
        import json

        assert main(["analyze", "--format", "json", str(dirty_dir)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 2
        assert {f["rule"] for f in doc["findings"]} == {"CM01", "CH01"}

    def test_format_sarif_is_parseable(self, dirty_dir, capsys):
        import json

        assert main(["analyze", "--format", "sarif", str(dirty_dir)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        assert {r["ruleId"] for r in run["results"]} == {"CM01", "CH01"}

    def test_format_sarif_clean_tree_has_no_results(self, tmp_path, capsys):
        import json

        (tmp_path / "ok.py").write_text("def f():\n    return 0\n")
        assert main(["analyze", "--format", "sarif", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestServiceCommands:
    """``serve`` / ``loadtest`` / ``soak --service`` failure paths and
    exit codes (the happy paths are covered end-to-end in
    tests/test_service.py and the CI service-smoke job)."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642
        assert args.workers == 2
        assert args.journal is None

    def test_loadtest_parser_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.rates == [2.0, 6.0, 18.0]

    def test_serve_occupied_port_exits_2(self, capsys):
        """Binding a taken port must fail cleanly: exit 2, one 'error:'
        line, no traceback — not a raw OSError."""
        import socket

        sock = socket.socket()
        try:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        finally:
            sock.close()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot bind" in err

    def test_loadtest_without_server_exits_2(self, capsys):
        assert main(["loadtest", "--url", "http://127.0.0.1:1", "--rates", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_loadtest_rejects_bad_rates(self, capsys):
        assert main(["loadtest", "--rates", "0", "--url", "http://127.0.0.1:1"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_soak_exit_4_on_unrepaired_wrong_result(self, capsys, monkeypatch, tmp_path):
        """A soak whose protected runs produced a wrong or failed result
        must exit 4 (the CI gate), not 0."""
        import repro.integrity as integrity

        def fake_run_soak(config, out_dir=None, workers=None, **kw):
            return {
                "summary": {
                    "runs": 2, "protected_wrong": 1, "protected_failed": 0,
                    "injected": 5, "detected": 4, "repairs": 4,
                    "unprotected_runs": 0, "unprotected_wrong_or_error": 0,
                },
                "wallclock": {"seconds": 0.1, "workers": 1},
                "path": str(tmp_path / "BENCH_soak.json"),
            }

        monkeypatch.setattr(integrity, "run_soak", fake_run_soak)
        assert main(["soak", "--iterations", "1", "--out-dir", str(tmp_path)]) == 4
        assert "did not survive" in capsys.readouterr().err

    def test_service_soak_exit_4_on_contract_violation(self, capsys, monkeypatch, tmp_path):
        import repro.integrity as integrity

        def fake_service_soak(config, out_dir=None, **kw):
            return {
                "summary": {
                    "submitted": 3, "accepted": 3, "rejected_429": 0,
                    "rejected_503": 0, "unexpected": 0,
                    "outcomes": {"done": 2}, "recovered_after_restart": 0,
                    "violations": ["job job-x served with verify status None"],
                },
                "path": str(tmp_path / "BENCH_service_soak.json"),
            }

        monkeypatch.setattr(integrity, "run_service_soak", fake_service_soak)
        assert main(["soak", "--service", "--iterations", "3"]) == 4
        assert "violation" in capsys.readouterr().err

    def test_tune_with_corrupt_cache_recovers(self, capsys, tmp_path, monkeypatch):
        """A corrupt plan-cache file is not fatal: the tuner starts from
        an empty cache, succeeds, and rewrites a valid one."""
        import json

        cache_path = tmp_path / "tune_cache.json"
        cache_path.write_text('{"plans": [{"truncated...')
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(cache_path))
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "bench"))
        assert main(["tune", "--n", "2000", "--machine", "4x2"]) == 0
        assert "selected:" in capsys.readouterr().out
        json.loads(cache_path.read_text())  # rewritten, valid again


class TestAutoMode:
    """``--impl/--opts/--tprime auto`` and the ``tune`` command."""

    @pytest.fixture(autouse=True)
    def scratch_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune_cache.json"))
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "bench"))

    def test_cc_full_auto(self, capsys):
        assert main([
            "cc", "--n", "2000", "--machine", "4x2", "--validate",
            "--impl", "auto", "--opts", "auto", "--tprime", "auto",
        ]) == 0
        assert "components:" in capsys.readouterr().out

    def test_mst_full_auto(self, capsys):
        assert main([
            "mst", "--n", "2000", "--machine", "4x2", "--validate",
            "--impl", "auto", "--opts", "auto", "--tprime", "auto",
        ]) == 0
        assert "total weight" in capsys.readouterr().out

    def test_tprime_auto_alone(self, capsys):
        assert main(["cc", "--n", "2000", "--machine", "4x2", "--tprime", "auto"]) == 0

    def test_tune_cc(self, capsys):
        assert main(["tune", "--n", "2000", "--machine", "4x2"]) == 0
        out = capsys.readouterr().out
        assert "machine profile:" in out
        assert "measured ms" in out
        assert "selected:" in out
        assert "auto    :" in out and "default :" in out

    def test_tune_mst(self, capsys):
        assert main(["tune", "--algo", "mst", "--n", "2000", "--machine", "4x2"]) == 0
        out = capsys.readouterr().out
        assert "selected:" in out
        # The MST plan must never pick offload (D[0] invariant).
        selected = next(ln for ln in out.splitlines() if ln.startswith("selected:"))
        assert "offload" not in selected

    def test_tune_then_info_shows_cached_plan(self, capsys):
        assert main(["tune", "--n", "2000", "--machine", "4x2"]) == 0
        capsys.readouterr()
        assert main(["info", "--n", "2000", "--machine", "4x2"]) == 0
        out = capsys.readouterr().out
        assert "tuning-plan cache" in out
        assert "cc: selected" in out
        assert "mst: no cached plan" in out

    def test_info_without_plans(self, capsys):
        assert main(["info", "--n", "10000"]) == 0
        out = capsys.readouterr().out
        assert "fine-grained" in out
        assert "tuning-plan cache" in out
        assert "no cached plan" in out

    def test_tune_cache_round_trips(self, capsys, tmp_path):
        assert main(["tune", "--n", "2000", "--machine", "4x2"]) == 0
        first = (tmp_path / "tune_cache.json").read_bytes()
        capsys.readouterr()
        assert main(["tune", "--n", "2000", "--machine", "4x2"]) == 0
        assert (tmp_path / "tune_cache.json").read_bytes() == first


class TestBfsCommand:
    def test_bfs_runs(self, capsys):
        assert main(["bfs", "--n", "2000", "--machine", "4x2"]) == 0
        out = capsys.readouterr().out
        assert "reached" in out

    def test_bfs_custom_source(self, capsys):
        assert main(["bfs", "--n", "2000", "--machine", "4x2", "--source", "7"]) == 0

    def test_bfs_sequential(self, capsys):
        assert main(["bfs", "--n", "2000", "--machine", "seq", "--impl", "sequential"]) == 0
