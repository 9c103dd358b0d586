"""Tests for the benchmark harness (repro.bench)."""

import pytest

from repro.bench import (
    FigureResult,
    banner,
    format_kv,
    format_ratio,
    format_table,
    speedup,
)


class TestReport:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [[1, 2.5], [33, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # equal widths

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_number_formatting(self):
        out = format_table(["x"], [[1234567.0], [0.00001], [3.14159]])
        assert "1.23e+06" in out
        assert "1e-05" in out
        assert "3.142" in out

    def test_format_kv(self):
        out = format_kv({"alpha": 1, "b": 2.0})
        assert "alpha" in out and ":" in out

    def test_format_kv_empty(self):
        assert format_kv({}) == ""

    def test_format_ratio(self):
        assert "2.00x" in format_ratio("speedup", 2.0, 1.0)
        assert "n/a" in format_ratio("speedup", 1.0, 0.0)

    def test_banner(self):
        out = banner("Title")
        assert out.splitlines()[1] == "Title"


class TestSpeedup:
    def test_basic(self):
        assert speedup(2.0, 1.0) == 2.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestFigureResult:
    def test_table_and_render(self):
        fig = FigureResult(
            figure="Fig. X",
            title="demo",
            columns=["a", "b"],
            paper={"metric": 2.0},
        )
        fig.add(a=1, b=2)
        fig.add(a=3, b=4)
        fig.headline["metric"] = 1.9
        out = fig.render()
        assert "Fig. X" in out
        assert "measured 1.9" in out
        assert "paper: 2.0" in out

    def test_missing_cells_blank(self):
        fig = FigureResult(figure="F", title="t", columns=["a", "b"])
        fig.add(a=1)
        assert fig.table()  # renders without KeyError

    def test_notes_rendered(self):
        fig = FigureResult(figure="F", title="t", columns=["a"])
        fig.notes.append("scaled input")
        assert "scaled input" in fig.render()


class TestFigureDriversSmoke:
    """Each figure driver runs end-to-end at a tiny scale and produces
    rows plus every promised headline metric."""

    def test_fig2(self):
        from repro.bench import fig2_naive_vs_smp

        fig = fig2_naive_vs_smp(scale=0.05)
        assert len(fig.rows) == 4
        assert fig.headline["normalized slowdown (orders of magnitude)"] > 1

    def test_fig3(self):
        from repro.bench import fig3_coalescing

        fig = fig3_coalescing(scale=0.2)
        assert {r["config"] for r in fig.rows} == {"Orig", "CC", "SV"}
        assert fig.headline["CC speedup over Orig"] > 3

    def test_fig4(self):
        from repro.bench import fig4_tprime_sweep

        fig = fig4_tprime_sweep(scale=0.1, tprimes=(1, 8))
        assert len(fig.rows) == 6
        assert "best t'" in fig.headline

    def test_fig5(self):
        from repro.bench import fig5_optimization_breakdown

        fig = fig5_optimization_breakdown(scale=0.1)
        assert [r["config"] for r in fig.rows] == [
            "base", "compact", "offload", "circular", "localcpy", "id"
        ]

    def test_fig7(self):
        from repro.bench import fig7_cc_scaling

        fig = fig7_cc_scaling(scale=0.1)
        assert fig.headline["degradation 8->16 threads"] > 1

    def test_fig9(self):
        from repro.bench import fig9_mst_scaling

        fig = fig9_mst_scaling(scale=0.1)
        assert fig.headline["SMP vs Kruskal"] < 3

    def test_sec3(self):
        from repro.bench import sec3_analysis

        fig = sec3_analysis(scale=0.2)
        assert fig.headline["per-access slowdown estimate"] > 10
