"""Experiment harness: figure drivers, report rendering."""

from .figures import (
    ALL_FIGURES,
    fig2_naive_vs_smp,
    fig3_coalescing,
    fig4_tprime_sweep,
    fig5_optimization_breakdown,
    fig6_optimization_breakdown_hybrid,
    fig7_cc_scaling,
    fig8_cc_scaling_dense,
    fig9_mst_scaling,
    fig10_mst_scaling_dense,
    sec3_analysis,
    sec6_hybrid_summary,
)
from .harness import FigureResult, speedup, write_bench_json
from .report import banner, format_kv, format_ratio, format_table

__all__ = [
    "ALL_FIGURES",
    "FigureResult",
    "banner",
    "fig10_mst_scaling_dense",
    "fig2_naive_vs_smp",
    "fig3_coalescing",
    "fig4_tprime_sweep",
    "fig5_optimization_breakdown",
    "fig6_optimization_breakdown_hybrid",
    "fig7_cc_scaling",
    "fig8_cc_scaling_dense",
    "fig9_mst_scaling",
    "format_kv",
    "format_ratio",
    "format_table",
    "sec3_analysis",
    "sec6_hybrid_summary",
    "speedup",
    "write_bench_json",
]
