"""Shared fixtures for the figure benchmarks.

Scale: ``REPRO_BENCH_SCALE`` (default 0.5) multiplies the already
~1000x-shrunk default inputs; machines are recalibrated automatically.
Each benchmark prints its figure table (run with ``-s`` to see it live)
and writes it under ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def repro_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture
def figure_runner(benchmark, repro_scale):
    """Run a figure driver once under pytest-benchmark, print and persist
    its table, and surface its headline metrics as extra_info."""

    def run(driver, **kwargs):
        fig = benchmark.pedantic(
            driver, kwargs={"scale": repro_scale, **kwargs}, rounds=1, iterations=1
        )
        text = fig.render()
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = fig.figure.lower().replace(".", "").replace(" ", "_")
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")
        for key, value in fig.headline.items():
            try:
                benchmark.extra_info[key] = round(float(value), 4)
            except (TypeError, ValueError):
                benchmark.extra_info[key] = str(value)
        return fig

    return run
