"""Benchmark harness: figure-result containers, speedups, result files.

Inputs are not handled here: a benchmark builds its graph with
:func:`repro.graph.generate`, which is deterministic per seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from ..atomicio import atomic_write_text
from .report import format_table

__all__ = ["write_bench_json", "FigureResult", "speedup"]


def write_bench_json(name: str, payload: dict, directory: "Path | None" = None) -> Path:
    """Write a machine-readable benchmark result file (``BENCH_<name>.json``).

    The benchmarks print human tables; CI additionally wants structured
    numbers it can archive and diff across runs.  Files land next to the
    working directory by default (CI uploads them as artifacts) with
    sorted keys, so identical results produce identical bytes.  Writes
    are atomic (unique temp + rename): concurrent soak/service workers
    rewriting the same report can never leave a torn file behind.
    """
    directory = Path(directory) if directory is not None else Path.cwd()
    path = directory / f"BENCH_{name}.json"
    return atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1, default=float) + "\n")


def speedup(baseline_time: float, time: float) -> float:
    """``baseline / time`` — >1 means faster than the baseline."""
    if time <= 0:
        raise ValueError("time must be positive")
    return baseline_time / time


@dataclass
class FigureResult:
    """Structured output of one figure reproduction.

    ``rows`` hold one dict per data point; ``headline`` maps metric names
    (e.g. ``"best speedup vs SMP"``) to measured values; ``paper`` maps
    the same names to the paper's reported values, so EXPERIMENTS.md can
    print paper-vs-measured side by side.
    """

    figure: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    headline: Dict[str, float] = field(default_factory=dict)
    paper: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, **cells: object) -> None:
        self.rows.append(cells)

    def table(self) -> str:
        body = [[row.get(c, "") for c in self.columns] for row in self.rows]
        return format_table(list(self.columns), body)

    def render(self) -> str:
        out = [f"{self.figure}: {self.title}", self.table()]
        if self.headline:
            out.append("")
            for key, value in self.headline.items():
                paper_val = self.paper.get(key, "n/a")
                out.append(f"  {key}: measured {value:.3g} (paper: {paper_val})")
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)
