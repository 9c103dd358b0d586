#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the captured benchmark results.

Usage:
    pytest benchmarks/ --benchmark-only       # populates benchmarks/results/
    python scripts/generate_experiments.py    # rewrites EXPERIMENTS.md

The per-figure tables come verbatim from ``benchmarks/results/*.txt``;
the commentary blocks below are maintained here.
"""

from __future__ import annotations

import datetime
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

ORDER = [
    ("fig_2.txt", "Fig. 2 — naive CC-UPC vs CC-SMP", """
Paper: the literal UPC translation is drastically slower, "3 orders of
magnitude slower than CC-SMP" normalized per processor.  Measured: ~3.8
orders normalized (the model's fine-grained round-trip + congestion
charges land slightly above the paper's headline; same log-scale gap,
same flat ratio across densities)."""),
    ("fig_3.txt", "Fig. 3 — impact of communication coalescing", """
Paper: with unoptimized collectives and quicksort grouping, rewritten CC
is ~70x faster than the naive translation, and SV is slower than CC
("more collective calls in one iteration").  Measured: ~40-50x for CC
(same order of magnitude, same mechanism: message counts drop from one
per element to one per thread pair) and SV consistently 2.5-3.5x slower
than CC."""),
    ("fig_4.txt", "Fig. 4 — CC vs t' on one SMP node", """
Paper: collectives beat CC-SMP already at t'=1; best t' = 12 (smallest
input) / 18 (larger inputs); best configuration "nearly twice as fast".
Measured: t'=1 beats SMP on all three inputs, U-shaped curves with best
t' = 16, best speedup ~1.23x.  Known delta: the depth of the U is
shallower than the paper's ~2x — our cold-miss-bounded serve leaves less
miss latency for t' to recover (documented in DESIGN.md)."""),
    ("fig_5.txt", "Fig. 5 — cumulative optimizations (random graph)", """
Paper: compact improves nearly all categories; circular halves Comm;
localcpy halves Copy; id slashes the target-id Work.  Measured: Comm
-1.95x at circular, Copy -2.5x at localcpy, Work -3.4x at id, compact
improves every category; total improves monotonically, optimized/base
~4.5x."""),
    ("fig_6.txt", "Fig. 6 — cumulative optimizations (hybrid graph)", """
Paper: "similar impact is also observed for the hybrid graph"; the
scale-free hubs create neither load imbalance (edges are split evenly)
nor communication hotspots (one message per thread pair).  Measured:
breakdown within a few percent of Fig. 5's on every bar — hubs are
invisible, as claimed."""),
    ("fig_7.txt", "Fig. 7 — optimized CC scaling, m/n = 4", """
Paper: best at 8 threads/node — 2.2x over CC-SMP and ~9x over the best
sequential; 16 threads/node degrades ~10x (the 256-thread AlltoAll
burst).  Measured: best at 8 threads/node — 1.66x over SMP, 11.5x over
sequential, 12.3x degradation at 16 threads/node."""),
    ("fig_8.txt", "Fig. 8 — optimized CC scaling, m/n = 10", """
Paper: best at 8 threads/node — 3x over CC-SMP, ~11x over sequential.
Measured: best at 8 threads/node — 2.3x over SMP, ~21x over sequential
(our sequential baseline scales linearly in m, making the denser input
relatively kinder to the cluster than the paper's baseline was)."""),
    ("fig_9.txt", "Fig. 9 — optimized MST scaling, m/n = 4", """
Paper: best speedup 5.5 at 8 threads/node; MST-SMP "either slower or
only slightly faster" than sequential Kruskal due to the 100M-lock
overhead.  Measured: best at 8 threads/node; SMP/Kruskal = 0.93 (the
lock convoy + coherence model reproduces the headline equivalence);
best speedup ~14x.  Known delta: the collective MST overshoots the
paper's 5.5 by ~2x — our SetDMin Boruvka is relatively as cheap as our
CC, while the authors' MST carried more implementation overhead
(documented in DESIGN.md)."""),
    ("fig_10.txt", "Fig. 10 — optimized MST scaling, m/n = 10", """
Paper: best speedup 10.2 at 8 threads/node.  Measured: best at 8
threads/node, ~21x (same overshoot factor as Fig. 9; every qualitative
relation — optimum location, SMP~Kruskal, 16-thread collapse — holds)."""),
    ("sec_iii.txt", "Section III — analytic estimates", """
Paper: with Infiniband (190 ns) and DDR3 (9 ns) constants, "we estimate
CC-UPC is over 20 times slower than CC-SMP" for data access.  Measured:
the same formula evaluates to 17.5x with the quoted constants (the
paper rounds up); the simulator's HPS-cluster preset shows a much larger
per-access gap, consistent with its Fig. 2 behaviour."""),
    ("sec_vi_(hybrid).txt", "Section VI — hybrid-graph summary", """
Paper: on hybrid graphs the best configuration reaches CC 2.5x/2.8x over
SMP and MST 5.1x/6.7x over sequential.  Measured: CC 1.7x/2.0x over SMP
(slightly shallower, tracking Fig. 7/8); MST 14x/22x (the Fig. 9/10
overshoot).  The paper's qualitative point — hybrid results mirror
random-graph results, hubs cost nothing — holds exactly."""),
]

HEADER = """# EXPERIMENTS — paper vs measured

Every figure of the paper's evaluation (its evaluation has no numbered
tables; Figure 1 is source code, reproduced as
`examples/fig1_code_comparison.py`), regenerated by `benchmarks/` on the
simulated cluster.  *Measured* numbers are **modeled simulated-cluster
times** (see DESIGN.md for the substitution argument); inputs are the
paper's graphs scaled ~1000x with densities preserved and machines
recalibrated (`repro.core.calibration`).

Regenerate everything with:

```bash
pytest benchmarks/ --benchmark-only          # default REPRO_BENCH_SCALE=0.5
python scripts/generate_experiments.py
```

## Summary scorecard

| Experiment | Paper | Measured | Verdict |
|---|---|---|---|
| Fig. 2 normalized naive/SMP gap | ~3 orders of magnitude | 3.8 orders | reproduced |
| Fig. 3 coalescing speedup | ~70x | ~43x | reproduced (same order) |
| Fig. 3 SV slower than CC | yes | 2.5x slower | reproduced |
| Fig. 4 t'=1 already beats SMP | yes | yes (all 3 inputs) | reproduced |
| Fig. 4 best t' | 12-18 | 16 | reproduced |
| Fig. 4 best gain over SMP | ~2x | 1.23x | shape only (shallower) |
| Fig. 5 Comm reduction (circular) | ~2x | 1.95x | reproduced |
| Fig. 5 Copy reduction (localcpy) | ~2x | 2.5x | reproduced |
| Fig. 7 best threads/node | 8 | 8 | reproduced |
| Fig. 7 speedup vs SMP / seq | 2.2x / ~9x | 1.66x / 11.5x | reproduced |
| Fig. 7-8 degradation at 16 thr/node | ~10x | 9-12x | reproduced |
| Fig. 8 speedup vs SMP | 3.0x | 2.3x | reproduced |
| Fig. 9-10 MST-SMP vs Kruskal | ~1 (lock overhead) | 0.91-0.93 | reproduced |
| Fig. 9 / 10 best MST speedup | 5.5x / 10.2x | ~14x / ~21x | shape only (overshoots ~2x) |
| Sec. III per-access estimate | >20x | 17.5x | reproduced |
| Sec. VI hybrid = random behaviour | yes | yes | reproduced |

Known deltas (Fig. 4 depth, MST magnitudes) are analyzed in DESIGN.md's
calibration section; both preserve every ordering and crossover the
paper reports.
"""


def main() -> int:
    if not RESULTS.exists():
        print("run `pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 1
    parts = [HEADER]
    for filename, title, commentary in ORDER:
        path = RESULTS / filename
        parts.append(f"\n## {title}\n")
        parts.append(commentary.strip() + "\n")
        if path.exists():
            parts.append("\n```\n" + path.read_text().strip() + "\n```\n")
        else:
            parts.append("\n*(no captured result — run the benchmarks)*\n")
    parts.append(
        "\n## Ablations beyond the paper\n\n"
        "`bench_ablation_schedule_depth.py` (Algorithm 1 depth 0-3: each level\n"
        "cuts exactly-simulated cache misses), `bench_ablation_sort.py`\n"
        "(count sort vs quicksort end-to-end) and `bench_ablation_circular.py`\n"
        "(linear-order incast in isolation).\n"
    )
    out = ROOT / "EXPERIMENTS.md"
    out.write_text("".join(parts))
    stamp = datetime.date.today().isoformat()
    print(f"wrote {out} ({stamp})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
