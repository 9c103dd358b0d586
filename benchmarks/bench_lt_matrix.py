"""Liu–Tarjan variant matrix: every registered LT variant against the
grafting (``collective``) and Shiloach-Vishkin baselines, across machine
presets and input families.

Every cell is one verified solve: labels are checked against the
networkx oracle and the benchmark fails (nonzero exit under pytest) if
any variant is ever wrong — a fast variant with a wrong answer is not a
result.  The per-preset winner among the LT variants is reported along
with how it compares to the baselines, and the payload lands in
``BENCH_lt.json`` for CI to archive.

The interesting question the matrix answers: *which lattice point wins
where*.  Full shortcutting pays more per round and converges in fewer
rounds; partial shortcutting is the opposite; alter spends two extra
collectives per round to shrink later rounds.  The balance flips with
the machine's communication/compute ratio, so winners are expected to
differ across presets (the payload records whether they did).
"""

import networkx as nx
import numpy as np

from repro.bench import format_table, write_bench_json
from repro.core import connected_components, machine_for_input
from repro.graph import generate
from repro.lt import LT_VARIANT_NAMES
from repro.perf.fanout import fanout_map
from repro.runtime import hps_cluster, infiniband_cluster, smp_node

#: preset name -> base machine builder (rebuilt inside workers; machine
#: configs are derived deterministically from the preset name + n).
PRESETS = {
    "hps-4x2": lambda: hps_cluster(4, 2),
    "hps-16x8": lambda: hps_cluster(16, 8),
    "infiniband-16x8": lambda: infiniband_cluster(16, 8),
    "smp-16": lambda: smp_node(16),
}

KINDS = ("random", "powerlaw")
BASELINES = ("collective", "sv")
IMPLS = BASELINES + LT_VARIANT_NAMES


def _oracle(graph) -> np.ndarray:
    labels = np.arange(graph.n, dtype=np.int64)
    for comp in nx.connected_components(graph.to_networkx()):
        root = min(comp)
        for vtx in comp:
            labels[vtx] = root
    return labels


def _cell_task(task):
    """One (preset, kind) row: solve every impl, verify each against the
    networkx oracle computed once for the row."""
    preset, kind, n = task
    g = generate(kind, n, 4 * n, seed=23)
    machine = machine_for_input(PRESETS[preset](), n)
    want = _oracle(g)
    out = []
    for impl in IMPLS:
        res = connected_components(g, machine, impl=impl, tprime=2)
        out.append((impl, res.info.sim_time_ms, bool(np.array_equal(res.labels, want))))
    return preset, kind, out


def test_lt_variant_matrix(benchmark, repro_scale, repro_workers):
    n = max(2048, int(20_000 * repro_scale))
    tasks = [(preset, kind, n) for preset in PRESETS for kind in KINDS]

    def run():
        return fanout_map(_cell_task, tasks, workers=repro_workers)

    rows_raw = benchmark.pedantic(run, rounds=1, iterations=1)

    payload = {"n": n, "m": 4 * n, "impls": list(IMPLS), "cells": {}, "winners": {}}
    table_rows = []
    wrong = []
    for preset, kind, cells in rows_raw:
        times = {impl: ms for impl, ms, _ in cells}
        for impl, _, correct in cells:
            if not correct:
                wrong.append(f"{preset}/{kind}/{impl}")
        lt_winner = min(LT_VARIANT_NAMES, key=lambda name: times[name])
        payload["cells"][f"{preset}/{kind}"] = {
            impl: round(ms, 6) for impl, ms in times.items()
        }
        payload["winners"][f"{preset}/{kind}"] = {
            "lt": lt_winner,
            "lt_ms": round(times[lt_winner], 6),
            "collective_ms": round(times["collective"], 6),
            "sv_ms": round(times["sv"], 6),
            "lt_beats_collective": times[lt_winner] < times["collective"],
        }
        table_rows.append([
            preset, kind, lt_winner,
            f"{times[lt_winner]:.3f}",
            f"{times['collective']:.3f}",
            f"{times['sv']:.3f}",
        ])

    lt_winners = {w["lt"] for w in payload["winners"].values()}
    payload["winners_differ_across_presets"] = len(lt_winners) > 1
    payload["verified"] = not wrong
    if len(lt_winners) == 1:
        payload["winners_note"] = (
            "one variant won every preset at this scale; the comm/compute"
            " balance did not cross a lattice boundary"
        )

    print()
    print(format_table(
        ["preset", "kind", "best LT", "LT ms", "collective ms", "sv ms"], table_rows
    ))
    path = write_bench_json("lt", payload)
    print(f"wrote {path}")

    # The gate: a single wrong answer anywhere in the matrix fails the
    # benchmark — speed results for incorrect variants are meaningless.
    assert not wrong, f"variants failed the networkx oracle: {wrong}"
    benchmark.extra_info["winners_differ"] = payload["winners_differ_across_presets"]
    benchmark.extra_info["lt_winners"] = sorted(lt_winners)
