"""Autotuner validation: the auto plan vs the exhaustive flag sweep.

For the paper's Fig. 5/6 configurations (random and hybrid inputs, the
16x8 machine) this benchmark measures EVERY flag configuration (all 2^6
subsets of the six measured flags × the deterministic t' grid), then
runs ``impl/opts/tprime = auto`` on the same input and checks the
acceptance criteria of the tuning subsystem:

* the paper's "Optimized" flags (all six on) reach the sweep's minimum,
  ties allowed — the premise that lets the planner search only impl × t';
* the auto configuration's modeled time is within 5% of the exhaustive
  best;
* it is never slower than the paper's own hand-picked default (all
  flags, t'=2).

A second check holds the planner's candidate set at scale: on 48k-vertex
random and hybrid inputs (scaled by ``REPRO_BENCH_SCALE``) every
distributed CC impl is solved once under a clock tape and replayed over
the t' grid, and the best configuration among the impls the planner
searches must be the best of them all.

Results also land in ``BENCH_tuning.json`` (machine-readable modeled ms
per configuration, and the containment check's kept/all ratios) for CI
to archive.
"""

import itertools

import pytest

from repro.algorithms import REGISTRY
from repro.bench import format_table, write_bench_json
from repro.core import FIG5_ORDER, OptimizationFlags, cluster_for_input, connected_components
from repro.graph import generate
from repro.runtime.cost import CostModel
from repro.scheduling.cache_model import tprime_candidates
from repro.tuning import Workload, build_plan
from repro.tuning.planner import best_times, taped_impls


#: The paper's six measured flags (``hierarchical`` is its future-work
#: proposal, not a measured knob).
SWEEP_FLAGS = FIG5_ORDER + ("rdma",)


@pytest.fixture(scope="module")
def report():
    """``BENCH_tuning.json``'s payload: each test fills its own sections,
    then rewrites the file."""
    return {}


def _flag_subsets():
    """All 2^6 subsets of the measured flags."""
    for r in range(len(SWEEP_FLAGS) + 1):
        for names in itertools.combinations(SWEEP_FLAGS, r):
            yield OptimizationFlags.only(*names)


def _sweep(g, cluster):
    """Modeled ms of every flag subset at every t' of the grid."""
    cands = tprime_candidates(max(1, g.n // cluster.total_threads), CostModel(cluster))
    return {
        (opts.key(), tp): connected_components(g, cluster, opts=opts, tprime=tp).info.sim_time_ms
        for opts, tp in itertools.product(_flag_subsets(), cands)
    }


def test_tuning_auto_vs_exhaustive(benchmark, report, repro_scale, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune_cache.json"))
    n = max(1500, int(6000 * repro_scale))
    payload = {"n": n, "kinds": {}}
    rows = []

    def run():
        out = {}
        for kind in ("random", "hybrid"):
            g = generate(kind, n, 4 * n, seed=11)
            cluster = cluster_for_input(n, 16, 8)
            measured = _sweep(g, cluster)
            auto = connected_components(
                g, cluster, impl="auto", opts="auto", tprime="auto", graph_kind=kind
            )
            default = connected_components(
                g, cluster, opts=OptimizationFlags.all(), tprime=2
            )
            out[kind] = (measured, auto.info.sim_time_ms, default.info.sim_time_ms)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    for kind, (measured, auto_ms, default_ms) in results.items():
        best_key = min(measured, key=measured.get)
        best_ms = measured[best_key]
        rows.append(
            [
                kind,
                len(measured),
                f"{best_key[0]}/t'={best_key[1]}",
                f"{best_ms:.3f}",
                f"{auto_ms:.3f}",
                f"{default_ms:.3f}",
            ]
        )
        payload["kinds"][kind] = {
            "auto_ms": auto_ms,
            "default_ms": default_ms,
            "exhaustive_best_ms": best_ms,
            "exhaustive_best_config": f"{best_key[0]}/t'={best_key[1]}",
            "lattice": {f"{key[0]}/t'={key[1]}": ms for key, ms in measured.items()},
        }
        optimized_key = OptimizationFlags.all().key()
        optimized_ms = min(ms for (key, _), ms in measured.items() if key == optimized_key)
        assert optimized_ms <= best_ms, (
            f"{kind}: the Optimized flags reach {optimized_ms:.3f} ms, the sweep's"
            f" minimum is {best_ms:.3f} ms ({best_key})"
        )
        assert auto_ms <= 1.05 * best_ms, (
            f"{kind}: auto {auto_ms:.3f} ms not within 5% of exhaustive best"
            f" {best_ms:.3f} ms ({best_key})"
        )
        assert auto_ms <= default_ms * 1.001, (
            f"{kind}: auto {auto_ms:.3f} ms slower than the hand-picked default"
            f" {default_ms:.3f} ms"
        )
        benchmark.extra_info[f"{kind}_auto_vs_best"] = round(auto_ms / best_ms, 4)
        benchmark.extra_info[f"{kind}_auto_vs_default"] = round(auto_ms / default_ms, 4)

    print()
    print(
        format_table(
            ["kind", "configs", "exhaustive best", "best ms", "auto ms", "default ms"],
            rows,
        )
    )
    report.update(payload)
    path = write_bench_json("tuning", report)
    print(f"wrote {path}")


def test_tuning_containment_at_scale(benchmark, report, repro_scale):
    """The impls the planner leaves out never win at scale: the best
    searched configuration is the best over every CC impl a probe can
    measure (``taped_impls``, the list the tier-1 containment gate
    solves)."""
    n = max(3000, int(48_000 * repro_scale))
    impls = taped_impls("cc")
    machine = cluster_for_input(n, 16, 8)
    searched = {name for (k, name), spec in REGISTRY.items() if k == "cc" and spec.searched}

    def run():
        out = {}
        for kind, density in itertools.product(("random", "hybrid"), (4, 10)):
            g = generate(kind, n, density * n, seed=7)
            workload = Workload(kind="cc", n=n, m=g.m, graph_kind=kind)
            out[kind, density] = {
                impl: t * 1e3 for impl, t in best_times(workload, g, machine, impls).items()
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    cases, rows = {}, []
    for (kind, density), best in results.items():
        winner = min(best, key=best.get)
        kept = min(best[impl] for impl in searched)
        ratio = kept / best[winner]
        cases[f"{kind}-m/n{density}"] = {
            "winner": winner, "best_ms": best[winner], "kept_best_ms": kept,
            "kept_over_all": round(ratio, 6),
        }
        rows.append([kind, density, winner, f"{best[winner]:.3f}", f"{ratio:.4f}"])
        assert kept == best[winner], (
            f"{kind} m/n {density}: {winner} wins at {best[winner]:.4f} ms, the searched"
            f" impls' best is {kept:.4f} ms (x{ratio:.4f})"
        )
    print()
    print(format_table(["kind", "m/n", "winner", "best ms", "kept/all"], rows))
    report["containment"] = {
        "n": n, "machine": "16x8", "impls": list(impls), "searched": sorted(searched),
        "cases": cases,
    }
    path = write_bench_json("tuning", report)
    print(f"wrote {path}")


def test_tuning_plan_report(benchmark, repro_scale, tmp_path, monkeypatch):
    """Bookkeeping of the planner itself: every entry of the lattice is
    measured (one taped probe solve per impl, replayed over the t' grid)
    and the entries are ranked by that measurement."""
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune_cache.json"))
    n = max(1500, int(6000 * repro_scale))
    cluster = cluster_for_input(n, 16, 8)
    workload = Workload(kind="cc", n=n, m=4 * n, graph_kind="random")

    plan = benchmark.pedantic(
        lambda: build_plan(workload, cluster), rounds=1, iterations=1
    )
    ms = [e.ms for e in plan.entries]
    assert len(ms) == plan.lattice_size and all(v > 0 for v in ms), (
        "every searched configuration must carry a measured time"
    )
    assert ms == sorted(ms), "entries must be ranked by measured time"
    benchmark.extra_info["measured_configs"] = len(ms)
    benchmark.extra_info["selected"] = plan.selected.config_label()
