"""Resilience economics: redundancy overhead vs recovery latency.

Owner-block redundancy is not free — every round ships the dirty owner
deltas to replica (buddy) or parity-group owners, and that traffic is
charged modeled time like any other communication.  What it buys is
survival: a permanent node loss that would otherwise abort the run gets
absorbed by reconstruct + remap + replay, at a one-time recovery cost.

This bench quantifies both sides of that trade for CC and MST in both
redundancy modes:

* **overhead** — modeled-time ratio of a redundancy-on run (no loss
  fires) over the unprotected baseline: the steady-state premium;
* **recovery** — added modeled ms when one node is permanently lost
  mid-solve (same mode, same graph), with the result still verified:
  the price of the event itself.

The structured report lands in ``BENCH_resilience.json`` for the CI
``resilience-smoke`` job to archive.

Run directly (``python benchmarks/bench_resilience.py``) or via
pytest-benchmark like the figure benches.
"""

from repro import (
    FaultPlan,
    NodeLossEvent,
    RedundancyConfig,
    connected_components,
    minimum_spanning_forest,
)
from repro.bench import format_table, write_bench_json
from repro.core import cluster_for_input
from repro.graph import generate, with_random_weights

MODES = ("buddy", "parity")
LOSS_AT = 3.0e-4  # modeled seconds; early enough to fire in every run
FAULT_SEED = 7


def _solve(problem, graph, machine, plan, resilience):
    solver = connected_components if problem == "cc" else minimum_spanning_forest
    return solver(
        graph, machine, impl="collective", faults=plan,
        resilience=resilience, validate=True,
    )


def run_resilience(scale: float = 0.5):
    """Measure overhead and recovery for the mode matrix; returns
    (rows, report) and asserts the economics hold."""
    n = max(2_000, int(8_000 * scale))
    g = generate("random", n, 4 * n, seed=33)
    gw = with_random_weights(g, seed=34)
    machine = cluster_for_input(n, 4, 2)
    loss_plan = FaultPlan(
        seed=FAULT_SEED, node_losses=(NodeLossEvent(node=1, at_time=LOSS_AT),)
    )

    rows = []
    measurements = {}
    for problem, graph in (("cc", g), ("mst", gw)):
        base = _solve(problem, graph, machine, None, None).info.sim_time
        for mode in MODES:
            config = RedundancyConfig(mode=mode, group=2)
            quiet = _solve(problem, graph, machine, None, config)
            lossy = _solve(problem, graph, machine, loss_plan, config)
            c = lossy.info.trace.counters
            assert c.node_losses == 1 and c.epoch_changes == 1
            assert c.blocks_reconstructed > 0
            overhead = quiet.info.sim_time / base
            recovery_ms = (lossy.info.sim_time - quiet.info.sim_time) * 1e3
            measurements[problem, mode] = {
                "baseline_ms": base * 1e3,
                "protected_ms": quiet.info.sim_time * 1e3,
                "overhead": overhead,
                "lossy_ms": lossy.info.sim_time * 1e3,
                "recovery_added_ms": recovery_ms,
                "replicas_written": c.replicas_written,
                "blocks_reconstructed": c.blocks_reconstructed,
            }
            rows.append([
                problem, mode, f"{base * 1e3:.3f}", f"{quiet.info.sim_time * 1e3:.3f}",
                f"{overhead:.3f}", f"{lossy.info.sim_time * 1e3:.3f}",
                f"{recovery_ms:.3f}", c.replicas_written,
            ])

    # The economics this subsystem claims: redundancy costs something
    # every round (the premium is real, charged communication), and a
    # survived loss costs more on top (reconstruct + replay are not
    # free) — but both runs still verified, which is the whole point.
    for (problem, mode), m in measurements.items():
        assert m["overhead"] > 1.0, (problem, mode, m)
        assert m["recovery_added_ms"] > 0.0, (problem, mode, m)
        assert m["replicas_written"] > 0

    worst_overhead = max(m["overhead"] for m in measurements.values())
    report = {
        "n": n,
        "machine": machine.describe(),
        "loss_at_s": LOSS_AT,
        "measurements": {
            f"{problem}-{mode}": m for (problem, mode), m in measurements.items()
        },
        "headline": {
            "worst_overhead": worst_overhead,
            "worst_recovery_added_ms": max(
                m["recovery_added_ms"] for m in measurements.values()
            ),
        },
    }
    return rows, report


def render(rows, report) -> str:
    out = [
        "Resilience: redundancy overhead vs recovery latency (all runs verified)",
        format_table(
            ["problem", "mode", "base ms", "protected ms", "overhead",
             "with-loss ms", "recovery ms", "replica elems"],
            rows,
        ),
        "",
        f"  worst steady-state overhead: {report['headline']['worst_overhead']:.3f}x",
        f"  worst recovery latency     : "
        f"{report['headline']['worst_recovery_added_ms']:.3f} ms",
    ]
    return "\n".join(out)


def test_resilience_economics(benchmark, repro_scale):
    rows, report = benchmark.pedantic(
        run_resilience, kwargs={"scale": repro_scale}, rounds=1, iterations=1
    )
    text = render(rows, report)
    print()
    print(text)
    from conftest import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "resilience.txt").write_text(text + "\n")
    report["path"] = str(write_bench_json("resilience", report))
    benchmark.extra_info["worst_overhead"] = round(report["headline"]["worst_overhead"], 3)
    benchmark.extra_info["worst_recovery_added_ms"] = round(
        report["headline"]["worst_recovery_added_ms"], 3
    )


if __name__ == "__main__":
    rows, report = run_resilience()
    print(render(rows, report))
    print(f"\nreport: {write_bench_json('resilience', report)}")
