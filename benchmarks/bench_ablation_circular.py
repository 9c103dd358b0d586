"""Ablation: linear vs circular communication orchestration.

Regenerates the paper's "communication time is reduced by a factor of 2
with circular" in isolation (all other optimizations held at their
optimized settings).
"""

from repro.bench import format_table
from repro.core import OptimizationFlags, cluster_for_input, connected_components
from repro.graph import generate


def test_circular_ablation(benchmark, repro_scale):
    n = max(2048, int(100_000 * repro_scale))
    g = generate("random", n, 4 * n, seed=31)
    cluster = cluster_for_input(n, 16, 8)
    with_circ = OptimizationFlags.all()
    without = with_circ.with_(circular=False)

    def run():
        return {
            "circular": connected_components(g, cluster, opts=with_circ, tprime=2),
            "linear": connected_components(g, cluster, opts=without, tprime=2),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [k, r.info.sim_time_ms, r.info.breakdown()["Comm"] * 1e3]
        for k, r in results.items()
    ]
    print()
    print(format_table(["order", "total ms", "Comm ms/thread"], rows))
    comm_lin = results["linear"].info.breakdown()["Comm"]
    comm_circ = results["circular"].info.breakdown()["Comm"]
    assert comm_circ < comm_lin
    benchmark.extra_info["comm_reduction"] = round(comm_lin / comm_circ, 3)
