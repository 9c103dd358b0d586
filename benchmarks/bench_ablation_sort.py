"""Ablation: count sort vs quicksort inside the collectives.

The paper notes its Fig. 3 configuration used a quicksort "more than 50
times slower than count sort"; this bench regenerates the end-to-end
impact of the grouping-sort choice on optimized CC.
"""

from repro.bench import format_table
from repro.core import OptimizationFlags, cluster_for_input, connected_components
from repro.graph import generate


def test_sort_method_ablation(benchmark, repro_scale):
    # Keep per-thread request counts in the regime where count sort's
    # linear passes beat quicksort (tiny inputs flip the comparison, as
    # they would on real hardware too).
    n = max(100_000, int(200_000 * repro_scale))
    g = generate("random", n, 4 * n, seed=30)
    cluster = cluster_for_input(n, 16, 8)

    def run():
        out = {}
        for method in ("count", "quick"):
            res = connected_components(
                g, cluster, impl="collective", opts=OptimizationFlags.all(),
                tprime=2, sort_method=method,
            )
            out[method] = res
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [m, results[m].info.sim_time_ms, results[m].info.breakdown()["Sort"] * 1e3]
        for m in ("count", "quick")
    ]
    print()
    print(format_table(["sort", "total ms", "Sort ms/thread"], rows))
    assert results["count"].info.sim_time < results["quick"].info.sim_time
    benchmark.extra_info["quick_over_count"] = round(
        results["quick"].info.sim_time / results["count"].info.sim_time, 3
    )
