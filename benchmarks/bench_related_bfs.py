"""Related-work contrast: BFS's O(d) round bound vs poly-log CC.

The paper's Section I: Yoo et al.'s BlueGene/L BFS "has a lower bound of
O(d) ... for the running time regardless of the number of processors.
Many poly-log time graph algorithms that scale to O(n) processors
exhibit different algorithmic behavior."  This bench measures both on a
low-diameter random graph and a maximal-diameter path: CC's rounds stay
flat while BFS's track the diameter.
"""

from repro.bench import format_table
from repro.bfs import solve_bfs_collective
from repro.core import cluster_for_input, connected_components
from repro.graph import generate, path_graph


def test_bfs_vs_cc_rounds(benchmark, repro_scale):
    n = max(4096, int(50_000 * repro_scale))
    rnd = generate("random", n, 4 * n, seed=60)
    path = path_graph(n)
    cluster = cluster_for_input(n, 16, 8)

    def run():
        out = {}
        for label, g in [("random (d ~ log n)", rnd), ("path (d = n-1)", path)]:
            _, bfs_info = solve_bfs_collective(g, 0, cluster, tprime=2)
            cc = connected_components(g, cluster, tprime=2)
            out[label] = (bfs_info, cc.info)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, (bfs_info, cc_info) in results.items():
        rows.append(
            [label, bfs_info.iterations, f"{bfs_info.sim_time_ms:.3f}",
             cc_info.iterations, f"{cc_info.sim_time_ms:.3f}"]
        )
    print()
    print(format_table(
        ["input", "BFS rounds", "BFS ms", "CC iterations", "CC ms"], rows
    ))
    bfs_path = results["path (d = n-1)"][0]
    cc_path = results["path (d = n-1)"][1]
    bfs_rnd = results["random (d ~ log n)"][0]
    # Diameter-bound: path BFS needs ~n rounds; CC stays poly-log.
    assert bfs_path.iterations >= n - 1
    assert cc_path.iterations < 40
    assert bfs_rnd.iterations < 40
    benchmark.extra_info["path_bfs_rounds"] = bfs_path.iterations
    benchmark.extra_info["path_cc_iterations"] = cc_path.iterations
