"""Ablation: vertex-layout sensitivity of the blocked shared arrays.

The paper deliberately uses inputs with "no obvious locality pattern"
and notes that R-MAT graphs "contain artificial locality, and random
permutation on the vertices needs to be performed".  This ablation shows
why that matters: on a 2-D grid, the natural row-major numbering keeps
most neighbors on the same node (little remote traffic), while a
block-cyclic relabeling destroys the locality and multiplies the
communicated bytes — same graph, same algorithm, different layout.
"""

from repro.bench import format_table
from repro.core import canonical_labels, cluster_for_input, connected_components
from repro.graph import block_cyclic_permutation, grid_graph, random_permutation


def test_layout_sensitivity(benchmark, repro_scale):
    side = max(64, int(300 * repro_scale))
    g = grid_graph(side, side)
    n = g.n
    cluster = cluster_for_input(n, 16, 8)
    layouts = {
        "natural (row-major)": None,
        "random permutation": random_permutation(n, seed=1),
        "block-cyclic": block_cyclic_permutation(n, cluster.total_threads),
    }

    def run():
        out = {}
        for label, perm in layouts.items():
            graph = g if perm is None else g.permuted(perm)
            out[label] = connected_components(graph, cluster, tprime=2)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base_labels = canonical_labels(results["natural (row-major)"].labels)
    rows = []
    for label, res in results.items():
        rows.append([
            label,
            res.info.sim_time_ms,
            f"{res.info.trace.counters.remote_bytes:,}",
        ])
        assert res.num_components == 1
    print()
    print(format_table(["vertex layout", "sim ms", "remote bytes"], rows))
    natural = results["natural (row-major)"].info.trace.counters.remote_bytes
    scrambled = results["random permutation"].info.trace.counters.remote_bytes
    # Destroying locality multiplies the remote traffic.
    assert scrambled > 2 * natural
    benchmark.extra_info["traffic_inflation"] = round(scrambled / natural, 2)
