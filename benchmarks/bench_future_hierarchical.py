"""The paper's future-work proposal, implemented: hierarchical collectives.

Section VI: "This problem is due to the flat organization of threads in
UPC ... the solution lies either in better runtime support or language
support.  The thread-process hierarchy is exposed to the runtime, and
the AlltoAll collective does not have to involve s = p x t threads in
communication across the network.  Instead, it may involve only p
processes."

With ``OptimizationFlags(hierarchical=True)`` each node's threads
aggregate their SMatrix entries and payload messages, and only node
leaders talk across the network.  This bench shows the Fig. 7 16-thread
collapse disappearing — the configuration the paper had to avoid becomes
the fastest one.
"""

from repro.bench import format_table
from repro.core import OptimizationFlags, cluster_for_input, connected_components
from repro.graph import generate


def test_hierarchical_fixes_the_collapse(benchmark, repro_scale):
    n = max(4096, int(100_000 * repro_scale))
    g = generate("random", n, 4 * n, seed=50)
    flat = OptimizationFlags.all()
    hier = flat.with_(hierarchical=True)

    def run():
        out = {}
        for t in (4, 8, 16):
            machine = cluster_for_input(n, 16, t)
            tp = max(1, 16 // t)
            out[(t, "flat")] = connected_components(g, machine, opts=flat, tprime=tp)
            out[(t, "hier")] = connected_components(g, machine, opts=hier, tprime=tp)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for t in (4, 8, 16):
        rows.append(
            [
                f"16x{t} (s={16 * t})",
                results[(t, "flat")].info.sim_time_ms,
                results[(t, "hier")].info.sim_time_ms,
                results[(t, "flat")].info.trace.counters.remote_messages,
                results[(t, "hier")].info.trace.counters.remote_messages,
            ]
        )
    print()
    print(format_table(
        ["cluster", "flat ms", "hierarchical ms", "flat msgs", "hier msgs"], rows
    ))
    flat16 = results[(16, "flat")].info.sim_time
    hier16 = results[(16, "hier")].info.sim_time
    flat8 = results[(8, "flat")].info.sim_time
    # The collapse: flat s=256 is much slower than flat s=128.
    assert flat16 > 3 * flat8
    # The fix: hierarchical s=256 is at least as good as flat s=128.
    assert hier16 < 1.5 * flat8
    benchmark.extra_info["collapse_removed"] = round(flat16 / hier16, 2)
