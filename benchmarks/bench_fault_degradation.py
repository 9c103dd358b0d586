"""Fault-degradation curves: collectives degrade more gracefully.

Under message loss every remote message is a retry opportunity, and the
collective rewrites send *O(threads)* coalesced messages per call where
the fine-grained translation sends one per element.  This bench sweeps
loss rates {0, 1e-4, 1e-3, 1e-2} and 1-2 straggler threads over CC and
MST, naive vs collective, and measures the *added* modeled time and the
retransmit counts each implementation absorbs.  The honest claim (and
the assertion): at every loss rate the fine-grained implementation pays
orders of magnitude more retries and more added seconds than the
collective one — fewer messages mean fewer retry opportunities.

Run directly (``python benchmarks/bench_fault_degradation.py``) or via
pytest-benchmark like the figure benches.
"""

from repro import FaultPlan, connected_components, minimum_spanning_forest
from repro.bench import format_table
from repro.core import cluster_for_input
from repro.graph import generate, with_random_weights

LOSS_RATES = (0.0, 1e-4, 1e-3, 1e-2)
STRAGGLERS = (1, 2)
FAULT_SEED = 7


def _solve(problem, g, machine, impl, plan):
    solver = connected_components if problem == "cc" else minimum_spanning_forest
    return solver(g, machine, impl=impl, faults=plan, validate=plan is not None)


def run_degradation(scale: float = 0.5):
    """Sweep the fault grid; returns (rows, headline) and asserts shape."""
    n = max(2_000, int(8_000 * scale))
    g = generate("random", n, 4 * n, seed=30)
    gw = with_random_weights(g, seed=31)
    machine = cluster_for_input(n, 4, 2)

    rows = []
    added = {}   # (problem, impl, loss) -> added modeled seconds vs loss=0
    retries = {}  # (problem, impl, loss) -> retransmit count
    base = {}
    for problem, graph in (("cc", g), ("mst", gw)):
        for impl in ("naive", "collective"):
            for loss in LOSS_RATES:
                plan = FaultPlan.lossy(loss, seed=FAULT_SEED) if loss else None
                res = _solve(problem, graph, machine, impl, plan)
                sim = res.info.sim_time
                nretries = res.info.trace.counters.retries
                if loss == 0.0:
                    base[problem, impl] = sim
                key = (problem, impl, loss)
                added[key] = sim - base[problem, impl]
                retries[key] = nretries
                rows.append([
                    problem, impl, f"{loss:g}", f"{sim * 1e3:.3f}",
                    f"{added[key] * 1e3:.3f}", f"{sim / base[problem, impl]:.3f}",
                    nretries,
                ])

    straggler_rows = []
    for problem, graph in (("cc", g), ("mst", gw)):
        for impl in ("naive", "collective"):
            for count in STRAGGLERS:
                plan = FaultPlan.from_cli(
                    loss=0.0, stragglers=count, seed=FAULT_SEED,
                    total_threads=machine.total_threads,
                )
                res = _solve(problem, graph, machine, impl, plan)
                straggler_rows.append([
                    problem, impl, count, f"{res.info.sim_time * 1e3:.3f}",
                    f"{res.info.sim_time / base[problem, impl]:.3f}",
                ])

    # Degradation shape: added time grows with loss for both impls, and
    # at every nonzero rate the fine-grained impl pays more added time
    # and far more retries than the collective rewrite.
    for problem in ("cc", "mst"):
        for impl in ("naive", "collective"):
            series = [added[problem, impl, loss] for loss in LOSS_RATES]
            assert all(b >= a for a, b in zip(series, series[1:])), (problem, impl, series)
        for loss in LOSS_RATES[1:]:
            # At 1e-4 a handful of retries can land off the critical
            # path and add zero modeled time for both impls; the ordering
            # must hold weakly everywhere and strictly once loss bites.
            assert added[problem, "naive", loss] >= added[problem, "collective", loss]
            assert retries[problem, "naive", loss] > 10 * retries[problem, "collective", loss]
        for loss in (1e-3, 1e-2):
            assert added[problem, "naive", loss] > added[problem, "collective", loss]

    worst = LOSS_RATES[-1]
    headline = {
        "cc naive/collective added-time ratio at 1e-2":
            added["cc", "naive", worst] / max(added["cc", "collective", worst], 1e-12),
        "mst naive/collective added-time ratio at 1e-2":
            added["mst", "naive", worst] / max(added["mst", "collective", worst], 1e-12),
        "cc retries naive vs collective at 1e-2":
            retries["cc", "naive", worst] / max(retries["cc", "collective", worst], 1),
    }
    return rows, straggler_rows, headline


def render(rows, straggler_rows, headline) -> str:
    out = [
        "Fault degradation: modeled slowdown under message loss",
        format_table(
            ["problem", "impl", "loss", "total ms", "added ms", "slowdown", "retries"], rows
        ),
        "",
        "Straggler threads (4x slowdown each)",
        format_table(["problem", "impl", "stragglers", "total ms", "slowdown"], straggler_rows),
        "",
    ]
    for key, value in headline.items():
        out.append(f"  {key}: {value:.3g}")
    return "\n".join(out)


def test_fault_degradation(benchmark, repro_scale):
    rows, straggler_rows, headline = benchmark.pedantic(
        run_degradation, kwargs={"scale": repro_scale}, rounds=1, iterations=1
    )
    text = render(rows, straggler_rows, headline)
    print()
    print(text)
    from conftest import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fault_degradation.txt").write_text(text + "\n")
    for key, value in headline.items():
        benchmark.extra_info[key] = round(float(value), 3)
    # The tentpole claim, pinned: collectives degrade more gracefully.
    assert headline["cc naive/collective added-time ratio at 1e-2"] > 2
    assert headline["mst naive/collective added-time ratio at 1e-2"] > 2
    assert headline["cc retries naive vs collective at 1e-2"] > 10


if __name__ == "__main__":
    print(render(*run_degradation()))
