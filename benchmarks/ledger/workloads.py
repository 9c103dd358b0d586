"""The four workloads: sizes, what one iteration runs, and how every
input is derived from ``--seed``.

Nothing here imports the program: the runner reads the sizes, and the
child process turns them into graphs and solver calls.

One run does not solve one graph over and over.  On this simulator the
wall time of a solve moves by several percent from one random graph to
the next (a grafting round more or less, a fault landing in another
round), which is more than any bound a benchmark would want to enforce.
So each run builds ``variants`` inputs from the seed and cycles through
them; the medians then describe the population, not one draw from it.
"""

from __future__ import annotations

import random
from typing import Dict, List

# Sizes are this host's sizing (2 cores, numpy kernels): large enough
# that kernel ops are the largest layer of the `*-large` solves, small
# enough that a run of `run_seconds` holds about 40 iterations.
SOLVER_WORKLOADS: Dict[str, dict] = {
    "cc-large": {
        "solves": [("cc", "collective", None)],
        "family": "random", "n": 150_000, "m": 600_000, "machine": (16, 8),
        "variants": 6, "protected": False,
    },
    "mst-large": {
        "solves": [("mst", "collective", None)],
        "family": "hybrid", "n": 28_000, "m": 280_000, "machine": (16, 8),
        "variants": 8, "protected": False,
    },
    "chaos-small": {
        # (algorithm, impl, redundancy mode[, parity group])
        "solves": [
            ("cc", "collective", ("parity", 2)),
            ("cc", "lt-ps", ("parity", 2)),
            ("mst", "collective", ("buddy", None)),
        ],
        "family": "random", "n": 20_000, "m": 80_000, "machine": (8, 4),
        "variants": 32, "protected": True,
    },
}

# The fault plan of every protected solve; the plan's seed is the variant's.
CHAOS_PLAN = {
    "loss": 0.01, "corruption": 4e-4, "payload_corruption": 2e-6,
    "crash": (3, 2e-3), "node_loss": (1, 5e-3),
}

SERVICE = {
    "n": 2048, "density": 4, "machine": "4x2",
    "workers": 2, "rate_per_s": 5.0, "in_flight": 2,
    # The measured seconds are cut into this many cycles of an open-loop
    # segment (phase A, this share of the cycle) and a closed-loop segment
    # (phase B), so that both phases sample the whole run: the host's
    # speed drifts by several percent over tens of seconds.
    "cycles": 4, "open_share": 0.6,
    "graph_pool": 4, "fresh_every": 8,
    "warmup_jobs": 6,
}
# The five request shapes, times the two graph families.
SERVICE_SHAPES = [
    {"algo": "cc", "impl": "collective"},
    {"algo": "cc", "impl": "collective"},
    {"algo": "mst", "impl": "collective"},
    {"algo": "cc", "variant": "lt-rfa"},
    {"algo": "cc", "impl": "auto"},
]
SERVICE_KINDS = ("random", "hybrid")

WORKLOADS = tuple(SOLVER_WORKLOADS) + ("service-open",)

SMOKE_DIVISOR = 20
SMOKE_ITERATIONS = 3
SMOKE_JOBS = 20


def sub_seed(seed: int, index: int, salt: int = 0) -> int:
    """A non-negative 31-bit seed for the ``index``-th input of a run."""
    return (seed * 1_000_003 + index * 7919 + salt * 104_729) % (2**31)


def solver_spec(name: str, smoke: bool) -> dict:
    spec = dict(SOLVER_WORKLOADS[name])
    if smoke:
        spec["n"] //= SMOKE_DIVISOR
        spec["m"] //= SMOKE_DIVISOR
        spec["variants"] = min(spec["variants"], SMOKE_ITERATIONS)
    return spec


def service_bodies(seed: int, count: int, salt: int = 0) -> List[dict]:
    """``count`` job bodies: every block of ten holds each shape on each
    graph family once, in an order the seed picks; every
    ``fresh_every``-th job asks for a graph no earlier job used."""
    rng = random.Random(sub_seed(seed, 0, salt + 1))
    pool = [sub_seed(seed, i, 17) for i in range(SERVICE["graph_pool"])]
    block = [dict(shape, kind=kind) for shape in SERVICE_SHAPES for kind in SERVICE_KINDS]
    bodies: List[dict] = []
    while len(bodies) < count:
        rng.shuffle(block)
        bodies.extend(dict(body) for body in block)
    bodies = bodies[:count]
    for i, body in enumerate(bodies):
        fresh = i % SERVICE["fresh_every"] == SERVICE["fresh_every"] - 1
        body["seed"] = sub_seed(seed, i, salt + 23) if fresh else rng.choice(pool)
        body.update(n=SERVICE["n"], density=SERVICE["density"], machine=SERVICE["machine"])
    return bodies


def service_warmup_bodies(seed: int) -> List[dict]:
    """Set-up jobs: the two ``auto`` shapes first, so both tuning plans
    are built and cached before anything is timed, then the other shapes
    on graphs of the pool."""
    auto = {"algo": "cc", "impl": "auto"}
    shapes = [
        (auto, "random"), (auto, "hybrid"),
        (SERVICE_SHAPES[0], "random"), (SERVICE_SHAPES[2], "hybrid"),
        (SERVICE_SHAPES[3], "hybrid"), (SERVICE_SHAPES[2], "random"),
    ][: SERVICE["warmup_jobs"]]
    return [
        dict(shape, kind=kind, seed=sub_seed(seed, i % SERVICE["graph_pool"], 17),
             n=SERVICE["n"], density=SERVICE["density"], machine=SERVICE["machine"])
        for i, (shape, kind) in enumerate(shapes)
    ]


def paced_schedule(seed: int, rate_per_s: float, seconds: float, salt: int = 0) -> List[float]:
    """Arrival offsets of an open loop at ``rate_per_s``: one arrival per
    ``1 / rate`` slot, placed by the seed within the middle half of its
    slot.

    Arrivals are paced, not Poisson.  At this job size two arrivals
    closer than a service time share the interpreter lock and both take
    twice as long, so with Poisson arrivals the number of such collisions
    — which the seed decides — set the latency, and it moved by 30% from
    seed to seed.  Paced arrivals keep the loop open (a slow server still
    gets the next job on time and queues it) and leave the collisions to
    the server's own stalls.
    """
    rng = random.Random(sub_seed(seed, 1, salt + 3))
    gap = 1.0 / rate_per_s
    count = max(1, round(rate_per_s * seconds))
    return [(i + rng.uniform(0.25, 0.75)) * gap for i in range(count)]
