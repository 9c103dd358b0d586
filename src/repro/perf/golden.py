"""Golden-trace fingerprints: the bit-identity contract, made testable.

A *scenario* pins everything that feeds a solve — graph seed, machine
shape, algorithm, fault plan, race analyzer, integrity protection — and
:func:`scenario_fingerprint` reduces the run to a canonical, comparable
structure:

* every modeled float (``sim_time``, per-category seconds, the
  per-thread breakdown) is rendered with :meth:`float.hex`, so dict
  equality means **bit** equality, not approximate equality;
* result arrays (labels, forest edge ids) are folded to a SHA-256 of
  their raw bytes plus dtype/shape;
* counters are copied verbatim;
* a deterministic solver error (e.g. the convergence bound tripping on
  an unprotected corrupted run) is itself part of the fingerprint.

``SCENARIOS`` spans ``{cc, mst} × {faults, analyze, integrity} ×
{on, off}``.  Their fingerprints are pinned in
``tests/golden/fingerprints.json`` (first written from the pre-perf
legacy engine, before it was deleted) and ``tests/test_perf_golden.py``
asserts every run still equals the file — which is the whole contract:
wall-clock optimizations never alter charged time, counters, or
answers.

``REDUNDANCY_SCENARIOS`` is a separate tuple (the 16-scenario pin on
``SCENARIOS`` is itself a contract) covering owner-block redundancy:
buddy and parity modes, with and without transient faults, but with
**no node loss firing** — replication and round-commit charges are part
of the modeled time, so they are pinned too.  ``DATA_PLANE_SCENARIOS``
pins the collective paths neither matrix reaches, and
``SV_SCENARIOS`` pins the Shiloach–Vishkin solve.
``RECOVERY_SCENARIOS`` pins the recovery arms themselves: every fault
class at once (:data:`CHAOS_PLAN` — a crash, a node loss, silent and
in-flight corruption) on each checkpointing solver, the online adapter
across a membership change, and the repair bound giving up.
``BASELINE_SCENARIOS`` pins the sequential and CGM baselines the
paper's speedups are measured against: their modeled time and answers.

This module is the file's only writer::

    python -m repro.perf.golden > tests/golden/fingerprints.json

A change that moves a modeled number on purpose regenerates the file in
the same diff and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..errors import ReproError

__all__ = [
    "Scenario", "SCENARIOS", "REDUNDANCY_SCENARIOS", "DATA_PLANE_SCENARIOS", "SV_SCENARIOS",
    "RECOVERY_SCENARIOS", "BASELINE_SCENARIOS", "PINNED", "scenario_fingerprint",
]


@dataclass(frozen=True)
class Scenario:
    """One pinned run of the golden matrix."""

    algo: str  # "cc" | "mst"
    faults: bool
    analyze: bool
    integrity: bool
    n: int = 384
    m: int = 1536
    seed: int = 7
    nodes: int = 4
    threads: int = 2
    #: Owner-block redundancy mode ("" = off, "buddy" | "parity").
    redundancy: str = ""
    #: ``impl`` handed to the pipeline entry point.
    impl: str = "collective"
    #: Run under :data:`CHAOS_PLAN` instead of the light transient plan.
    chaos: bool = False
    #: Cold spare nodes of the redundancy config.
    spares: int = 0
    #: Hand an eager :class:`~repro.tuning.OnlineAdapter` straight to
    #: the collective solver (the pipeline only builds one for ``auto``).
    adapt: bool = False

    @property
    def name(self) -> str:
        flags = "".join(
            tag for tag, on in (
                ("F", self.faults), ("A", self.analyze), ("I", self.integrity)
            ) if on
        )
        base = f"{self.algo}-{flags or 'plain'}"
        if self.impl != "collective":
            base += f":{self.impl}"
        if (self.nodes, self.threads) != (4, 2):
            base += f"@{self.nodes}x{self.threads}"
        if self.seed != 7:
            base += f"~{self.seed}"
        if self.chaos:
            base += "!chaos"
        if self.adapt:
            base += "!adapt"
        if self.redundancy:
            base += f"+{self.redundancy}"
        return f"{base}/spare{self.spares}" if self.spares else base


SCENARIOS = tuple(
    Scenario(algo=algo, faults=f, analyze=a, integrity=i)
    for algo, f, a, i in product(("cc", "mst"), (False, True), (False, True), (False, True))
)

#: Redundancy-on scenarios, kept out of ``SCENARIOS`` so its 16-entry
#: pin survives.  No node loss fires in any of these: the point is that
#: replication/commit charges are themselves pinned.
REDUNDANCY_SCENARIOS = tuple(
    Scenario(algo=algo, faults=f, analyze=False, integrity=False, redundancy=mode)
    for algo, mode, f in product(("cc", "mst"), ("buddy", "parity"), (False, True))
)

#: Collective paths outside both matrices (every solve above runs
#: ``impl="collective"`` on 4x2): ``cc-plain@1x8`` is the shared-memory
#: GetD/SetD with ``offload``, ``cc-FI:lt-ps~8`` a Liu–Tarjan solve whose
#: wire leg is both corrupted and checksummed (seed 8: four payload
#: flips land and are caught; seed 7 draws none on this solver).
DATA_PLANE_SCENARIOS = (
    Scenario(algo="cc", faults=False, analyze=False, integrity=False, nodes=1, threads=8),
    Scenario(algo="cc", faults=True, analyze=False, integrity=True, impl="lt-ps", seed=8),
)

#: Shiloach–Vishkin, the paper's Fig. 3 baseline: plain, under the race
#: analyzer, and on the shared-memory GetD path with ``offload`` (1x8);
#: then under the light transient plan, bare, with integrity (its payload
#: flips are caught) and with each redundancy mode.
SV_SCENARIOS = (
    Scenario(algo="cc", faults=False, analyze=False, integrity=False, impl="sv"),
    Scenario(algo="cc", faults=False, analyze=True, integrity=False, impl="sv"),
    Scenario(algo="cc", faults=False, analyze=False, integrity=False, impl="sv", nodes=1, threads=8),
    Scenario(algo="cc", faults=True, analyze=False, integrity=False, impl="sv"),
    Scenario(algo="cc", faults=True, analyze=False, integrity=True, impl="sv"),
) + tuple(
    Scenario(algo="cc", faults=True, analyze=False, integrity=False, impl="sv", redundancy=mode)
    for mode in ("buddy", "parity")
)


#: Every fault class the injector knows, in the shape of the resilience
#: tests' plan: a transient crash of thread 5, a permanent loss of node 1,
#: owner-block bit flips, wire flips and message loss.
def _chaos_plan():
    from ..faults.plan import CrashEvent, FaultPlan, NodeLossEvent

    return FaultPlan(
        seed=11,
        loss=1e-3,
        corruption=5.0,
        payload_corruption=1e-4,
        crashes=(CrashEvent(thread=5, at_time=1e-4),),
        node_losses=(NodeLossEvent(node=1, at_time=4e-4),),
    )


def _chaos(algo: str, impl: str = "collective", redundancy: str = "buddy", **kw) -> Scenario:
    return Scenario(
        algo=algo, faults=True, analyze=False, integrity=True, impl=impl, chaos=True,
        redundancy=redundancy, **kw,
    )


#: Each checkpointing solver under the chaos plan, both redundancy modes
#: shrinking onto the survivors, plus a spare adoption for CC and MST.
#: Every run fires a crash replay, integrity repairs and one membership
#: epoch.  The two ``!adapt`` runs pin the adapter's ``begin`` /
#: ``on_round`` / ``on_membership_change`` decisions; ``lt-rfa`` with a
#: spare pins the repair bound's give-up error.
RECOVERY_SCENARIOS = tuple(
    _chaos(algo, impl, mode)
    for (algo, impl), mode in product(
        (("cc", "collective"), ("cc", "lt-ps"), ("cc", "lt-rfa"), ("mst", "collective")),
        ("buddy", "parity"),
    )
) + (
    _chaos("cc", redundancy="parity", spares=1),
    _chaos("mst", spares=1),
    _chaos("cc", adapt=True),
    _chaos("mst", adapt=True),
    _chaos("cc", "lt-rfa", spares=1),
)


#: The baselines: sequential union-find and CGM CC, and the three
#: sequential MSTs.  The generated weights are distinct, so each MST pin
#: holds one forest whatever the engine.
BASELINE_SCENARIOS = tuple(
    Scenario(algo=algo, faults=False, analyze=False, integrity=False, impl=impl)
    for algo, impl in (
        ("cc", "sequential"), ("cc", "cgm"),
        ("mst", "kruskal"), ("mst", "prim"), ("mst", "boruvka"),
    )
)

#: Every scenario ``tests/golden/fingerprints.json`` pins.
PINNED = (
    SCENARIOS + REDUNDANCY_SCENARIOS + DATA_PLANE_SCENARIOS + SV_SCENARIOS + RECOVERY_SCENARIOS
    + BASELINE_SCENARIOS
)


def _hex(x: float) -> str:
    return float(x).hex()


def _array_fp(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
    }


def _fault_plan(scenario: Scenario):
    from ..faults.plan import FaultPlan

    if scenario.chaos:
        return _chaos_plan()
    return FaultPlan(
        seed=scenario.seed,
        loss=0.01,
        corruption=5.0e-3,
        payload_corruption=1.0e-4,
    )


def scenario_fingerprint(scenario: Scenario) -> dict:
    """Run the scenario and fingerprint it."""
    from ..core.pipeline import connected_components, minimum_spanning_forest
    from ..graph.generators import generate
    from ..integrity import IntegrityConfig
    from ..runtime.machine import hps_cluster

    machine = hps_cluster(scenario.nodes, scenario.threads)
    weighted = scenario.algo == "mst"
    g = generate("random", scenario.n, scenario.m, scenario.seed, weighted=weighted)
    plan = _fault_plan(scenario) if scenario.faults else None
    integrity = IntegrityConfig() if scenario.integrity else None
    resilience = None
    if scenario.redundancy:
        from ..resilience import RedundancyConfig

        resilience = RedundancyConfig(mode=scenario.redundancy, group=2, spares=scenario.spares)
    adapter = None
    if scenario.adapt:
        from ..tuning.adapter import AdapterConfig, OnlineAdapter

        # Thresholds at zero: both rules fire on the first round that
        # lets them, so the pin covers real revisions, not just holds.
        adapter = OnlineAdapter(
            machine, scenario.n, allow_offload=scenario.algo == "cc",
            config=AdapterConfig(wait_threshold=0.0, divergence=0.0),
        )

    ctx = contextlib.nullcontext()
    if scenario.analyze:
        from ..analysis import analyzed

        ctx = analyzed()

    fp: dict = {"scenario": scenario.name}
    try:
        with ctx:
            if adapter is not None:
                res = _adapted_solve(scenario, g, machine, plan, adapter, integrity, resilience)
            elif scenario.algo == "cc":
                res = connected_components(
                    g, machine, impl=scenario.impl, faults=plan,
                    integrity=integrity, resilience=resilience,
                )
            else:
                res = minimum_spanning_forest(
                    g, machine, impl=scenario.impl, faults=plan,
                    integrity=integrity, resilience=resilience,
                )
            if scenario.algo == "cc":
                fp["result"] = {
                    "labels": _array_fp(res.labels),
                    "num_components": res.num_components,
                }
            else:
                fp["result"] = {
                    "edge_ids": _array_fp(np.sort(res.edge_ids)),
                    "total_weight": int(res.total_weight),
                    "labels": _array_fp(res.labels),
                }
    except ReproError as err:
        # Deterministic failures (e.g. the convergence bound on an
        # unprotected corrupted run) must reproduce bit-for-bit too.
        fp["error"] = f"{type(err).__name__}: {err}"
        return fp

    info = res.info
    trace = info.trace
    fp["sim_time"] = _hex(info.sim_time)
    fp["iterations"] = int(info.iterations)
    fp["category_seconds"] = {c: _hex(v) for c, v in trace.category_seconds.items()}
    fp["breakdown"] = {c: _hex(v) for c, v in trace.breakdown(machine.total_threads).items()}
    fp["counters"] = trace.counters.as_dict()
    if adapter is not None:
        fp["adapter"] = list(adapter.decisions)
    return fp


def _adapted_solve(scenario, g, machine, plan, adapter, integrity, resilience):
    """A collective solve with ``adapter`` attached, starting from
    ``offload`` off and ``t' = 2`` so that both adaptation rules have
    something to revise."""
    from ..cc.collective import solve_cc_collective
    from ..core.optimizations import OptimizationFlags
    from ..mst.collective import solve_mst_collective

    solve = solve_cc_collective if scenario.algo == "cc" else solve_mst_collective
    return solve(
        g, machine, opts=OptimizationFlags.all().with_(offload=False), tprime=2,
        faults=plan, adapter=adapter, integrity=integrity, resilience=resilience,
    )


if __name__ == "__main__":
    import json
    import platform
    import sys

    # The header names the producing host for diagnosing a mismatch; it
    # is never compared.
    header = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    fingerprints = {s.name: scenario_fingerprint(s) for s in PINNED}
    json.dump({"header": header, "fingerprints": fingerprints}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
