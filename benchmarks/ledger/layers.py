"""Which callables of ``src/repro`` the traced run wraps, under which
span name, and how spans become the per-layer metrics.

Span names are ``<package under src/repro>.<what>``.  Several callables
may share one span name: self times add up, so a layer is the sum of the
self time of everything wrapped under its names.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
from typing import Dict, List

from tracing import EXTRA, NAME, UNIT, Tracer

KERNEL_OPS = (
    "group_minima", "exchange_matrix", "owner_distinct", "segment_distinct", "concat_segments",
)

# (module, class, attributes, span name); "*" = every public function of the class.
METHODS = [
    ("repro.runtime.shared_array", "SharedArray", ("owner_thread", "owner_node"),
     "runtime.owner_lookup"),
    ("repro.runtime.shared_array", "SharedArray",
     ("__init__", "gather", "scatter", "scatter_min", "scatter_store_min", "local_sizes",
      "local_range", "local_view", "snapshot"), "runtime.shared_array"),
    ("repro.runtime.partitioned", "PartitionedArray",
     ("__init__", "even", "from_segments", "concat_pairwise", "thread_ids", "filter",
      "segment_sums", "segment_distinct", "segment_counts_where"), "runtime.partitioned"),
    ("repro.runtime.runtime", "PGASRuntime", ("charge", "charge_thread", "charge_comm"),
     "runtime.charge"),
    ("repro.runtime.runtime", "PGASRuntime", ("barrier", "allreduce_flag"), "runtime.barrier"),
    ("repro.runtime.runtime", "PGASRuntime", "*", "runtime.rt"),
    ("repro.runtime.clocks", "ThreadClocks", "*", "runtime.clocks"),
    ("repro.runtime.cost", "CostModel", "*", "runtime.cost_model"),
    ("repro.runtime.trace", "Trace", ("record_event",), "runtime.trace_event"),
    ("repro.runtime.trace", "Trace", ("charge_category", "merge"), "runtime.trace"),
    ("repro.runtime.trace", "Counters", ("add",), "runtime.trace"),
    ("repro.integrity.monitor", "IntegrityMonitor",
     ("track", "note_write", "resync", "on_barrier"), "integrity.digest"),
    ("repro.integrity.monitor", "IntegrityMonitor",
     ("verify_cc_round", "verify_lt_round", "verify_star_round", "verify_mst_selection"),
     "integrity.verify_round"),
    ("repro.faults.checkpoint", "RoundCheckpointer", ("save",), "faults.checkpoint_save"),
    ("repro.faults.checkpoint", "RoundCheckpointer", ("restore",), "faults.checkpoint_restore"),
    ("repro.faults.injector", "FaultInjector", "*", "faults.injector"),
    ("repro.resilience.session", "ResilientSession", ("enroll", "mark_write", "commit_round"),
     "resilience.commit"),
    ("repro.resilience.session", "ResilientSession", ("on_loss", "recover_loss"),
     "resilience.recover"),
    ("repro.service.executor", "JobExecutor", ("_resolve_plan",), "service.plan"),
    ("repro.service.executor", "JobExecutor", ("_verify",), "service.verify"),
    ("repro.service.executor", "_GraphCache", ("get",), "service.graph_cache"),
    ("repro.service.journal", "JobJournal", ("record",), "service.journal"),
    ("repro.service.queue", "AdmissionQueue", ("offer",), "service.enqueue"),
]

# (module, function names, span name): rebound in every module that imported them by name.
FUNCTIONS = [
    ("repro.collectives.alltoall",
     ("send_matrix", "position_matrix", "charge_setup", "exchange_counts"),
     "collectives.alltoall"),
    ("repro.scheduling.countsort",
     ("bucket_offsets", "counting_sort_permutation", "group_by_key"), "scheduling"),
    ("repro.scheduling.virtual_threads",
     ("sub_block_elems", "virtual_gather", "charge_local_serve"), "scheduling"),
    ("repro.scheduling.access_schedule",
     ("schedule_plan", "scheduled_gather", "scheduled_scatter_min"), "scheduling"),
    ("repro.scheduling.cache_model", ("best_tprime", "tprime_candidates"), "scheduling"),
    ("repro.cc.collective", ("pointer_jump_to_stars",), "solver.helper"),
    ("repro.cc.common", ("graft_proposals", "check_converged"), "solver.helper"),
    ("repro.mst.collective", ("partition_by_owner",), "solver.helper"),
    ("repro.mst.common", ("pack_candidates", "extract_winners", "break_hook_cycles"),
     "solver.helper"),
    ("repro.graph.distribute", ("distribute_edges",), "graph.distribute"),
    ("repro.graph.generators", ("random_graph", "hybrid_graph", "powerlaw_graph"),
     "graph.generate"),
    ("repro.graph.generators", ("with_random_weights",), "graph.weights"),
    ("repro.core.pipeline",
     ("connected_components", "minimum_spanning_forest", "_dispatch", "_resolve_auto",
      "resolve_tprime"), "core.pipeline"),
    ("repro.integrity.monitor", ("guard_payload",), "integrity.guard_payload"),
]

COLLECTIVES = [
    ("repro.collectives.getd", "getd", "collectives.getd"),
    ("repro.collectives.setd", "setd", "collectives.setd"),
    ("repro.collectives.setd", "setdmin", "collectives.setdmin"),
]
SOLVERS = [
    ("repro.cc.collective", "solve_cc_collective"),
    ("repro.mst.collective", "solve_mst_collective"),
    ("repro.lt.solver", "solve_cc_lt"),
]

# Counters a finished solve carries that the ledger reports.
SOLVE_COUNTERS = (
    "iterations", "retries", "checkpoint_restores", "corruptions_detected", "repairs",
    "replicas_written", "blocks_reconstructed",
)


def load_all_modules() -> None:
    """Import every ``repro`` module, so that a by-name import made later
    cannot capture a wrapper that :meth:`Tracer.restore` does not know."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass  # an optional backend (numba) that this host does not have


def _request_count(args, kwargs) -> int:
    indices = args[2] if len(args) > 2 else kwargs.get("indices", kwargs.get("targets"))
    return int(indices.total)


def _first_size(args, kwargs) -> int:
    return int(args[1].size)


def _concat_size(args, kwargs) -> int:
    return int(args[1].shape[0] + args[3].shape[0])


def _solve_counters(span, result) -> None:
    info = result.info
    counters = info.trace.counters
    extra = {name: int(getattr(counters, name)) for name in SOLVE_COUNTERS}
    extra["final_rounds"] = int(info.iterations)
    extra["modeled_ms"] = float(info.sim_time_ms)
    extra["dropped_events"] = int(info.trace.dropped_events)
    span[EXTRA] = extra


def _job_id_of_execute(args, kwargs):
    return args[1].job_id


def _job_id_of_submit(span, result) -> None:
    status, body, _headers = result
    span[UNIT] = body.get("job_id") if status == 202 else f"refused-{id(span)}"


def instrument(tracer: Tracer) -> Dict[str, List[str]]:
    """Wrap every layer boundary; returns, per rebound function, the
    modules whose namespace was patched."""
    load_all_modules()
    from repro import kernels

    backend = type(kernels.active_backend())
    for op in KERNEL_OPS:
        owner = next(klass for klass in backend.__mro__ if op in vars(klass))
        sizer = _concat_size if op == "concat_segments" else _first_size
        tracer.patch_method(owner, op, f"kernels.{op}", elems=sizer)

    taken = set()
    for module_name, class_name, attrs, span_name in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        if attrs == "*":
            attrs = [
                a for a, v in vars(cls).items()
                if callable(v) and (not a.startswith("_") or a == "__init__")
            ]
        for attr in attrs:
            if (cls, attr) not in taken:  # an earlier, more specific row wins
                taken.add((cls, attr))
                tracer.patch_method(cls, attr, span_name)

    from repro.service.executor import JobExecutor
    from repro.service.server import GraphService

    tracer.patch_method(GraphService, "submit", "service.admit", after=_job_id_of_submit)
    tracer.patch_method(JobExecutor, "execute", "service.execute", unit=_job_id_of_execute)
    tracer.patch_method(JobExecutor, "_solve", "service.solve")

    rebound: Dict[str, List[str]] = {}
    for module_name, names, span_name in FUNCTIONS:
        module = importlib.import_module(module_name)
        for name in names:
            rebound[f"{module_name}.{name}"] = tracer.patch_function(module, name, span_name)
    for module_name, name, span_name in COLLECTIVES:
        module = importlib.import_module(module_name)
        rebound[f"{module_name}.{name}"] = tracer.patch_function(
            module, name, span_name, elems=_request_count
        )
    for module_name, name in SOLVERS:
        module = importlib.import_module(module_name)
        rebound[f"{module_name}.{name}"] = tracer.patch_function(
            module, name, "solver.solve", after=_solve_counters
        )
    return rebound


# -- spans -> metrics ---------------------------------------------------------

# metric -> span names whose self time it sums
SELF_TIME = {
    **{f"kernels.{op}_s": (f"kernels.{op}",) for op in KERNEL_OPS},
    "kernels.total_s": tuple(f"kernels.{op}" for op in KERNEL_OPS),
    "runtime.owner_lookup_s": ("runtime.owner_lookup",),
    "runtime.shared_array_self_s": ("runtime.shared_array",),
    "runtime.partitioned_self_s": ("runtime.partitioned",),
    "runtime.charge_self_s": ("runtime.charge", "runtime.barrier", "runtime.rt", "runtime.clocks"),
    "runtime.cost_model_s": ("runtime.cost_model",),
    "runtime.trace_self_s": ("runtime.trace", "runtime.trace_event"),
    "collectives.getd_self_s": ("collectives.getd",),
    "collectives.setd_self_s": ("collectives.setd",),
    "collectives.setdmin_self_s": ("collectives.setdmin",),
    "collectives.alltoall_self_s": ("collectives.alltoall",),
    "scheduling.self_s": ("scheduling",),
    "solver.round_self_s": ("solver.solve", "solver.helper"),
    "graph.distribute_s": ("graph.distribute",),
    "core.pipeline_self_s": ("core.pipeline",),
    "integrity.digest_s": ("integrity.digest",),
    "integrity.verify_round_s": ("integrity.verify_round",),
    "integrity.guard_payload_s": ("integrity.guard_payload",),
    "faults.checkpoint_save_s": ("faults.checkpoint_save",),
    "faults.checkpoint_restore_s": ("faults.checkpoint_restore",),
    "faults.injector_s": ("faults.injector",),
    "resilience.commit_s": ("resilience.commit",),
    "resilience.recover_s": ("resilience.recover",),
}
# metric -> span names whose whole duration (children included) it sums
TOTAL_TIME = {
    "service.admit_s": ("service.admit",),
    "service.plan_s": ("service.plan",),
    "service.solve_s": ("service.solve",),
    "service.verify_s": ("service.verify",),
    "service.journal_s": ("service.journal",),
}
# metric -> (span names, field) summed exactly over the counted units
COUNTS = {
    **{f"kernels.{op}_calls": ((f"kernels.{op}",), "calls") for op in KERNEL_OPS},
    **{f"kernels.{op}_elems": ((f"kernels.{op}",), "elems") for op in KERNEL_OPS},
    "runtime.charge_calls": (("runtime.charge",), "calls"),
    "runtime.barriers": (("runtime.barrier",), "calls"),
    "runtime.trace_events": (("runtime.trace_event",), "calls"),
    "collectives.calls": (
        ("collectives.getd", "collectives.setd", "collectives.setdmin"), "calls"),
    "collectives.requests": (
        ("collectives.getd", "collectives.setd", "collectives.setdmin"), "elems"),
    "service.journal_records": (("service.journal",), "calls"),
}
# metric -> counter a finished solve carries (see _solve_counters)
SOLVE_COUNTS = {
    "solver.rounds": "iterations",
    "runtime.trace_dropped_events": "dropped_events",
    "integrity.detected": "corruptions_detected",
    "integrity.repairs": "repairs",
    "faults.retries": "retries",
    "faults.restores": "checkpoint_restores",
    "resilience.replicas_written": "replicas_written",
    "resilience.blocks_reconstructed": "blocks_reconstructed",
}


def total(rows: dict, names, field: str) -> int:
    """Sum of one field over the given span names in one unit's rows."""
    return sum(rows[n][field] for n in names if n in rows)


def solve_records(spans: List[list]) -> List[dict]:
    """The counter record of every finished solve among the spans."""
    return [s[EXTRA] for s in spans if s[NAME] == "solver.solve" and s[EXTRA]]


def span_metrics(units: List[dict], counted: List[dict], solves: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from per-unit span rows.

    ``units`` are the aggregated rows of every traced unit (times are
    medians over them); ``counted`` is the fixed leading subset whose
    counts are reported, as a mean per unit, so that they repeat exactly
    however many units the time budget allowed; ``solves`` are the
    counter records of the solves inside ``counted``.
    """
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = statistics.median(total(u, names, "self_ns") for u in units) / 1e9
    for metric, names in TOTAL_TIME.items():
        out[metric] = statistics.median(total(u, names, "total_ns") for u in units) / 1e9
    per = max(len(counted), 1)
    for metric, (names, field) in COUNTS.items():
        out[metric] = sum(total(u, names, field) for u in counted) / per
    for metric, counter in SOLVE_COUNTS.items():
        out[metric] = sum(s[counter] for s in solves) / per
    executed = sum(s["iterations"] for s in solves)
    final = sum(s["final_rounds"] for s in solves)
    out["solver.replayed_round_ratio"] = (executed - final) / executed if executed else 0.0
    out["ledger.modeled_ms"] = sum(s["modeled_ms"] for s in solves) / per
    gets = sum(total(u, ("service.graph_cache",), "calls") for u in units)
    misses = sum(total(u, ("graph.generate",), "calls") for u in units)
    out["service.graph_cache_hit_ratio"] = 1.0 - misses / gets if gets else 0.0
    return out
