"""The wrappers reach every place the program holds a layer's callable,
observe without changing the result, and come off again."""

import sys

import pytest

repro = pytest.importorskip("repro")

import layers  # noqa: E402
from tracing import Tracer, aggregate  # noqa: E402


def holders_of(obj):
    return {
        (name, key)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
        for key, value in list(vars(mod).items())
        if value is obj
    }


def test_every_module_holding_a_collective_by_name_is_rebound_and_restored():
    layers.load_all_modules()
    from repro.collectives.getd import getd
    from repro.collectives.setd import setd, setdmin
    from repro.graph.distribute import distribute_edges

    originals = {"getd": getd, "setd": setd, "setdmin": setdmin,
                 "distribute_edges": distribute_edges}
    before = {name: holders_of(fn) for name, fn in originals.items()}
    # the solvers import them by name, so one module attribute is not enough
    assert ("repro.cc.collective", "getd") in before["getd"]
    assert ("repro.lt.solver", "getd") in before["getd"]
    assert ("repro.mst.collective", "setdmin") in before["setdmin"]
    assert len(before["getd"]) >= 5

    tracer = Tracer()
    rebound = layers.instrument(tracer)
    try:
        for name, fn in originals.items():
            assert holders_of(fn) == set(), f"{name} still reachable unwrapped"
            for mod_name, key in before[name]:
                wrapper = vars(sys.modules[mod_name])[key]
                assert wrapper.__wrapped__ is fn
        assert set(rebound["repro.collectives.getd.getd"]) == {m for m, _k in before["getd"]}
    finally:
        tracer.restore()
    assert {name: holders_of(fn) for name, fn in originals.items()} == before
    assert tracer._patches == []


def test_restore_puts_back_class_attributes_by_identity():
    from repro.kernels.numpy_backend import NumpyKernels
    from repro.runtime.partitioned import PartitionedArray
    from repro.runtime.runtime import PGASRuntime
    from repro.runtime.shared_array import SharedArray

    watched = [(SharedArray, "gather"), (SharedArray, "owner_thread"), (PGASRuntime, "charge"),
               (PartitionedArray, "concat_pairwise"), (NumpyKernels, "group_minima")]
    originals = [vars(cls)[attr] for cls, attr in watched]
    tracer = Tracer()
    layers.instrument(tracer)
    assert all(vars(cls)[attr] is not orig for (cls, attr), orig in zip(watched, originals))
    tracer.restore()
    assert all(vars(cls)[attr] is orig for (cls, attr), orig in zip(watched, originals))


def test_tracing_observes_without_changing_answers_or_modeled_time():
    from repro.core import pipeline

    graph = repro.with_random_weights(repro.random_graph(3000, 12000, seed=5), seed=6)
    machine = repro.hps_cluster(4, 2)
    plain_cc = pipeline.connected_components(graph, machine=machine)
    plain_mst = pipeline.minimum_spanning_forest(graph, machine=machine)

    tracer = Tracer()
    layers.instrument(tracer)
    try:
        with tracer.span("iteration", unit=0):
            traced_cc = pipeline.connected_components(graph, machine=machine)
            traced_mst = pipeline.minimum_spanning_forest(graph, machine=machine)
    finally:
        tracer.restore()

    assert (traced_cc.labels == plain_cc.labels).all()
    assert (traced_mst.edge_ids == plain_mst.edge_ids).all()
    assert float(traced_cc.info.sim_time).hex() == float(plain_cc.info.sim_time).hex()
    assert float(traced_mst.info.sim_time).hex() == float(plain_mst.info.sim_time).hex()

    spans = tracer.drain()
    rows = aggregate(spans)[0]
    for name in ("kernels.group_minima", "kernels.concat_segments", "collectives.getd",
                 "collectives.setdmin", "runtime.charge", "runtime.owner_lookup",
                 "solver.solve", "core.pipeline", "graph.distribute"):
        assert rows[name]["calls"] > 0, name
    assert rows["collectives.getd"]["elems"] > 0
    # self times add up to the root span: nothing is counted twice or lost
    root = spans[0]
    assert sum(r["self_ns"] for r in rows.values()) == root[2] - root[1]
    metrics = layers.span_metrics(
        [rows], [rows], [s[5] for s in spans if s[0] == "solver.solve"])
    assert metrics["solver.rounds"] == plain_cc.info.iterations + plain_mst.info.iterations
    assert metrics["ledger.modeled_ms"] == pytest.approx(
        plain_cc.info.sim_time_ms + plain_mst.info.sim_time_ms)
    assert metrics["kernels.total_s"] > 0
