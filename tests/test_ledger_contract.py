"""Tier-1 guard for the benchmark's by-name contract.

``benchmarks/ledger/layers.py`` wraps callables of ``src/repro`` by name
(:meth:`Tracer.patch_method` reads ``cls.__dict__[attr]``;
:meth:`Tracer.patch_function` reads ``getattr(module, attr)``), and a PR
that claims a gain may not edit the benchmark.  So a rename or a method
moved to a base class must fail here, in tier-1, not in the traced run
after the PR is written.  The tables are read as literals from the
source text: nothing under ``benchmarks/`` is imported or executed.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro import kernels

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "layers.py"
TABLES = ("KERNEL_OPS", "METHODS", "FUNCTIONS", "COLLECTIVES", "SOLVERS")

pytestmark = pytest.mark.skipif(not LAYERS.exists(), reason="benchmark not in this checkout")


def _tables() -> dict:
    found = {}
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                found[name] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(TABLES), f"layers.py lacks {set(TABLES) - set(found)}"
    return found


def _positional(fn) -> list:
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]


def test_methods_live_in_their_class_own_dict():
    for module_name, class_name, attrs, span in _tables()["METHODS"]:
        cls = getattr(importlib.import_module(module_name), class_name)
        if attrs == "*":
            assert any(callable(v) for v in vars(cls).values()), f"{span}: {class_name} is empty"
            continue
        for attr in attrs:
            assert attr in vars(cls), (
                f"{span}: {module_name}.{class_name}.{attr} is not in the class's own"
                " __dict__ (patch_method cannot wrap an inherited or renamed method)"
            )
            member = vars(cls)[attr]
            assert callable(getattr(member, "__func__", member))


def test_functions_collectives_and_solvers_resolve_on_their_module():
    tables = _tables()
    named = [(m, n) for m, names, _span in tables["FUNCTIONS"] for n in names]
    named += [(m, n) for m, n, _span in tables["COLLECTIVES"]]
    named += list(tables["SOLVERS"])
    for module_name, name in named:
        fn = getattr(importlib.import_module(module_name), name, None)
        assert inspect.isfunction(fn), f"{module_name}.{name} does not resolve to a function"


def test_collectives_take_the_request_partition_third():
    # layers._request_count reads args[2] (or the `indices` keyword).
    for module_name, name, _span in _tables()["COLLECTIVES"]:
        params = _positional(getattr(importlib.import_module(module_name), name))
        assert params[2] == "indices", f"{module_name}.{name}: third parameter is {params[2]!r}"


def test_kernel_ops_resolve_on_the_backend_mro():
    ops = _tables()["KERNEL_OPS"]
    assert tuple(ops) == kernels.KERNEL_OPS
    cls = type(kernels.active_backend())
    for op in ops:
        owner = next((k for k in cls.__mro__ if op in vars(k)), None)
        assert owner is not None, f"{cls.__name__}: no class on the MRO defines {op}"
        params = _positional(vars(owner)[op])
        # layers sizes a span from args[1] (the index/requester vector);
        # concat_segments from args[1] and args[3] (the two payloads).
        assert params[0] == "self" and len(params) >= 3
        if op == "concat_segments":
            assert params[1:5] == ["a_data", "a_offsets", "b_data", "b_offsets"]


def test_service_entry_points_instrument_patches_directly():
    # Wrapped outside the tables, in layers.instrument itself.
    from repro.service.executor import JobExecutor
    from repro.service.server import GraphService

    assert "submit" in vars(GraphService)
    assert {"execute", "_solve"} <= set(vars(JobExecutor))
