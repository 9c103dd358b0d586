"""Every ``repro`` name the example and benchmark scripts use resolves.

No tier-1 test runs ``examples/*.py`` or ``benchmarks/bench_*.py``, so a
deleted or renamed public name would break them silently.  This reads
each script's AST for ``from repro... import X``, ``import repro...``
and ``repro.X.Y`` attribute chains and resolves them by import and
attribute lookup; no script is executed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(ROOT.glob("benchmarks/bench_*.py"))


def _repro_names(tree: ast.AST):
    """``(module, attribute path)`` for every repro name a script uses."""
    bound = {}  # local name -> the repro module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, (alias.name,)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, ()
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["repro"] = "repro"
    for node in ast.walk(tree):
        # Every Name-rooted chain, so ``repro.X.Y`` yields ``repro.X`` too.
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in bound:
            yield bound[base.id], tuple(reversed(chain))


def _resolve(module: str, path: tuple) -> None:
    obj = importlib.import_module(module)
    for name in path:
        if hasattr(obj, name):
            obj = getattr(obj, name)
        else:
            # A submodule not yet imported resolves by import.
            obj = importlib.import_module(f"{obj.__name__}.{name}")


def _uses(script: Path):
    return sorted(set(_repro_names(ast.parse(script.read_text(encoding="utf-8")))))


def test_scripts_are_found():
    assert any(p.parent.name == "examples" for p in SCRIPTS)
    assert any(p.parent.name == "benchmarks" for p in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_repro_name_resolves(script):
    unresolved = []
    for module, path in _uses(script):
        try:
            _resolve(module, path)
        except (ImportError, AttributeError) as err:
            unresolved.append(f"{'.'.join((module, *path))}: {err}")
    assert not unresolved, f"{script.name} uses names repro no longer has: {unresolved}"
