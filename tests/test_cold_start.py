"""Cold start: what importing the package loads.

``import repro`` (and the CLI and service entry points) must load NumPy
and the package only.  SciPy serves the sequential baselines alone (the
answer certificates compute their references with NumPy) and is
imported inside the function that uses it; nothing in the package needs
``concurrent.futures`` or ``multiprocessing``.  So every CLI run, ledger
child and service restart skips their import time and resident memory.
The checks run in a fresh interpreter, because this test process has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cc import solve_cc_cgm, solve_cc_sequential
from repro.graph import generate
from repro.mst import msf_reference

SRC = str(Path(repro.__file__).resolve().parent.parent)
DEFERRED = ("scipy", "concurrent.futures", "multiprocessing")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_deferred_module():
    out = _run(
        "import json, sys\n"
        "import repro, repro.cli, repro.service\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))\n"
    )
    assert json.loads(out) == []


_FIRST_CALLS = """
import json
from repro.cc import solve_cc_cgm, solve_cc_sequential
from repro.graph import generate
from repro.mst import msf_reference

g = generate("random", 300, 600, seed=4)
w = generate("hybrid", 300, 900, seed=4, weighted=True)
print(json.dumps({
    "sequential": solve_cc_sequential(g).labels.tolist(),
    "cgm": solve_cc_cgm(g).labels.tolist(),
    "msf": list(msf_reference(w)),
}))
"""


def test_reference_solvers_work_on_first_call():
    fresh = json.loads(_run(_FIRST_CALLS))
    g = generate("random", 300, 600, seed=4)
    w = generate("hybrid", 300, 900, seed=4, weighted=True)
    assert fresh["sequential"] == solve_cc_sequential(g).labels.tolist()
    assert fresh["cgm"] == solve_cc_cgm(g).labels.tolist()
    assert fresh["msf"] == list(msf_reference(w))


_CERTIFICATES = """
import json, sys
from repro.bfs.solvers import UNREACHED, solve_bfs_collective
from repro.core import connected_components, minimum_spanning_forest
from repro.graph import check_bfs_levels, check_connected_counts, generate
from repro.mst import check_spanning_forest
from repro.runtime import hps_cluster

machine = hps_cluster(2, 2)
g = generate("random", 300, 600, seed=4)
w = generate("hybrid", 300, 900, seed=4, weighted=True)
check_connected_counts(connected_components(g, machine).labels, g)
check_spanning_forest(w, minimum_spanning_forest(w, machine).edge_ids)
dist, _ = solve_bfs_collective(g, 0, machine)
check_bfs_levels(dist, g, 0, UNREACHED)
print(json.dumps([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]))
"""


def test_certificates_never_load_scipy():
    """The three answer certificates, each given its reference to
    compute, in a fresh process: SciPy is never imported."""
    assert json.loads(_run(_CERTIFICATES)) == []
