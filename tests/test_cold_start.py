"""Cold start: what importing the package loads.

``import repro`` (and the CLI and service entry points) must load NumPy
and the package only.  NumPy is the package's one runtime dependency:
SciPy and networkx are test oracles, and nothing in the package needs
``concurrent.futures`` or ``multiprocessing``.  So every CLI run, ledger
child and service restart skips their import time and resident memory,
and the first call of every baseline and certificate loads neither
oracle either.  The checks run in a fresh interpreter, because this
test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bfs import solve_bfs_sequential
from repro.cc import solve_cc_cgm, solve_cc_sequential
from repro.graph import generate
from repro.mst import SEQUENTIAL_ALGORITHMS, msf_reference, solve_mst_sequential

SRC = str(Path(repro.__file__).resolve().parent.parent)
DEFERRED = ("scipy", "networkx", "concurrent.futures", "multiprocessing")
ORACLES = ("scipy", "networkx")


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


_FIRST_CALLS = f"""
import json, sys
from repro.bfs import solve_bfs_sequential
from repro.cc import solve_cc_cgm, solve_cc_sequential
from repro.graph import generate
from repro.mst import SEQUENTIAL_ALGORITHMS, msf_reference, solve_mst_sequential

g = generate("random", 300, 600, seed=4)
w = generate("hybrid", 300, 900, seed=4, weighted=True)
print(json.dumps({{
    "sequential": solve_cc_sequential(g).labels.tolist(),
    "cgm": solve_cc_cgm(g).labels.tolist(),
    "msf": list(msf_reference(w)),
    "mst": [solve_mst_sequential(w, algorithm=a).edge_ids.tolist()
            for a in SEQUENTIAL_ALGORITHMS],
    "bfs": solve_bfs_sequential(g, 0)[0].tolist(),
    "loaded": [m for m in {ORACLES!r} if m in sys.modules],
}}))
"""


def test_reference_solvers_work_on_first_call():
    """Every baseline and the MSF reference, first called in a fresh
    process: same answers as here, and neither oracle loaded."""
    fresh = json.loads(_run(_FIRST_CALLS))
    g = generate("random", 300, 600, seed=4)
    w = generate("hybrid", 300, 900, seed=4, weighted=True)
    assert fresh["sequential"] == solve_cc_sequential(g).labels.tolist()
    assert fresh["cgm"] == solve_cc_cgm(g).labels.tolist()
    assert fresh["msf"] == list(msf_reference(w))
    assert fresh["mst"] == [
        solve_mst_sequential(w, algorithm=a).edge_ids.tolist() for a in SEQUENTIAL_ALGORITHMS
    ]
    assert fresh["bfs"] == solve_bfs_sequential(g, 0)[0].tolist()
    assert fresh["loaded"] == []


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
