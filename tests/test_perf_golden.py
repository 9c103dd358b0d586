"""Golden-trace bit-identity suite: the numbers never move.

The contract of ``repro.perf`` and ``repro.kernels``: every wall-clock
optimization (pooled scratch buffers, memoized derived artifacts, the
sort-free kernels, the rewritten Trace accumulator) changes *only*
wall-clock.  Modeled times, per-category seconds, per-thread
breakdowns, counters, and algorithm results must stay **bit**-identical
to ``tests/golden/fingerprints.json``, which was written from the
pre-optimization legacy engine before that engine was deleted.

:func:`repro.perf.golden.scenario_fingerprint` renders every modeled
float with ``float.hex`` and folds result arrays to SHA-256 digests, so
plain ``==`` below means byte equality — no tolerances anywhere in this
file.  A change that moves a modeled number on purpose regenerates the
file in the same diff (``python -m repro.perf.golden >
tests/golden/fingerprints.json``) and says why.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.perf.golden import (
    BASELINE_SCENARIOS,
    DATA_PLANE_SCENARIOS,
    PINNED,
    RECOVERY_SCENARIOS,
    REDUNDANCY_SCENARIOS,
    SCENARIOS,
    SV_SCENARIOS,
    Scenario,
    scenario_fingerprint,
)

_DOCUMENT = json.loads((Path(__file__).parent / "golden" / "fingerprints.json").read_text())
GOLDEN = _DOCUMENT["fingerprints"]


def _scenario_id(scenario: Scenario) -> str:
    return scenario.name


#: One run per scenario for the whole file (a fingerprint is built from
#: str / int / list / dict only, so it compares with parsed JSON as is).
_fingerprint = functools.lru_cache(maxsize=None)(scenario_fingerprint)


def _leaves(value, path=""):
    """``(dotted.path, leaf)`` pairs of a nested fingerprint dict."""
    if isinstance(value, dict):
        for key in value:
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    else:
        yield path, value


def _assert_matches_file(scenario: Scenario) -> dict:
    live = _fingerprint(scenario)
    if live != GOLDEN[scenario.name]:
        got, pinned = dict(_leaves(live)), dict(_leaves(GOLDEN[scenario.name]))
        key = next(k for k in sorted(got.keys() | pinned.keys()) if got.get(k) != pinned.get(k))
        pytest.fail(
            f"{scenario.name}: first differing key {key!r}:"
            f" got {got.get(key)!r}, golden file has {pinned.get(key)!r}"
            f" (file written on {_DOCUMENT['header']})"
        )
    return live


def test_matrix_spans_the_contract():
    """16 scenarios: {cc, mst} x {faults, analyze, integrity} x {on, off}."""
    assert len(SCENARIOS) == 16
    names = [s.name for s in SCENARIOS]
    assert len(set(names)) == 16
    for algo in ("cc", "mst"):
        assert f"{algo}-plain" in names
        assert f"{algo}-FAI" in names


def test_file_pins_exactly_the_scenarios():
    """No stale entry, no missing one."""
    assert set(GOLDEN) == {s.name for s in PINNED}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_fast_engine_is_bit_identical(scenario):
    _assert_matches_file(scenario)


@pytest.mark.parametrize("scenario", SCENARIOS[:4], ids=_scenario_id)
def test_fast_engine_is_deterministic_across_repeats(scenario):
    """Warm caches and a warm arena must not change a single bit either."""
    assert scenario_fingerprint(scenario) == scenario_fingerprint(scenario)


def test_faulted_unprotected_error_is_part_of_the_fingerprint():
    """A deterministic solver failure must reproduce identically too:
    a corrupted unprotected run that trips the convergence bound is a
    legitimate golden outcome, not a test error."""
    hot = Scenario(algo="cc", faults=True, analyze=False, integrity=False, seed=7)
    _assert_matches_file(hot)


def test_redundancy_matrix_is_separate():
    """The redundancy scenarios live beside the 16-entry pin, not in it."""
    assert len(SCENARIOS) == 16  # the original contract is untouched
    names = [s.name for s in REDUNDANCY_SCENARIOS]
    assert len(set(names)) == len(names) == 8
    assert not set(names) & {s.name for s in SCENARIOS}
    for s in REDUNDANCY_SCENARIOS:
        assert s.redundancy in ("buddy", "parity")


@pytest.mark.parametrize("scenario", REDUNDANCY_SCENARIOS, ids=_scenario_id)
def test_redundancy_charges_are_bit_identical(scenario):
    """Replication / round-commit traffic is modeled time like any
    other, and with no loss firing no membership change is counted."""
    live = _assert_matches_file(scenario)
    if "counters" in live:
        assert live["counters"]["replicas_written"] > 0
        assert live["counters"]["node_losses"] == 0


@pytest.mark.parametrize("scenario", DATA_PLANE_SCENARIOS, ids=_scenario_id)
def test_data_plane_paths_are_bit_identical(scenario):
    """The shared-memory offload path and a corrupted, checksummed
    Liu–Tarjan wire leg: pinned at the commit before the read-only
    request rewrite, so that rewrite is proven against its parent."""
    live = _assert_matches_file(scenario)
    if scenario.faults:
        assert live["counters"]["corruptions_injected"] > 0


@pytest.mark.parametrize("scenario", SV_SCENARIOS, ids=_scenario_id)
def test_sv_paths_are_bit_identical(scenario):
    """Shiloach–Vishkin's charges, counters and labels, plain, analyzed,
    on the shared-memory offload path, and on its recovery paths: the
    faulted runs really retry, catch every flip under integrity and
    commit replicas under redundancy."""
    live = _assert_matches_file(scenario)
    counters = live["counters"]
    assert counters["iterations"] >= 2
    if scenario.faults:
        assert counters["retries"] > 0 and counters["corruptions_injected"] > 0
    if scenario.integrity:
        assert counters["corruptions_detected"] == counters["corruptions_injected"]
    if scenario.redundancy:
        assert counters["replicas_written"] > 0


@pytest.mark.parametrize("scenario", RECOVERY_SCENARIOS, ids=_scenario_id)
def test_recovery_paths_are_bit_identical(scenario):
    """Each chaos scenario must really reach every recovery arm — a
    crash replay, an integrity repair and one membership epoch (and,
    with ``adapt``, adapter revisions besides the membership re-plan) —
    or the pin covers less than its name says.  The one run whose
    repairs exceed the bound pins the give-up error instead."""
    live = _assert_matches_file(scenario)
    if scenario.impl == "lt-rfa" and scenario.spares:
        assert live["error"].startswith("FaultError: cc-lt-rfa gave up after")
        return
    counters = live["counters"]
    assert counters["crashes"] >= 1
    assert counters["repairs"] >= 1
    assert counters["epoch_changes"] == 1
    assert counters["checkpoint_restores"] == (
        counters["crashes"] + counters["repairs"] + counters["epoch_changes"]
    )
    if scenario.adapt:
        decisions = live["adapter"]
        assert decisions[0].startswith("membership change")
        assert len(decisions) == counters["tuning_adaptations"] >= 2


@pytest.mark.parametrize("scenario", BASELINE_SCENARIOS, ids=_scenario_id)
def test_baselines_are_bit_identical(scenario):
    """The baselines the paper's speedups divide by: their modeled time,
    counters and answers, whatever engine computes the answers."""
    _assert_matches_file(scenario)


def test_redundancy_never_changes_answers_without_a_loss():
    """Redundancy on, no loss: same labels as the plain run."""
    plain = _fingerprint(Scenario(algo="cc", faults=False, analyze=False, integrity=False))
    for mode in ("buddy", "parity"):
        red = _fingerprint(
            Scenario(algo="cc", faults=False, analyze=False, integrity=False, redundancy=mode)
        )
        assert red["result"] == plain["result"]
