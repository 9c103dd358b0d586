"""PGAS sanitizer suite: a dynamic race detector and a static verifier.

Two cooperating analyses keep the simulator honest:

* :mod:`repro.analysis.race` — a dynamic, TSan-style epoch race detector
  (opt-in via ``PGASRuntime(analyze=True)`` or the :func:`analyzed`
  context manager) that reports intra-epoch access conflicts, remote
  writes that bypassed the collectives, and barrier divergence.
* :func:`run_verify` (``python -m repro analyze``) — the static
  verifier.  It parses each file once, runs the per-statement rules of
  :mod:`repro.analysis.lint` (uncharged shared accesses, nondeterminism
  sources), and the interprocedural pass of :mod:`repro.analysis.flow`
  that propagates effect summaries through the call graph to prove
  barrier/collective matching (SY), charge-coverage of tainted shared
  data (CH), and fault-path safety (FX), driven by the declarative
  effects registry in :mod:`repro.analysis.effects`.

See ``docs/static-analysis.md`` for the rule catalog and waiver syntax.
"""

from .effects import EFFECTS, Effect, registry_drift
from .flow import CATALOG, FunctionSummary, run_verify, verify_file
from .lint import Finding
from .race import (
    RACE_RULES,
    RULE_CATALOG,
    AnalysisSession,
    EpochRaceDetector,
    RaceReport,
    analyzed,
    current_analysis,
    render_reports,
)

__all__ = [
    "AnalysisSession",
    "CATALOG",
    "EFFECTS",
    "Effect",
    "EpochRaceDetector",
    "Finding",
    "FunctionSummary",
    "RACE_RULES",
    "RULE_CATALOG",
    "RaceReport",
    "analyzed",
    "current_analysis",
    "registry_drift",
    "render_reports",
    "run_verify",
    "verify_file",
]
