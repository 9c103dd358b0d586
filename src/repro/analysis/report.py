"""Finding reports: text / json / sarif rendering."""

from __future__ import annotations

import json
from typing import Dict, Sequence

from .lint import Finding

__all__ = ["render_json", "render_sarif", "render_text"]

#: SARIF 2.1.0 — the static-analysis interchange format GitHub ingests.
_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(findings: Sequence[Finding]) -> str:
    return "\n".join(f.render() for f in findings)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "count": len(findings),
        "findings": [
            {"path": f.path, "line": f.line, "rule": f.rule, "message": f.message}
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(findings: Sequence[Finding], catalog: Dict[str, str]) -> str:
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule, description in sorted(catalog.items())
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": max(f.line, 1)},
                    }
                }
            ],
        }
        for f in findings
    ]
    sarif = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "docs/static-analysis.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(sarif, indent=2, sort_keys=True)
