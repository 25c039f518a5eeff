"""SARIF 2.1.0 emission, so CI findings annotate PR diffs.

GitHub code scanning (and every mainstream SARIF consumer) renders each
``result`` as an inline annotation at its file/line.  The document is
deliberately minimal — one ``run``, one ``tool`` with the full rule
registry, one ``result`` per finding — and deterministic: rules in code
order, results in the engine's canonical finding order, keys sorted by
the JSON encoder, no timestamps.  Two lint runs over the same tree
produce byte-identical SARIF, which is what lets the snapshot test pin
the format.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.lint.engine import Finding
from repro.lint.rules import RULES

__all__ = ["to_sarif", "sarif_document"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rules_metadata() -> List[Dict[str, Any]]:
    return [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in RULES
    ]


def _result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        # SARIF columns are 1-based; the engine's are 0-based.
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }


def sarif_document(findings: Sequence[Finding]) -> Dict[str, Any]:
    """The findings as a SARIF 2.1.0 document (a plain dict)."""
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": _rules_metadata(),
                    }
                },
                "results": [_result(f) for f in findings],
            }
        ],
    }


def to_sarif(findings: Sequence[Finding]) -> str:
    """The findings serialised as a SARIF 2.1.0 JSON string."""
    return json.dumps(sarif_document(findings), indent=2, sort_keys=True)
