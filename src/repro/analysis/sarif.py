"""SARIF 2.1.0 export, so CI can annotate PRs with reprolint findings.

One run, one tool (``reprolint``), one result per finding, each located
by its root-relative posix path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

from .core import REGISTRY, Finding

#: The SARIF spec version the exporter emits.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_descriptors() -> List[Dict[str, Any]]:
    descriptors = [
        {
            "id": "RPL000",
            "name": "unparsable-source",
            "shortDescription": {"text": "File cannot be analyzed"},
            "fullDescription": {
                "text": (
                    "The file failed to parse (syntax error) or decode "
                    "(not UTF-8), so no rule could run on it."
                )
            },
        }
    ]
    for rule_id in sorted(REGISTRY):
        cls = REGISTRY[rule_id]
        descriptors.append(
            {
                "id": rule_id,
                "name": cls.name,
                "shortDescription": {"text": cls.name},
                "fullDescription": {"text": cls.rationale},
            }
        )
    return descriptors


def _relative_posix(path: str, root: Path) -> str:
    """A finding path as SARIF locates it: root-relative posix when it
    lies under ``root``."""
    candidate = Path(path)
    try:
        if candidate.is_absolute():
            return candidate.relative_to(root).as_posix()
        resolved = (Path.cwd() / candidate).resolve()
        return resolved.relative_to(root.resolve()).as_posix()
    except (OSError, ValueError):
        return candidate.as_posix()


def _result(finding: Finding, root: Path) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _relative_posix(finding.path, root)
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
    }


def to_sarif(findings: Sequence[Finding], root: Path) -> Dict[str, Any]:
    """The SARIF document for one run."""
    results = [_result(finding, root) for finding in sorted(findings)]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "rules": _rule_descriptors(),
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(path: Path, findings: Sequence[Finding], root: Path) -> None:
    document = to_sarif(findings, root)
    Path(path).write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


__all__ = ["SARIF_VERSION", "SARIF_SCHEMA", "to_sarif", "write_sarif"]
