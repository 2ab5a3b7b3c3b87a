"""Repo-specific static analysis (``reprolint``).

The test suite pins down what the code *computes*; this package pins
down the contracts the tests cannot reach — conventions that hold by
discipline today and must keep holding as the codebase grows:

* the :mod:`repro.units` suffix discipline (``_g``/``_w``/``_hz``/...)
  that keeps the F-1 roofline chain dimensionally consistent (RPL001),
* the :mod:`repro.errors` taxonomy and its field-naming messages
  (RPL002),
* kernel purity in the :mod:`repro.batch` hot paths (RPL004),

and, via the whole-program :class:`~repro.analysis.graph.ProjectGraph`
(module/import graph, symbol tables, a conservative call graph):

* fork-safety of module-level mutable state read by process-pool
  workers (RPL007),
* unit-suffix flow through function parameters and returns across
  module boundaries (RPL008),
* top-level private functions nothing references any more (RPL009).

Every rule is AST-based (the rules never import the code they
analyze), registered in :data:`repro.analysis.core.REGISTRY`,
suppressible per line with ``# reprolint: disable=RPL00x`` comments,
and exercised by fixture files under ``tests/data/reprolint_fixtures/``.
The ``reprolint`` console script (see :mod:`repro.analysis.cli`) runs
the suite over a tree — incrementally, via a cache that re-analyzes
only the files whose content or module name changed
(:mod:`repro.analysis.cache`) — and is wired into CI next to ruff,
with SARIF export (:mod:`repro.analysis.sarif`).  The tree must be
clean: there is no baseline of accepted findings.  What an import
already checks is left to tier-1's ``tests/test_drift.py``: every
module imports, every ``__all__`` entry exists, and the docs name only
symbols that exist.  RPL003 (the old wire-format guard) is retired;
the wire formats are pinned by golden documents in
``tests/test_wire_golden.py``.  RPL005 (tracer opt-in) and RPL006
(process-pool picklability) are retired too: every edit they flag in
``src/repro`` fails a tier-1 test (``docs/reprolint-rules.md`` names
them).
"""

from __future__ import annotations

from .core import (
    AnalysisStats,
    Analyzer,
    AnalyzerConfig,
    Finding,
    ModuleContext,
    ProjectRule,
    REGISTRY,
    Rule,
    all_rules,
)
from .graph import ModuleSummary, ProjectGraph, extract_summary
from .cache import AnalysisCache
from . import rules as _rules  # noqa: F401  (imports register the rules)
from . import rules_interproc as _rules_interproc  # noqa: F401  (ditto)

__all__ = [
    "AnalysisCache",
    "AnalysisStats",
    "Analyzer",
    "AnalyzerConfig",
    "Finding",
    "ModuleContext",
    "ModuleSummary",
    "ProjectGraph",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "all_rules",
    "extract_summary",
]
