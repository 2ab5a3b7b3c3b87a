"""The ``reprolint`` engine: findings, rule registry, suppressions.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) and
yields :class:`Finding` objects.  The :class:`Analyzer` walks files,
builds contexts (source, AST, suppression table) and runs every
registered rule, honoring ``# reprolint: disable=RPL00x`` comments:

* a trailing comment suppresses the named rules on its own line;
* a standalone comment line suppresses them on the next code line too
  (for statements too long to carry a trailing comment);
* ``# reprolint: disable-file=RPL00x`` anywhere in the file suppresses
  the named rules for the whole module;
* ``disable`` / ``disable-file`` with no ``=RPL...`` list suppresses
  every rule.

Rules register through the :func:`rule` decorator.  The rules never
import the code they analyze, so a broken file is an RPL000 finding,
not a crash.  ``reprolint`` itself lives in ``repro``, though: a run
imports the ``repro`` package it is installed from, and when that is
the tree under analysis, a module ``repro/__init__.py`` imports must
itself import.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from ..errors import ConfigurationError

#: Output-format version of ``reprolint --json`` documents.
REPORT_VERSION = 1

#: Sentinel rule id meaning "every rule" in suppression tables.
ALL_RULES = "ALL"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable-file|disable)"
    r"(?:=(?P<ids>[A-Z0-9, ]+))?",
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """The human one-liner: ``path:line:col: RPL00x message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class AnalyzerConfig:
    """Knobs rules read; defaults match the shipped ``src/repro`` tree.

    ``purity_modules`` are posix-path substrings selecting which files
    the scoped rule (RPL004) applies to.
    """

    #: Files RPL004 (kernel purity) applies to.
    purity_modules: Tuple[str, ...] = (
        "repro/batch/kernels.py",
        "repro/batch/assembly.py",
    )
    #: Rule ids to run (None = all registered).
    select: Optional[Tuple[str, ...]] = None
    #: Posix-path substrings excluded from directory walks (fixtures,
    #: vendored trees).  Matched against each file's posix path.
    exclude: Tuple[str, ...] = ()


class ModuleContext:
    """One parsed module plus everything rules need to inspect it."""

    def __init__(
        self,
        path: Path,
        source: str,
        config: Optional[AnalyzerConfig] = None,
    ) -> None:
        self.path = path
        self.source = source
        self.config = config or AnalyzerConfig()
        self.tree = ast.parse(source, filename=str(path))
        self.lines = source.splitlines()
        self._line_suppressed: Dict[int, Set[str]] = {}
        self._file_suppressed: Set[str] = set()
        self._read_suppressions()

    # -- structure ------------------------------------------------------
    def matches(self, patterns: Sequence[str]) -> bool:
        """Whether this file's posix path ends with any pattern."""
        posix = self.path.as_posix()
        return any(posix.endswith(pattern) for pattern in patterns)

    # -- suppressions ---------------------------------------------------
    def _read_suppressions(self) -> None:
        reader = io.StringIO(self.source).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return
        for index, token in enumerate(tokens):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids_group = match.group("ids")
            ids = (
                {ALL_RULES}
                if ids_group is None
                else {part.strip() for part in ids_group.split(",") if part.strip()}
            )
            if match.group(1) == "disable-file":
                self._file_suppressed |= ids
                continue
            line = token.start[0]
            self._line_suppressed.setdefault(line, set()).update(ids)
            if not token.line[: token.start[1]].strip():
                # Standalone comment: also covers the next code line.
                next_line = self._next_code_line(tokens, index)
                if next_line is not None:
                    self._line_suppressed.setdefault(
                        next_line, set()
                    ).update(ids)

    @staticmethod
    def _next_code_line(
        tokens: List[tokenize.TokenInfo], index: int
    ) -> Optional[int]:
        skip = (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
        )
        for token in tokens[index + 1 :]:
            if token.type not in skip and token.type != tokenize.ENDMARKER:
                return token.start[0]
        return None

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        if (
            ALL_RULES in self._file_suppressed
            or rule_id in self._file_suppressed
        ):
            return True
        ids = self._line_suppressed.get(line)
        return ids is not None and (ALL_RULES in ids or rule_id in ids)

    def line_suppressions(self) -> Dict[int, Set[str]]:
        """The per-line suppression table (line -> suppressed rule ids)."""
        return self._line_suppressed

    def file_suppressions(self) -> Set[str]:
        """Rule ids suppressed for the whole file."""
        return self._file_suppressed


class Rule:
    """Base class for one registered check.

    Subclasses set ``id``/``name``/``rationale`` and implement
    :meth:`check`, yielding findings via :meth:`finding` (which applies
    the suppression table).
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    #: "module" rules see one file at a time; "project" rules
    #: (:class:`ProjectRule`) see the whole :class:`ProjectGraph`.
    scope: str = "module"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Iterator[Finding]:
        """Yield one finding at ``node`` unless suppressed."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if not module.is_suppressed(line, self.id):
            yield Finding(
                path=str(module.path),
                line=line,
                col=col + 1,
                rule=self.id,
                message=message,
            )


class ProjectRule(Rule):
    """Base class for whole-program (interprocedural) checks.

    Project rules run once per analysis over the
    :class:`repro.analysis.graph.ProjectGraph` built from every
    analyzed module, instead of once per file.  They operate on module
    *summaries* (plain data), which is what makes the incremental cache
    able to skip re-parsing unchanged files while still giving these
    rules a complete graph.
    """

    scope = "project"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        return iter(())  # project rules do not run per module

    def check_project(self, graph: Any) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def project_finding(
        self, graph: Any, path: str, line: int, col: int, message: str
    ) -> Iterator[Finding]:
        """Yield one finding at an explicit location unless suppressed."""
        if not graph.is_suppressed(path, line, self.id):
            yield Finding(
                path=path, line=line, col=col, rule=self.id, message=message
            )


#: Registered rules, keyed by id (filled by the :func:`rule` decorator).
REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a :class:`Rule` subclass by id."""
    if not cls.id or not cls.id.startswith("RPL"):
        raise ConfigurationError(
            f"rule class {cls.__name__!r}: field 'id' must be set to an "
            f"RPL identifier, got {cls.id!r}"
        )
    if cls.id in REGISTRY:
        raise ConfigurationError(
            f"rule id {cls.id!r} is already registered "
            f"(by {REGISTRY[cls.id].__name__})"
        )
    REGISTRY[cls.id] = cls
    return cls


def all_rules() -> Tuple[Type[Rule], ...]:
    """Every registered rule class, in id order."""
    return tuple(REGISTRY[rule_id] for rule_id in sorted(REGISTRY))


@dataclass(frozen=True)
class AnalysisStats:
    """How much work one :meth:`Analyzer.check_paths` run actually did."""

    files_checked: int  #: files covered by the run (analyzed + cached)
    analyzed: int  #: files parsed and run through the module rules
    cached: int  #: files whose findings/summary came from the cache

    def to_dict(self) -> Dict[str, int]:
        return {
            "files_checked": self.files_checked,
            "analyzed": self.analyzed,
            "cached": self.cached,
        }


class Analyzer:
    """Runs the registered rules over files, trees or source strings.

    Module-scope rules run once per file; project-scope rules
    (:class:`ProjectRule`) run once per analysis over the
    :class:`~repro.analysis.graph.ProjectGraph` built from every
    analyzed module's summary.  :meth:`check_paths` optionally consults
    an :class:`~repro.analysis.cache.AnalysisCache`, re-analyzing only
    files whose content or module name changed.
    """

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        self.config = config or AnalyzerConfig()
        selected = self.config.select
        if selected is not None:
            unknown = sorted(set(selected) - set(REGISTRY))
            if unknown:
                raise ConfigurationError(
                    f"analyzer field 'select': unknown rule id(s) "
                    f"{', '.join(map(repr, unknown))}; known: "
                    f"{', '.join(sorted(REGISTRY))}"
                )
        self.rules: Tuple[Rule, ...] = tuple(
            REGISTRY[rule_id]()
            for rule_id in sorted(REGISTRY)
            if selected is None or rule_id in selected
        )
        self.module_rules: Tuple[Rule, ...] = tuple(
            active for active in self.rules if active.scope == "module"
        )
        self.project_rules: Tuple[Rule, ...] = tuple(
            active for active in self.rules if active.scope == "project"
        )
        #: Work accounting of the most recent :meth:`check_paths` run.
        self.last_stats: Optional[AnalysisStats] = None

    # -- entry points ---------------------------------------------------
    def check_source(
        self, source: str, path: "Path | str" = "<string>"
    ) -> List[Finding]:
        """Analyze one source string (the fixture-test entry point).

        Runs the module rules *and* the project rules over a
        single-module graph, so one-file fixtures exercise the
        interprocedural rules too.
        """
        from . import graph as graphlib

        module = ModuleContext(Path(path), source, self.config)
        findings = self._run_module_rules(module)
        if self.project_rules:
            summary = graphlib.extract_summary(
                module,
                graphlib.module_name_for(module.path),
                _sha256_text(source),
            )
            findings.extend(self._project_findings([summary]))
        return sorted(findings)

    def check_file(self, path: "Path | str") -> List[Finding]:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            return [_decode_error_finding(path, exc)]
        except OSError as exc:
            raise ConfigurationError(
                f"reprolint path {str(path)!r}: cannot read: {exc}"
            ) from exc
        try:
            return self.check_source(source, path)
        except SyntaxError as exc:
            return [_syntax_error_finding(path, exc)]

    def check_paths(
        self,
        paths: Iterable["Path | str"],
        cache: Optional[Any] = None,
    ) -> List[Finding]:
        """Analyze files and (recursively) directories of ``*.py``.

        With a ``cache`` (an :class:`~repro.analysis.cache.AnalysisCache`),
        files whose content hash and module name are unchanged reuse
        their cached module-rule findings and summary; the project
        rules always run, over the full summary graph, so
        interprocedural findings never go stale.
        """
        files = self._collect_files(paths)
        digests = {file: _sha256_path(file) for file in files}
        reusable = cache.plan(files, digests) if cache is not None else set()
        findings: List[Finding] = []
        summaries: List[Any] = []
        analyzed = 0
        for file in files:
            if file in reusable and cache is not None:
                cached_findings, summary = cache.load_entry(file)
                # The entry keeps the path spelling of the run that
                # stored it; report this run's.
                findings.extend(
                    replace(finding, path=str(file)) for finding in cached_findings
                )
                if summary is not None:
                    summary = replace(summary, path=file.as_posix())
            else:
                file_findings, summary = self._analyze_file(
                    file, digests[file]
                )
                analyzed += 1
                findings.extend(file_findings)
                if cache is not None:
                    cache.store(file, digests[file], file_findings, summary)
            if summary is not None:
                summaries.append(summary)
        findings.extend(self._project_findings(summaries))
        if cache is not None:
            cache.save()
        self.last_stats = AnalysisStats(
            files_checked=len(files),
            analyzed=analyzed,
            cached=len(files) - analyzed,
        )
        return sorted(findings)

    # -- internals ------------------------------------------------------
    def _collect_files(self, paths: Iterable["Path | str"]) -> List[Path]:
        files: List[Path] = []
        for entry in paths:
            entry = Path(entry)
            if entry.is_dir():
                files.extend(sorted(entry.rglob("*.py")))
            elif entry.exists():
                files.append(entry)
            else:
                raise ConfigurationError(
                    f"reprolint path {str(entry)!r}: does not exist"
                )
        if self.config.exclude:
            files = [
                file
                for file in files
                if not any(
                    pattern in file.as_posix()
                    for pattern in self.config.exclude
                )
            ]
        return files

    def _analyze_file(
        self, path: Path, sha256: str
    ) -> Tuple[List[Finding], Optional[Any]]:
        """Module-rule findings and the summary of one file.

        Unreadable, undecodable and unparsable files yield an RPL000
        finding and no summary (the project graph simply omits them).
        """
        from . import graph as graphlib

        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            return [_decode_error_finding(path, exc)], None
        except OSError as exc:
            raise ConfigurationError(
                f"reprolint path {str(path)!r}: cannot read: {exc}"
            ) from exc
        try:
            module = ModuleContext(path, source, self.config)
        except SyntaxError as exc:
            return [_syntax_error_finding(path, exc)], None
        summary = graphlib.extract_summary(
            module, graphlib.module_name_for(path), sha256
        )
        return self._run_module_rules(module), summary

    def _run_module_rules(self, module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for active in self.module_rules:
            findings.extend(active.check(module))
        return sorted(findings)

    def _project_findings(self, summaries: Sequence[Any]) -> List[Finding]:
        if not self.project_rules or not summaries:
            return []
        from .graph import ProjectGraph

        graph = ProjectGraph(summaries)
        findings: List[Finding] = []
        for active in self.project_rules:
            findings.extend(active.check_project(graph))  # type: ignore[attr-defined]
        return findings


def _sha256_text(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _sha256_path(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


def _syntax_error_finding(path: Path, exc: SyntaxError) -> Finding:
    return Finding(
        path=str(path),
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        rule="RPL000",
        message=f"syntax error: {exc.msg}",
    )


def _decode_error_finding(path: Path, exc: UnicodeDecodeError) -> Finding:
    return Finding(
        path=str(path),
        line=1,
        col=1,
        rule="RPL000",
        message=f"source is not valid UTF-8: {exc.reason} at byte {exc.start}",
    )


def report_to_dict(
    findings: Sequence[Finding], files_checked: int
) -> Dict[str, Any]:
    """The ``--json`` report document."""
    return {
        "version": REPORT_VERSION,
        "files_checked": files_checked,
        "findings": [finding.to_dict() for finding in findings],
        "rules": {
            rule_id: {
                "name": REGISTRY[rule_id].name,
                "rationale": REGISTRY[rule_id].rationale,
            }
            for rule_id in sorted(REGISTRY)
        },
    }
