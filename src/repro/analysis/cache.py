"""The incremental analysis cache: skip files nothing relevant touched.

One JSON file (``.reprolint_cache.json`` at the repo root by default,
gitignored) maps each analyzed file to its content hash, its
module-rule findings and its serialized
:class:`~repro.analysis.graph.ModuleSummary`.  On the next run a file
is *reused* — not re-parsed, not re-linted — when

* its own content hash is unchanged, **and**
* every project module it imports (transitively) is unchanged too.

The second condition is the graph-aware part: module-rule findings are
per-file, but the *summary* feeds the interprocedural rules, and a
changed import can change what a dependent's references resolve to —
so editing one leaf module re-analyzes exactly that module plus its
dependents.  Project rules themselves always re-run, over the full
summary graph (summaries are small; parsing is the expensive part), so
interprocedural findings never go stale.

The whole cache is invalidated when the analyzer itself changes: the
``config_key`` folds in the source hashes of ``repro.analysis``, the
registered rule ids and the analyzer configuration.  A cache that is
missing or corrupt starts cold, and so does each entry that does not
read back: its file is analyzed again.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .core import REGISTRY, AnalyzerConfig, Finding
from .graph import ModuleSummary, ProjectGraph, module_name_for

#: Wire-shape version of the cache file; bumping drops every entry.
CACHE_VERSION = 1

#: Default cache filename, resolved against the repo root.
DEFAULT_CACHE_NAME = ".reprolint_cache.json"


def compute_config_key(config: AnalyzerConfig) -> str:
    """A hash that changes whenever cached results could change.

    Folds in the analyzer's own source code (any edit to the analysis
    package invalidates everything), the registered rule ids and the
    relevant config fields.
    """
    digest = hashlib.sha256()
    package_dir = Path(__file__).parent
    for source in sorted(package_dir.glob("*.py")):
        digest.update(source.name.encode("utf-8"))
        try:
            digest.update(source.read_bytes())
        except OSError:  # pragma: no cover - unreadable own source
            continue
    digest.update(",".join(sorted(REGISTRY)).encode("utf-8"))
    fields = {
        "purity_modules": list(config.purity_modules),
        "select": None if config.select is None else sorted(config.select),
        "exclude": list(config.exclude),
        "doc_files": list(config.doc_files),
    }
    digest.update(json.dumps(fields, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


#: One reusable entry, read back: its module-rule findings and summary.
_Entry = Tuple[List[Finding], Optional[ModuleSummary]]


class AnalysisCache:
    """Per-file findings + summaries keyed by content hash."""

    def __init__(self, path: Path, config_key: str) -> None:
        self.path = Path(path)
        self.config_key = config_key
        self._entries: Dict[str, Any] = {}
        self._reusable: Dict[Path, _Entry] = {}
        self._dirty = False
        self._load()

    # -- persistence -----------------------------------------------------
    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # missing or corrupt: start cold
        if not isinstance(raw, dict):
            return
        if raw.get("version") != CACHE_VERSION:
            return
        if raw.get("config_key") != self.config_key:
            return  # analyzer/config changed: every entry is suspect
        entries = raw.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    def save(self) -> None:
        """Atomically persist the cache (no-op when nothing changed)."""
        if not self._dirty:
            return
        document = {
            "version": CACHE_VERSION,
            "config_key": self.config_key,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(document, stream)
            os.replace(tmp_name, self.path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - already gone
                pass
            raise
        self._dirty = False

    # -- keying ----------------------------------------------------------
    @staticmethod
    def _key(path: Path) -> str:
        try:
            return path.resolve().as_posix()
        except OSError:  # pragma: no cover - unresolvable path
            return path.as_posix()

    @staticmethod
    def _read_entry(entry: Any) -> Optional[_Entry]:
        """An entry's findings and summary; None when it does not read
        back (damaged, or written under an older ``SUMMARY_VERSION``)."""
        try:
            findings = [
                Finding(
                    path=str(f["path"]),
                    line=int(f["line"]),
                    col=int(f["col"]),
                    rule=str(f["rule"]),
                    message=str(f["message"]),
                )
                for f in entry["findings"]
            ]
            raw_summary = entry["summary"]
            if raw_summary is None:
                return findings, None
            summary = ModuleSummary.from_dict(raw_summary)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None
        return None if summary is None else (findings, summary)

    # -- planning --------------------------------------------------------
    def plan(
        self,
        files: List[Path],
        digests: Dict[Path, str],
        config: AnalyzerConfig,
    ) -> Set[Path]:
        """The subset of ``files`` whose cached results are reusable.

        A file must be content-unchanged *and* import (transitively,
        within ``files``) only content-unchanged modules; an entry that
        does not read back counts as changed.
        """
        names: Dict[Path, str] = {
            path: module_name_for(path) for path in files
        }
        self._reusable = {}
        changed: Set[Path] = set()
        for path in files:
            entry = self._entries.get(self._key(path))
            unchanged = (
                isinstance(entry, dict) and entry.get("sha256") == digests.get(path)
            )
            read = self._read_entry(entry) if unchanged else None
            if read is None:
                changed.add(path)
            else:
                self._reusable[path] = read
        changed_names = {names[path] for path in changed}
        # Fixpoint over reverse import edges: an unchanged module whose
        # (cached, hence accurate) imports name a changed module is
        # itself invalid, and transitively so.
        progress = True
        while progress:
            progress = False
            for path in files:
                if path in changed:
                    continue
                summary = self._reusable[path][1]
                if summary is None:
                    continue  # unparsable file: nothing depends on it
                if self._imported_names(summary) & changed_names:
                    changed.add(path)
                    changed_names.add(names[path])
                    progress = True
        return set(files) - changed

    @staticmethod
    def _imported_names(summary: ModuleSummary) -> Set[str]:
        """Absolute module names a summary's imports could refer to."""
        imported: Set[str] = set()
        for record in summary.imports:
            if record.kind == "import":
                imported.update(target for target, _bound in record.names)
                continue
            source = ProjectGraph.absolute_import(summary, record)
            if source is None:
                continue
            imported.add(source)
            imported.update(
                f"{source}.{name}"
                for name, _bound in record.names
                if name != "*"
            )
        return imported

    # -- entries ---------------------------------------------------------
    def load_entry(self, path: Path) -> _Entry:
        """The cached findings + summary of one planned-reusable file."""
        return self._reusable[path]

    def store(
        self,
        path: Path,
        sha256: str,
        findings: Iterable[Finding],
        summary: Optional[ModuleSummary],
    ) -> None:
        self._entries[self._key(path)] = {
            "sha256": sha256,
            "findings": [finding.to_dict() for finding in findings],
            "summary": None if summary is None else summary.to_dict(),
        }
        self._dirty = True


__all__ = [
    "AnalysisCache",
    "CACHE_VERSION",
    "DEFAULT_CACHE_NAME",
    "compute_config_key",
]
