"""The incremental analysis cache: re-analyze only the files that changed.

One JSON file (``.reprolint_cache.json`` at the repo root by default,
gitignored) maps each analyzed file to its content hash, its
module-rule findings and its serialized
:class:`~repro.analysis.graph.ModuleSummary`.  On the next run a file
is *reused* — not re-parsed, not re-linted — when its content hash and
its dotted module name both match the entry's.

A file's summary and its module-rule findings depend only on that file
and on the module name it imports as, which a new or deleted
``__init__.py`` above it can change.  Everything that crosses modules
is resolved later: the project rules re-run on every run, over the
full summary graph (summaries are small; parsing is the expensive
part), so an edit to one module still reaches the findings of another
and interprocedural findings never go stale.

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
from .graph import ModuleSummary, module_name_for

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
    def plan(self, files: List[Path], digests: Dict[Path, str]) -> Set[Path]:
        """The subset of ``files`` whose cached results are reusable.

        A file is reusable when its entry's content hash matches
        ``digests`` and its cached summary still carries the module
        name the file imports as; an entry that does not read back
        counts as changed.
        """
        self._reusable = {}
        for path in files:
            entry = self._entries.get(self._key(path))
            unchanged = (
                isinstance(entry, dict) and entry.get("sha256") == digests.get(path)
            )
            read = self._read_entry(entry) if unchanged else None
            if read is None:
                continue
            summary = read[1]
            if summary is None or summary.module == module_name_for(path):
                self._reusable[path] = read
        return set(self._reusable)

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
