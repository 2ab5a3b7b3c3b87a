"""``reprolint`` — the console entry point of :mod:`repro.analysis`.

Usage::

    reprolint [PATHS ...]              # default: src/repro
    reprolint --json src/repro        # machine-readable report
    reprolint --select RPL001,RPL004  # run a subset of rules
    reprolint --list-rules            # the catalog, one rule per block
    reprolint --sarif out.sarif PATHS # also write a SARIF 2.1.0 report

Every run analyzes every file it is given and writes no file except
an explicit ``--sarif`` path.  Exit status: 0 when clean, 1 when any
finding is reported, 2 on usage errors (argparse), unreadable inputs
or a ``--sarif`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..errors import ReproError
from .core import (
    REGISTRY,
    Analyzer,
    AnalyzerConfig,
    report_to_dict,
)
from . import sarif as sariflib


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Repo-specific static analysis for the repro package: "
            "units-suffix consistency, error taxonomy, kernel purity, "
            "and the whole-program rules (worker-state safety, "
            "units-flow, dead private functions)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON on stdout",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        metavar="PATTERN",
        default=[],
        help=(
            "posix-path substring to skip when walking directories "
            "(repeatable; e.g. --exclude tests/data)"
        ),
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH",
    )
    return parser


def _list_rules() -> str:
    blocks = []
    for rule_id in sorted(REGISTRY):
        cls = REGISTRY[rule_id]
        blocks.append(f"{rule_id} [{cls.name}]\n    {cls.rationale}")
    return "\n\n".join(blocks)


def find_repo_root(start: Path) -> Optional[Path]:
    """The first ancestor of ``start`` containing ``pyproject.toml``."""
    current = start if start.is_dir() else start.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _parse_select(
    parser: argparse.ArgumentParser, raw: Optional[str]
) -> Optional[Tuple[str, ...]]:
    if raw is None:
        return None
    select = tuple(
        part.strip() for part in raw.split(",") if part.strip()
    )
    if not select:
        parser.error(
            f"--select names no rules (got {raw!r}); known rule ids: "
            f"{', '.join(sorted(REGISTRY))}"
        )
    return select


def _path_error(args: argparse.Namespace) -> Optional[str]:
    """Why the ``--sarif`` path is unusable, or None."""
    if args.sarif is not None:
        sarif = Path(args.sarif)
        if not sarif.parent.is_dir():
            return f"--sarif {args.sarif!r}: no such directory {str(sarif.parent)!r}"
        if sarif.is_dir():
            return f"--sarif {args.sarif!r}: is a directory"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths: List[str] = list(args.paths or [])
    if not paths:
        default = Path("src") / "repro"
        if not default.is_dir():
            parser.error(
                "no paths given and default src/repro does not exist "
                "(run from the repo root or name the tree to lint)"
            )
        paths = [str(default)]
    path_error = _path_error(args)
    if path_error is not None:
        print(f"reprolint: {path_error}", file=sys.stderr)
        return 2

    config = AnalyzerConfig(
        select=_parse_select(parser, args.select),
        exclude=tuple(args.exclude),
    )
    try:
        analyzer = Analyzer(config)
        files = analyzer.collect_files(paths)
        findings = analyzer.check_paths(files)
    except ReproError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    if args.sarif:
        root = find_repo_root(Path.cwd())
        sariflib.write_sarif(
            Path(args.sarif), findings, root if root is not None else Path.cwd()
        )

    if args.json:
        print(json.dumps(report_to_dict(findings, len(files)), indent=2))
    else:
        for finding in findings:
            print(finding.format())
        summary = (
            f"reprolint: {len(findings)} finding(s) in "
            f"{len(files)} file(s)"
            if findings
            else f"reprolint: clean ({len(files)} file(s), "
            f"{len(analyzer.rules)} rule(s))"
        )
        print(summary, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
