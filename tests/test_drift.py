"""Drift between the package, its exports and its docs, found by importing.

Python's own import system is the resolver, so lazy ``__getattr__``
exports and star imports need no special case:

* every module under ``repro`` imports, and every ``__all__`` entry is
  an attribute of its module;
* every backticked ``repro.*`` name in ``README.md`` and ``docs/*.md``
  resolves: the longest importable module prefix, then attributes;
* every relative link between those pages has a target;
* every ``*_VERSION`` constant of :mod:`repro.io.serialization` is
  named on exactly one ``docs/`` page, its format's one normative home;
* every ``repro-skyline`` command in those pages' fenced code blocks,
  in the :mod:`repro.skyline.cli` docstring and in CI's workflow
  parses with the CLI's own argument parser (nothing runs).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path
from typing import Any, List

import pytest

import repro
import repro.skyline.cli
from repro.io import serialization

REPO_ROOT = Path(__file__).parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
PAGES = [REPO_ROOT / "README.md", *DOCS]

#: A dotted ``repro.*`` name quoted as code.
_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")

#: A markdown inline link, ``[text](target)``.
_LINK_RE = re.compile(r"\[[^\]\n]*\]\(([^)\s]+)\)")

_VERSION_RE = re.compile(r"[A-Z][A-Z0-9_]*_VERSION")

#: A markdown fenced code block's body.
_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)

#: A shell token that ends the command's argv: a redirection, a pipe,
#: ``&`` or ``;``.
_SHELL_STOP_RE = re.compile(r"\d*[<>]|[|&;]")

#: Where ``repro-skyline`` commands are documented, with the text to
#: search: markdown pages by their fenced blocks, the rest whole.
CLI_SOURCES = {
    **{
        _page: "\n".join(_FENCE_RE.findall(_page.read_text(encoding="utf-8")))
        for _page in PAGES
    },
    "repro.skyline.cli": repro.skyline.cli.__doc__ or "",
    ".github/workflows/ci.yml": (REPO_ROOT / ".github/workflows/ci.yml").read_text(
        encoding="utf-8"
    ),
}

MODULES = ["repro"] + [
    info.name
    # A package that fails to import is still listed, so its own case
    # below fails instead of the walk silently skipping it.
    for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=lambda name: None)
]


def _page_id(page: Path) -> str:
    return page.relative_to(REPO_ROOT).as_posix()


def _resolve(dotted: str) -> Any:
    """Import the longest importable prefix of ``dotted``, then getattr
    the rest; AttributeError names the first part that is missing."""
    parts = dotted.split(".")
    for stop in range(len(parts), 0, -1):
        prefix = ".".join(parts[:stop])
        try:
            found = importlib.import_module(prefix)
        except ModuleNotFoundError as exc:
            if exc.name is None or not f"{prefix}.".startswith(f"{exc.name}."):
                raise  # the module exists but one of its imports does not
            continue
        for part in parts[stop:]:
            found = getattr(found, part)
        return found
    raise AssertionError(f"no prefix of {dotted!r} imports")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_defines_its_all(name: str) -> None:
    module = importlib.import_module(name)
    ghosts = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not ghosts, f"{name}.__all__ lists {ghosts}, which the module does not define"


@pytest.mark.parametrize("page", PAGES, ids=_page_id)
def test_every_documented_name_resolves(page: Path) -> None:
    missing: List[str] = []
    for dotted in sorted(set(_NAME_RE.findall(page.read_text(encoding="utf-8")))):
        try:
            _resolve(dotted)
        except AttributeError as exc:
            missing.append(f"{dotted} ({exc})")
    assert not missing, f"{_page_id(page)} names what the package lacks: {missing}"


@pytest.mark.parametrize("page", PAGES, ids=_page_id)
def test_every_relative_link_has_a_target(page: Path) -> None:
    dangling = [
        target
        for target in _LINK_RE.findall(page.read_text(encoding="utf-8"))
        if not target.startswith(("http://", "https://", "mailto:", "#"))
        and not (page.parent / target.split("#", 1)[0]).exists()
    ]
    assert not dangling, f"{_page_id(page)} links to missing files: {dangling}"


@pytest.mark.parametrize(
    "constant", sorted(name for name in vars(serialization) if _VERSION_RE.fullmatch(name))
)
def test_wire_version_is_named_on_exactly_one_docs_page(constant: str) -> None:
    mention = re.compile(rf"\b{constant}\b")
    homes = [page.name for page in DOCS if mention.search(page.read_text(encoding="utf-8"))]
    assert len(homes) == 1, (
        f"{constant} is named on {len(homes)} docs pages {homes}; its format "
        f"needs exactly one normative home"
    )


def _cli_commands(text: str) -> List[str]:
    """Every ``repro-skyline`` command line in ``text``, with ``\\``
    continuations joined as a shell joins them."""
    joined = text.replace("\\\n", "")
    return [
        line.strip()
        for line in joined.splitlines()
        if line.lstrip().startswith("repro-skyline ")
    ]


def _cli_error(command: str) -> str:
    """What the CLI's parser says about ``command``; empty when it parses."""
    argv: List[str] = []
    for token in shlex.split(command, comments=True)[1:]:
        if _SHELL_STOP_RE.match(token):
            break
        argv.append(token)
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            repro.skyline.cli._build_parser().parse_args(argv)
    except SystemExit:
        return stderr.getvalue().strip() or "the parser exited"
    return ""


@pytest.mark.parametrize(
    "source",
    list(CLI_SOURCES),
    ids=lambda source: _page_id(source) if isinstance(source, Path) else source,
)
def test_every_documented_cli_command_parses(source: Any) -> None:
    broken = [
        f"{command!r}: {error}"
        for command in _cli_commands(CLI_SOURCES[source])
        if (error := _cli_error(command))
    ]
    assert not broken, f"{source} documents commands the CLI refuses: {broken}"


def test_the_cli_examples_are_found() -> None:
    for source in ("repro.skyline.cli", ".github/workflows/ci.yml", REPO_ROOT / "README.md"):
        assert _cli_commands(CLI_SOURCES[source]), f"no repro-skyline command in {source}"
