"""Drift between the package, its exports and its docs, found by importing.

Python's own import system is the resolver, so lazy ``__getattr__``
exports and star imports need no special case:

* every module under ``repro`` imports, and every ``__all__`` entry is
  an attribute of its module;
* every backticked ``repro.*`` name in ``README.md`` and ``docs/*.md``
  resolves: the longest importable module prefix, then attributes;
* every relative link between those pages has a target;
* every ``*_VERSION`` constant of :mod:`repro.io.serialization` is
  named on exactly one ``docs/`` page, its format's one normative home.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path
from typing import Any, List

import pytest

import repro
from repro.io import serialization

REPO_ROOT = Path(__file__).parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
PAGES = [REPO_ROOT / "README.md", *DOCS]

#: A dotted ``repro.*`` name quoted as code.
_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")

#: A markdown inline link, ``[text](target)``.
_LINK_RE = re.compile(r"\[[^\]\n]*\]\(([^)\s]+)\)")

_VERSION_RE = re.compile(r"[A-Z][A-Z0-9_]*_VERSION")

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
