"""The per-module RPL rules: repo contracts the test suite cannot reach.

The whole-program rules live in :mod:`repro.analysis.rules_interproc`.
Each rule documents the convention it enforces and the PR that
established it; ``docs/reprolint-rules.md`` is the user-facing catalog.
All rules are purely syntactic (AST + tokens) — the analyzed code is
never imported.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from .core import Finding, ModuleContext, Rule, rule

# ---------------------------------------------------------------------------
# RPL001 — units-suffix dimensional consistency
# ---------------------------------------------------------------------------
#: Suffix token -> dimension group.  Derived from the conventions table
#: in :mod:`repro.units` (its docstring and converters are the ground
#: truth; ``tests/test_analysis.py`` pins this table against the
#: ``*_to_*`` converter pairs there).  ``_g`` covers both grams and
#: gram-force — the repo-wide convention treats rotor "pull" in
#: gram-force as directly comparable to mass in grams (thrust-to-weight
#: arithmetic), so they are one group on purpose.
UNIT_DIMENSIONS: Dict[str, str] = {
    "g": "mass",
    "kg": "mass",
    "w": "power",
    "hz": "rate",
    "s": "time",
    "ms": "time",
    "us": "time",
    "m": "length",
    "mm": "length",
    "km": "length",
    "m2": "area",
    "m3": "volume",
    "wh": "energy",
    "j": "energy",
    "deg": "angle",
    "rad": "angle",
    "v": "voltage",
    "mah": "charge",
}

_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def unit_dimension(name: str) -> Optional[str]:
    """The dimension group a ``*_suffix`` name declares, if any."""
    if "_" not in name:
        return None
    return UNIT_DIMENSIONS.get(name.rsplit("_", 1)[1])


def unit_suffix(name: str) -> str:
    """The unit-suffix token a name carries ("" when it has none)."""
    if "_" not in name:
        return ""
    token = name.rsplit("_", 1)[1]
    return token if token in UNIT_DIMENSIONS else ""


def _dimensioned_name(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(name, dimension) when ``node`` is a suffixed Name/Attribute."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    dimension = unit_dimension(name)
    return None if dimension is None else (name, dimension)


@rule
class UnitsSuffixRule(Rule):
    """Additive arithmetic must not mix unit-suffix dimension groups."""

    id = "RPL001"
    name = "units-suffix-consistency"
    rationale = (
        "The F-1 chain mixes grams, gram-force, watts and hertz as "
        "plain floats; the _g/_w/_hz/_s/_m suffix discipline from "
        "repro.units is the only dimensional typing the code has.  "
        "Adding, subtracting, comparing or directly assigning names "
        "from different dimension groups is a unit bug: convert "
        "explicitly through repro.units first."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_pair(
                    module, node, node.left, node.right, "arithmetic"
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_pair(
                    module, node, node.target, node.value, "arithmetic"
                )
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if isinstance(node.ops[0], _COMPARE_OPS):
                    yield from self._check_pair(
                        module,
                        node,
                        node.left,
                        node.comparators[0],
                        "comparison",
                    )
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                yield from self._check_pair(
                    module, node, node.targets[0], node.value, "assignment"
                )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                yield from self._check_pair(
                    module, node, node.target, node.value, "assignment"
                )

    def _check_pair(
        self,
        module: ModuleContext,
        node: ast.AST,
        left: ast.AST,
        right: ast.AST,
        kind: str,
    ) -> Iterator[Finding]:
        left_info = _dimensioned_name(left)
        right_info = _dimensioned_name(right)
        if left_info is None or right_info is None:
            return
        (left_name, left_dim) = left_info
        (right_name, right_dim) = right_info
        if left_dim == right_dim:
            return
        yield from self.finding(
            module,
            node,
            f"{kind} mixes {left_dim} ({left_name!r}) with "
            f"{right_dim} ({right_name!r}); convert through repro.units "
            f"before combining",
        )


# ---------------------------------------------------------------------------
# RPL002 — error taxonomy
# ---------------------------------------------------------------------------
_BANNED_EXCEPTIONS = ("ValueError", "TypeError", "RuntimeError", "Exception")


@rule
class ErrorTaxonomyRule(Rule):
    """No bare stdlib exceptions raised from library code."""

    id = "RPL002"
    name = "error-taxonomy"
    rationale = (
        "PR 3 established that every library-raised error derives from "
        "repro.errors.ReproError and names the offending field in its "
        "message, so callers can catch one base type at API boundaries "
        "and error text is actionable.  Bare ValueError/TypeError/"
        "RuntimeError breaks both halves of that contract."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in _BANNED_EXCEPTIONS:
                yield from self.finding(
                    module,
                    node,
                    f"raises bare {exc.id}; use a repro.errors type "
                    f"(e.g. ConfigurationError) with a message naming "
                    f"the offending field",
                )


# ---------------------------------------------------------------------------
# RPL004 — kernel purity
# ---------------------------------------------------------------------------
_MUTATING_METHODS = ("sort", "fill", "put", "resize", "itemset", "setfield")


@rule
class KernelPurityRule(Rule):
    """No per-row loops or input mutation in batch hot paths."""

    id = "RPL004"
    name = "kernel-purity"
    rationale = (
        "PR 1/2 made repro.batch fast by keeping kernels and assembly "
        "columnar: every operation is a whole-column NumPy expression "
        "over unmutated inputs.  A per-row Python for/while loop or an "
        "in-place write to a caller's array in these modules silently "
        "reintroduces the 150-678x slowdown the batch engine removed "
        "(or corrupts shared arrays under the parallel executor)."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.matches(module.config.purity_modules):
            return
        for node in module.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            params = self._parameter_names(node)
            for child in ast.walk(node):
                if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                    yield from self.finding(
                        module,
                        child,
                        "statement-level loop in a batch hot path; "
                        "vectorize over columns (comprehensions "
                        "marshalling component objects are exempt)",
                    )
                elif isinstance(child, (ast.Assign, ast.AugAssign)):
                    targets = (
                        child.targets
                        if isinstance(child, ast.Assign)
                        else [child.target]
                    )
                    for target in targets:
                        name = self._subscript_base(target)
                        if name in params:
                            yield from self.finding(
                                module,
                                child,
                                f"writes into parameter {name!r}; "
                                f"kernels must not mutate caller "
                                f"arrays — operate on fresh columns",
                            )
                elif isinstance(child, ast.Call):
                    func = child.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATING_METHODS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in params
                    ):
                        yield from self.finding(
                            module,
                            child,
                            f"in-place {func.attr}() on parameter "
                            f"{func.value.id!r}; kernels must not "
                            f"mutate caller arrays",
                        )

    @staticmethod
    def _parameter_names(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> Set[str]:
        args = node.args
        names = [
            arg.arg
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            )
        ]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return set(names) - {"self", "cls"}

    @staticmethod
    def _subscript_base(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            return target.value.id
        return None
