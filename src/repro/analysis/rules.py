"""The RPL rule set: repo contracts the test suite cannot reach.

Each rule documents the convention it enforces and the PR that
established it; ``docs/reprolint-rules.md`` is the user-facing catalog.
All rules are purely syntactic (AST + tokens) — the analyzed code is
never imported.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
        for node in ast.walk(module.tree):
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
        for node in ast.walk(module.tree):
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
        for node in ast.walk(module.tree):
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


# ---------------------------------------------------------------------------
# RPL005 — tracer opt-in discipline
# ---------------------------------------------------------------------------
def _is_tracer_none_test(node: ast.AST, negate: bool = False) -> bool:
    """Whether ``node`` contains ``tracer is [not] None`` (any clause).

    ``negate=False`` looks for ``is not None`` (truth implies tracer is
    live); ``negate=True`` looks for ``is None``.  Compound tests
    (``tracer is not None and in_process``) count: the whole test being
    true still implies the comparison held.
    """
    wanted = ast.Is if negate else ast.IsNot
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Compare)
            and isinstance(child.left, ast.Name)
            and child.left.id == "tracer"
            and len(child.ops) == 1
            and isinstance(child.ops[0], wanted)
            and isinstance(child.comparators[0], ast.Constant)
            and child.comparators[0].value is None
        ):
            # An ``or`` ancestor would break the implication, but the
            # instrumented modules never guard with ``or``; keep the
            # check simple and syntactic.
            return True
    return False


def _is_bare_tracer_none(node: ast.AST, negate: bool = False) -> bool:
    """Whether ``node`` *is* exactly ``tracer is [not] None``.

    Needed where the guard implication runs through the test being
    *false* (else-branches, fall-through after an early return): a
    compound ``tracer is None and x`` being false does not imply the
    tracer is live, so only the bare comparison counts there.
    """
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "tracer"
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Is if negate else ast.IsNot)
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    )


def _terminates(stmts: Sequence[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


@rule
class TracerOptInRule(Rule):
    """Optional tracers are only touched behind ``is not None``."""

    id = "RPL005"
    name = "tracer-opt-in"
    rationale = (
        "PR 5's observability contract: instrumentation is opt-in and "
        "an untraced run pays exactly one 'is None' check per phase.  "
        "Calling a tracer method unconditionally on a hot path either "
        "crashes untraced runs (tracer=None) or forces tracing on, "
        "breaking the <2%-overhead guarantee."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not self._tracer_is_optional(node):
                continue
            yield from self._check_block(module, node.body, guarded=False)

    @staticmethod
    def _tracer_is_optional(
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> bool:
        """Whether this function binds an *optional* ``tracer``.

        A ``tracer`` parameter is optional when its annotation names
        ``Optional``/``None`` or it defaults to ``None``; an
        unannotated ``tracer`` parameter is treated as optional (the
        repo-wide convention is ``tracer=None``).  A local ``tracer``
        assigned from ``something.get(...)`` (the worker-task idiom)
        is optional too.
        """
        args = node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in all_args:
            if arg.arg != "tracer":
                continue
            if arg.annotation is None:
                return True
            rendered = ast.dump(arg.annotation)
            return "Optional" in rendered or "None" in rendered
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "tracer"
                    for t in child.targets
                )
                and isinstance(child.value, ast.Call)
                and isinstance(child.value.func, ast.Attribute)
                and child.value.func.attr == "get"
            ):
                return True
        return False

    def _check_block(
        self,
        module: ModuleContext,
        stmts: Sequence[ast.stmt],
        guarded: bool,
    ) -> Iterator[Finding]:
        """Walk one statement list tracking whether ``tracer`` is live.

        ``guarded`` flips to True after an early ``if tracer is None:
        return`` or a rebinding ``tracer = Tracer()``; an ``if tracer
        is not None`` statement guards its body (and, for ``is None``
        tests, its orelse).
        """
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                if _is_tracer_none_test(stmt.test, negate=False):
                    yield from self._check_block(
                        module, stmt.body, guarded=True
                    )
                    yield from self._check_block(
                        module, stmt.orelse, guarded=guarded
                    )
                    continue
                if _is_tracer_none_test(stmt.test, negate=True):
                    bare = _is_bare_tracer_none(stmt.test, negate=True)
                    yield from self._check_block(
                        module, stmt.body, guarded=False
                    )
                    yield from self._check_block(
                        module, stmt.orelse, guarded=bare or guarded
                    )
                    if bare and _terminates(stmt.body):
                        guarded = True
                    continue
                yield from self._check_expressions(
                    module, [stmt.test], guarded
                )
                yield from self._check_block(module, stmt.body, guarded)
                yield from self._check_block(module, stmt.orelse, guarded)
                continue
            if isinstance(stmt, ast.Assign) and self._rebinds_tracer(stmt):
                yield from self._check_expressions(
                    module, [stmt.value], guarded
                )
                guarded = True
                continue
            # Nested blocks keep the current guard state; expressions
            # anywhere in the statement are checked against it.
            nested = [
                value
                for name in ("body", "orelse", "finalbody")
                for value in getattr(stmt, name, [])
            ]
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    nested.extend(handler.body)
            if nested:
                yield from self._check_expressions(
                    module, self._own_expressions(stmt), guarded
                )
                yield from self._check_block(module, nested, guarded)
            else:
                yield from self._check_expressions(module, [stmt], guarded)

    @staticmethod
    def _rebinds_tracer(stmt: ast.Assign) -> bool:
        if not any(
            isinstance(t, ast.Name) and t.id == "tracer"
            for t in stmt.targets
        ):
            return False
        value = stmt.value
        return isinstance(value, ast.Call) and not (
            isinstance(value.func, ast.Attribute)
            and value.func.attr == "get"
        )

    @staticmethod
    def _own_expressions(stmt: ast.stmt) -> List[ast.AST]:
        """A compound statement's non-block children (test, items, ...)."""
        nested_fields = {"body", "orelse", "finalbody", "handlers"}
        own: List[ast.AST] = []
        for name, value in ast.iter_fields(stmt):
            if name in nested_fields:
                continue
            if isinstance(value, ast.AST):
                own.append(value)
            elif isinstance(value, list):
                own.extend(v for v in value if isinstance(v, ast.AST))
        return own

    def _check_expressions(
        self,
        module: ModuleContext,
        roots: Sequence[ast.AST],
        guarded: bool,
    ) -> Iterator[Finding]:
        if guarded:
            return
        for root in roots:
            yield from self._walk_expression(module, root, guarded=False)

    def _walk_expression(
        self, module: ModuleContext, node: ast.AST, guarded: bool
    ) -> Iterator[Finding]:
        if guarded:
            return
        if isinstance(node, ast.IfExp):
            if _is_tracer_none_test(node.test, negate=False):
                # Body only evaluates when the tracer is live.
                yield from self._walk_expression(
                    module, node.orelse, guarded=False
                )
                return
            if _is_bare_tracer_none(node.test, negate=True):
                # Orelse only evaluates when the tracer is live.
                yield from self._walk_expression(
                    module, node.body, guarded=False
                )
                return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            # ``tracer is not None and tracer.x()``: values after the
            # comparison only evaluate when it held.
            for value in node.values:
                if _is_tracer_none_test(value, negate=False):
                    return
                yield from self._walk_expression(module, value, False)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"
        ):
            yield from self.finding(
                module,
                node,
                f"calls tracer.{node.func.attr}() without an enclosing "
                f"'tracer is not None' guard; tracing is opt-in "
                f"(use maybe_span or guard the call)",
            )
        for child in ast.iter_child_nodes(node):
            yield from self._walk_expression(module, child, guarded)


# ---------------------------------------------------------------------------
# RPL006 — process-pool picklability
# ---------------------------------------------------------------------------
_SUBMIT_METHODS = ("submit", "map", "map_shards")


@rule
class PicklabilityRule(Rule):
    """Nothing unpicklable submitted to executors."""

    id = "RPL006"
    name = "pool-picklability"
    rationale = (
        "PR 4's ParallelExecutor ships work to process pools, which "
        "pickle every callable and argument.  Lambdas and nested "
        "(closure) functions are unpicklable — they fail only at "
        "runtime, only in a process pool, which tests that run shards "
        "inline can miss.  Submit module-level functions and "
        "plain-data tasks."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            nested = {
                child.name
                for stmt in node.body
                for child in ast.walk(stmt)
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            }
            for call in ast.walk(node):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _SUBMIT_METHODS
                ):
                    continue
                for arg in (*call.args, *(kw.value for kw in call.keywords)):
                    if isinstance(arg, ast.Lambda):
                        yield from self.finding(
                            module,
                            arg,
                            f"lambda passed to .{call.func.attr}(); "
                            f"lambdas cannot pickle across the process "
                            f"pool — use a module-level function",
                        )
                    elif (
                        isinstance(arg, ast.Name) and arg.id in nested
                    ):
                        yield from self.finding(
                            module,
                            arg,
                            f"nested function {arg.id!r} passed to "
                            f".{call.func.attr}(); closures cannot "
                            f"pickle across the process pool — move it "
                            f"to module level",
                        )
