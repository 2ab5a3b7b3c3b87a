"""The whole-program view behind reprolint's interprocedural rules.

:class:`ProjectGraph` holds one :class:`ModuleSummary` per analyzed
file: the module's imports, top-level symbols, function signatures,
call sites, references to module-level state, mutations of that state,
worker-pool entry points and the suppression table.  Summaries are
plain data — JSON-round-trippable so the incremental cache
(:mod:`repro.analysis.cache`) can persist them and rebuild the graph
without re-parsing unchanged files — and the analyzed code is never
imported.

On top of the summaries the graph resolves:

* **imports** — absolute and relative, through package ``__init__``
  re-exports, tolerant of cycles;
* **symbols** — ``resolve_name``/``resolve_dotted`` chase a name
  through ``from X import y as z`` chains to its defining module;
* **calls** — a conservative call graph over top-level functions
  (method calls and unresolvable callees are skipped, never guessed);
* **reachability** — BFS from worker entry points with parent links,
  so rules can print a witness chain.

Everything here is pure stdlib and purely syntactic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .core import ModuleContext

#: Version of the serialized :class:`ModuleSummary` wire shape; bumping
#: it invalidates every cached summary.
SUMMARY_VERSION = 2

#: Marker comment declaring a module-level mutable global fork-safe on
#: purpose (content-addressed, import-time-populated, ...).  Applies to
#: its own line or, as a standalone comment, to the next code line.
_FORK_SAFE_RE = re.compile(r"#\s*reprolint:\s*fork-safe\b")

#: Method names treated as mutating their receiver (RPL007 evidence).
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "put",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Executor methods whose first positional argument runs in a worker.
SUBMIT_METHODS = frozenset({"submit", "map", "map_shards"})

_MUTABLE_VALUE_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
    ast.Call,
)

#: A (module, top-level function name) pair — the call-graph node id.
FuncKey = Tuple[str, str]


# ---------------------------------------------------------------------------
# Summary data model (all JSON-round-trippable)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ImportRecord:
    """One ``import`` / ``from ... import`` statement."""

    kind: str  # "import" | "from"
    module: str  # raw dotted module text ("" for ``from . import x``)
    level: int  # relative-import level (0 = absolute)
    names: Tuple[Tuple[str, str], ...]  # (imported name, bound-as name)
    lineno: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "module": self.module,
            "level": self.level,
            "names": [list(pair) for pair in self.names],
            "lineno": self.lineno,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ImportRecord":
        return ImportRecord(
            kind=data["kind"],
            module=data["module"],
            level=data["level"],
            names=tuple((n, b) for n, b in data["names"]),
            lineno=data["lineno"],
        )


@dataclass(frozen=True)
class CallArg:
    """One suffix-bearing argument at a call site."""

    position: int  # positional index, -1 for keyword arguments
    keyword: str  # "" for positional arguments
    display: str  # source-ish name, for messages
    suffix: str  # the unit suffix token ("ms", "g", ...)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "position": self.position,
            "keyword": self.keyword,
            "display": self.display,
            "suffix": self.suffix,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CallArg":
        return CallArg(
            position=data["position"],
            keyword=data["keyword"],
            display=data["display"],
            suffix=data["suffix"],
        )


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    callee: str  # dotted callee text ("fn", "mod.fn", "self.fn")
    lineno: int
    col: int
    n_args: int  # number of positional arguments
    has_star: bool  # *args / **kwargs splat present
    args: Tuple[CallArg, ...]  # suffix-bearing arguments only
    assigned_display: str = ""  # ``x_s = call(...)`` target name
    assigned_suffix: str = ""  # its unit suffix

    def to_dict(self) -> Dict[str, Any]:
        return {
            "callee": self.callee,
            "lineno": self.lineno,
            "col": self.col,
            "n_args": self.n_args,
            "has_star": self.has_star,
            "args": [arg.to_dict() for arg in self.args],
            "assigned_display": self.assigned_display,
            "assigned_suffix": self.assigned_suffix,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CallSite":
        return CallSite(
            callee=data["callee"],
            lineno=data["lineno"],
            col=data["col"],
            n_args=data["n_args"],
            has_star=data["has_star"],
            args=tuple(CallArg.from_dict(a) for a in data["args"]),
            assigned_display=data["assigned_display"],
            assigned_suffix=data["assigned_suffix"],
        )


@dataclass(frozen=True)
class MutationSite:
    """One write to (potential) module-level state."""

    target: str  # raw name or one-level dotted "mod.NAME"
    lineno: int
    how: str  # "method:<name>" | "subscript" | "rebind" | "delete"
    guards: Tuple[str, ...]  # enclosing ``with`` context expressions
    via_param: str = ""  # parameter name when aliased via a default

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "lineno": self.lineno,
            "how": self.how,
            "guards": list(self.guards),
            "via_param": self.via_param,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "MutationSite":
        return MutationSite(
            target=data["target"],
            lineno=data["lineno"],
            how=data["how"],
            guards=tuple(data["guards"]),
            via_param=data["via_param"],
        )


@dataclass(frozen=True)
class FunctionSummary:
    """One top-level function, method, or the ``<module>`` body."""

    name: str  # "fn", "Cls.fn" (method) or "<module>"
    lineno: int
    is_method: bool
    decorated: bool
    params: Tuple[str, ...]  # posonly + args + kwonly, in order
    n_positional: int  # len(posonly + args)
    has_vararg: bool
    has_kwarg: bool
    default_aliases: Tuple[Tuple[str, str], ...]  # (param, global name)
    calls: Tuple[CallSite, ...]
    refs: Tuple[str, ...]  # non-local names read (incl. "mod.name")
    mutations: Tuple[MutationSite, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "is_method": self.is_method,
            "decorated": self.decorated,
            "params": list(self.params),
            "n_positional": self.n_positional,
            "has_vararg": self.has_vararg,
            "has_kwarg": self.has_kwarg,
            "default_aliases": [list(pair) for pair in self.default_aliases],
            "calls": [call.to_dict() for call in self.calls],
            "refs": list(self.refs),
            "mutations": [m.to_dict() for m in self.mutations],
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FunctionSummary":
        return FunctionSummary(
            name=data["name"],
            lineno=data["lineno"],
            is_method=data["is_method"],
            decorated=data["decorated"],
            params=tuple(data["params"]),
            n_positional=data["n_positional"],
            has_vararg=data["has_vararg"],
            has_kwarg=data["has_kwarg"],
            default_aliases=tuple((p, g) for p, g in data["default_aliases"]),
            calls=tuple(CallSite.from_dict(c) for c in data["calls"]),
            refs=tuple(data["refs"]),
            mutations=tuple(MutationSite.from_dict(m) for m in data["mutations"]),
        )


@dataclass(frozen=True)
class GlobalVar:
    """One module-level assignment that creates (potentially) mutable state."""

    name: str
    lineno: int
    mutable: bool
    fork_safe: bool  # carries a ``# reprolint: fork-safe`` marker
    kind: str  # "list" | "dict" | "set" | "comprehension" | "call"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "mutable": self.mutable,
            "fork_safe": self.fork_safe,
            "kind": self.kind,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "GlobalVar":
        return GlobalVar(
            name=data["name"],
            lineno=data["lineno"],
            mutable=data["mutable"],
            fork_safe=data["fork_safe"],
            kind=data["kind"],
        )


@dataclass(frozen=True)
class WorkerEntry:
    """A callable handed to an executor (submit/map) or as initializer."""

    callee: str  # dotted callee text as written
    kind: str  # "submit" | "initializer"
    method: str  # the pool method ("submit", "map", ...) or call text
    lineno: int
    function: str  # enclosing function name or "<module>"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "callee": self.callee,
            "kind": self.kind,
            "method": self.method,
            "lineno": self.lineno,
            "function": self.function,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "WorkerEntry":
        return WorkerEntry(
            callee=data["callee"],
            kind=data["kind"],
            method=data["method"],
            lineno=data["lineno"],
            function=data["function"],
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project rules need to know about one module."""

    module: str  # dotted module name ("repro.batch.engine")
    path: str  # posix path as analyzed
    sha256: str  # content hash of the source bytes
    is_package: bool  # file is an ``__init__.py``
    imports: Tuple[ImportRecord, ...]
    symbols: Dict[str, str]  # top-level name -> "function"|"class"|"const"
    functions: Tuple[FunctionSummary, ...]
    module_globals: Tuple[GlobalVar, ...]
    worker_entries: Tuple[WorkerEntry, ...]
    locks: Tuple[str, ...]  # module-level threading.Lock()/RLock() names
    all_refs: Tuple[str, ...]  # every identifier referenced, and ``__all__``
    suppressed_lines: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    file_suppressed: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "sha256": self.sha256,
            "is_package": self.is_package,
            "imports": [imp.to_dict() for imp in self.imports],
            "symbols": dict(self.symbols),
            "functions": [fn.to_dict() for fn in self.functions],
            "module_globals": [g.to_dict() for g in self.module_globals],
            "worker_entries": [w.to_dict() for w in self.worker_entries],
            "locks": list(self.locks),
            "all_refs": list(self.all_refs),
            "suppressed_lines": [
                [line, sorted(rules)]
                for line, rules in sorted(self.suppressed_lines.items())
            ],
            "file_suppressed": sorted(self.file_suppressed),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> Optional["ModuleSummary"]:
        """Rebuild a summary; None when the serialized version is stale."""
        if data.get("version") != SUMMARY_VERSION:
            return None
        return ModuleSummary(
            module=data["module"],
            path=data["path"],
            sha256=data["sha256"],
            is_package=data["is_package"],
            imports=tuple(ImportRecord.from_dict(i) for i in data["imports"]),
            symbols=dict(data["symbols"]),
            functions=tuple(FunctionSummary.from_dict(f) for f in data["functions"]),
            module_globals=tuple(GlobalVar.from_dict(g) for g in data["module_globals"]),
            worker_entries=tuple(WorkerEntry.from_dict(w) for w in data["worker_entries"]),
            locks=tuple(data["locks"]),
            all_refs=tuple(data["all_refs"]),
            suppressed_lines={
                int(line): tuple(rules) for line, rules in data["suppressed_lines"]
            },
            file_suppressed=tuple(data["file_suppressed"]),
        )


# ---------------------------------------------------------------------------
# Module naming
# ---------------------------------------------------------------------------
def module_name_for(path: Path) -> str:
    """The dotted module name a file would import as.

    Walks up through directories containing ``__init__.py`` (the
    package chain); a standalone file is just its stem.  ``<string>``
    paths (from :meth:`Analyzer.check_source`) become ``<string>``.
    """
    stem = path.stem
    if not stem:
        return str(path)
    parts: List[str] = [] if stem == "__init__" else [stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(parts) if parts else stem


# ---------------------------------------------------------------------------
# Summary extraction
# ---------------------------------------------------------------------------
class _FuncAcc:
    """Mutable accumulator for one function (or the module body)."""

    def __init__(
        self,
        name: str,
        lineno: int,
        is_method: bool = False,
        decorated: bool = False,
        params: Sequence[str] = (),
        n_positional: int = 0,
        has_vararg: bool = False,
        has_kwarg: bool = False,
        default_aliases: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self.name = name
        self.lineno = lineno
        self.is_method = is_method
        self.decorated = decorated
        self.params = tuple(params)
        self.n_positional = n_positional
        self.has_vararg = has_vararg
        self.has_kwarg = has_kwarg
        self.default_aliases = dict(default_aliases)
        self.calls: List[Dict[str, Any]] = []
        self.loads: Set[str] = set()
        self.locals: Set[str] = set()
        self.global_decls: Set[str] = set()
        self.mutations: List[MutationSite] = []

    def finalize(self) -> FunctionSummary:
        bound = (self.locals | set(self.params)) - self.global_decls
        refs = {name for name in self.loads if name.split(".", 1)[0] not in bound}
        refs.update(self.default_aliases.values())
        mutations = tuple(
            m
            for m in self.mutations
            if m.target.split(".", 1)[0] not in bound or m.via_param
        )
        return FunctionSummary(
            name=self.name,
            lineno=self.lineno,
            is_method=self.is_method,
            decorated=self.decorated,
            params=self.params,
            n_positional=self.n_positional,
            has_vararg=self.has_vararg,
            has_kwarg=self.has_kwarg,
            default_aliases=tuple(sorted(self.default_aliases.items())),
            calls=tuple(
                CallSite(
                    callee=c["callee"],
                    lineno=c["lineno"],
                    col=c["col"],
                    n_args=c["n_args"],
                    has_star=c["has_star"],
                    args=tuple(c["args"]),
                    assigned_display=c["assigned_display"],
                    assigned_suffix=c["assigned_suffix"],
                )
                for c in self.calls
            ),
            refs=tuple(sorted(refs)),
            mutations=mutations,
        )


def _dotted_text(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string when ``node`` is a Name/Attribute chain."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


class _SummaryVisitor(ast.NodeVisitor):
    """One pass over a module AST building the :class:`ModuleSummary`."""

    def __init__(self, suffix_of: Any) -> None:
        # ``suffix_of`` is rules.unit_suffix, injected to avoid a cycle.
        self._suffix_of = suffix_of
        self.module_acc = _FuncAcc("<module>", 1)
        self.functions: List[_FuncAcc] = []
        self.imports: List[ImportRecord] = []
        self.symbols: Dict[str, str] = {}
        self.exported: Set[str] = set()  # string literals in ``__all__``
        self.module_globals: List[Dict[str, Any]] = []
        self.worker_entries: List[WorkerEntry] = []
        self.locks: List[str] = []
        self._current = self.module_acc
        self._class: Optional[str] = None
        self._with_guards: List[str] = []

    # -- helpers --------------------------------------------------------
    def _at_module_level(self) -> bool:
        return self._current is self.module_acc and self._class is None

    def _record_local(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                self._current.locals.add(child.id)

    def _suffix_source(self, node: ast.AST) -> Tuple[str, str]:
        """(display, suffix) for an argument expression, or ("", "")."""
        name: Optional[str] = None
        display = ""
        if isinstance(node, ast.Name):
            name = node.id
            display = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
            display = _dotted_text(node) or node.attr
        elif isinstance(node, ast.Call):
            callee = _dotted_text(node.func)
            if callee is not None:
                name = callee.rsplit(".", 1)[-1]
                display = f"{callee}(...)"
        if name is None:
            return "", ""
        suffix = self._suffix_of(name)
        return (display, suffix) if suffix else ("", "")

    def _mutation(self, target: str, lineno: int, how: str) -> None:
        via_param = ""
        root = target.split(".", 1)[0]
        alias = self._current.default_aliases.get(root)
        if alias is not None:
            target = alias
            via_param = root
        self._current.mutations.append(
            MutationSite(
                target=target,
                lineno=lineno,
                how=how,
                guards=tuple(self._with_guards),
                via_param=via_param,
            )
        )

    # -- definitions ----------------------------------------------------
    def _visit_function_def(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        if self._current is not self.module_acc:
            # Nested def: merge its body into the enclosing summary.
            self._current.locals.add(node.name)
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                self._current.locals.add(arg.arg)
            for default in (*args.defaults, *args.kw_defaults):
                if default is not None:
                    self.visit(default)
            for stmt in node.body:
                self.visit(stmt)
            return
        if self._at_module_level():
            self.symbols[node.name] = "function"
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        params = [a.arg for a in positional] + [a.arg for a in args.kwonlyargs]
        aliases: List[Tuple[str, str]] = []
        pos_defaults = args.defaults
        for arg, default in zip(positional[len(positional) - len(pos_defaults) :], pos_defaults):
            dotted = _dotted_text(default) if default is not None else None
            if dotted is not None:
                aliases.append((arg.arg, dotted))
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            dotted = _dotted_text(kw_default) if kw_default is not None else None
            if dotted is not None:
                aliases.append((arg.arg, dotted))
        name = node.name if self._class is None else f"{self._class}.{node.name}"
        acc = _FuncAcc(
            name,
            node.lineno,
            is_method=self._class is not None,
            decorated=bool(node.decorator_list),
            params=params,
            n_positional=len(positional),
            has_vararg=args.vararg is not None,
            has_kwarg=args.kwarg is not None,
            default_aliases=aliases,
        )
        for decorator in node.decorator_list:
            self.visit(decorator)
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None:
                self.visit(default)
        previous, self._current = self._current, acc
        for stmt in node.body:
            self.visit(stmt)
        self._current = previous
        self.functions.append(acc)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._current is not self.module_acc or self._class is not None:
            self._current.locals.add(node.name)
            for stmt in node.body:
                self.visit(stmt)
            return
        self.symbols[node.name] = "class"
        for decorator in node.decorator_list:
            self.visit(decorator)
        for base in (*node.bases, *node.keywords):
            self.visit(base)
        self._class = node.name
        for stmt in node.body:
            self.visit(stmt)
        self._class = None

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        names = tuple(
            (alias.name, alias.asname or alias.name.split(".", 1)[0])
            for alias in node.names
        )
        self.imports.append(
            ImportRecord(
                kind="import", module="", level=0, names=names, lineno=node.lineno
            )
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        names = tuple(
            (alias.name, alias.asname or alias.name) for alias in node.names
        )
        self.imports.append(
            ImportRecord(
                kind="from",
                module=node.module or "",
                level=node.level,
                names=names,
                lineno=node.lineno,
            )
        )

    # -- assignments / state --------------------------------------------
    def _record_module_global(self, name: str, value: ast.AST, lineno: int) -> None:
        if not isinstance(value, _MUTABLE_VALUE_NODES):
            return
        kind = {
            ast.List: "list",
            ast.Dict: "dict",
            ast.Set: "set",
            ast.ListComp: "comprehension",
            ast.DictComp: "comprehension",
            ast.SetComp: "comprehension",
            ast.Call: "call",
        }[type(value)]
        if isinstance(value, ast.Call):
            dotted = _dotted_text(value.func)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in ("Lock", "RLock"):
                self.locks.append(name)
                return
        self.module_globals.append(
            {"name": name, "lineno": lineno, "mutable": True, "kind": kind}
        )

    def _handle_assign_target(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._current.global_decls:
                self._mutation(target.id, lineno, "rebind")
            self._current.locals.add(target.id)
        elif isinstance(target, ast.Subscript):
            dotted = _dotted_text(target.value)
            if dotted is not None:
                self._mutation(dotted, lineno, "subscript")
            self.visit(target.value)
            self.visit(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_assign_target(element, lineno)
        elif isinstance(target, ast.Starred):
            self._handle_assign_target(target.value, lineno)
        else:
            self.visit(target)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._at_module_level() and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.symbols.setdefault(target.id, "const")
                self._record_module_global(target.id, node.value, node.lineno)
                if target.id == "__all__" and isinstance(
                    node.value, (ast.List, ast.Tuple)
                ):
                    self.exported.update(
                        el.value
                        for el in node.value.elts
                        if isinstance(el, ast.Constant) and isinstance(el.value, str)
                    )
        for target in node.targets:
            self._handle_assign_target(target, node.lineno)
        self.visit(node.value)
        self._note_assigned_call(node.targets, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            self._at_module_level()
            and isinstance(node.target, ast.Name)
            and node.value is not None
        ):
            self.symbols.setdefault(node.target.id, "const")
            self._record_module_global(node.target.id, node.value, node.lineno)
        self._handle_assign_target(node.target, node.lineno)
        if node.value is not None:
            self.visit(node.value)
            self._note_assigned_call([node.target], node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_assign_target(node.target, node.lineno)
        if isinstance(node.target, ast.Name):
            self._current.loads.add(node.target.id)
        self.visit(node.value)

    def _note_assigned_call(
        self, targets: Sequence[ast.AST], value: ast.AST
    ) -> None:
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        if not isinstance(value, ast.Call):
            return
        suffix = self._suffix_of(targets[0].id)
        if not suffix:
            return
        for call in self._current.calls:
            if call["lineno"] == value.lineno and call["col"] == value.col_offset:
                call["assigned_display"] = targets[0].id
                call["assigned_suffix"] = suffix
                break

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                dotted = _dotted_text(target.value)
                if dotted is not None:
                    self._mutation(dotted, node.lineno, "delete")
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._current.global_decls.update(node.names)

    # -- scoping statements ---------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: "ast.With | ast.AsyncWith") -> None:
        guards: List[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            dotted = _dotted_text(item.context_expr)
            if dotted is not None:
                guards.append(dotted)
            if item.optional_vars is not None:
                self._record_local(item.optional_vars)
        self._with_guards.extend(guards)
        for stmt in node.body:
            self.visit(stmt)
        del self._with_guards[len(self._with_guards) - len(guards) :]

    def visit_For(self, node: ast.For) -> None:
        self._record_local(node.target)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._record_local(node.target)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name is not None:
            self._current.locals.add(node.name)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_local(node.target)
        self.visit(node.iter)
        for condition in node.ifs:
            self.visit(condition)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._current.locals.add(node.target.id)
        self.visit(node.value)

    # -- expressions ----------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._current.loads.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and isinstance(node.ctx, ast.Load):
            self._current.loads.add(f"{node.value.id}.{node.attr}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted_text(node.func)
        if callee is not None:
            args: List[CallArg] = []
            has_star = any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            )
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    continue
                display, suffix = self._suffix_source(arg)
                if suffix:
                    args.append(
                        CallArg(
                            position=index, keyword="", display=display, suffix=suffix
                        )
                    )
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                display, suffix = self._suffix_source(kw.value)
                if suffix:
                    args.append(
                        CallArg(
                            position=-1,
                            keyword=kw.arg,
                            display=display,
                            suffix=suffix,
                        )
                    )
            self._current.calls.append(
                {
                    "callee": callee,
                    "lineno": node.lineno,
                    "col": node.col_offset,
                    "n_args": len(node.args),
                    "has_star": has_star,
                    "args": args,
                    "assigned_display": "",
                    "assigned_suffix": "",
                }
            )
        # Worker entries: pool.submit(fn, ...) / pool.map(fn, ...).
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SUBMIT_METHODS
            and node.args
        ):
            submitted = _dotted_text(node.args[0])
            if submitted is not None:
                self.worker_entries.append(
                    WorkerEntry(
                        callee=submitted,
                        kind="submit",
                        method=node.func.attr,
                        lineno=node.lineno,
                        function=self._current.name,
                    )
                )
        for kw in node.keywords:
            if kw.arg == "initializer":
                initializer = _dotted_text(kw.value)
                if initializer is not None:
                    self.worker_entries.append(
                        WorkerEntry(
                            callee=initializer,
                            kind="initializer",
                            method=callee or "call",
                            lineno=node.lineno,
                            function=self._current.name,
                        )
                    )
        # Mutating method calls: NAME.put(...) / mod.NAME.clear().
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            receiver = _dotted_text(node.func.value)
            if receiver is not None:
                self._mutation(receiver, node.lineno, f"method:{node.func.attr}")
        self.generic_visit(node)


def _fork_safe_lines(lines: Sequence[str]) -> Set[int]:
    """1-based lines whose global definition is marked fork-safe."""
    marked: Set[int] = set()
    for index, line in enumerate(lines, 1):
        if _FORK_SAFE_RE.search(line) is None:
            continue
        marked.add(index)
        if line.lstrip().startswith("#"):
            marked.add(index + 1)  # standalone comment covers the next line
    return marked


def extract_summary(
    module: "ModuleContext", module_name: str, sha256: str
) -> ModuleSummary:
    """Build the :class:`ModuleSummary` of one parsed module."""
    from .rules import unit_suffix  # local import: rules imports core

    visitor = _SummaryVisitor(unit_suffix)
    for stmt in module.tree.body:
        visitor.visit(stmt)
    visitor.functions.append(visitor.module_acc)
    fork_safe = _fork_safe_lines(module.lines)
    module_globals = tuple(
        GlobalVar(
            name=g["name"],
            lineno=g["lineno"],
            mutable=g["mutable"],
            fork_safe=g["lineno"] in fork_safe,
            kind=g["kind"],
        )
        for g in visitor.module_globals
    )
    all_refs = set(visitor.exported)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name):
            all_refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            all_refs.add(node.attr)
    return ModuleSummary(
        module=module_name,
        path=module.path.as_posix(),
        sha256=sha256,
        is_package=module.path.stem == "__init__",
        imports=tuple(visitor.imports),
        symbols=visitor.symbols,
        functions=tuple(acc.finalize() for acc in visitor.functions),
        module_globals=module_globals,
        worker_entries=tuple(visitor.worker_entries),
        locks=tuple(visitor.locks),
        all_refs=tuple(sorted(all_refs)),
        suppressed_lines={
            line: tuple(sorted(rules))
            for line, rules in module.line_suppressions().items()
        },
        file_suppressed=tuple(sorted(module.file_suppressions())),
    )


# ---------------------------------------------------------------------------
# The project graph
# ---------------------------------------------------------------------------
#: A resolved name: ("module", dotted, "") or ("symbol", module, name).
Resolved = Tuple[str, str, str]


class ProjectGraph:
    """Modules, symbols, imports and calls over one set of summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.by_path: Dict[str, ModuleSummary] = {}
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.by_path[summary.path] = summary
            self.modules.setdefault(summary.module, summary)
        self._bindings_cache: Dict[str, Dict[str, Resolved]] = {}
        self._dotted_cache: Dict[Tuple[str, str], Optional[Resolved]] = {}
        self._functions: Dict[str, Dict[str, FunctionSummary]] = {}
        self._globals: Dict[str, Dict[str, GlobalVar]] = {}
        for summary in self.modules.values():
            self._functions[summary.module] = {
                fn.name: fn for fn in summary.functions if not fn.is_method
            }
            self._globals[summary.module] = {
                g.name: g for g in summary.module_globals
            }

    # -- import resolution ----------------------------------------------
    @staticmethod
    def absolute_import(
        summary: ModuleSummary, record: ImportRecord
    ) -> Optional[str]:
        """The absolute module a ``from``-import names (None if unknown)."""
        if record.kind != "from":
            return None
        if record.level == 0:
            return record.module or None
        package = (
            summary.module
            if summary.is_package
            else summary.module.rsplit(".", 1)[0]
            if "." in summary.module
            else ""
        )
        parts = package.split(".") if package else []
        drop = record.level - 1
        if drop > len(parts):
            return None
        base = parts[: len(parts) - drop]
        if record.module:
            base.extend(record.module.split("."))
        return ".".join(base) or None

    # -- name resolution -------------------------------------------------
    def bindings(self, module: str) -> Dict[str, Resolved]:
        """Top-level name bindings of one module (defs shadow imports)."""
        cached = self._bindings_cache.get(module)
        if cached is not None:
            return cached
        summary = self.modules.get(module)
        table: Dict[str, Resolved] = {}
        if summary is not None:
            for record in summary.imports:
                if record.kind == "import":
                    for target, bound in record.names:
                        table[bound] = ("module", target, "")
                else:
                    source = self.absolute_import(summary, record)
                    if source is None:
                        continue
                    for name, bound in record.names:
                        if name == "*":
                            continue
                        table[bound] = ("import-from", source, name)
            for name in summary.symbols:
                table[name] = ("symbol", module, name)
        self._bindings_cache[module] = table
        return table

    def star_sources(self, module: str) -> List[str]:
        """Absolute sources of ``from X import *`` statements."""
        summary = self.modules.get(module)
        if summary is None:
            return []
        sources: List[str] = []
        for record in summary.imports:
            if record.kind == "from" and any(n == "*" for n, _ in record.names):
                source = self.absolute_import(summary, record)
                if source is not None:
                    sources.append(source)
        return sources

    def resolve_name(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Resolved]:
        """Where ``name`` used in ``module`` is defined, chasing re-exports."""
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None  # import cycle — stop, stay conservative
        seen.add((module, name))
        binding = self.bindings(module).get(name)
        if binding is None:
            for source in self.star_sources(module):
                if source in self.modules:
                    resolved = self.resolve_name(source, name, seen)
                    if resolved is not None:
                        return resolved
            return None
        tag, target, symbol = binding
        if tag == "symbol":
            return binding
        if tag == "module":
            return ("module", target, "") if target in self.modules else None
        # tag == "import-from": follow into the source module.
        if target not in self.modules:
            return None
        resolved = self.resolve_name(target, symbol, seen)
        if resolved is not None:
            return resolved
        submodule = f"{target}.{symbol}"
        if submodule in self.modules:
            return ("module", submodule, "")
        return None

    def resolve_dotted(self, module: str, dotted: str) -> Optional[Resolved]:
        """Resolve a dotted reference (``pkg.mod.fn``) from ``module``."""
        key = (module, dotted)
        if key in self._dotted_cache:
            return self._dotted_cache[key]
        resolved = self._resolve_dotted_uncached(module, dotted)
        self._dotted_cache[key] = resolved
        return resolved

    def _resolve_dotted_uncached(
        self, module: str, dotted: str
    ) -> Optional[Resolved]:
        parts = dotted.split(".")
        if parts[0] in ("self", "cls"):
            return None
        resolved = self.resolve_name(module, parts[0])
        for part in parts[1:]:
            if resolved is None or resolved[0] != "module":
                return None  # attribute of a symbol: out of scope
            target = resolved[1]
            next_resolved = self.resolve_name(target, part)
            if next_resolved is None:
                submodule = f"{target}.{part}"
                if submodule in self.modules:
                    next_resolved = ("module", submodule, "")
            resolved = next_resolved
        return resolved

    # -- typed lookups ---------------------------------------------------
    def function_at(self, module: str, name: str) -> Optional[FunctionSummary]:
        return self._functions.get(module, {}).get(name)

    def global_at(self, module: str, name: str) -> Optional[GlobalVar]:
        return self._globals.get(module, {}).get(name)

    def resolve_function(
        self, module: str, dotted: str
    ) -> Optional[Tuple[str, FunctionSummary]]:
        """The top-level function a callee reference names, if any."""
        resolved = self.resolve_dotted(module, dotted)
        if resolved is None or resolved[0] != "symbol":
            return None
        function = self.function_at(resolved[1], resolved[2])
        if function is None:
            return None
        return resolved[1], function

    def resolve_global(
        self, module: str, dotted: str
    ) -> Optional[Tuple[str, GlobalVar]]:
        """The module-level global a reference names, if any."""
        resolved = self.resolve_dotted(module, dotted)
        if resolved is None or resolved[0] != "symbol":
            return None
        var = self.global_at(resolved[1], resolved[2])
        if var is None:
            return None
        return resolved[1], var

    def is_lock(self, module: str, dotted: str) -> bool:
        """Whether a ``with`` guard resolves to a module-level lock."""
        resolved = self.resolve_dotted(module, dotted)
        if resolved is None or resolved[0] != "symbol":
            return False
        summary = self.modules.get(resolved[1])
        return summary is not None and resolved[2] in summary.locks

    # -- call graph ------------------------------------------------------
    def worker_entries(self, kind: str) -> List[Tuple[FuncKey, WorkerEntry, str]]:
        """Resolved worker entry points of one kind across the project."""
        entries: List[Tuple[FuncKey, WorkerEntry, str]] = []
        for summary in self.by_path.values():
            for entry in summary.worker_entries:
                if entry.kind != kind:
                    continue
                resolved = self.resolve_function(summary.module, entry.callee)
                if resolved is None:
                    continue
                entries.append(
                    ((resolved[0], resolved[1].name), entry, summary.module)
                )
        return entries

    def reachable_from(
        self, roots: Iterable[FuncKey]
    ) -> Dict[FuncKey, Optional[FuncKey]]:
        """BFS over the call graph; maps reached function -> its caller."""
        parents: Dict[FuncKey, Optional[FuncKey]] = {}
        queue: List[FuncKey] = []
        for root in roots:
            if root not in parents and self.function_at(*root) is not None:
                parents[root] = None
                queue.append(root)
        index = 0
        while index < len(queue):
            current = queue[index]
            index += 1
            function = self.function_at(*current)
            if function is None:
                continue
            for call in function.calls:
                resolved = self.resolve_function(current[0], call.callee)
                if resolved is None:
                    continue
                key = (resolved[0], resolved[1].name)
                if key not in parents:
                    parents[key] = current
                    queue.append(key)
        return parents

    def witness_chain(
        self, parents: Mapping[FuncKey, Optional[FuncKey]], key: FuncKey
    ) -> List[str]:
        """Entry-to-target function names for one reachability proof."""
        chain: List[str] = []
        current: Optional[FuncKey] = key
        while current is not None:
            chain.append(current[1])
            current = parents.get(current)
        chain.reverse()
        return chain

    # -- suppressions ----------------------------------------------------
    def is_suppressed(self, path: str, line: int, rule_id: str) -> bool:
        from .core import ALL_RULES

        summary = self.by_path.get(path)
        if summary is None:
            return False
        if (
            ALL_RULES in summary.file_suppressed
            or rule_id in summary.file_suppressed
        ):
            return True
        rules = summary.suppressed_lines.get(line)
        return rules is not None and (ALL_RULES in rules or rule_id in rules)


__all__ = [
    "FuncKey",
    "CallArg",
    "CallSite",
    "FunctionSummary",
    "GlobalVar",
    "ImportRecord",
    "ModuleSummary",
    "MutationSite",
    "ProjectGraph",
    "SUMMARY_VERSION",
    "WorkerEntry",
    "extract_summary",
    "module_name_for",
]
