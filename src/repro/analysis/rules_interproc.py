"""The interprocedural RPL rules: checks that cross module boundaries.

These rules run once per analysis over the
:class:`~repro.analysis.graph.ProjectGraph` (see
``docs/analysis-architecture.md``), not once per file.  Each one
encodes a bug class the per-file rules structurally cannot see:

* **RPL007** — module-level mutable state read by process-pool workers
  but mutated without a lock, a worker-initializer reset, or an
  explicit ``# reprolint: fork-safe`` marker (the PR-4 ``DEFAULT_CACHE``
  fork-inheritance bug, generalized);
* **RPL008** — unit-suffix values flowing into parameters or out of
  returns with a different suffix, across call sites the graph can
  resolve (RPL001 only sees arithmetic inside one expression);
* **RPL009** — top-level private functions that nothing in the
  analyzed tree references any more.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .core import Finding, ProjectRule, rule
from .graph import (
    CallArg,
    CallSite,
    FuncKey,
    FunctionSummary,
    ModuleSummary,
    MutationSite,
    ProjectGraph,
)
from .rules import UNIT_DIMENSIONS, unit_suffix


# ---------------------------------------------------------------------------
# RPL007 — worker-state safety
# ---------------------------------------------------------------------------
@rule
class WorkerStateSafetyRule(ProjectRule):
    """Mutable globals read by pool workers need a fork-safety story."""

    id = "RPL007"
    name = "worker-state-safety"
    rationale = (
        "PR 4's worst bug: forked workers inherited a parent-populated "
        "DEFAULT_CACHE, silently serving stale batch results.  Any "
        "module-level mutable object that worker-reachable code reads "
        "and parent code mutates is the same hazard.  Every such "
        "global needs one of: a module-level lock around every "
        "mutation, a reset in the pool's worker initializer, or an "
        "explicit '# reprolint: fork-safe' marker stating why it is "
        "safe (e.g. populated only at import time)."
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        submit_roots = [key for key, _, _ in graph.worker_entries("submit")]
        if not submit_roots:
            return
        init_roots = [key for key, _, _ in graph.worker_entries("initializer")]
        reach_worker = graph.reachable_from(submit_roots)
        reach_init = graph.reachable_from(init_roots)
        mutations = self._resolved_mutations(graph)
        for module_name in sorted(graph.modules):
            summary = graph.modules[module_name]
            for var in summary.module_globals:
                if not var.mutable or var.fork_safe:
                    continue
                key = (module_name, var.name)
                # Import-time (<module>) mutations run before any fork
                # and are inherently single-threaded; only mutations
                # from function bodies are hazardous.
                sites = [
                    s for s in mutations.get(key, []) if s[1] != "<module>"
                ]
                if not sites:
                    continue
                witness = self._worker_witness(graph, reach_worker, key)
                if witness is None:
                    continue
                if self._reset_in_initializer(reach_init, sites):
                    continue
                if self._all_mutations_locked(graph, sites):
                    continue
                mutated_at = ", ".join(
                    sorted(
                        {
                            f"{mod}.{fn} (line {site.lineno})"
                            for mod, fn, site in sites
                        }
                    )
                )
                chain = " -> ".join(witness)
                yield from self.project_finding(
                    graph,
                    summary.path,
                    var.lineno,
                    1,
                    f"module-level mutable state {var.name!r} is read by "
                    f"process-pool worker code ({chain}) but mutated by "
                    f"{mutated_at} without a lock, worker-initializer "
                    f"reset, or '# reprolint: fork-safe' marker; forked "
                    f"workers inherit whatever the parent mutated",
                )

    @staticmethod
    def _resolved_mutations(
        graph: ProjectGraph,
    ) -> Dict[Tuple[str, str], List[Tuple[str, str, MutationSite]]]:
        """Every mutation site, resolved to the global it writes."""
        resolved: Dict[Tuple[str, str], List[Tuple[str, str, MutationSite]]] = {}
        for summary in graph.by_path.values():
            for function in summary.functions:
                for site in function.mutations:
                    target = graph.resolve_global(summary.module, site.target)
                    if target is None:
                        continue
                    key = (target[0], target[1].name)
                    resolved.setdefault(key, []).append(
                        (summary.module, function.name, site)
                    )
        return resolved

    @staticmethod
    def _worker_witness(
        graph: ProjectGraph,
        reach_worker: Dict[FuncKey, Optional[FuncKey]],
        target: Tuple[str, str],
    ) -> Optional[List[str]]:
        """Entry-to-reader chain proving a worker reads the global."""
        for func_key in sorted(reach_worker):
            function = graph.function_at(*func_key)
            if function is None:
                continue
            for ref in function.refs:
                resolved = graph.resolve_global(func_key[0], ref)
                if resolved is not None and (
                    resolved[0],
                    resolved[1].name,
                ) == target:
                    return graph.witness_chain(reach_worker, func_key)
        return None

    @staticmethod
    def _reset_in_initializer(
        reach_init: Dict[FuncKey, Optional[FuncKey]],
        sites: List[Tuple[str, str, MutationSite]],
    ) -> bool:
        """Whether any mutation runs inside the worker initializer."""
        return any((mod, fn) in reach_init for mod, fn, _ in sites)

    @staticmethod
    def _all_mutations_locked(
        graph: ProjectGraph, sites: List[Tuple[str, str, MutationSite]]
    ) -> bool:
        """Whether every mutation is under a module-level lock guard."""
        return all(
            any(graph.is_lock(mod, guard) for guard in site.guards)
            for mod, _, site in sites
        )


# ---------------------------------------------------------------------------
# RPL008 — units-flow
# ---------------------------------------------------------------------------
@rule
class UnitsFlowRule(ProjectRule):
    """Unit suffixes must survive function calls across modules."""

    id = "RPL008"
    name = "units-flow"
    rationale = (
        "RPL001 keeps single expressions dimensionally consistent, but "
        "the suffix discipline also types function signatures: a "
        "hover_time_s value passed to a timeout_ms parameter two "
        "modules away is the same bug with a call boundary hiding it.  "
        "The project graph resolves call sites through imports and "
        "re-exports and checks argument and return suffixes against "
        "the callee's signature."
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for path in sorted(graph.by_path):
            summary = graph.by_path[path]
            for function in summary.functions:
                for call in function.calls:
                    yield from self._check_call(graph, summary, call)

    def _check_call(
        self, graph: ProjectGraph, summary: ModuleSummary, call: "CallSite"
    ) -> Iterator[Finding]:
        resolved = graph.resolve_function(summary.module, call.callee)
        if resolved is None:
            return
        callee_module, callee = resolved
        if callee.decorated or callee.name == "<module>":
            return  # wrappers change signatures; stay conservative
        qualified = f"{callee_module}.{callee.name}"
        if not call.has_star:  # splats shift positions; skip the site
            for arg in call.args:
                param = self._matched_param(callee, arg)
                if param is None:
                    continue
                param_suffix = unit_suffix(param)
                if not param_suffix or param_suffix == arg.suffix:
                    continue
                yield from self.project_finding(
                    graph,
                    summary.path,
                    call.lineno,
                    call.col + 1,
                    self._mismatch_message(
                        arg.display, arg.suffix, param, param_suffix, qualified
                    ),
                )
        if call.assigned_suffix:
            return_suffix = unit_suffix(callee.name)
            if return_suffix and return_suffix != call.assigned_suffix:
                yield from self.project_finding(
                    graph,
                    summary.path,
                    call.lineno,
                    call.col + 1,
                    f"assigns the result of {qualified}() (unit "
                    f"'{return_suffix}') to {call.assigned_display!r} "
                    f"(unit '{call.assigned_suffix}'); convert through "
                    f"repro.units or rename the target",
                )

    @staticmethod
    def _matched_param(callee: FunctionSummary, arg: "CallArg") -> Optional[str]:
        if arg.position >= 0:
            index = arg.position
            if callee.is_method:
                index += 1  # account for self/cls
            if index < callee.n_positional and index < len(callee.params):
                name = callee.params[index]
                return None if name in ("self", "cls") else name
            return None  # lands in *args (or is out of range)
        if arg.keyword in callee.params:
            return arg.keyword
        return None  # absorbed by **kwargs, or a signature mismatch

    @staticmethod
    def _mismatch_message(
        display: str, arg_suffix: str, param: str, param_suffix: str, callee: str
    ) -> str:
        arg_dim = UNIT_DIMENSIONS[arg_suffix]
        param_dim = UNIT_DIMENSIONS[param_suffix]
        if arg_dim != param_dim:
            return (
                f"passes {display!r} ({arg_dim}, '{arg_suffix}') to "
                f"parameter {param!r} ({param_dim}, '{param_suffix}') of "
                f"{callee}(); convert through repro.units first"
            )
        return (
            f"passes {display!r} (unit '{arg_suffix}') to parameter "
            f"{param!r} (unit '{param_suffix}') of {callee}(); same "
            f"dimension but a different scale — convert through "
            f"repro.units first"
        )




# ---------------------------------------------------------------------------
# RPL009 — dead private functions
# ---------------------------------------------------------------------------
@rule
class DeadPrivateRule(ProjectRule):
    """Top-level private functions must be referenced somewhere."""

    id = "RPL009"
    name = "dead-private"
    rationale = (
        "A top-level _private function that nothing references any "
        "more is dead code that still reads as a contract: nothing "
        "imports it, so no test or type check fails on it.  Only the "
        "whole analyzed tree can show that no module, test or "
        "benchmark names it.  A name listed in __all__ counts as "
        "referenced, and decorated functions are skipped (registries "
        "reach them)."
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        referenced: Set[str] = set()
        for summary in graph.by_path.values():
            referenced.update(summary.all_refs)
        for module_name in sorted(graph.modules):
            summary = graph.modules[module_name]
            for name, kind in sorted(summary.symbols.items()):
                if kind != "function":
                    continue
                if not name.startswith("_") or name.startswith("__"):
                    continue
                function = graph.function_at(module_name, name)
                if function is None or function.decorated:
                    continue
                if name in referenced:
                    continue
                yield from self.project_finding(
                    graph,
                    summary.path,
                    function.lineno,
                    1,
                    f"private function {name!r} is never referenced "
                    f"anywhere in the analyzed tree; delete it or wire "
                    f"it back in",
                )
