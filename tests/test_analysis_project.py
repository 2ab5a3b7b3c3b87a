"""Tests for reprolint v2: ProjectGraph, RPL007-009, cache, SARIF.

Covers the whole-program layer added on top of the per-file engine:

* :mod:`repro.analysis.graph` — module naming, import resolution
  (absolute, relative, re-export chains, cycles), summaries and their
  JSON round-trip, worker-entry resolution and call-graph reachability;
* the three interprocedural rules against their fixture mini-projects,
  including the PR-4 ``DEFAULT_CACHE`` fork-inheritance reproduction;
* the incremental cache — warm runs analyze nothing, an edit
  re-analyzes only the edited file (and a file whose module name
  changed), a cached rerun on an unchanged tree is at least 5x faster
  than a cold run, and a damaged entry is a miss;
* the SARIF exporter;
* analyzer edge inputs: syntax errors, empty files, non-UTF-8 source;
* the new CLI flags.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis import (
    AnalysisCache,
    Analyzer,
    AnalyzerConfig,
    ModuleContext,
    ProjectGraph,
    extract_summary,
)
from repro.analysis import cli
from repro.analysis import sarif as sariflib
from repro.analysis.cache import compute_config_key
from repro.analysis.core import Finding
from repro.analysis.graph import SUMMARY_VERSION, ModuleSummary, module_name_for
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "data" / "reprolint_fixtures"
REPO_ROOT = Path(__file__).parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def write_tree(root: Path, files: Dict[str, str]) -> List[Path]:
    paths = []
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        paths.append(path)
    return paths


def build_graph(root: Path, files: Dict[str, str]) -> ProjectGraph:
    summaries = []
    for path in write_tree(root, files):
        module = ModuleContext(path, path.read_text(encoding="utf-8"))
        summaries.append(
            extract_summary(module, module_name_for(path), "deadbeef")
        )
    return ProjectGraph(summaries)


def rules_of(findings) -> List[str]:
    return sorted({finding.rule for finding in findings})


# ---------------------------------------------------------------------------
# module naming + graph resolution
# ---------------------------------------------------------------------------
class TestModuleNaming:
    def test_package_chain(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "",
            },
        )
        assert module_name_for(tmp_path / "pkg" / "sub" / "mod.py") == (
            "pkg.sub.mod"
        )
        assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == (
            "pkg.sub"
        )

    def test_standalone_file_is_its_stem(self, tmp_path):
        path = tmp_path / "script.py"
        path.write_text("", encoding="utf-8")
        assert module_name_for(path) == "script"

    def test_src_repro_modules(self):
        assert module_name_for(SRC_REPRO / "units.py") == "repro.units"
        assert module_name_for(SRC_REPRO / "__init__.py") == "repro"


class TestProjectGraph:
    def test_resolves_through_reexport_chain(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "from .impl import work\n",
                "pkg/impl.py": "def work():\n    return 1\n",
                "pkg/user.py": (
                    "from . import work\n\n"
                    "def go():\n    return work()\n"
                ),
            },
        )
        resolved = graph.resolve_name("pkg.user", "work")
        assert resolved == ("symbol", "pkg.impl", "work")
        assert graph.resolve_function("pkg.user", "work") is not None

    def test_resolves_relative_imports_two_levels_up(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/core.py": "VALUE = 3\n",
                "pkg/deep/__init__.py": "",
                "pkg/deep/leaf.py": "from ..core import VALUE\n",
            },
        )
        assert graph.resolve_name("pkg.deep.leaf", "VALUE") == (
            "symbol",
            "pkg.core",
            "VALUE",
        )

    def test_import_cycle_resolution_terminates(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                # a re-exports from b, b re-exports the same name from
                # a: a true resolution cycle with no definition.
                "pkg/a.py": "from .b import ghost\n",
                "pkg/b.py": "from .a import ghost\n",
            },
        )
        assert graph.resolve_name("pkg.a", "ghost") is None
        assert graph.resolve_name("pkg.b", "ghost") is None

    def test_worker_entries_and_reachability(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/work.py": (
                    "def leaf():\n    return 1\n\n"
                    "def entry():\n    return leaf()\n"
                ),
                "pkg/pool.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "from .work import entry\n\n"
                    "def fan_out():\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return pool.submit(entry).result()\n"
                ),
            },
        )
        entries = graph.worker_entries("submit")
        assert [key for key, _, _ in entries] == [("pkg.work", "entry")]
        reached = graph.reachable_from([key for key, _, _ in entries])
        assert ("pkg.work", "leaf") in reached
        chain = graph.witness_chain(reached, ("pkg.work", "leaf"))
        assert chain == ["entry", "leaf"]

    def test_summary_json_round_trip(self):
        source = (FIXTURES / "rpl007_violations.py").read_text(
            encoding="utf-8"
        )
        module = ModuleContext(FIXTURES / "rpl007_violations.py", source)
        summary = extract_summary(module, "rpl007_violations", "abc123")
        rebuilt = ModuleSummary.from_dict(summary.to_dict())
        assert rebuilt == summary

    def test_stale_summary_version_rejected(self):
        source = "X = 1\n"
        module = ModuleContext(Path("m.py"), source)
        summary = extract_summary(module, "m", "abc")
        document = summary.to_dict()
        document["version"] = -1
        assert ModuleSummary.from_dict(document) is None


# ---------------------------------------------------------------------------
# RPL007 — worker-state safety
# ---------------------------------------------------------------------------
class TestRPL007:
    def test_default_cache_bug_project_is_flagged(self):
        findings = Analyzer().check_paths([FIXTURES / "proj_rpl007_bad"])
        assert rules_of(findings) == ["RPL007"]
        (finding,) = findings
        assert "DEFAULT_CACHE" in finding.message
        assert finding.path.endswith("engine.py")
        assert "_evaluate_shard -> evaluate_matrix" in finding.message
        assert "fork-safe" in finding.message

    def test_initializer_reset_project_is_clean(self):
        findings = Analyzer().check_paths([FIXTURES / "proj_rpl007_clean"])
        assert findings == []

    def test_single_file_violation_and_escapes(self):
        bad = Analyzer().check_file(FIXTURES / "rpl007_violations.py")
        assert rules_of(bad) == ["RPL007"]
        assert "RESULT_CACHE" in bad[0].message
        clean = Analyzer().check_file(FIXTURES / "rpl007_clean.py")
        assert clean == []

    def test_lock_guarded_mutations_are_safe(self, tmp_path):
        findings = Analyzer().check_paths(
            [
                write_tree(
                    tmp_path,
                    {
                        "mod.py": (
                            "import threading\n"
                            "from concurrent.futures import "
                            "ProcessPoolExecutor\n\n"
                            "STATE = {}\n"
                            "_LOCK = threading.Lock()\n\n\n"
                            "def record(key, value):\n"
                            "    with _LOCK:\n"
                            "        STATE[key] = value\n\n\n"
                            "def worker(rows):\n"
                            "    return [STATE.get(str(r)) for r in rows]\n\n\n"
                            "def fan_out(shards):\n"
                            "    with ProcessPoolExecutor() as pool:\n"
                            "        return [pool.submit(worker, s) "
                            "for s in shards]\n"
                        )
                    },
                )[0]
            ]
        )
        assert findings == []

    def test_unlocked_variant_of_same_module_is_flagged(self, tmp_path):
        findings = Analyzer().check_paths(
            [
                write_tree(
                    tmp_path,
                    {
                        "mod.py": (
                            "from concurrent.futures import "
                            "ProcessPoolExecutor\n\n"
                            "STATE = {}\n\n\n"
                            "def record(key, value):\n"
                            "    STATE[key] = value\n\n\n"
                            "def worker(rows):\n"
                            "    return [STATE.get(str(r)) for r in rows]\n\n\n"
                            "def fan_out(shards):\n"
                            "    with ProcessPoolExecutor() as pool:\n"
                            "        return [pool.submit(worker, s) "
                            "for s in shards]\n"
                        )
                    },
                )[0]
            ]
        )
        assert rules_of(findings) == ["RPL007"]

    def test_suppression_comment_silences_rpl007(self, tmp_path):
        source = (FIXTURES / "rpl007_violations.py").read_text(
            encoding="utf-8"
        )
        source = source.replace(
            "RESULT_CACHE = {}",
            "RESULT_CACHE = {}  # reprolint: disable=RPL007",
        )
        path = tmp_path / "suppressed.py"
        path.write_text(source, encoding="utf-8")
        assert Analyzer().check_paths([path]) == []


# ---------------------------------------------------------------------------
# RPL008 — units-flow
# ---------------------------------------------------------------------------
class TestRPL008:
    def test_cross_module_ms_into_s_is_flagged(self):
        findings = Analyzer().check_paths([FIXTURES / "proj_rpl008"])
        assert rules_of(findings) == ["RPL008"]
        assert len(findings) == 3
        assert all(f.path.endswith("flight.py") for f in findings)
        positional, keyword, returned = findings
        assert "frame_time_ms" in positional.message
        assert "'dt_s'" in positional.message
        assert "total_time_s" in keyword.message
        assert "'frame_ms'" in returned.message

    def test_single_file_variants(self):
        findings = Analyzer().check_file(FIXTURES / "rpl008_violations.py")
        assert rules_of(findings) == ["RPL008"]
        messages = "\n".join(f.message for f in findings)
        assert "scale" in messages  # _s into _ms
        assert "energy" in messages  # cross-dimension positional
        assert "power" in messages  # cross-dimension keyword
        assert "payload_kg" in messages  # return-flow
        assert len(findings) == 4

    def test_matching_suffixes_and_splats_are_clean(self, tmp_path):
        findings = Analyzer().check_paths(
            [
                write_tree(
                    tmp_path,
                    {
                        "mod.py": (
                            "def hold(duration_s):\n"
                            "    return duration_s\n\n\n"
                            "def ok(hover_s, args):\n"
                            "    hold(hover_s)\n"
                            "    hold(*args)\n"
                            "    return hold(duration_s=hover_s)\n"
                        )
                    },
                )[0]
            ]
        )
        assert findings == []

    def test_decorated_callee_is_skipped(self, tmp_path):
        findings = Analyzer().check_paths(
            [
                write_tree(
                    tmp_path,
                    {
                        "mod.py": (
                            "import functools\n\n\n"
                            "@functools.lru_cache\n"
                            "def hold(duration_s):\n"
                            "    return duration_s\n\n\n"
                            "def use(wait_ms):\n"
                            "    return hold(wait_ms)\n"
                        )
                    },
                )[0]
            ]
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RPL009 — dead private functions
# ---------------------------------------------------------------------------
class TestRPL009:
    def test_project_fixture_flags_the_dead_private(self):
        findings = Analyzer().check_paths([FIXTURES / "proj_rpl009"])
        assert rules_of(findings) == ["RPL009"]
        (finding,) = findings
        assert "_stale_normalizer" in finding.message
        assert finding.path.endswith("core.py")

    def test_single_file_fixture(self):
        findings = Analyzer().check_file(FIXTURES / "rpl009_violations.py")
        assert rules_of(findings) == ["RPL009"]
        (finding,) = findings
        assert "_forgotten_helper" in finding.message
        assert finding.line == 10

    def test_private_listed_in_all_counts_as_referenced(self, tmp_path):
        # Literal entries count even when __all__ also splices names in.
        path = tmp_path / "mod.py"
        path.write_text(
            "__all__ = ['_exported', *EXTRA]\n\n\n"
            "def _exported():\n    return 1\n",
            encoding="utf-8",
        )
        assert Analyzer().check_paths([path]) == []


# ---------------------------------------------------------------------------
# edge inputs
# ---------------------------------------------------------------------------
class TestEdgeInputs:
    def test_syntax_error_yields_rpl000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        findings = Analyzer().check_paths([path])
        assert rules_of(findings) == ["RPL000"]
        assert "syntax error" in findings[0].message

    def test_empty_file_is_clean(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("", encoding="utf-8")
        assert Analyzer().check_paths([path]) == []

    def test_non_utf8_source_yields_rpl000(self, tmp_path):
        path = tmp_path / "latin.py"
        path.write_bytes(b"# caf\xe9\nX = 1\n")
        findings = Analyzer().check_paths([path])
        assert rules_of(findings) == ["RPL000"]
        assert "not valid UTF-8" in findings[0].message
        findings_via_file = Analyzer().check_file(path)
        assert rules_of(findings_via_file) == ["RPL000"]

    def test_broken_file_does_not_poison_the_project_pass(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/good.py": "def fine():\n    return 1\n",
                "pkg/bad.py": "def broken(:\n",
            },
        )
        findings = Analyzer().check_paths([tmp_path / "pkg"])
        assert rules_of(findings) == ["RPL000"]

    def test_missing_path_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            Analyzer().check_paths(["no/such/tree"])

    def test_exclude_patterns_prune_directory_walks(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/ok.py": "",
                "pkg/vendored/awful.py": "def broken(:\n",
            },
        )
        analyzer = Analyzer(AnalyzerConfig(exclude=("pkg/vendored",)))
        assert analyzer.check_paths([tmp_path / "pkg"]) == []
        assert analyzer.last_stats.files_checked == 2


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------
def _chain_tree(n_modules: int, lines_per_module: int = 30) -> Dict[str, str]:
    """A pkg of n chained modules: mod_i imports mod_{i-1}."""
    files = {"bigpkg/__init__.py": ""}
    for index in range(n_modules):
        body = []
        if index:
            body.append(f"from .mod_{index - 1} import hop_{index - 1}")
            body.append("")
        for line in range(lines_per_module):
            body.append(f"def fn_{line}_{index}(value_s):")
            body.append(f"    return value_s + {line}")
            body.append("")
        body.append(f"def hop_{index}(value_s):")
        if index:
            body.append(f"    return hop_{index - 1}(value_s) + 1")
        else:
            body.append("    return value_s")
        body.append("")
        files[f"bigpkg/mod_{index}.py"] = "\n".join(body)
    return files


class TestIncrementalCache:
    def _cache(self, tmp_path) -> AnalysisCache:
        return AnalysisCache(tmp_path / "cache.json", "test-key")

    def test_warm_run_analyzes_nothing_and_matches_cold(self, tmp_path):
        write_tree(tmp_path, _chain_tree(6))
        target = tmp_path / "bigpkg"
        analyzer = Analyzer()
        cold = analyzer.check_paths([target], cache=self._cache(tmp_path))
        assert analyzer.last_stats.analyzed == 7
        warm = analyzer.check_paths([target], cache=self._cache(tmp_path))
        assert analyzer.last_stats.analyzed == 0
        assert analyzer.last_stats.cached == 7
        assert warm == cold

    def test_edit_reanalyzes_only_the_edited_file(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/c.py": "def hold(wait_s):\n    return wait_s\n",
                "pkg/b.py": "from .c import hold\n\n\ndef f_b(dt_s):\n    return hold(dt_s)\n",
                "pkg/a.py": "from .b import f_b\n\n\ndef f_a():\n    return f_b(1)\n",
                "pkg/island.py": "def lonely():\n    return 0\n",
            },
        )
        target = tmp_path / "pkg"
        analyzer = Analyzer()
        assert analyzer.check_paths([target], cache=self._cache(tmp_path)) == []
        # Edit the chain's leaf: only c re-analyzes, yet the project
        # rules still see the new signature from b's cached summary.
        leaf = tmp_path / "pkg" / "c.py"
        leaf.write_text(
            "def hold(wait_ms):\n    return wait_ms\n", encoding="utf-8"
        )
        findings = analyzer.check_paths([target], cache=self._cache(tmp_path))
        assert analyzer.last_stats.analyzed == 1
        assert analyzer.last_stats.cached == 4
        (finding,) = findings
        assert finding.rule == "RPL008" and finding.path.endswith("b.py")
        assert findings == analyzer.check_paths([target])

    def test_module_rename_reanalyzes_the_renamed_files(self, tmp_path):
        # A new __init__.py above a file renames its module (lib.util
        # -> pkg.lib.util) without touching its bytes, so its cached
        # summary is stale; reusing it would misname the callee below.
        write_tree(
            tmp_path,
            {
                "pkg/lib/__init__.py": "",
                "pkg/lib/util.py": "def hold(wait_s):\n    return wait_s\n",
                "pkg/user.py": (
                    "from .lib.util import hold\n\n\n"
                    "def use(dt_ms):\n    return hold(dt_ms)\n"
                ),
            },
        )
        target = tmp_path / "pkg"
        analyzer = Analyzer()
        (before,) = analyzer.check_paths([target], cache=self._cache(tmp_path))
        assert "of lib.util.hold()" in before.message
        (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
        (after,) = analyzer.check_paths([target], cache=self._cache(tmp_path))
        assert analyzer.last_stats.analyzed == 4  # three renamed, one new
        assert "of pkg.lib.util.hold()" in after.message
        assert [after] == analyzer.check_paths([target])

    def test_unchanged_tree_rerun_is_5x_faster(self, tmp_path):
        write_tree(tmp_path, _chain_tree(40))
        target = tmp_path / "bigpkg"
        analyzer = Analyzer()

        start = time.perf_counter()
        cold = analyzer.check_paths([target], cache=self._cache(tmp_path))
        cold_s = time.perf_counter() - start
        assert analyzer.last_stats.analyzed == 41

        warm_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            warm = analyzer.check_paths(
                [target], cache=self._cache(tmp_path)
            )
            warm_s = min(warm_s, time.perf_counter() - start)
        assert analyzer.last_stats.analyzed == 0
        assert warm == cold
        assert cold_s >= 5 * warm_s, (
            f"cold {cold_s:.3f}s vs warm {warm_s:.3f}s — cache speedup "
            f"below the 5x floor"
        )

    def test_cached_findings_survive_round_trip(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            "def f(mass_g, power_w):\n    return mass_g + power_w\n",
            encoding="utf-8",
        )
        analyzer = Analyzer()
        cold = analyzer.check_paths([path], cache=self._cache(tmp_path))
        warm = analyzer.check_paths([path], cache=self._cache(tmp_path))
        assert analyzer.last_stats.analyzed == 0
        assert warm == cold
        assert rules_of(warm) == ["RPL001"]

    def test_cached_run_names_files_as_this_run_spells_them(
        self, tmp_path, monkeypatch
    ):
        # Entries are keyed on the resolved path, so a run given the
        # absolute path reuses what a relative-path run stored; its
        # module and project findings must still name the absolute path.
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/m.py": (
                "def _unused():\n    return 1\n\n\n"
                "def f(mass_g, power_w):\n    return mass_g + power_w\n"
            ),
        })
        monkeypatch.chdir(tmp_path)
        analyzer = Analyzer()
        relative = analyzer.check_paths([Path("pkg")], cache=self._cache(tmp_path))
        absolute = analyzer.check_paths(
            [tmp_path / "pkg"], cache=self._cache(tmp_path)
        )
        assert analyzer.last_stats.analyzed == 0
        assert {finding.path for finding in relative} == {"pkg/m.py"}
        assert rules_of(absolute) == ["RPL001", "RPL009"]
        assert absolute == Analyzer().check_paths([tmp_path / "pkg"])

    def test_config_key_mismatch_drops_entries(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": "X = 1\n"})
        target = tmp_path / "pkg"
        analyzer = Analyzer()
        analyzer.check_paths(
            [target], cache=AnalysisCache(tmp_path / "c.json", "key-one")
        )
        analyzer.check_paths(
            [target], cache=AnalysisCache(tmp_path / "c.json", "key-two")
        )
        assert analyzer.last_stats.analyzed == 2

    def test_corrupt_cache_file_starts_cold(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json", encoding="utf-8")
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": "X = 1\n"})
        analyzer = Analyzer()
        analyzer.check_paths(
            [tmp_path / "pkg"], cache=AnalysisCache(cache_path, "k")
        )
        assert analyzer.last_stats.analyzed == 2
        # and the bad file was replaced by a valid one
        assert json.loads(cache_path.read_text(encoding="utf-8"))

    def _rerun_with_damaged_entry(self, tmp_path, damage) -> None:
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": "X = 1\n"})
        target = tmp_path / "pkg"
        analyzer = Analyzer()
        cold = analyzer.check_paths([target], cache=self._cache(tmp_path))
        cache_path = tmp_path / "cache.json"
        document = json.loads(cache_path.read_text(encoding="utf-8"))
        key = (target / "m.py").resolve().as_posix()
        document["entries"][key] = damage(document["entries"][key])
        cache_path.write_text(json.dumps(document), encoding="utf-8")
        warm = analyzer.check_paths([target], cache=self._cache(tmp_path))
        assert warm == cold
        assert analyzer.last_stats.analyzed == 1  # only the damaged entry

    def test_entry_with_a_truncated_summary_is_a_miss(self, tmp_path):
        # Regression: a summary missing its fields raised KeyError out of
        # the CLI.
        self._rerun_with_damaged_entry(
            tmp_path, lambda entry: dict(entry, summary={"version": SUMMARY_VERSION})
        )

    def test_entry_that_is_not_a_mapping_is_a_miss(self, tmp_path):
        # Regression: raised AttributeError ('str' has no 'get').
        self._rerun_with_damaged_entry(tmp_path, lambda entry: "not an entry")

    def test_compute_config_key_tracks_select(self):
        base = compute_config_key(AnalyzerConfig())
        assert base == compute_config_key(AnalyzerConfig())
        assert base != compute_config_key(
            AnalyzerConfig(select=("RPL001",))
        )


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------
def _finding(path: str, rule: str, line: int = 1) -> Finding:
    return Finding(path=path, line=line, col=1, rule=rule, message="msg")


class TestSarif:
    def test_document_structure(self, tmp_path):
        findings = [
            _finding(str(tmp_path / "a.py"), "RPL002", line=4),
            _finding(str(tmp_path / "b.py"), "RPL001", line=7),
        ]
        document = sariflib.to_sarif(findings, tmp_path)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids[0] == "RPL000"
        assert "RPL007" in rule_ids and "RPL009" in rule_ids
        results = run["results"]
        assert len(results) == 2
        by_rule = {r["ruleId"]: r for r in results}
        assert all("suppressions" not in result for result in results)
        location = by_rule["RPL002"]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "a.py"
        assert location["region"]["startLine"] == 4

    def test_write_sarif(self, tmp_path):
        out = tmp_path / "report.sarif"
        sariflib.write_sarif(out, [], tmp_path)
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestProjectCli:
    def test_empty_select_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--select", ",", str(FIXTURES / "rpl001_clean.py")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "names no rules" in err
        assert "RPL009" in err  # the known-rules list includes new ids

    def test_stats_flag_reports_cache_usage(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": "X = 1\n"})
        argv = [
            str(tmp_path / "pkg"),
            "--cache",
            str(tmp_path / "cache.json"),
            "--stats",
        ]
        assert cli.main(argv) == 0
        assert "2 file(s) analyzed, 0 from cache" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert "0 file(s) analyzed, 2 from cache" in capsys.readouterr().err

    def test_no_cache_forces_cold_runs(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": "X = 1\n"})
        argv = [str(tmp_path / "pkg"), "--no-cache", "--stats"]
        cli.main(argv)
        cli.main(argv)
        assert "2 file(s) analyzed, 0 from cache" in capsys.readouterr().err

    def test_sarif_flag_writes_report(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "def f():\n    raise ValueError('nope')\n", encoding="utf-8"
        )
        out = tmp_path / "report.sarif"
        assert (
            cli.main([str(dirty), "--no-cache", "--sarif", str(out)]) == 1
        )
        capsys.readouterr()
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["runs"][0]["results"][0]["ruleId"] == "RPL002"

    @pytest.mark.parametrize("first", ["relative", "absolute"])
    @pytest.mark.parametrize("output", ["text", "json", "sarif"])
    def test_cached_report_names_files_as_this_run_spells_them(
        self, tmp_path, monkeypatch, capsys, output, first
    ):
        # A warm run given the other spelling of the tree reports what
        # a cold run with that spelling reports, in every output format.
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/m.py": (
                "def _unused():\n    return 1\n\n\n"
                "def f(mass_g, power_w):\n    return mass_g + power_w\n"
            ),
        })
        monkeypatch.chdir(tmp_path)
        spelling = {"relative": "pkg", "absolute": str(tmp_path / "pkg")}
        second = "absolute" if first == "relative" else "relative"
        sarif = tmp_path / "report.sarif"
        flags = {
            "text": [],
            "json": ["--json"],
            "sarif": ["--sarif", str(sarif)],
        }[output]

        def report(*argv):
            assert cli.main([*argv, *flags, "--stats"]) == 1
            captured = capsys.readouterr()
            if output == "json":
                body = json.loads(captured.out)["findings"]
            elif output == "sarif":
                body = json.loads(sarif.read_text(encoding="utf-8"))
            else:
                body = captured.out
            return body, captured.err

        cache = ("--cache", str(tmp_path / "cache.json"))
        report(spelling[first], *cache)
        warm, err = report(spelling[second], *cache)
        assert "0 file(s) analyzed, 2 from cache" in err
        cold, _ = report(spelling[second], "--no-cache")
        assert warm == cold

    def test_json_report_includes_stats(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n", encoding="utf-8")
        assert cli.main([str(clean), "--no-cache", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stats"]["files_checked"] == 1

    @pytest.mark.parametrize(
        "name",
        ["no-such-dir/x.sarif", "."],
        ids=["sarif-into-missing-dir", "sarif-is-a-directory"],
    )
    def test_unusable_path_is_usage_error(self, tmp_path, capsys, name):
        # Regression: an unwritable --sarif path raised with a traceback
        # (exit 1).
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n", encoding="utf-8")
        path = str(tmp_path / name)
        assert cli.main([str(clean), "--no-cache", "--sarif", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and path in captured.err

    def test_exclude_flag(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/vendored/bad.py": "def broken(:\n",
            },
        )
        argv = [
            str(tmp_path / "pkg"),
            "--no-cache",
            "--exclude",
            "pkg/vendored",
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
