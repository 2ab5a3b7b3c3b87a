"""Tests for repro.analysis: the reprolint engine and the RPL rules.

Every rule is exercised against fixture files under
``tests/data/reprolint_fixtures/`` (a clean and a violating variant),
suppression comments are covered at line, next-line and file scope,
and the end-to-end test asserts the shipped ``src/repro`` tree is
clean at HEAD — the CI contract.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import Analyzer, AnalyzerConfig, ModuleContext, REGISTRY
from repro.analysis import cli, core
from repro.analysis.rules import UNIT_DIMENSIONS, unit_dimension
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "data" / "reprolint_fixtures"
REPO_ROOT = Path(__file__).parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def run_fixture(name: str, **config) -> list:
    analyzer = Analyzer(AnalyzerConfig(**config)) if config else Analyzer()
    return analyzer.check_paths([FIXTURES / name])


class TestRegistry:
    def test_all_six_rules_registered(self):
        # Retired ids stay unused: RPL003 (the wire-format guard), and
        # RPL005 and RPL006, whose edits fail tier-1 tests instead.
        assert sorted(REGISTRY) == [
            "RPL001",
            "RPL002",
            "RPL004",
            "RPL007",
            "RPL008",
            "RPL009",
        ]

    def test_every_rule_documents_itself(self):
        for cls in REGISTRY.values():
            assert cls.name
            assert len(cls.rationale) > 40

    def test_unknown_select_rejected(self):
        with pytest.raises(ConfigurationError, match="select"):
            Analyzer(AnalyzerConfig(select=("RPL999",)))

    def test_select_runs_subset(self):
        analyzer = Analyzer(AnalyzerConfig(select=("RPL002",)))
        assert [r.id for r in analyzer.rules] == ["RPL002"]


class TestRPL001Units:
    def test_clean_fixture(self):
        assert run_fixture("rpl001_clean.py") == []

    def test_violations(self):
        findings = run_fixture("rpl001_violations.py")
        assert [f.rule for f in findings] == ["RPL001"] * 5
        messages = "\n".join(f.message for f in findings)
        assert "mass ('mass_g') with power ('power_w')" in messages
        assert "length ('range_m') with time ('time_s')" in messages
        assert "comparison mixes rate" in messages
        assert "assignment mixes mass" in messages

    def test_trailing_suppression_respected(self):
        findings = run_fixture("rpl001_violations.py")
        # suppressed_mix's line carries a disable comment: not reported.
        assert all("suppressed" not in f.message for f in findings)
        lines = (FIXTURES / "rpl001_violations.py").read_text().splitlines()
        suppressed_line = next(
            i for i, line in enumerate(lines, 1) if "disable=RPL001" in line
        )
        assert all(f.line != suppressed_line for f in findings)

    def test_dimension_table_matches_units_converters(self):
        """UNIT_DIMENSIONS agrees with the repro.units conversion table.

        Every single-argument ``a_to_b`` converter in units.py converts
        *within* one dimension group (grams→kg, ms→s, deg→rad, ...);
        multi-argument converters (mah_to_wh needs a voltage) cross
        groups by design and are exempt.
        """
        word_to_suffix = {
            "grams": "g",
            "kg": "kg",
            "ms": "ms",
            "s": "s",
            "deg": "deg",
            "rad": "rad",
            "wh": "wh",
            "joules": "j",
            "mah": "mah",
            "hz": "hz",
        }
        units_source = (SRC_REPRO / "units.py").read_text()
        tree = ast.parse(units_source)
        checked = 0
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or "_to_" not in node.name:
                continue
            if len(node.args.args) != 1:
                continue  # cross-dimension by design (needs a second arg)
            left, _, right = node.name.partition("_to_")
            left_suffix = word_to_suffix.get(left)
            right_suffix = word_to_suffix.get(right)
            if left_suffix is None or right_suffix is None:
                continue  # e.g. hz_to_period: "period" is not a suffix
            assert (
                UNIT_DIMENSIONS[left_suffix] == UNIT_DIMENSIONS[right_suffix]
            ), f"converter {node.name} crosses dimension groups"
            checked += 1
        assert checked >= 4  # grams↔kg, ms→s, deg↔rad, wh→joules

    def test_unit_dimension_helper(self):
        assert unit_dimension("total_mass_g") == "mass"
        assert unit_dimension("f_compute_hz") == "rate"
        assert unit_dimension("nosuffix") is None
        assert unit_dimension("weird_zzz") is None


class TestRPL002Errors:
    def test_clean_fixture(self):
        assert run_fixture("rpl002_clean.py") == []

    def test_violations(self):
        findings = run_fixture("rpl002_violations.py")
        assert [f.rule for f in findings] == ["RPL002"] * 4
        named = {f.message.split(";")[0] for f in findings}
        assert named == {
            "raises bare ValueError",
            "raises bare TypeError",
            "raises bare RuntimeError",
            "raises bare Exception",
        }

    def test_preceding_line_suppression(self):
        # The suppressed() raise sits under a standalone disable comment.
        findings = run_fixture("rpl002_violations.py")
        assert all("tolerated" not in f.message for f in findings)

    def test_file_level_suppression(self):
        assert run_fixture("suppression_file.py") == []


class TestRPL004Purity:
    CONFIG = {"purity_modules": ("rpl004_violations.py",)}

    def test_violations(self):
        findings = run_fixture("rpl004_violations.py", **self.CONFIG)
        assert [f.rule for f in findings] == ["RPL004"] * 4
        messages = "\n".join(f.message for f in findings)
        assert "statement-level loop" in messages
        assert "writes into parameter 'out'" in messages
        assert "in-place sort() on parameter 'column'" in messages

    def test_out_of_scope_module_ignored(self):
        # Without the module in purity scope, the same file is clean.
        assert run_fixture("rpl004_violations.py") == []

    def test_shipped_hot_paths_carry_no_suppression(self):
        # Neither hot path needs the escape hatch: both are clean
        # under RPL004 as written.
        for name in ("assembly.py", "kernels.py"):
            source = (SRC_REPRO / "batch" / name).read_text()
            assert "reprolint" not in source, name


class TestEngine:
    def test_missing_path_rejected(self):
        with pytest.raises(ConfigurationError, match="does not exist"):
            Analyzer().check_paths(["/no/such/tree"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = Analyzer().check_paths([bad])
        assert len(findings) == 1
        assert findings[0].rule == "RPL000"
        assert "syntax error" in findings[0].message

    def test_findings_sort_stably(self):
        findings = run_fixture("rpl002_violations.py")
        assert findings == sorted(findings)

    def test_finding_format_is_clickable(self):
        finding = run_fixture("rpl002_violations.py")[0]
        path, line, col, rest = finding.format().split(":", 3)
        assert path.endswith("rpl002_violations.py")
        assert int(line) > 0 and int(col) > 0
        assert rest.strip().startswith("RPL002")


_MIXED_UNITS = "def f(mass_g, power_w):\n    return mass_g + power_w{tail}\n"


class TestSuppressionScan:
    def test_tokenizer_runs_only_on_sources_naming_reprolint(
        self, monkeypatch
    ):
        calls = []
        real = core.tokenize.generate_tokens

        def counting(readline):
            calls.append(readline)
            return real(readline)

        monkeypatch.setattr(core.tokenize, "generate_tokens", counting)
        plain = _MIXED_UNITS.format(tail="  # units are mixed on purpose")
        ModuleContext(Path("plain.py"), plain)
        assert calls == []
        assert [f.rule for f in Analyzer().check_source(plain)] == ["RPL001"]
        marked = _MIXED_UNITS.format(tail="  # reprolint: disable=RPL001")
        module = ModuleContext(Path("marked.py"), marked)
        assert len(calls) == 1
        assert module.is_suppressed(2, "RPL001")

    def test_marker_outside_a_comment_suppresses_nothing(self):
        source = 'NOTE = "# reprolint: disable-file"\n\n\n' + (
            _MIXED_UNITS.format(tail="")
        )
        findings = Analyzer().check_source(source)
        assert [f.rule for f in findings] == ["RPL001"]

    @pytest.mark.parametrize(
        "source, expected",
        [
            (_MIXED_UNITS.format(tail="  # reprolint: disable=RPL001"), []),
            (
                "def f(mass_g, power_w):\n"
                "    # reprolint: disable=RPL001\n"
                "    return mass_g + power_w\n",
                [],
            ),
            (
                "# reprolint: disable-file=RPL001\n"
                + _MIXED_UNITS.format(tail=""),
                [],
            ),
            (_MIXED_UNITS.format(tail="  # reprolint: disable"), []),
            (
                _MIXED_UNITS.format(tail="  # reprolint: disable=RPL002"),
                ["RPL001"],
            ),
        ],
        ids=["trailing", "standalone", "file", "bare", "other-rule"],
    )
    def test_suppression_forms(self, source, expected):
        findings = Analyzer().check_source(source)
        assert [f.rule for f in findings] == expected

    def test_nodes_is_one_walk_of_the_tree(self):
        path = FIXTURES / "rpl004_violations.py"
        module = ModuleContext(path, path.read_text(encoding="utf-8"))
        walked = list(ast.walk(module.tree))
        assert len(module.nodes) == len(walked) > 1
        assert all(a is b for a, b in zip(module.nodes, walked))


class TestEndToEnd:
    def test_src_repro_is_clean_at_head(self):
        """The acceptance criterion: all six rules pass on the tree."""
        analyzer = Analyzer()
        findings = analyzer.check_paths([SRC_REPRO])
        assert findings == [], "\n".join(f.format() for f in findings)
        assert len(analyzer.rules) == 6

    def test_src_tests_and_benchmarks_are_clean(self):
        """The CI contract for the wider tree: no findings, no baseline."""
        analyzer = Analyzer(
            AnalyzerConfig(exclude=("tests/data/reprolint_fixtures",))
        )
        findings = analyzer.check_paths(
            [SRC_REPRO, REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
        )
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exit_codes(self, capsys):
        assert cli.main([str(FIXTURES / "rpl001_clean.py")]) == 0
        assert cli.main([str(FIXTURES / "rpl002_violations.py")]) == 1
        capsys.readouterr()

    def test_cli_json_report(self, capsys):
        exit_code = cli.main(
            ["--json", str(FIXTURES / "rpl002_violations.py")]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert report["version"] == 2
        assert set(report) == {"version", "files_checked", "findings", "rules"}
        assert report["files_checked"] == 1
        assert {f["rule"] for f in report["findings"]} == {"RPL002"}
        assert set(report["rules"]) == set(REGISTRY)

    def test_cli_select(self, capsys):
        exit_code = cli.main(
            [
                "--select",
                "RPL001",
                str(FIXTURES / "rpl002_violations.py"),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0  # RPL002 findings not selected

    def test_cli_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in REGISTRY:
            assert rule_id in out

    def test_cli_unknown_rule_is_usage_error(self, capsys):
        exit_code = cli.main(["--select", "RPL999", str(FIXTURES)])
        assert exit_code == 2
        assert "unknown rule" in capsys.readouterr().err
