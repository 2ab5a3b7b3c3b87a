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

from repro.analysis import Analyzer, AnalyzerConfig, REGISTRY
from repro.analysis import cli, wire
from repro.analysis.rules import UNIT_DIMENSIONS, unit_dimension
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "data" / "reprolint_fixtures"
REPO_ROOT = Path(__file__).parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
SNAPSHOT = REPO_ROOT / "tests" / "data" / "wire_fingerprints.json"


def run_fixture(name: str, **config) -> list:
    analyzer = Analyzer(AnalyzerConfig(**config)) if config else Analyzer()
    return analyzer.check_file(FIXTURES / name)


class TestRegistry:
    def test_all_nine_rules_registered(self):
        assert sorted(REGISTRY) == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
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


class TestRPL003WireGuard:
    def _snapshot_for(self, fixture: str, tmp_path: Path) -> Path:
        source = (FIXTURES / fixture).read_text()
        snapshot = {
            "version": wire.SNAPSHOT_VERSION,
            "builders": wire.ast_snapshot_of_source(source),
            "shapes": {},
        }
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(snapshot))
        return path

    def _config(self, module: str, snapshot: Path) -> AnalyzerConfig:
        return AnalyzerConfig(
            wire_modules=(module,), wire_snapshot=snapshot
        )

    def test_unchanged_builder_is_clean(self, tmp_path):
        snap = self._snapshot_for("rpl003_serialization.py", tmp_path)
        config = self._config("rpl003_serialization.py", snap)
        assert run_fixture("rpl003_serialization.py", **vars(config)) == []

    def test_drift_without_bump_flagged(self, tmp_path):
        snap = self._snapshot_for("rpl003_serialization.py", tmp_path)
        config = self._config("rpl003_drifted.py", snap)
        findings = run_fixture("rpl003_drifted.py", **vars(config))
        assert len(findings) == 1
        assert findings[0].rule == "RPL003"
        assert "MANIFEST_VERSION is still 1" in findings[0].message
        assert "bump the version" in findings[0].message

    def test_bump_with_stale_snapshot_flagged(self, tmp_path):
        snap = self._snapshot_for("rpl003_serialization.py", tmp_path)
        config = self._config("rpl003_bumped.py", snap)
        findings = run_fixture("rpl003_bumped.py", **vars(config))
        assert len(findings) == 1
        assert "bumped to 2" in findings[0].message
        assert "--update-wire-snapshot" in findings[0].message

    def test_removed_builder_flagged(self, tmp_path):
        snap = self._snapshot_for("rpl003_serialization.py", tmp_path)
        config = self._config("rpl002_clean.py", snap)
        findings = run_fixture("rpl002_clean.py", **vars(config))
        assert len(findings) == 1
        assert "missing from this module" in findings[0].message

    def test_codec_helper_edit_without_bump_flagged(self, tmp_path):
        """Switching base64 for hex inside the column codec moves no
        builder's own AST and no runtime shape (both stay ``str``), so
        every column builder folds the codec into its fingerprint."""
        source = (SRC_REPRO / "io" / "serialization.py").read_text()
        edited = source.replace("base64.b64encode(", "base64.b16encode(")
        assert edited != source
        snap = tmp_path / "snap.json"
        snap.write_text(
            json.dumps(
                {
                    "version": wire.SNAPSHOT_VERSION,
                    "builders": wire.ast_snapshot_of_source(source),
                    "shapes": {},
                }
            )
        )
        module = tmp_path / "serialization.py"
        module.write_text(edited)
        findings = Analyzer(
            AnalyzerConfig(wire_modules=("serialization.py",), wire_snapshot=snap)
        ).check_file(module)
        flagged = [f for f in findings if f.rule == "RPL003"]
        assert sorted(f.message.split("'")[1] for f in flagged) == [
            "batch_result_to_dict",
            "design_matrix_to_dict",
            "shard_record_to_dict",
        ]
        assert all("is still" in f.message for f in flagged)

    def test_docstring_edit_does_not_move_fingerprint(self):
        source = (FIXTURES / "rpl003_serialization.py").read_text()
        reworded = source.replace(
            "fixture twin of the real builder", "same builder, new prose"
        )
        assert reworded != source
        assert wire.ast_snapshot_of_source(
            source
        ) == wire.ast_snapshot_of_source(reworded)

    def test_committed_snapshot_is_fresh(self):
        """The committed snapshot matches the live serialization module.

        Failing here means io/serialization.py changed: bump the
        affected ``*_VERSION`` constant if the wire shape moved, then
        run ``reprolint --update-wire-snapshot`` and commit the result.
        """
        committed = wire.load_snapshot(SNAPSHOT)
        live = wire.ast_snapshot_of_source(
            (SRC_REPRO / "io" / "serialization.py").read_text()
        )
        assert committed["builders"] == live

    def test_malformed_snapshot_rejected(self, tmp_path):
        bad = tmp_path / "snap.json"
        bad.write_text('{"version": 99}')
        with pytest.raises(ConfigurationError, match="version"):
            wire.load_snapshot(bad)


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

    def test_shipped_hot_paths_use_one_justified_suppression(self):
        # assembly.py carries exactly one per-column loop, explicitly
        # suppressed with a justification; kernels.py needs none.
        assembly = (SRC_REPRO / "batch" / "assembly.py").read_text()
        assert assembly.count("reprolint: disable=RPL004") == 1
        kernels = (SRC_REPRO / "batch" / "kernels.py").read_text()
        assert "reprolint" not in kernels


class TestRPL005Tracer:
    def test_fixture_findings(self):
        findings = run_fixture("rpl005_violations.py")
        assert [f.rule for f in findings] == ["RPL005"] * 3
        source_lines = (
            (FIXTURES / "rpl005_violations.py").read_text().splitlines()
        )
        flagged = {source_lines[f.line - 1].strip() for f in findings}
        assert flagged == {
            'tracer.counter("rows").add(len(matrix))  # crashes untraced runs',
            'tracer.counter("rows").add(1)  # tracer IS None here',
            'tracer.span("compile")  # may still be None',
        }

    def test_guarded_idioms_accepted(self):
        findings = run_fixture("rpl005_violations.py")
        clean_functions = ("guarded", "early_return")
        source = (FIXTURES / "rpl005_violations.py").read_text()
        lines = source.splitlines()
        for name in clean_functions:
            start = next(
                i for i, l in enumerate(lines, 1) if f"def {name}(" in l
            )
            end = start + next(
                (
                    j
                    for j, l in enumerate(lines[start:], 1)
                    if l.startswith("def ")
                ),
                len(lines) - start,
            )
            assert not [f for f in findings if start <= f.line < end], name


class TestRPL006Picklability:
    def test_violations(self):
        findings = run_fixture("rpl006_violations.py")
        assert [f.rule for f in findings] == ["RPL006"] * 3
        messages = "\n".join(f.message for f in findings)
        assert "lambda passed to .submit()" in messages
        assert "nested function 'local_work'" in messages
        assert "lambda passed to .map()" in messages


class TestEngine:
    def test_missing_path_rejected(self):
        with pytest.raises(ConfigurationError, match="does not exist"):
            Analyzer().check_paths(["/no/such/tree"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = Analyzer().check_file(bad)
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


class TestEndToEnd:
    def test_src_repro_is_clean_at_head(self):
        """The acceptance criterion: all nine rules pass on the tree."""
        analyzer = Analyzer()
        findings = analyzer.check_paths([SRC_REPRO])
        assert findings == [], "\n".join(f.format() for f in findings)
        assert len(analyzer.rules) == 9

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
        assert report["version"] == 1
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

    def test_update_wire_snapshot_round_trips(self, tmp_path, capsys):
        target = tmp_path / "snap.json"
        exit_code = cli.main(
            ["--update-wire-snapshot", "--wire-snapshot", str(target)]
        )
        capsys.readouterr()
        assert exit_code == 0
        regenerated = wire.load_snapshot(target)
        committed = wire.load_snapshot(SNAPSHOT)
        assert regenerated == committed, (
            "committed wire snapshot is stale; run "
            "'reprolint --update-wire-snapshot' and commit the result"
        )
