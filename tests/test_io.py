"""Tests for table rendering and configuration serialization."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.io.serialization import (
    configuration_from_dict,
    configuration_to_dict,
)
from repro.io.tables import format_table
from repro.uav.presets import custom_s500, dji_spark


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(
            ("name", "value"),
            (("alpha", 1.5), ("beta", 20.25)),
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "alpha" in text
        assert "1.500" in text
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # perfectly aligned

    def test_bool_rendering(self):
        text = format_table(("flag",), ((True,), (False,)))
        assert "yes" in text and "no" in text

    def test_custom_float_format(self):
        text = format_table(
            ("v",), ((1.23456,),), float_format="{:.1f}"
        )
        assert "1.2" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(("a", "b"), ((1,),))

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table((), ())

    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        whitelist_categories=("Ll", "Nd")
                    ),
                    max_size=12,
                ),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            max_size=8,
        )
    )
    def test_always_aligned(self, rows):
        text = format_table(("k", "v"), rows)
        widths = {len(line) for line in text.splitlines()}
        assert len(widths) == 1


class TestSerialization:
    def test_roundtrip_preserves_model(self):
        original = custom_s500("C")
        data = configuration_to_dict(original)
        rebuilt = configuration_from_dict(data)
        assert rebuilt == original
        assert rebuilt.max_acceleration == original.max_acceleration
        assert rebuilt.total_mass_g == original.total_mass_g

    def test_json_compatible(self):
        data = configuration_to_dict(dji_spark())
        rebuilt = configuration_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.name == dji_spark().name
        assert rebuilt.total_mass_g == pytest.approx(
            dji_spark().total_mass_g
        )

    def test_scalar_fields_roundtrip(self):
        uav = custom_s500("A").with_redundancy(2).with_extra_payload(25.0)
        rebuilt = configuration_from_dict(configuration_to_dict(uav))
        assert rebuilt.compute_redundancy == 2
        assert rebuilt.extra_payload_g == 25.0
        assert rebuilt.payload_override_g == 590.0

    def test_missing_section_rejected(self):
        data = configuration_to_dict(dji_spark())
        del data["frame"]
        with pytest.raises(ConfigurationError, match="frame"):
            configuration_from_dict(data)

    # Regression: malformed component sections used to leak the raw
    # ``TypeError`` from the dataclass constructor instead of a
    # ConfigurationError naming the section and field.
    def test_unknown_component_field_named(self):
        data = configuration_to_dict(dji_spark())
        data["motor"]["warp_factor"] = 9.0
        with pytest.raises(
            ConfigurationError, match=r"'motor'.*'warp_factor'"
        ):
            configuration_from_dict(data)

    def test_missing_component_field_named(self):
        data = configuration_to_dict(dji_spark())
        del data["sensor"]["framerate_hz"]
        with pytest.raises(
            ConfigurationError, match=r"'sensor'.*'framerate_hz'"
        ):
            configuration_from_dict(data)

    def test_non_mapping_section_rejected(self):
        data = configuration_to_dict(dji_spark())
        data["frame"] = ["not", "a", "mapping"]
        with pytest.raises(ConfigurationError, match="'frame'.*mapping"):
            configuration_from_dict(data)

    # Regression: "x" raised TypeError from UAVConfiguration, 1.5 and a
    # numeric name were accepted, an unknown key was dropped silently
    # and a missing name raised TypeError.
    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("compute_redundancy", "x", "'compute_redundancy'"),
            ("compute_redundancy", 1.5, "'compute_redundancy'"),
            ("compute_redundancy", True, "'compute_redundancy'"),
            ("name", 5, "'name'"),
            ("name", ..., "'name': missing"),
            ("braking_pitch_deg", "x", "'braking_pitch_deg'"),
            ("bogus", 1, "unknown key.*'bogus'"),
        ],
        ids=[
            "redundancy-str", "redundancy-fraction", "redundancy-bool",
            "name-number", "name-missing", "pitch-str", "unknown-key",
        ],
    )
    def test_malformed_scalar_named(self, key, value, field):
        data = configuration_to_dict(dji_spark())
        if value is ...:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(ConfigurationError, match=field):
            configuration_from_dict(data)

    @pytest.mark.parametrize("redundancy", ["x", 1.5, 2.0, True, 0])
    def test_redundancy_is_an_integer_on_the_python_path(self, redundancy):
        with pytest.raises(ConfigurationError, match="compute_redundancy"):
            replace(dji_spark(), compute_redundancy=redundancy)


class TestResultSerialization:
    """Round-trip coverage for the result side: DesignMatrix and
    BatchResult -> dict -> equality, with version-stable code names."""

    @pytest.fixture()
    def batch(self):
        import numpy as np

        from repro.batch import DesignMatrix, evaluate_matrix

        matrix = DesignMatrix.from_arrays(
            sensing_range_m=np.linspace(2.0, 20.0, 6),
            a_max=np.linspace(5.0, 50.0, 6),
            f_sensor_hz=60.0,
            f_compute_hz=np.geomspace(1.0, 1000.0, 6),
            labels=[f"p{i}" for i in range(6)],
        )
        return evaluate_matrix(matrix, cache=None)

    def test_design_matrix_roundtrip(self, batch):
        from repro.io.serialization import (
            design_matrices_equal,
            design_matrix_from_dict,
            design_matrix_to_dict,
        )

        data = json.loads(json.dumps(design_matrix_to_dict(batch.matrix)))
        rebuilt = design_matrix_from_dict(data)
        assert design_matrices_equal(rebuilt, batch.matrix)
        assert rebuilt.content_hash() == batch.matrix.content_hash()

    def test_batch_result_roundtrip(self, batch):
        from repro.io.serialization import (
            batch_result_from_dict,
            batch_result_to_dict,
            batch_results_equal,
        )

        data = json.loads(json.dumps(batch_result_to_dict(batch)))
        rebuilt = batch_result_from_dict(data)
        assert batch_results_equal(rebuilt, batch)
        assert rebuilt.bounds() == batch.bounds()
        assert rebuilt.statuses() == batch.statuses()

    def test_codes_carry_the_pinned_names_list(self, batch):
        from repro.io.serialization import (
            BOUND_CODE_TO_NAME,
            STATUS_CODE_TO_NAME,
            batch_result_to_dict,
        )

        data = batch_result_to_dict(batch)
        for key, pinned in (
            ("bounds", BOUND_CODE_TO_NAME),
            ("statuses", STATUS_CODE_TO_NAME),
        ):
            assert data[key]["dtype"] == "<i1"
            assert data[key]["names"] == [
                pinned[code] for code in range(len(pinned))
            ]

    def test_code_maps_pin_the_kernel_tables(self):
        """The wire mapping stays consistent with the live kernels: if
        the in-process integer encoding ever changes, this fails and
        the wire maps must grow a translation, not silently drift."""
        from repro.batch.kernels import BOUND_KINDS, DESIGN_STATUSES
        from repro.io.serialization import (
            BOUND_CODE_TO_NAME,
            BOUND_NAME_TO_CODE,
            STATUS_CODE_TO_NAME,
            STATUS_NAME_TO_CODE,
        )

        assert BOUND_CODE_TO_NAME == {
            code: kind.value for code, kind in enumerate(BOUND_KINDS)
        }
        assert STATUS_CODE_TO_NAME == {
            code: status.value
            for code, status in enumerate(DESIGN_STATUSES)
        }
        # Bijections both ways.
        assert len(BOUND_NAME_TO_CODE) == len(BOUND_CODE_TO_NAME)
        assert len(STATUS_NAME_TO_CODE) == len(STATUS_CODE_TO_NAME)

    def test_unknown_bound_name_rejected(self, batch):
        from repro.io.serialization import (
            batch_result_from_dict,
            batch_result_to_dict,
        )

        data = batch_result_to_dict(batch)
        data["bounds"]["names"][0] = "banana"
        with pytest.raises(ConfigurationError, match="banana"):
            batch_result_from_dict(data)

    def test_missing_result_field_named(self, batch):
        from repro.io.serialization import (
            batch_result_from_dict,
            batch_result_to_dict,
        )

        data = batch_result_to_dict(batch)
        del data["safe_velocity"]
        with pytest.raises(
            ConfigurationError, match="safe_velocity"
        ):
            batch_result_from_dict(data)
        data = batch_result_to_dict(batch)
        del data["matrix"]["a_max"]
        with pytest.raises(ConfigurationError, match="a_max"):
            batch_result_from_dict(data)


class TestTraceEventWireFormat:
    def _span(self, **overrides):
        from repro.obs import SpanRecord

        fields = dict(
            name="shard.evaluate",
            start_s=0.018234,
            duration_s=0.000912,
            tid=4,
            attributes={"rows": 4096},
        )
        fields.update(overrides)
        return SpanRecord(**fields)

    def test_roundtrip_preserves_span(self):
        from repro.io.serialization import (
            trace_event_from_dict,
            trace_event_to_dict,
        )

        span = self._span()
        clone = trace_event_from_dict(trace_event_to_dict(span))
        assert clone.name == span.name
        assert clone.tid == span.tid
        assert dict(clone.attributes) == dict(span.attributes)
        # Times quantize to whole microseconds on the wire.
        assert clone.start_s == pytest.approx(span.start_s, abs=1e-6)
        assert clone.duration_s == pytest.approx(
            span.duration_s, abs=1e-6
        )

    def test_wire_times_are_integer_microseconds(self):
        from repro.io.serialization import trace_event_to_dict

        data = trace_event_to_dict(self._span())
        assert data["start_us"] == 18234
        assert data["dur_us"] == 912
        assert isinstance(data["start_us"], int)
        json.dumps(data)

    def test_missing_field_named(self):
        from repro.io.serialization import (
            trace_event_from_dict,
            trace_event_to_dict,
        )

        for key in ("name", "start_us", "dur_us", "tid", "args"):
            data = trace_event_to_dict(self._span())
            del data[key]
            with pytest.raises(ConfigurationError, match=key):
                trace_event_from_dict(data)

    def test_bad_values_rejected(self):
        from repro.io.serialization import (
            trace_event_from_dict,
            trace_event_to_dict,
        )

        good = trace_event_to_dict(self._span())
        for key, bad in (
            ("name", ""),
            ("start_us", -1),
            ("dur_us", 1.5),
            ("tid", -2),
            ("args", [1, 2]),
        ):
            data = dict(good, **{key: bad})
            with pytest.raises(ConfigurationError, match=key):
                trace_event_from_dict(data)
        with pytest.raises(ConfigurationError, match="mapping"):
            trace_event_from_dict("not a dict")

    def test_telemetry_document_validation(self):
        from repro.io.serialization import (
            TELEMETRY_VERSION,
            telemetry_from_dict,
            trace_event_to_dict,
        )

        doc = {
            "version": TELEMETRY_VERSION,
            "events": [trace_event_to_dict(self._span())],
            "counters": {"rows.evaluated": 4096},
            "gauges": {"rows_per_s": 1e6},
        }
        assert telemetry_from_dict(doc) is doc  # validated, unchanged
        assert telemetry_from_dict(None) is None
        with pytest.raises(ConfigurationError, match="version"):
            telemetry_from_dict({"version": 99})
        with pytest.raises(ConfigurationError, match="counters"):
            telemetry_from_dict(
                {"version": TELEMETRY_VERSION, "counters": [1]}
            )
        bad_event = dict(trace_event_to_dict(self._span()), name="")
        with pytest.raises(ConfigurationError, match="name"):
            telemetry_from_dict(
                {"version": TELEMETRY_VERSION, "events": [bad_event]}
            )

    def test_study_result_telemetry_roundtrip(self):
        from repro.obs import Tracer
        from repro.study import DesignSpec, StudySpec, run_study
        from repro.study.result import StudyResult

        spec = StudySpec(
            design=DesignSpec.knob_axes(
                axes={"compute_tdp_w": (1.0, 10.0)}
            )
        )
        traced = run_study(spec, tracer=Tracer())
        assert traced.telemetry is not None
        clone = StudyResult.from_dict(traced.to_dict())
        assert clone.telemetry == traced.telemetry
        assert clone.equals(traced)
        # An untraced run's dict carries no telemetry key at all.
        plain = run_study(spec)
        assert plain.telemetry is None
        assert "telemetry" not in plain.to_dict()
        assert StudyResult.from_dict(plain.to_dict()).telemetry is None
        # equals() ignores telemetry: same numbers, different timings.
        assert traced.equals(plain)
