"""repro.study — one declarative spec → plan → result API.

The paper's Skyline tool (Sec. V) is at heart a request/response
service: describe a UAV and a knob set, get back an F-1
characterization.  This package makes that request a *value*: a
:class:`StudySpec` (designs + scenarios + metrics/filter/rank clauses)
that fully serializes to JSON, compiles into a vectorized
:mod:`repro.batch` plan (:func:`compile_spec`), and executes into a
uniform, equally serializable :class:`StudyResult`
(:func:`run_study`).  Every legacy analysis entry point —
``skyline.sweep_knob``/``sweep_grid``, ``dse.explore``,
``Skyline.study`` and the CLI — is a thin builder over this layer, so
any analysis the repo can run can also be queued, cached across
processes, diffed and served.

Quickstart::

    import numpy as np
    from repro.study import DesignSpec, RankClause, StudySpec, run_study

    spec = StudySpec(
        design=DesignSpec.knob_axes(
            axes={
                "compute_tdp_w": np.linspace(1.0, 30.0, 30),
                "compute_runtime_s": np.geomspace(0.002, 0.5, 40),
            }
        ),
        rank=RankClause(by="safe_velocity", top_k=10),
    )
    result = run_study(spec)
    print(result.table())

    text = spec.to_json()            # ship the request anywhere...
    again = StudySpec.from_json(text).run()   # ...same result
"""

from .planner import (
    StudyAxis,
    StudyPlan,
    compile_chunk,
    compile_spec,
    study_axes,
    study_size,
)
from ..io.serialization import RESULT_VERSION, SPEC_VERSION
from .result import StudyResult
from .runner import run_study
from .spec import (
    ALL_COLUMNS,
    CATEGORY_COLUMNS,
    EXTRA_NUMERIC_COLUMNS,
    FILTER_OPS,
    NUMERIC_RESULT_COLUMNS,
    SCENARIO_AXES,
    DesignSpec,
    FilterClause,
    RankClause,
    ScenarioSpec,
    StudySpec,
)

__all__ = [
    "StudyAxis",
    "StudyPlan",
    "compile_chunk",
    "compile_spec",
    "study_axes",
    "study_size",
    "RESULT_VERSION",
    "StudyResult",
    "run_study",
    "ALL_COLUMNS",
    "CATEGORY_COLUMNS",
    "EXTRA_NUMERIC_COLUMNS",
    "FILTER_OPS",
    "NUMERIC_RESULT_COLUMNS",
    "SCENARIO_AXES",
    "SPEC_VERSION",
    "DesignSpec",
    "FilterClause",
    "RankClause",
    "ScenarioSpec",
    "StudySpec",
]
