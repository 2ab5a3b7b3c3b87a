"""I/O helpers: text tables, configuration and result serialization."""

from .serialization import (
    BOUND_CODE_TO_NAME,
    TELEMETRY_VERSION,
    BOUND_NAME_TO_CODE,
    STATUS_CODE_TO_NAME,
    STATUS_NAME_TO_CODE,
    batch_result_from_dict,
    batch_result_to_dict,
    batch_results_equal,
    configuration_from_dict,
    configuration_to_dict,
    design_matrices_equal,
    design_matrix_from_dict,
    design_matrix_to_dict,
    telemetry_from_dict,
    trace_event_from_dict,
    trace_event_to_dict,
)
from .tables import format_table

__all__ = [
    "BOUND_CODE_TO_NAME",
    "TELEMETRY_VERSION",
    "BOUND_NAME_TO_CODE",
    "STATUS_CODE_TO_NAME",
    "STATUS_NAME_TO_CODE",
    "batch_result_from_dict",
    "batch_result_to_dict",
    "batch_results_equal",
    "configuration_from_dict",
    "configuration_to_dict",
    "design_matrices_equal",
    "design_matrix_from_dict",
    "design_matrix_to_dict",
    "format_table",
    "telemetry_from_dict",
    "trace_event_from_dict",
    "trace_event_to_dict",
]
