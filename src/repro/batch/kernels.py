"""Vectorized F-1 kernels: the closed forms of the scalar model, by column.

Each kernel evaluates one quantity the scalar :class:`~repro.core.model.F1Model`
exposes as a property — the physics roof, the fraction-of-roof knee
(Eq. 4 inverted at ``rho`` of the roof), the Eq. 3 action throughput,
the Eq. 4 safe velocity, the Sec. III-B bound classification and the
Sec. III-C optimality verdict — over NumPy arrays of design points.

The expressions are kept term-for-term identical to the scalar path
(:mod:`repro.core.safety`, :mod:`repro.core.knee`,
:mod:`repro.core.bounds`, :mod:`repro.core.optimality`) so that both
produce bitwise-comparable doubles; the equivalence suite pins them
together at 1e-9.  Kernels do no argument validation — that is the
:class:`~repro.batch.matrix.DesignMatrix` constructor's job.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import BoundKind
from ..core.knee import DEFAULT_KNEE_FRACTION
from ..core.optimality import DesignStatus

#: Integer codes used for the bound-classification column.
PHYSICS_CODE = 0
SENSOR_CODE = 1
COMPUTE_CODE = 2
CONTROL_CODE = 3

#: ``BOUND_KINDS[code]`` decodes a bound column entry.
BOUND_KINDS = (
    BoundKind.PHYSICS,
    BoundKind.SENSOR,
    BoundKind.COMPUTE,
    BoundKind.CONTROL,
)

#: Integer codes used for the optimality-verdict column.
OPTIMAL_CODE = 0
OVER_PROVISIONED_CODE = 1
UNDER_PROVISIONED_CODE = 2

#: ``DESIGN_STATUSES[code]`` decodes a verdict column entry.
DESIGN_STATUSES = (
    DesignStatus.OPTIMAL,
    DesignStatus.OVER_PROVISIONED,
    DesignStatus.UNDER_PROVISIONED,
)


def roof_velocity(
    sensing_range_m: np.ndarray, a_max: np.ndarray
) -> np.ndarray:
    """The physics roof ``sqrt(2 * d * a_max)`` (m/s), per design."""
    return np.sqrt(2.0 * sensing_range_m * a_max)


def knee_throughput(
    sensing_range_m: np.ndarray,
    a_max: np.ndarray,
    fraction: float = DEFAULT_KNEE_FRACTION,
) -> np.ndarray:
    """Fraction-of-roof knee throughput (Hz), per design.

    The closed form matches :class:`~repro.core.knee.FractionOfRoofKnee`::

        f_k = (2*rho / (1 - rho^2)) * sqrt(a_max / (2*d))
    """
    coefficient = 2.0 * fraction / (1.0 - fraction * fraction)
    return coefficient * np.sqrt(a_max / (2.0 * sensing_range_m))


def knee_velocity(
    sensing_range_m: np.ndarray,
    a_max: np.ndarray,
    fraction: float = DEFAULT_KNEE_FRACTION,
) -> np.ndarray:
    """Velocity at the fraction-of-roof knee: ``rho * roof`` (m/s)."""
    return fraction * roof_velocity(sensing_range_m, a_max)


def action_throughput(
    f_sensor_hz: np.ndarray,
    f_compute_hz: np.ndarray,
    f_control_hz: np.ndarray,
) -> np.ndarray:
    """Eq. 3: pipeline throughput = elementwise min of stage rates (Hz)."""
    return np.minimum(np.minimum(f_sensor_hz, f_compute_hz), f_control_hz)


def safe_velocity_at_rate(
    f_action_hz: np.ndarray,
    sensing_range_m: np.ndarray,
    a_max: np.ndarray,
) -> np.ndarray:
    """Eq. 4 safe velocity at an action throughput, per design (m/s).

    ``t`` takes the shape of ``f_action_hz`` and ``2d/a`` that of range
    and ``a_max``; the sum they broadcast to is the one full-size
    array, and the remaining steps run in place on it.
    """
    t = 1.0 / f_action_hz
    velocity = np.asarray(t * t + 2.0 * sensing_range_m / a_max)
    np.sqrt(velocity, out=velocity)
    velocity -= t
    velocity *= a_max
    return velocity


def classify_bounds(
    f_sensor_hz: np.ndarray,
    f_compute_hz: np.ndarray,
    f_control_hz: np.ndarray,
    f_action_hz: np.ndarray,
    knee_throughput_hz: np.ndarray,
) -> np.ndarray:
    """Sec. III-B bound classification as an int8 code column.

    At or beyond the knee a design is physics bound; otherwise the
    slowest stage names the bound, with stage-rate ties resolving in
    pipeline order sensor -> compute -> control exactly as the scalar
    :func:`~repro.core.bounds.classify_bound` does.  The stage code
    takes the shape the three rates broadcast to; only the knee test
    runs at the shape of ``f_action_hz`` against the knee.

    The codes are sums of masks: ``PHYSICS_CODE`` is 0 and the stage
    codes count up in pipeline order.
    """
    sensor_slowest = (f_sensor_hz <= f_compute_hz) & (f_sensor_hz <= f_control_hz)
    compute_slowest = f_compute_hz <= f_control_hz
    stage = (np.int8(CONTROL_CODE) - compute_slowest) * np.logical_not(
        sensor_slowest
    ) + sensor_slowest * np.int8(SENSOR_CODE)
    return stage * np.logical_not(f_action_hz >= knee_throughput_hz)


def optimality_status(
    f_action_hz: np.ndarray,
    knee_throughput_hz: np.ndarray,
    tolerance: float = 0.05,
) -> np.ndarray:
    """Sec. III-C verdict as an int8 code column.

    ``tolerance`` is the relative band around the knee throughput still
    considered optimal, matching :func:`~repro.core.optimality.assess_design`.
    The verdict is arithmetic on two masks: ``OVER_PROVISIONED_CODE``
    is one below ``UNDER_PROVISIONED_CODE``, and the optimal band
    zeroes the code to ``OPTIMAL_CODE``.
    """
    ratio = f_action_hz / knee_throughput_hz
    optimal = (1.0 - tolerance <= ratio) & (ratio <= 1.0 + tolerance)
    return (np.int8(UNDER_PROVISIONED_CODE) - (ratio > 1.0)) * np.logical_not(
        optimal
    )
