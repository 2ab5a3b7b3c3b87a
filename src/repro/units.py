"""Unit conventions, conversions and validation helpers.

The library uses plain floats with fixed unit conventions rather than a
quantity type.  The conventions are:

=============  ======================================
Quantity       Unit
=============  ======================================
mass           grams (``_g`` suffix) or kg (``_kg``)
force/thrust   gram-force (``_g``) — rotor "pull"
length         meters (``_m``)
time           seconds (``_s``)
rate           hertz (``_hz``)
velocity       m/s
acceleration   m/s^2
power          watts (``_w``)
energy         watt-hours (``_wh``) or joules (``_j``)
angle          degrees in public APIs, radians internally
=============  ======================================

These helpers convert between the conventions and validate arguments at
API boundaries, raising :class:`repro.errors.ConfigurationError` with a
message naming the offending parameter.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

#: Standard gravitational acceleration, m/s^2.
GRAVITY = 9.80665

#: Sea-level air density, kg/m^3 (ISA standard atmosphere).
AIR_DENSITY = 1.225

GRAMS_PER_KG = 1000.0
SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
JOULES_PER_WH = 3600.0


def grams_to_kg(mass_g: float) -> float:
    """Convert grams to kilograms."""
    return mass_g / GRAMS_PER_KG


def kg_to_grams(mass_kg: float) -> float:
    """Convert kilograms to grams."""
    return mass_kg * GRAMS_PER_KG


def gram_force_to_newtons(force_g: float) -> float:
    """Convert gram-force (rotor "pull" as reported on spec sheets) to N."""
    return force_g / GRAMS_PER_KG * GRAVITY


def newtons_to_gram_force(force_n: float) -> float:
    """Convert newtons to gram-force."""
    return force_n * GRAMS_PER_KG / GRAVITY


def hz_to_period(rate_hz: float) -> float:
    """Convert a rate in Hz to its period in seconds."""
    require_positive("rate_hz", rate_hz)
    return 1.0 / rate_hz


def period_to_hz(period_s: float) -> float:
    """Convert a period in seconds to a rate in Hz."""
    require_positive("period_s", period_s)
    return 1.0 / period_s


def ms_to_s(latency_ms: float) -> float:
    """Convert milliseconds to seconds."""
    return latency_ms / 1000.0


def s_to_ms(latency_s: float) -> float:
    """Convert seconds to milliseconds."""
    return latency_s * 1000.0


def deg_to_rad(angle_deg: float) -> float:
    """Convert degrees to radians."""
    return math.radians(angle_deg)


def rad_to_deg(angle_rad: float) -> float:
    """Convert radians to degrees."""
    return math.degrees(angle_rad)


def mah_to_wh(capacity_mah: float, voltage_v: float) -> float:
    """Convert a battery capacity in mAh at a nominal voltage to Wh."""
    require_nonnegative("capacity_mah", capacity_mah)
    require_positive("voltage_v", voltage_v)
    return capacity_mah / 1000.0 * voltage_v


def wh_to_joules(energy_wh: float) -> float:
    """Convert watt-hours to joules."""
    return energy_wh * JOULES_PER_WH


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number > 0, returning it.

    Raises :class:`ConfigurationError` naming ``name`` otherwise.
    """
    _require_finite(name, value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number >= 0, returning it."""
    _require_finite(name, value)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_rotor_count(value: float) -> int:
    """Validate a multirotor's rotor count, an integer >= 3, as an int."""
    if not (value >= 3 and float(value).is_integer()):
        raise ConfigurationError(
            f"rotor_count must be an integer >= 3, got {value}"
        )
    return int(value)


def require_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies strictly in (0, 1), returning it."""
    _require_finite(name, value)
    if not 0.0 < value < 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1), got {value!r}")
    return value


def require_in_range(
    name: str, value: float, low: float, high: float
) -> float:
    """Validate that ``low <= value <= high``, returning ``value``."""
    _require_finite(name, value)
    if not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )
    return value


def _require_finite(name: str, value: float) -> None:
    try:
        ok = math.isfinite(value)
    except TypeError as exc:  # e.g. None or a string
        raise ConfigurationError(
            f"{name} must be a real number, got {value!r}"
        ) from exc
    if not ok:
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
