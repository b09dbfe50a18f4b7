"""Closed-form binaural cue models.

Angle convention used throughout the package: azimuth 0 is straight ahead,
+pi/2 places the source at the extreme left, and the right ear is then the
far (shadowed) ear. ITD values are positive when the far ear lags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ValidationError, check_number

#: Frequency threshold shape of the head-shadow curve, in logistic units per
#: log-frequency octave. Chosen so a 16 dB ceiling passes through 6 dB at
#: 2 kHz and 15 dB at 8 kHz.
SHADOW_LOG_SLOPE = math.log(25.0) / math.log(4.0)

_HEAD_SHADOW_MAX_DB = 16.0
_HEAD_SHADOW_CORNER_HZ = 2000.0 * (5.0 / 3.0) ** (1.0 / SHADOW_LOG_SLOPE)


def speed_of_sound(temperature_c: float) -> float:
    """Speed of sound in air, m/s, as 331 + 0.6 T with T in degrees Celsius."""
    return 331.0 + 0.6 * temperature_c


def check_temperature(temperature_c: float) -> None:
    """Raise ValidationError unless the air temperature is a number in -20..50 C."""
    check_number("temperature_c", temperature_c, -20.0, 50.0)


@dataclass(frozen=True)
class HeadGeometry:
    """Head radius in meters plus the air temperature the model runs at."""

    radius_m: float = 0.089
    temperature_c: float = 20.0

    def __post_init__(self) -> None:
        check_number("radius_m", self.radius_m, 0.05, 0.15)  # m, the plausible human range
        check_temperature(self.temperature_c)


@dataclass(frozen=True)
class DuplexThresholds:
    """The three band edges duplex_classify splits the spectrum at, by dominant cue.

    ITD dominates up to itd_limit_hz, a transition band runs up to ild_start_hz, the
    ILD is present but inefficient from there to ild_effective_hz, and effective above.
    """

    itd_limit_hz: float = 1500.0
    ild_start_hz: float = 2000.0
    ild_effective_hz: float = 4000.0

    def __post_init__(self) -> None:
        for f in fields(self):
            check_number(f.name, getattr(self, f.name))
        if not self.itd_limit_hz < self.ild_start_hz <= self.ild_effective_hz:
            raise ValidationError(
                f"band edges must satisfy itd_limit_hz < ild_start_hz <= ild_effective_hz, "
                f"got {self.itd_limit_hz}, {self.ild_start_hz}, {self.ild_effective_hz}"
            )


class CueBand(Enum):
    ITD_EFFECTIVE = "itd_effective"
    TRANSITION = "transition"
    ILD_INEFFICIENT = "ild_inefficient"
    ILD_EFFECTIVE = "ild_effective"


def duplex_classify(freq: float, thresholds: DuplexThresholds | None = None) -> CueBand:
    """Classify a frequency by its dominant localization cue.

    Boundaries are inclusive on the low side: f == itd_limit_hz is still
    ITD_EFFECTIVE and the inefficient band includes both of its edges.
    """
    check_frequency(freq)
    t = thresholds or DuplexThresholds()
    if freq <= t.itd_limit_hz:
        return CueBand.ITD_EFFECTIVE
    if freq < t.ild_start_hz:
        return CueBand.TRANSITION
    if freq <= t.ild_effective_hz:
        return CueBand.ILD_INEFFICIENT
    return CueBand.ILD_EFFECTIVE


def check_azimuth(azimuth: float) -> None:
    """Raise ValidationError unless azimuth is a number in [0, pi/2], the models' domain."""
    check_number("azimuth", azimuth, 0.0, math.pi / 2)


def check_frequency(freq) -> None:
    """Raise ValidationError unless freq, a number or an array, is all in (0, inf): a number by
    the number rule, an array element by element."""
    if np.isscalar(freq):
        check_number("freq", freq, 0.0, ends="()")
    elif not np.all(((f := np.asarray(freq, dtype=np.float64)) > 0.0) & (f < math.inf)):
        raise ValidationError(f"freq must be a finite number in (0, inf), got {freq}")


def itd_simple(geom: HeadGeometry, azimuth: float) -> float:
    """Arc-length ITD for a rigid spherical head: r (theta + sin theta) / c.

    The far-ear wavefront travels the straight-line path to the near ear plus
    the arc around the head; azimuth is restricted to [0, pi/2] where this
    derivation holds.
    """
    check_azimuth(azimuth)
    return geom.radius_m * (azimuth + math.sin(azimuth)) / speed_of_sound(geom.temperature_c)


def itd_modified(geom: HeadGeometry, azimuth: float, freq: float) -> float:
    """Frequency-dependent ITD: a r sin(theta) / (331 + 0.6 T).

    The coefficient a is 3 below 500 Hz (low frequencies diffract around the
    head and take a longer effective path) and 2 at and above 500 Hz. Above
    2 kHz the model is not separately specified, so the 2 kHz coefficient is
    kept; ITD carries little localization weight up there anyway.
    """
    check_azimuth(azimuth)
    check_frequency(freq)
    a = 3.0 if freq < 500.0 else 2.0
    return a * geom.radius_m * math.sin(azimuth) / speed_of_sound(geom.temperature_c)


def wrap_phase_deg(deg):
    """Wrap degrees into (-180, +180]; works on scalars and arrays."""
    return -(((-np.asarray(deg) + 180.0) % 360.0) - 180.0)


def ipd_from_itd(freq: float, itd: float) -> float:
    """Interaural phase difference implied by a time difference at one frequency."""
    check_frequency(freq)
    return float(wrap_phase_deg(360.0 * freq * itd))


@dataclass(frozen=True)
class ShadowParams:
    """Parametric far-ear head-shadow attenuation curve.

    Attenuation in dB is max_attenuation_db * sin(azimuth)**azimuth_exponent
    * S(f), where S is a logistic in log-frequency centered on corner_hz with
    the fixed slope SHADOW_LOG_SLOPE. Defaults reproduce the measured anchors
    of an adult head: under 3 dB at 250 Hz, ~6 dB at 2 kHz, ~12 dB at 4 kHz,
    ~15 dB at 8 kHz.
    """

    max_attenuation_db: float = _HEAD_SHADOW_MAX_DB
    corner_hz: float = _HEAD_SHADOW_CORNER_HZ
    azimuth_exponent: float = 1.0

    def __post_init__(self) -> None:
        check_number("max_attenuation_db", self.max_attenuation_db, 0.0, 30.0)
        check_number("corner_hz", self.corner_hz, 0.0, ends="()")
        check_number("azimuth_exponent", self.azimuth_exponent, 0.0, ends="()")


def head_shadow_ild(params: ShadowParams, azimuth: float, freq) -> float | np.ndarray:
    """Far-ear attenuation in dB (>= 0) at the given azimuth and frequency.

    Smooth and non-decreasing in both frequency and azimuth; exactly 0 on the
    median plane. `freq` may be a scalar or an array of positive, finite frequencies.
    """
    check_azimuth(azimuth)
    check_frequency(freq)
    f = np.asarray(freq, dtype=np.float64)
    shape = 1.0 / (1.0 + (params.corner_hz / f) ** SHADOW_LOG_SLOPE)
    out = params.max_attenuation_db * math.sin(azimuth) ** params.azimuth_exponent * shape
    return float(out) if np.isscalar(freq) else out
