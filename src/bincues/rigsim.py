"""Parametric models of five stereo/binaural capture rigs.

Each rig predicts an ITD and, in ear_gains, the two ears' gains for a far-field
source at a given azimuth: the one level model that the ILD prediction, the
shadow FIR, the far ear and the capture all read. place_arrivals, the one path by
which sources reach the ears, synthesizes a capture, so the analysis pipeline can be
exercised end to end, and a render. Head-based rigs use the spherical-head arc model;
spaced rigs use the free-field path difference, optionally stretched by a fitted
path_extension that stands in for baffle diffraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial, reduce
from pathlib import Path

import numpy as np

from .cue_models import (HeadGeometry, ShadowParams, check_azimuth, check_frequency,
                         head_shadow_ild, itd_simple, speed_of_sound)
from .errors import ValidationError, check_number
from .signals import (SampleBuffer, StereoBuffer, apply_fractional_delay, check_rate,
                      mix_delayed)


class RigKind(Enum):
    HUMAN_HEAD = "human"
    FULL_DUMMY = "full_dummy"
    SEMI_DUMMY = "semi_dummy"
    JECKLIN = "jecklin"
    ORTF = "ortf"


RIG_NAMES = tuple(kind.value for kind in RigKind)  # the names --rig and config files take

SEMI_DUMMY_SPACING_M = 0.19
JECKLIN_SPACING_M = 0.175
ORTF_SPACING_M = 0.17
ORTF_CAPSULE_ANGLE_DEG = 110.0

# Measured ITDs of the baffled rigs exceed the free-field spacing/c path;
# these single multipliers were fitted to the broadside (90 degree, 18 C)
# measurements: 0.83 ms for the semi dummy and 0.58 ms for the disc.
SEMI_DUMMY_PATH_EXTENSION = 1.493
JECKLIN_PATH_EXTENSION = 1.133

#: Full dummy: 3..6 dB shadow across 500 Hz..8 kHz with less high-frequency
#: rolloff than a real head (a rigid shell absorbs less up top).
FULL_DUMMY_SHADOW = ShadowParams(max_attenuation_db=6.0, corner_hz=430.0)
#: Semi dummy: minimal shadow below 2 kHz, pronounced from 4 kHz onward.
SEMI_DUMMY_SHADOW = ShadowParams(max_attenuation_db=15.0, corner_hz=4500.0)
#: Disc baffle: under 3 dB until ~6 kHz, about 8 dB across the top octaves.
JECKLIN_SHADOW = ShadowParams(max_attenuation_db=8.0, corner_hz=7500.0)

#: Per-kind defaults: the one place a rig kind's default geometry lives. A kind's row
#: lists every field a RigSpec of that kind holds, each one read by its models;
#: RigSpec(kind) fills the row's fields left at None and rejects any other field.
_DEFAULTS = {
    RigKind.HUMAN_HEAD: {"radius_m": HeadGeometry.radius_m, "shadow": ShadowParams()},
    RigKind.FULL_DUMMY: {"radius_m": HeadGeometry.radius_m, "shadow": FULL_DUMMY_SHADOW},
    RigKind.SEMI_DUMMY: {"mic_spacing_m": SEMI_DUMMY_SPACING_M,
                         "path_extension": SEMI_DUMMY_PATH_EXTENSION,
                         "shadow": SEMI_DUMMY_SHADOW},
    RigKind.JECKLIN: {"mic_spacing_m": JECKLIN_SPACING_M,
                      "path_extension": JECKLIN_PATH_EXTENSION,
                      "shadow": JECKLIN_SHADOW},
    RigKind.ORTF: {"mic_spacing_m": ORTF_SPACING_M,
                   "capsule_angle_deg": ORTF_CAPSULE_ANGLE_DEG},
}

_SHADOW_FIR_TAPS = 511
_SHADOW_DESIGN_FFT = 8192


@dataclass(frozen=True)
class SourceSpec:
    """Far-field source position: azimuth in radians, 0 ahead to +pi/2 far left."""

    azimuth_rad: float

    def __post_init__(self) -> None:
        check_azimuth(self.azimuth_rad)


@dataclass(frozen=True)
class RigSpec:
    """One capture rig: its kind plus exactly the geometry that kind's models read.

    Head kinds hold a head radius_m and a ShadowParams; baffled kinds hold
    mic spacing, a path_extension >= 1 and a baffle ShadowParams; ORTF holds
    mic spacing and the capsule angle of its cardioid pair. Fields of the
    kind left at None take its defaults; a field of another kind must stay
    None, or the spec raises ValidationError naming it.
    """

    kind: RigKind
    radius_m: float | None = None
    mic_spacing_m: float | None = None
    capsule_angle_deg: float | None = None
    path_extension: float | None = None
    shadow: ShadowParams | None = None

    def __post_init__(self) -> None:
        row = _DEFAULTS[self.kind]
        for f in fields(self)[1:]:  # the geometry fields, after kind
            if f.name not in row and getattr(self, f.name) is not None:
                raise ValidationError(f"rig kind '{self.kind.value}' has no field {f.name}")
        for name, value in row.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.radius_m is not None:
            HeadGeometry(self.radius_m)
        if self.mic_spacing_m is not None:
            check_number("mic_spacing_m", self.mic_spacing_m, 0.0, ends="()")
        if self.path_extension is not None:
            check_number("path_extension", self.path_extension, 1.0, ends="[)")
        if self.capsule_angle_deg is not None:
            check_number("capsule_angle_deg", self.capsule_angle_deg, 0.0, 180.0, "(]")


#: One factory per kind, RigSpec with the kind bound: keyword fields of its _DEFAULTS row only.
human_head = partial(RigSpec, RigKind.HUMAN_HEAD)
full_dummy = partial(RigSpec, RigKind.FULL_DUMMY)
semi_dummy = partial(RigSpec, RigKind.SEMI_DUMMY)
jecklin = partial(RigSpec, RigKind.JECKLIN)
ortf = partial(RigSpec, RigKind.ORTF)


def default_rig(kind: RigKind) -> RigSpec:
    return RigSpec(kind)


def _free_field_itd(mic_spacing_m: float, azimuth: float, temperature_c: float) -> float:
    return mic_spacing_m * math.sin(azimuth) / speed_of_sound(temperature_c)


def predicted_itd(rig: RigSpec, src: SourceSpec, temperature_c: float = 20.0) -> float:
    """Model ITD in seconds for the rig at the source azimuth."""
    if rig.radius_m is not None:
        return itd_simple(HeadGeometry(rig.radius_m, temperature_c), src.azimuth_rad)
    free_field = _free_field_itd(rig.mic_spacing_m, src.azimuth_rad, temperature_c)
    return free_field if rig.path_extension is None else rig.path_extension * free_field


def _near_gain(rig: RigSpec, azimuth: float) -> float:
    """ear_gains' near gain, flat in frequency, so read with no shadow curve evaluated."""
    if rig.kind is not RigKind.ORTF:
        return 1.0
    return 0.5 * (1.0 + math.cos(azimuth - math.radians(rig.capsule_angle_deg / 2.0)))


def ear_gains(rig: RigSpec, azimuth: float, freq) -> tuple[float, float | np.ndarray]:
    """The rig's real (near, far) ear gains at azimuth in [0, pi/2] and freq, a scalar or an
    array of positive, finite frequencies: the one level model of a rig. Head and baffled
    kinds hold the near ear at 1 and shadow the far ear; ORTF's are its two cardioid gains,
    flat in frequency and so scalars whatever freq is."""
    if rig.kind is not RigKind.ORTF:
        return 1.0, 10.0 ** (-head_shadow_ild(rig.shadow, azimuth, freq) / 20.0)
    check_azimuth(azimuth)
    check_frequency(freq)
    return _near_gain(rig, azimuth), _near_gain(rig, -azimuth)  # far: the mirrored source's near


def predicted_ild_db(rig: RigSpec, src: SourceSpec, freq: float) -> float:
    """Model far-ear attenuation in dB (>= 0) at one frequency: the level ratio of ear_gains.
    Raises ValidationError when ORTF's far capsule has its null on the source."""
    near, far = ear_gains(rig, src.azimuth_rad, freq)
    if far == 0.0:
        raise ValidationError("the far capsule's null faces the source: its ILD is infinite")
    return 20.0 * math.log10(near / far)


def shadow_filter_kernel(rig: RigSpec, azimuth: float, sample_rate: int) -> np.ndarray | float:
    """Zero-phase FIR whose magnitude matches the far-to-near gain ratio of ear_gains.

    The kernel is symmetric, so applying it centered adds no group delay at any frequency: the
    capture's time cue comes only from the explicit ITD delay. (A minimum-phase realization was
    tried first and rejected: its low-frequency group delay shifted broadband correlation peaks
    by more than a sample.) A ratio flat in frequency, as ORTF's, is returned as that gain.
    ValidationError is raised for a rate that check_rate refuses or an azimuth outside [0, pi/2].
    """
    freqs = np.fft.rfftfreq(_SHADOW_DESIGN_FFT, 1.0 / check_rate(sample_rate))
    freqs[0] = freqs[1]  # DC takes the lowest bin's (vanishing) attenuation
    near, far = ear_gains(rig, azimuth, freqs)
    target = far / near
    if np.ndim(target) == 0:
        return target
    impulse = np.roll(np.fft.irfft(target), _SHADOW_FIR_TAPS // 2)  # tap 0 moves to the middle
    return impulse[:_SHADOW_FIR_TAPS] * np.hanning(_SHADOW_FIR_TAPS + 2)[1:-1]


def _scaled(owned: np.ndarray, gain: float) -> np.ndarray:
    """A fresh array of this module's, scaled in place by gain and handed on read-only."""
    owned.setflags(write=True)
    owned *= gain
    owned.setflags(write=False)
    return owned


def _far_filter(rig: RigSpec, azimuth: float, signal: SampleBuffer,
                temperature_c: float) -> tuple[float, np.ndarray | None, float]:
    """far_ear's (delay, zero-phase FIR, flat gain): the FIR when the far-to-near ratio varies
    in frequency, else None and that ratio (ORTF's) as the gain."""
    itd = predicted_itd(rig, SourceSpec(azimuth_rad=azimuth), temperature_c)
    kernel = shadow_filter_kernel(rig, azimuth, signal.sample_rate)
    return (itd, kernel, 1.0) if np.ndim(kernel) else (itd, None, kernel)


def far_ear(rig: RigSpec, azimuth: float, signal: SampleBuffer,
            temperature_c: float = 20.0) -> np.ndarray:
    """The far ear's samples of a source at azimuth in [0, pi/2], near ear at unit gain,
    as a fresh read-only array.

    The signal is delayed by the rig's predicted ITD and scaled by the far-to-near ratio of
    ear_gains: its zero-phase FIR fit, run in the delay's one convolution and so exact at
    the edges, or a ratio flat in frequency (ORTF's) multiplied in after the delay.
    """
    delay, fir, ratio = _far_filter(rig, azimuth, signal, temperature_c)
    far = apply_fractional_delay(signal, delay, fir).samples
    return far if fir is not None else _scaled(far, ratio)


def place_arrivals(arrivals: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (left, right) ears, as long as the longest signal, of a sum of arrivals
    (signal, rig, azimuth in [-pi/2, pi/2] and negative to the right, gain, temperature_c):
    the near ear is the signal times the gain (its own array at unit gain), the far ear
    far_ear times the gain (the near ear's array at azimuth 0), swapped at a negative
    azimuth. On ORTF the callers differ only in the gain: a capture passes the rig's near
    gain, so both ears take their cardioid gains, and a render its output gain, so the near
    capsule counts as unit gain.

    A scene of several arrivals adds each ear, in arrival order, into zero-padded float64
    copies of the first arrival's ears, or into the first's own fresh ear where it is full
    length. The far ears that share an output channel and a signal length are one group: a
    group of one is far_ear times its gain, bit for bit a lone arrival's, and a larger group is
    one signals.mix_delayed call, added where its first member's far ear would go. So a scene
    of N sources of one length runs N forward FFTs and at most two inverse FFTs per block, and
    a channel that sums several far ears agrees with the sum of the lone arrivals' ears to
    rounding. ValidationError: no arrivals, mixed sample rates or an empty signal."""
    if len(rates := {arrival[0].sample_rate for arrival in arrivals}) != 1:
        raise ValidationError(f"need arrivals of one sample rate, got rates {sorted(rates)}")
    if any(len(arrival[0]) == 0 for arrival in arrivals):
        raise ValidationError("signal is empty")
    if len(arrivals) == 1:
        [(signal, _, azimuth, gain, _)] = arrivals
        # the far ear first, so that no fresh near ear is held through its convolution
        far = _far_ears(arrivals) if azimuth else None
        near = _near_ear(signal, gain)
        return (near, near) if far is None else (far, near) if azimuth < 0 else (near, far)
    n = max(len(arrival[0]) for arrival in arrivals)
    groups: dict[tuple[bool, int], list[int]] = {}  # (far ear on the right, length) -> arrivals
    for i, (signal, _, azimuth, _, _) in enumerate(arrivals):
        if azimuth:
            groups.setdefault((azimuth > 0, len(signal)), []).append(i)
    ears: list[np.ndarray | None] = [None, None]

    def add(channel: int, ear: np.ndarray, ours: bool) -> None:
        if ears[channel] is not None:
            ears[channel][: ear.size] += ear
        elif ours and ear.size == n:  # the first arrival's fresh ear at full length: no copy
            ears[channel] = ear
            ear.setflags(write=True)
        else:  # the first arrival's ear, as a zero-padded float64 copy
            ears[channel] = np.append(ear, np.zeros(n - ear.size))

    for i, (signal, _, azimuth, gain, _) in enumerate(arrivals):
        side = int(azimuth > 0)  # the far ear's channel
        if azimuth and (group := groups[azimuth > 0, len(signal)])[0] == i:
            # the group's far ears, before the near ear: no two fresh ears are held
            add(side, _far_ears([arrivals[m] for m in group]), True)
        near = _near_ear(signal, gain)
        add(1 - side, near, near is not signal.samples)
        if not azimuth:
            add(side, near, False)
        del near  # before the next group's far ears
    for mix in ears:
        mix.setflags(write=False)
    return ears[0], ears[1]


def _far_ears(arrivals: list[tuple]) -> np.ndarray:
    """The sum of the arrivals' far ears, each times its gain, for signals of one length, as a
    fresh read-only array: a lone arrival's is far_ear's own array, scaled in place, and more
    than one run through one mix_delayed call."""
    if len(arrivals) == 1:
        [(signal, rig, azimuth, gain, temperature_c)] = arrivals
        far = far_ear(rig, abs(azimuth), signal, temperature_c)
        return far if gain == 1.0 else _scaled(far, gain)
    parts = []
    for signal, rig, azimuth, gain, temperature_c in arrivals:
        delay, fir, ratio = _far_filter(rig, abs(azimuth), signal, temperature_c)
        parts.append((signal, delay, fir, ratio * gain))
    return mix_delayed(parts)


def _near_ear(signal: SampleBuffer, gain: float) -> np.ndarray:
    """The signal times the gain, read-only: its own samples at unit gain, else a fresh array
    scaled in one pass."""
    near = signal.samples if gain == 1.0 else np.multiply(gain, signal.samples, dtype=np.float64)
    near.setflags(write=False)
    return near


def simulate_capture(rig: RigSpec, src: SourceSpec, signal: SampleBuffer,
                     temperature_c: float = 20.0) -> StereoBuffer:
    """The rig's capture of a signal, near ear left: one arrival at the rig's near gain."""
    ears = place_arrivals([(signal, rig, src.azimuth_rad, _near_gain(rig, src.azimuth_rad),
                            temperature_c)])
    return StereoBuffer(*(SampleBuffer(ear, signal.sample_rate) for ear in ears))


def fit_path_extension(rig_kind: RigKind, measured_itd_s: float, azimuth: float,
                       temperature_c: float = 20.0) -> float:
    """Ratio of a measured ITD to the free-field spaced-pair prediction.

    The one empirical knob of the spaced rigs: it absorbs baffle diffraction
    that the geometry alone cannot explain. Only defined for rigs with a mic
    spacing and at an azimuth in (0, pi/2]: at 0 the free-field path vanishes.
    """
    spacing = _DEFAULTS[rig_kind].get("mic_spacing_m")
    if spacing is None:
        raise ValidationError(f"{rig_kind.value} has no spaced-pair path to fit")
    check_number("azimuth", azimuth, 0.0, math.pi / 2, "(]")
    return (check_number("measured_itd_s", measured_itd_s, ends="()")
            / _free_field_itd(spacing, azimuth, temperature_c))


# --- rig config files: flat "key = value" text -----------------------------

#: Config key -> RigSpec attribute path of its value: the one key schema, read
#: by rig_fields for reports and by load_rig_config. A kind's keys are those
#: whose attribute its _DEFAULTS row has, in this (file) order.
_FIELDS = {
    "radius_m": ("radius_m",),
    "mic_spacing_m": ("mic_spacing_m",),
    "capsule_angle_deg": ("capsule_angle_deg",),
    "path_extension": ("path_extension",),
    "shadow.max_db": ("shadow", "max_attenuation_db"),
    "shadow.corner_hz": ("shadow", "corner_hz"),
    "shadow.exponent": ("shadow", "azimuth_exponent"),
}


def rig_fields(spec: RigSpec) -> dict[str, float]:
    """The spec's config keys (all but 'kind') and their values, in file order."""
    row = _DEFAULTS[spec.kind]
    return {key: reduce(getattr, path, spec) for key, path in _FIELDS.items() if path[0] in row}


def load_rig_config(path: str | Path) -> RigSpec:
    """Parse a flat key = value rig config; unknown keys are named in the error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: a rig config must be UTF-8 text") from None
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValidationError(f"{path}:{lineno}: key '{key}' repeats line {first_line[key]}")
        first_line[key], entries[key] = lineno, value

    if "kind" not in entries:
        raise ValidationError(f"{path}: missing required key 'kind'")
    try:
        kind = RigKind(entries.pop("kind"))
    except ValueError:
        valid = ", ".join(RIG_NAMES)
        raise ValidationError(f"{path}: unknown rig kind; expected one of: {valid}") from None

    base = default_rig(kind)
    unknown = sorted(set(entries) - set(rig_fields(base)))
    if unknown:
        raise ValidationError(
            f"{path}: invalid config key(s) for kind '{kind.value}': {', '.join(unknown)}"
        )

    changes: dict[str, object] = {}
    for key, text in entries.items():
        try:
            value = float(text)
        except ValueError:
            raise ValidationError(f"{path}: key '{key}' must be a number, got {text!r}") from None
        attr, *inner = _FIELDS[key]
        if inner:
            value = replace(changes.get(attr, getattr(base, attr)), **{inner[0]: value})
        changes[attr] = value
    return replace(base, **changes)
