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
from .signals import SampleBuffer, StereoBuffer, check_rate, mix_delayed


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


def _far_part(signal: SampleBuffer, rig: RigSpec, azimuth: float, gain: float,
              temperature_c: float) -> tuple[SampleBuffer, float, np.ndarray | None, float]:
    """The far ear of a source at azimuth in [0, pi/2], times gain, as one mix_delayed part
    (signal, ITD, FIR, gain): the zero-phase FIR of ear_gains' far-to-near ratio, or None when
    that ratio is flat in frequency (ORTF's) and multiplied into the gain."""
    itd = predicted_itd(rig, SourceSpec(azimuth_rad=azimuth), temperature_c)
    fir = shadow_filter_kernel(rig, azimuth, signal.sample_rate)
    return (signal, itd, fir, gain) if np.ndim(fir) else (signal, itd, None, fir * gain)


def far_ear(rig: RigSpec, azimuth: float, signal: SampleBuffer,
            temperature_c: float = 20.0) -> np.ndarray:
    """The far ear's samples of a source at azimuth in [0, pi/2], near ear at unit gain, as a
    fresh read-only array: one mix_delayed call, as every far ear is, that delays the signal by
    the rig's predicted ITD and scales it by ear_gains' far-to-near ratio, exact at the edges."""
    return mix_delayed([_far_part(signal, rig, azimuth, 1.0, temperature_c)])


def place_arrivals(arrivals: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (left, right) ears, as long as the longest signal, of a sum of arrivals
    (signal, rig, azimuth in [-pi/2, pi/2] and negative to the right, gain, temperature_c):
    the near ear is the signal times the gain (its own array at unit gain), the far ear
    far_ear times the gain, swapped at a negative azimuth; at azimuth 0 the near ear is both.

    The far ears of one output channel and signal length are one group, and each group, of one
    far ear or more, is one signals.mix_delayed call where its first member arrives: N sources
    of one length run N forward FFTs and at most two inverse FFTs per block. A channel keeps
    its first ear and adds each later one, in arrival order, into it, or into a zero-padded
    float64 copy if it is short, a caller's array or the other channel's too. So a channel of
    several far ears is the sum of the lone arrivals' ears to rounding. ValidationError: no
    arrivals, mixed sample rates or an empty signal."""
    if len(rates := {arrival[0].sample_rate for arrival in arrivals}) != 1:
        raise ValidationError(f"need arrivals of one sample rate, got rates {sorted(rates)}")
    if any(len(arrival[0]) == 0 for arrival in arrivals):
        raise ValidationError("signal is empty")
    n = max(len(arrival[0]) for arrival in arrivals)
    groups: dict[tuple[bool, int], list[tuple]] = {}  # (far ear on the right, length) -> parts
    for signal, rig, azimuth, gain, temperature_c in arrivals:
        if azimuth:
            groups.setdefault((azimuth > 0, len(signal)), []).append(
                _far_part(signal, rig, abs(azimuth), gain, temperature_c))
    theirs = {id(arrival[0].samples) for arrival in arrivals}  # the callers' arrays
    ears: list[np.ndarray | None] = [None, None]

    def add(channel: int, ear: np.ndarray) -> None:
        if (held := ears[channel]) is None:
            ears[channel] = ear
        else:
            if held.size < n or held is ears[1 - channel] or id(held) in theirs:
                held = ears[channel] = np.append(held, np.zeros(n - held.size))
            held.setflags(write=True)
            held[: ear.size] += ear

    for signal, _, azimuth, gain, _ in arrivals:
        side = int(azimuth > 0)  # the far ear's channel
        if azimuth and (parts := groups.pop((azimuth > 0, len(signal)), None)):
            add(side, mix_delayed(parts))  # before the near ear: no two fresh ears are held
        near = signal.samples if gain == 1.0 else np.multiply(gain, signal.samples, dtype=float)
        for channel in (1 - side,) if azimuth else (0, 1):
            add(channel, near)
        del near  # before the next group's far ears
    for ear in ears:
        ear.setflags(write=False)
    return ears[0], ears[1]


def simulate_capture(rig: RigSpec, src: SourceSpec, signal: SampleBuffer,
                     temperature_c: float = 20.0) -> StereoBuffer:
    """The rig's capture of a signal, near ear left: one arrival at unit gain, whose two ears
    are then scaled by the rig's near gain (ORTF's near cardioid; 1 for the other kinds), the
    fresh far ear in place and the near ear, the signal's array, into one new array."""
    near, far = place_arrivals([(signal, rig, src.azimuth_rad, 1.0, temperature_c)])
    if (gain := _near_gain(rig, src.azimuth_rad)) != 1.0:
        if far is not near:
            far.setflags(write=True)
            far *= gain
            far.setflags(write=False)
        scaled = np.multiply(gain, near, dtype=np.float64)
        scaled.setflags(write=False)
        near, far = scaled, scaled if far is near else far
    return StereoBuffer(*(SampleBuffer(ear, signal.sample_rate) for ear in (near, far)))


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
    """Parse a flat key = value rig config, UTF-8 text with or without a byte-order mark;
    unknown keys are named in the error."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
