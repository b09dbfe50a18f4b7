"""Binauralization of mono sources.

Applies the rig's model ITD as a true fractional delay and its model ILD as
a zero-phase shadow filter, producing headphone-ready stereo. This supplies
exactly what a pan pot lacks: the time-of-arrival difference, and with it
the phase difference, emerges from the real delay rather than being
synthesized separately.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cue_models import check_temperature
from .errors import ValidationError
from .rigsim import RigSpec, far_ear, human_head
from .signals import DEFAULT_SAMPLE_RATE, SampleBuffer, StereoBuffer

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RenderSpec:
    """How to place one source: rig, signed azimuth, temperature, output gain.

    Azimuth covers the frontal hemisphere only: -pi/2..+pi/2, negative to the
    right. Gain is attenuation-only (<= 0 dB) to preserve headroom.
    """

    rig: RigSpec = field(default_factory=human_head)
    azimuth_rad: float = 0.0
    temperature_c: float = 20.0
    gain_db: float = 0.0

    def __post_init__(self) -> None:
        if not abs(self.azimuth_rad) <= math.pi / 2:
            raise ValidationError(
                f"azimuth must lie in [-pi/2, pi/2] (rear hemisphere unsupported), got {self.azimuth_rad}"
            )
        if not self.gain_db <= 0:
            raise ValidationError(f"gain_db must be <= 0, got {self.gain_db}")
        check_temperature(self.temperature_c)


def _placed(signal: SampleBuffer, spec: RenderSpec) -> tuple[np.ndarray, np.ndarray]:
    """One source's (left, right) after gain, before any normalization: fresh writable
    arrays, one array for both at azimuth 0."""
    if len(signal) == 0:
        raise ValidationError("signal is empty")
    gain = 10.0 ** (spec.gain_db / 20.0)
    near = np.multiply(gain, signal.samples, dtype=np.float64)  # float32 samples widen first
    if spec.azimuth_rad == 0.0:
        return near, near
    far = far_ear(spec.rig, abs(spec.azimuth_rad), signal, spec.temperature_c)
    far.setflags(write=True)  # far_ear's fresh array, scaled by its owner
    far *= gain
    return (near, far) if spec.azimuth_rad > 0 else (far, near)


def binauralize(signal: SampleBuffer, spec: RenderSpec) -> StereoBuffer:
    """Render a mono source at the spec's azimuth: the scene of that one source.

    The near ear gets the dry signal, the far ear the delayed and shadowed
    one from rigsim.far_ear, or at azimuth 0 the near ear's own array; a
    negative azimuth mirrors the channels sample-exactly. If the result would
    peak above 1.0 after gain, both channels are scaled down together, and the
    factor logged, so the interaural cues survive intact.
    """
    return binauralize_scene([(signal, spec)])


def binauralize_scene(sources: list[tuple[SampleBuffer, RenderSpec]]) -> StereoBuffer:
    """Mix independently binauralized sources; binauralize is the one-source scene.

    Sources of different lengths are zero-padded to the longest. No source is
    normalized on its own, so their levels keep their ratios; the mix is
    peak-normalized only if it clips, and the scale factor is logged.
    """
    if not sources:
        empty = SampleBuffer(np.zeros(0), DEFAULT_SAMPLE_RATE)
        return StereoBuffer(empty, empty)
    rates = {signal.sample_rate for signal, _ in sources}
    if len(rates) != 1:
        raise ValidationError(f"sources mix sample rates: {sorted(rates)}")
    sr = rates.pop()

    left, right = _placed(*sources[0])  # a lone source's fresh ears are the mix
    if len(sources) > 1:  # padded copies, one per ear, that the other sources add into
        n = max(len(signal) for signal, _ in sources)
        left, right = (np.pad(ear, (0, n - ear.size)) for ear in (left, right))
        for signal, spec in sources[1:]:
            ears = _placed(signal, spec)
            left[: len(signal)] += ears[0]
            right[: len(signal)] += ears[1]
            del ears  # before the next source renders

    ears = (left,) if left is right else (left, right)
    peak = max(max(ear.max(), -ear.min()) for ear in ears)
    if peak > 1.0:
        log.warning("scene mix clipped; normalized by %.6f", 1.0 / peak)
    for ear in ears:  # fresh arrays: normalized in place, then handed to the buffers
        if peak > 1.0:
            ear /= peak
        ear.setflags(write=False)
    return StereoBuffer(SampleBuffer(left, sr), SampleBuffer(right, sr))
