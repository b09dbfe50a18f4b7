"""Binauralization of mono sources.

rigsim.place_arrivals applies the rig's model ITD as a true fractional delay and its
model ILD as a zero-phase shadow filter, producing headphone-ready stereo. This supplies
exactly what a pan pot lacks: the time-of-arrival difference, and with it the phase
difference, emerges from the real delay rather than being synthesized separately.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cue_models import check_temperature
from .errors import check_number
from .rigsim import RigSpec, human_head, place_arrivals
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
        check_number("azimuth_rad", self.azimuth_rad, -math.pi / 2, math.pi / 2)  # no rear
        check_number("gain_db", self.gain_db, -math.inf, 0.0)
        check_temperature(self.temperature_c)


def binauralize(signal: SampleBuffer, spec: RenderSpec) -> StereoBuffer:
    """Render a mono source at the spec's azimuth: the scene of that one source."""
    return binauralize_scene([(signal, spec)])


def binauralize_scene(sources: list[tuple[SampleBuffer, RenderSpec]]) -> StereoBuffer:
    """Mix sources, each an arrival of rigsim.place_arrivals at its spec's gain. No source is
    normalized on its own, so levels keep their ratios: a mix that would peak above 1.0 is
    scaled down, both channels together so the interaural cues survive, and logged."""
    if not sources:
        empty = SampleBuffer(np.zeros(0), DEFAULT_SAMPLE_RATE)
        return StereoBuffer(empty, empty)
    left, right = place_arrivals([(signal, spec.rig, spec.azimuth_rad,
                                   10.0 ** (spec.gain_db / 20.0), spec.temperature_c)
                                  for signal, spec in sources])
    ears = [left] if left is right else [left, right]  # one array on the median plane
    peak = float(max(max(ear.max(), -ear.min()) for ear in ears))  # a float32 ear's max is float32
    if peak > 1.0:
        log.warning("scene mix clipped; normalized by %.6f", 1.0 / peak)
        # divided in place, so a lone unit-gain source's near ear, its own array, is copied
        ears = [ear.astype(np.float64, copy=ear is sources[0][0].samples) for ear in ears]
        for ear in ears:
            ear.setflags(write=True)
            ear /= peak
            ear.setflags(write=False)
    sr = sources[0][0].sample_rate
    return StereoBuffer(SampleBuffer(ears[0], sr), SampleBuffer(ears[-1], sr))
