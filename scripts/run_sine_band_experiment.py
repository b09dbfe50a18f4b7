#!/usr/bin/env python3
"""Two-band sine ITD experiment on synthetic captures.

Builds a capture whose low band (220 Hz burst) and high band (6 kHz burst)
carry different interaural delays, then shows the band-weighted estimator
recovering each delay and their split. Defaults reproduce the reference
split of 42 us between the bands; pass --low-ms/--high-ms to explore others
(for example 0.83/0.75 for a semi-dummy-style 80 us split).

Also prints, for context, the frequency-dependent model's low/high band
predictions next to the frequency-independent arc model.
"""

import argparse
import math
import sys

import numpy as np

from bincues import (HeadGeometry, SampleBuffer, StereoBuffer, apply_fractional_delay,
                     band_itd, gen_sine, itd_modified, itd_simple)


def two_tone_capture(delay_low_s, delay_high_s, sample_rate, low_hz, high_hz):
    total = int(2.6 * sample_rate)

    def burst(freq, at_s):
        sig = np.zeros(total)
        tone = gen_sine(freq, 1.0, sample_rate, 0.9).samples
        start = int(at_s * sample_rate)
        sig[start : start + tone.size] = tone
        return SampleBuffer(sig, sample_rate)

    low, high = burst(low_hz, 0.1), burst(high_hz, 1.4)
    left = SampleBuffer(low.samples + high.samples, sample_rate)
    right = SampleBuffer(apply_fractional_delay(low, delay_low_s).samples
                         + apply_fractional_delay(high, delay_high_s).samples, sample_rate)
    return StereoBuffer(left, right)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--low-ms", type=float, default=0.711, help="low-band delay (ms)")
    parser.add_argument("--high-ms", type=float, default=0.669, help="high-band delay (ms)")
    parser.add_argument("--low-hz", type=float, default=220.0)
    parser.add_argument("--high-hz", type=float, default=6000.0)
    parser.add_argument("--sample-rate", type=int, default=48000)
    args = parser.parse_args(argv)

    capture = two_tone_capture(args.low_ms * 1e-3, args.high_ms * 1e-3,
                               args.sample_rate, args.low_hz, args.high_hz)
    low, high = band_itd(capture, low_hz=args.low_hz, high_hz=args.high_hz)

    print(f"constructed delays: low {args.low_ms:.3f} ms, high {args.high_ms:.3f} ms "
          f"(split {(args.low_ms - args.high_ms) * 1e3:.1f} us)")
    print(f"recovered delays:   low {low * 1e3:.3f} ms, high {high * 1e3:.3f} ms "
          f"(split {(low - high) * 1e6:.1f} us)")
    print(f"recovery error:     low {(low - args.low_ms * 1e-3) * 1e6:+.2f} us, "
          f"high {(high - args.high_ms * 1e-3) * 1e6:+.2f} us")

    geom = HeadGeometry()
    broadside = math.pi / 2
    print("\nmodel context at broadside (default head):")
    print(f"  arc model (frequency-independent): {itd_simple(geom, broadside) * 1e3:.3f} ms")
    print(f"  frequency-dependent model at {args.low_hz:g} Hz: "
          f"{itd_modified(geom, broadside, args.low_hz) * 1e3:.3f} ms")
    print(f"  frequency-dependent model at {args.high_hz:g} Hz: "
          f"{itd_modified(geom, broadside, args.high_hz) * 1e3:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
