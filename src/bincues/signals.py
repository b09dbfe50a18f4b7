"""Test-signal generators, sample-accurate delay, and the audio buffer types.

Sample values are dimensionless amplitudes in the nominal range -1.0..+1.0
at a fixed integer sample rate. Buffers are finite and immutable: a NaN or
infinite sample is rejected when a buffer is built, so no later stage sees
one. Producers hand their fresh arrays over read-only, which a buffer adopts without a
copy. Generators and transforms always return new buffers, so concurrent use on distinct
buffers is safe. Every FIR runs on fft_convolve's overlap-add loop, so numpy is all it needs;
it computes only the window its caller keeps, so no temporary but that window grows with the
signal. The loop reads its long operands a step at a time, so pink noise draws its white noise
block by block and holds only the pink window, and mix_delayed sums several delayed and
filtered buffers with one inverse FFT per block for all of them.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_number

DEFAULT_SAMPLE_RATE = 48000
# The octave band centers in Hz of a cue report's ILD table and of a simulation's model ILDs
DEFAULT_OCTAVE_CENTERS = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)
_MAX_SAMPLES = (2**32 - 1) // 4  # the most float32 samples one WAV data chunk can hold

# Third-order pinking IIR: -3 dB/octave power slope across the audio band
# (slope error < 0.02 dB/octave over 100 Hz..10 kHz at 48 kHz).
_PINK_B = np.array([0.049922035, -0.095993537, 0.050612699, -0.004408786])
_PINK_A = np.array([1.0, -2.494956002, 2.017265875, -0.522189400])
_PINK_WARMUP = 8192
_PINK_PEAK = 0.9

_FD_TAPS = 65        # windowed-sinc interpolator length, odd so it has a center tap
_FD_HALF = _FD_TAPS // 2
_FD_BETA = 8.6       # Kaiser shape: ripple < 0.001 dB and phase error < 0.01
#                      degree below 0.9 Nyquist at this length
_FD_SNAP = 1e-9      # sub-sample residue below this collapses to an integer shift
_CONV_BYTES = 1 << 18  # block bytes per overlap-add step; 1 MiB puts a 5 s far ear at 2.59 channels


@dataclass(frozen=True)
class SampleBuffer:
    """Uniformly sampled mono audio: finite float64 samples, or float32 samples that widen
    exactly, plus a sample rate in Hz.

    A float64 or float32 ndarray that is read-only and owns its memory (`base is None`) is
    adopted, and buffers may share it; anything else is copied to float64 and the copy made
    read-only. Only an array's owner can make it writable again, which holds for the buffer's
    copy too. Whoever does arithmetic on float32 samples widens them to float64 first, so a
    result does not depend on which of the two a buffer holds.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_rate", check_rate(self.sample_rate))
        samples = self.samples
        if not (type(samples) is np.ndarray and samples.dtype in (np.float64, np.float32)
                and samples.base is None and not samples.flags.writeable):
            samples = np.array(samples, dtype=np.float64, copy=True)
        if samples.ndim != 1:
            raise ValidationError(f"samples must be one-dimensional, got shape {samples.shape}")
        # min and max carry any NaN or inf, and need no temporary the size of the samples
        if not (np.isfinite(samples.min(initial=0.0)) and np.isfinite(samples.max(initial=0.0))):
            raise ValidationError("samples must be finite; the buffer holds NaN or inf")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class StereoBuffer:
    """Two equal-length, equal-rate channels; left is the reference channel. ValidationError
    unless both are SampleBuffers of one length and rate."""

    left: SampleBuffer
    right: SampleBuffer

    def __post_init__(self) -> None:
        for name, channel in (("left", self.left), ("right", self.right)):
            if not isinstance(channel, SampleBuffer):
                raise ValidationError(f"{name} must be a SampleBuffer, got {type(channel).__name__}")
        if self.left.sample_rate != self.right.sample_rate:
            raise ValidationError(
                f"channel sample rates differ: {self.left.sample_rate} vs {self.right.sample_rate}"
            )
        if len(self.left) != len(self.right):
            raise ValidationError(
                f"channel lengths differ: {len(self.left)} vs {len(self.right)}"
            )

    def __len__(self) -> int:
        return len(self.left)

    @property
    def sample_rate(self) -> int:
        return self.left.sample_rate

    def swapped(self) -> "StereoBuffer":
        return StereoBuffer(left=self.right, right=self.left)


def check_rate(sample_rate: int) -> int:
    """sample_rate as an int; ValidationError unless an integer >= 1 or a whole float (48000.0)."""
    return check_number("sample_rate", sample_rate, 1, ends="[)", integer="whole")


def _num_samples(duration: float, sample_rate: int) -> int:
    """duration in whole samples, from 1 up to _MAX_SAMPLES, at a valid sample_rate."""
    sample_rate = check_rate(sample_rate)
    check_number("duration", duration, 0.0, ends="()")
    if duration * sample_rate > _MAX_SAMPLES:
        raise ValidationError(
            f"duration {duration} s is over {_MAX_SAMPLES} samples at {sample_rate} Hz")
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ValidationError(f"duration {duration} s is shorter than one sample at {sample_rate} Hz")
    return n


def gen_sine(freq: float, duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE,
             amplitude: float = 1.0) -> SampleBuffer:
    """Sine tone starting at phase zero.

    freq must lie strictly between 0 and the Nyquist frequency; amplitude is
    the peak value in 0..1; else, or for a bad rate or duration, ValidationError.
    """
    check_number("freq", freq, 0.0, check_rate(sample_rate) / 2, "()")
    check_number("amplitude", amplitude, 0.0, 1.0)
    # in place, in the order amplitude * sin(2 pi freq t) evaluates: one array, its bits
    t = np.arange(_num_samples(duration, sample_rate), dtype=np.float64)
    t /= sample_rate
    np.multiply(t, 2.0 * np.pi * freq, out=t)
    np.sin(t, out=t)
    t *= amplitude
    t.setflags(write=False)
    return SampleBuffer(t, sample_rate)


def gen_pink_noise(duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE,
                   seed: int = 0) -> SampleBuffer:
    """Seeded pink noise, peak-normalized to 0.9.

    White noise from a PCG64 generator is shaped by a fixed pinking IIR (J. O. Smith,
    "Spectral Audio Signal Processing") run as a truncated FIR, so a given (duration,
    sample_rate, seed) triple is bit-reproducible. The convolution draws the white noise one
    block at a time, the same stream as one draw, and returns only the window after the
    start-up transient, which the buffer adopts without a copy: no white array is held.
    """
    n = _num_samples(duration, sample_rate)
    check_number("seed", seed, 0, ends="[)", integer=True)
    rng, white = np.random.default_rng(seed), np.empty(0)

    def draw(a: int, b: int) -> np.ndarray:  # read in order from 0: the next b - a normals
        nonlocal white
        if white.size < b - a:
            white = np.empty(b - a)
        return rng.standard_normal(out=white[: b - a])

    taps, spectrum = _pink_filter()
    pink = _overlap_add([draw], n + _PINK_WARMUP, taps[None], _PINK_WARMUP, n, spectrum[None])
    pink *= _PINK_PEAK / max(pink.max(), -pink.min())  # the peak of |pink|, with no |pink| array
    pink.setflags(write=False)
    return SampleBuffer(pink, sample_rate)


@functools.cache
def _pink_filter() -> tuple[np.ndarray, np.ndarray]:
    """The pinking IIR's impulse response by frequency sampling, cut to 8193 taps (the rest is
    under 2.4e-20), and the taps' rfft at their overlap-add block size, 2**15: both made on the
    first pink call, not at import."""
    taps = np.fft.irfft(np.fft.rfft(_PINK_B, 2**15) / np.fft.rfft(_PINK_A, 2**15))
    taps = taps[: _PINK_WARMUP + 1].copy()  # a view would keep the whole transform alive
    return taps, np.fft.rfft(taps, 2**15)


def gen_impulse(duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE,
                offset: int = 0) -> SampleBuffer:
    """Unit impulse: a single 1.0 sample at `offset`, zeros elsewhere."""
    n = _num_samples(duration, sample_rate)
    check_number("offset", offset, 0, n, "[)", integer=True)
    samples = np.zeros(n)
    samples[offset] = 1.0
    samples.setflags(write=False)
    return SampleBuffer(samples, sample_rate)


def fft_convolve(x: np.ndarray, kernel: np.ndarray, start: int = 0,
                 count: int | None = None) -> np.ndarray:
    """Samples start..start+count of the full linear convolution of real 1-D arrays, zeros where
    it has none, as a fresh array; by default the whole convolution. Overlap-add (Stockham 1966)
    cuts the longer operand into blocks of size - taps + 1 samples, size being the next power of
    two at or above max(2 * taps - 1, 4096), and filters about _CONV_BYTES of blocks per step by
    the shorter in preallocated rfft and irfft buffers, so the window is the one array that grows
    with the signal. Each sample is a block's output plus at most the previous block's tail.
    float32 operands widen to float64 exactly, the longer one a step at a time."""
    x, kernel = sorted((x, kernel), key=len, reverse=True)
    return _overlap_add([_reader(x)], x.size, kernel.astype(np.float64, copy=False)[None],
                        start, count)


def _reader(x: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """_overlap_add's read of x: samples a..b, float32 widened to float64 a step at a time."""
    return lambda a, b: x[a:b].astype(np.float64, copy=False)


def _overlap_add(reads: list[Callable[[int, int], np.ndarray]], n: int, kernels: np.ndarray,
                 start: int, count: int | None, h: np.ndarray | None = None) -> np.ndarray:
    """fft_convolve's loop, summed over long operands of n samples each, one per read and per
    row of the 2-D kernels: each read(a, b) -> samples a..b of its operand, calls that run in
    order and join end to end. In each block the operands' spectra, each weighted by its
    kernel's, add up before one irfft, so k operands cost k forward transforms and one inverse;
    one operand runs fft_convolve's arithmetic. h is the kernels' rfft at the block size, if
    the caller keeps one."""
    taps = kernels.shape[1]
    full = n + taps - 1 if taps else 0
    out = np.zeros(full - start if count is None else count)
    lo, hi = max(start, 0), min(start + out.size, full)  # the window's part of the convolution
    if lo >= hi:
        return out
    size = 1 << max(2 * taps - 2, 4095).bit_length()
    step = size - taps + 1  # >= taps, so a tail reaches one block on
    h = np.fft.rfft(kernels, size) if h is None else h
    batch = max(_CONV_BYTES // (8 * size), 1)
    spectra, y = np.empty((batch, size // 2 + 1), complex), np.empty((batch, size))
    spare = np.empty_like(spectra) if len(reads) > 1 else None  # the later operands' spectra
    first, stop = max(lo // step - 1, 0), min((hi - 1) // step + 1, -(-n // step))
    tail = np.full(taps - 1, -0.0)  # v + -0.0 is v, signed zeros too: block `first` has no tail
    for j in range(first, stop, batch):
        k = min(batch, stop - j)
        end = min((j + k) * step, n)
        whole = (end - j * step) // step  # a partial last block is its own rfft
        for i, read in enumerate(reads):
            seg, into = read(j * step, end), spare if i else spectra
            np.fft.rfft(seg[: whole * step].reshape(whole, step), size, out=into[:whole])
            if whole < k:
                np.fft.rfft(seg[whole * step :], size, out=into[whole])
            into[:k] *= h[i]
            if i:
                spectra[:k] += into[:k]
        np.fft.irfft(spectra[:k], size, out=y[:k])
        y[0, : taps - 1] += tail
        y[1:k, : taps - 1] += y[: k - 1, step:]
        tail = y[k - 1, step:].copy()
        # the step's heads, y[:k, :step] read row after row, cover a..b of the window: whole
        # rows go through a 2-D view of it, the partial first and last rows apart
        base = j * step - start
        a, b = max(lo, j * step) - j * step, max(lo, min(hi, (j + k) * step)) - j * step
        r0, r1 = a // step, (b - 1) // step  # the first and last rows in a..b
        if a < b and r0 == r1:
            out[base + a : base + b] = y[r0, a - r0 * step : b - r0 * step]
        elif a < b:
            out[base + a : base + (r0 + 1) * step] = y[r0, a - r0 * step : step]
            whole = out[base + (r0 + 1) * step : base + r1 * step].reshape(-1, step)
            whole[...] = y[r0 + 1 : r1, :step]
            out[base + r1 * step : base + b] = y[r1, : b - r1 * step]
    if hi > stop * step:  # past the last block only its tail reaches: zero plus the tail
        a = max(lo, stop * step)
        out[a - start : hi - start] += tail[a - stop * step : hi - stop * step]
    return out


def _fd_kernel(mu: float) -> np.ndarray:
    """Windowed-sinc interpolation kernel delaying by _FD_HALF + mu samples."""
    t = np.arange(_FD_TAPS) - _FD_HALF - mu
    edge = _FD_HALF + 1.0
    window = np.i0(_FD_BETA * np.sqrt(1.0 - (t / edge) ** 2)) / _kaiser_norm()
    kernel = np.sinc(t) * window
    return kernel / kernel.sum()


@functools.cache
def _kaiser_norm() -> float:
    """np.i0(_FD_BETA), the Kaiser window's normalizer: made on the first call, not at import,
    where numpy's first i0 raises the peak RSS of every process that imports this module."""
    return float(np.i0(_FD_BETA))


def _shifted(x: np.ndarray, shift: int) -> np.ndarray:
    """x delayed by shift >= 0 whole samples, cut to its length, zeros in front: a fresh
    read-only array, which a SampleBuffer adopts without a copy."""
    out = np.zeros(x.size)
    out[shift:] = x[: max(x.size - shift, 0)]
    out.setflags(write=False)
    return out


def apply_fractional_delay(buf: SampleBuffer, delay: float,
                           fir: np.ndarray | None = None) -> SampleBuffer:
    """Delay a buffer by an arbitrary finite non-negative time, sub-sample accurate.

    Integer-sample delays are exact shifts. Fractional residues go through a
    65-tap Kaiser-windowed sinc interpolator, which keeps the phase of any
    steady-state sine below 0.9 Nyquist within well under a degree of the
    ideal 360*f*delay lag. An optional odd-length zero-phase `fir` of finite taps joins the
    interpolator, or for an integer delay is the whole kernel, in one convolution
    whose window, centred on the kernel's middle tap, is the output: the exact response
    of the zero-extended input cropped to its length, and all zeros once the delay
    passes the end plus the kernel's reach.
    """
    kernel, start = _delay_kernel(buf, delay, fir)
    if kernel is None:
        return SampleBuffer(_shifted(buf.samples, -start), buf.sample_rate)
    out = fft_convolve(buf.samples, kernel, start, len(buf))
    out.setflags(write=False)
    return SampleBuffer(out, buf.sample_rate)


def mix_delayed(parts: list[tuple[SampleBuffer, float, np.ndarray | None, float]]) -> np.ndarray:
    """The sum over parts (buf, delay, fir, gain), buffers of one length and one rate, of gain
    times apply_fractional_delay(buf, delay, fir).samples, as a fresh read-only array: the
    same kernels and windows, in one overlap-add. Each part's kernel, times its gain, sits in
    one shared frame moved by its whole-sample delay, so the spread of the delays widens the
    frame and its blocks. Each block costs one rfft per part and one irfft in all, and no
    part's delayed buffer is ever made. It agrees with the sum of the parts' own delays to
    rounding, not bit for bit. ValidationError: no parts, buffers of unequal length or rate,
    a delay or fir that apply_fractional_delay refuses, or a gain that is not a finite
    number."""
    if not parts:
        raise ValidationError("need at least one part to mix")
    if len(shapes := {(len(part[0]), part[0].sample_rate) for part in parts}) != 1:
        raise ValidationError(f"need buffers of one (length, sample rate), got {sorted(shapes)}")
    rows = []  # (kernel times gain, the convolution's index of the window's first sample)
    for buf, delay, fir, gain in parts:
        kernel, start = _delay_kernel(buf, delay, fir)
        kernel = np.ones(1) if kernel is None else kernel  # an exact shift is a one-tap kernel
        rows.append((kernel * check_number("gain", gain, ends="()"), start))
    top = max(start for _, start in rows)  # the frame's window starts here for every part
    kernels = np.zeros((len(rows), max(top - start + kernel.size for kernel, start in rows)))
    for row, (kernel, start) in zip(kernels, rows):
        row[top - start : top - start + kernel.size] = kernel
    [(n, _)] = shapes
    out = _overlap_add([_reader(part[0].samples) for part in parts], n, kernels, top, n)
    out.setflags(write=False)
    return out


def _delay_kernel(buf: SampleBuffer, delay: float,
                  fir: np.ndarray | None) -> tuple[np.ndarray | None, int]:
    """apply_fractional_delay's checks and its kernel: (kernel, start), where the delayed buffer
    is the window from sample start of its convolution with buf, or (None, -shift) for an exact
    shift by whole samples."""
    check_number("delay", delay, 0.0, ends="[)")
    if fir is not None:
        fir = np.asarray(fir)
        if fir.ndim != 1 or fir.size % 2 == 0:
            raise ValidationError(f"fir must be 1-D and of odd length, got shape {fir.shape}")
        for tap in (fir.min(), fir.max()) if fir.dtype.kind in "iuf" else fir:  # extremes carry NaN
            check_number("fir", tap, ends="()")
    # Past the buffer and the kernel's reach the output is all zeros: cap there, as int(inf) fails.
    total = min(delay * buf.sample_rate, len(buf) + _FD_TAPS + (0 if fir is None else fir.size))
    d_int = int(np.floor(total))
    mu = total - d_int
    if _FD_SNAP <= mu <= 1.0 - _FD_SNAP:
        kernel = _fd_kernel(mu) if fir is None else np.convolve(_fd_kernel(mu), fir)
    elif fir is None:
        return None, -int(round(total))
    else:
        d_int, kernel = int(round(total)), fir
    # conv lags buf by kernel.size // 2 (+ mu), so its window from there delays by d_int (+ mu)
    return kernel, kernel.size // 2 - d_int
