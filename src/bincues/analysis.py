"""Dual-channel measurement pipeline.

Implements the measurement side of the artifact: Welch-averaged transfer
function (magnitude, phase, coherence, broadband delay), generalized
cross-correlation ITD estimation with sub-sample peak refinement, per-band
sine ITD, microphone-pair calibration verdicts, and octave-band level
summaries. All functions are pure and reentrant.

The Welch spectra are one value, summed block by block by one streaming accumulator from a
Hann-windowed STFT per channel, which analyze_capture feeds once: per-batch sums of a few
segments, closed at fixed segment indices, so the bits do not depend on how the capture is
cut, in 1.4 MiB whatever its length (1.76 MiB at the peak). Every correlation is Knapp &
Carter's GCC on its one averaged cross-spectrum, negative lags from the conjugate, and must
peak inside its lag window: the broadband delay and the "none" ITD read it as it is, the "phat"
ITD whitened and each band ITD weighted by an octave band-pass's |H|^4, so no transform spans
the capture and no filter runs. A correlation whose trough in the window outweighs its peak
twice over, an inverted channel's, is named and never read as a cue.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, SilentSignalError, ValidationError, check_number
from .signals import DEFAULT_OCTAVE_CENTERS, SampleBuffer, StereoBuffer, check_rate

DEFAULT_FFT_SIZE = 8192
DEFAULT_OVERLAP = 0.5
DEFAULT_MAX_LAG_S = 0.002
DEFAULT_LOW_BAND_HZ = 220.0
DEFAULT_HIGH_BAND_HZ = 6000.0

SILENCE_RMS = 1e-6

WEIGHTINGS = ("none", "phat")
_INVERTED = 2.0  # a trough this many times the peak is an inverted channel's (see _lag_window)

# Welch segments per batched FFT and per sum added to the total: the windowed segments and
# their spectra hold 1 MiB at 8192 points.
_SEGMENT_BATCH = 4


@dataclass(frozen=True)
class TransferFunction:
    """Per-bin measurement/reference comparison plus a broadband delay.

    magnitude_db is measurement minus reference; phase_deg is wrapped to
    (-180, +180]; broadband_delay_s is positive when the measurement lags. Every value is
    finite and the coherence lies in [0, 1], or ValidationError is raised.
    """

    freqs: np.ndarray
    magnitude_db: np.ndarray
    phase_deg: np.ndarray
    coherence: np.ndarray
    broadband_delay_s: float

    def __post_init__(self) -> None:
        n = self.freqs.size
        if not (self.magnitude_db.size == self.phase_deg.size == self.coherence.size == n):
            raise ValidationError("transfer function arrays must all have equal length")
        if not all(np.isfinite(a).all() for a in (self.freqs, self.magnitude_db, self.phase_deg)):
            raise ValidationError("freqs, magnitude_db and phase_deg must be finite")
        if not np.all((self.coherence >= 0) & (self.coherence <= 1)):  # NaN fails both
            raise ValidationError("coherence must lie in [0, 1]")
        check_number("broadband_delay_s", self.broadband_delay_s, ends="()")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValidationError("freqs must be strictly ascending")


@dataclass(frozen=True)
class CalibrationVerdict:
    passed: bool
    max_abs_deviation_db: float
    worst_freq_hz: float
    delay_s: float


@dataclass(frozen=True)
class CueReport:
    """Binaural cues extracted from one stereo capture.

    itd_s is broadband and signed (positive: right lags left); itd_low_s and
    itd_high_s are octave-band-weighted estimates at the probe tones, 220 Hz and
    6 kHz; ild_spectrum is the right-vs-left transfer function.
    All three ITDs are finite and strictly inside their lag window.
    """

    itd_s: float
    itd_low_s: float
    itd_high_s: float
    ild_spectrum: TransferFunction


@dataclass(frozen=True)
class _Spectra:
    """Welch's spectral densities of left x and right y."""

    size: int
    freqs: np.ndarray
    s_xx: np.ndarray
    s_yy: np.ndarray
    s_xy: np.ndarray


class _Welch:
    """Welch's averaged periodograms of left x and right y, with no detrending, summed as the
    capture streams in through update(); `length` counts every sample, past the last segment too.

    Periodic-Hann-windowed segments are transformed in batches that close at every
    _SEGMENT_BATCH-th segment, however the blocks are cut. Per product, one einsum sums the
    (re, im) halves of |X|^2, |Y|^2, X.Y or X.(-iY) over a batch, and the total adds batches
    in order: the bits do not depend on the cuts, and equal channels' imaginary sums cancel.
    """

    def __init__(self, fft_size: int, sample_rate: int, overlap: float = DEFAULT_OVERLAP) -> None:
        self.size, self.sample_rate = fft_size, sample_rate
        self.step = fft_size - int(fft_size * overlap)
        self.window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, fft_size + 1))[:-1]
        self.length, self._segments = 0, 0  # samples per channel; segments windowed so far
        self._frames = np.empty((2, _SEGMENT_BATCH, fft_size))
        self._spectra = np.empty((2, _SEGMENT_BATCH, fft_size // 2 + 1), complex)
        self._total = np.zeros((4, 2 * (fft_size // 2 + 1)))  # the closed batches' sums
        self._held = np.empty((2, 0))  # the samples from the next segment's start on

    def update(self, x: np.ndarray, y: np.ndarray) -> None:
        """Adds the next block of each channel: equal-length 1-D float64 or float32 arrays,
        which it only reads, so they may be views of a caller's buffer that is reused after the
        call. float32 samples widen exactly in the windowed frames."""
        if x.ndim != 1 or x.shape != y.shape:
            raise ValidationError(f"blocks must be 1-D and of equal length, got {x.shape}"
                                  f" and {y.shape}")
        self.length += x.size
        h, start = self._held.shape[1], 0
        if h:  # segments that start in the held samples end in this block
            need = min(x.size, (h - 1) // self.step * self.step + self.size - h)
            joint = np.concatenate((self._held, (x[:need], y[:need])), axis=1)
            start = self._feed(joint[0], joint[1], 0) - h
            if start < 0:  # the block ends inside them, so all of it is in joint
                x, y, start = joint[0], joint[1], start + h
        start = self._feed(x, y, start)
        self._held = np.stack((x[start:], y[start:]))

    def _feed(self, x: np.ndarray, y: np.ndarray, start: int) -> int:
        """Batches the segments of x and y from start on; returns where the next one starts."""
        if (count := (x.size - start - self.size) // self.step + 1) <= 0:
            return start
        sx, sy = (np.lib.stride_tricks.sliding_window_view(c[start:], self.size)[::self.step]
                  for c in (x, y))
        i = 0
        while i < count:
            b = self._segments % _SEGMENT_BATCH
            k = min(_SEGMENT_BATCH - b, count - i)
            # a contiguous copy widens the strided float32 windows faster than a mixed multiply
            self._frames[0, b : b + k] = sx[i : i + k]
            self._frames[1, b : b + k] = sy[i : i + k]
            self._frames[:, b : b + k] *= self.window
            i, self._segments = i + k, self._segments + k
            if b + k == _SEGMENT_BATCH:
                for total, batch in zip(self._total, self._batch_sums(_SEGMENT_BATCH)):
                    total += batch
        return start + count * self.step

    def _batch_sums(self, b: int) -> Iterator[np.ndarray]:
        """Transforms the first b segments; yields their summed |X|^2, |Y|^2, X.Y and X.(-iY)."""
        spectra = np.fft.rfft(self._frames[:, :b], out=self._spectra[:, :b])
        x, y = spectra.view(float)
        yield np.einsum("ij,ij->j", x, x)
        yield np.einsum("ij,ij->j", y, y)
        yield np.einsum("ij,ij->j", x, y)
        spectra[1] *= -1j  # y now holds -iY
        yield np.einsum("ij,ij->j", x, y)

    def spectra(self) -> _Spectra:
        """The densities so far; the open batch adds to these sums only, not to the total."""
        halves = np.add(self._total[:, 0::2], self._total[:, 1::2])
        if b := self._segments % _SEGMENT_BATCH:
            for half, batch in zip(halves, self._batch_sums(b)):
                half += batch[0::2] + batch[1::2]
        halves[:, 1 : (self.size + 1) // 2] *= 2.0  # onesided: all but DC and Nyquist twice
        halves *= 1.0 / (self.sample_rate * np.sum(self.window ** 2) * self._segments)
        s_xx, s_yy, re, im = halves
        s_xy = re.astype(complex)  # no cast buffers, as re + 1j * im would take
        s_xy.imag = im
        return _Spectra(self.size, np.fft.rfftfreq(self.size, 1.0 / self.sample_rate),
                        s_xx, s_yy, s_xy)


def _check_args(length: int, sample_rate: int, weighting: str, max_lag: float,
                centers: Iterable[float] = (), fft_size: int | None = None) -> tuple[int, list]:
    """An analysis call's argument rules, checked before it reads a sample: the rate's, length's,
    fft_size's (else a capture must not be empty), the weighting's, max_lag's, then the octaves
    at `centers`. Returns max_lag in whole samples (four fit in the ITDs' segment) and the bands."""
    sample_rate = check_rate(sample_rate)
    check_number("length", length, 0, ends="[)", integer=True)
    if fft_size is not None:
        _check_fft_size(fft_size, length, sample_rate)
    elif not length:
        raise ValidationError("the capture is empty")
    if weighting not in WEIGHTINGS:
        raise ValidationError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    m = np.round(check_number("max_lag", max_lag, ends="()") * sample_rate)  # inf on overflow
    if m < 1:
        raise ValidationError(f"max_lag {max_lag} s is under one sample period")
    if (size := min(DEFAULT_FFT_SIZE, length)) < 4 * m:
        raise ValidationError(f"the lag window ({m:.0f} samples) does not fit four times in its"
                              f" {size}-sample segment; narrow max_lag (--max-lag-ms)")
    return int(m), octave_bands(centers, 0.0, sample_rate / 2)


def _lag_window(s: np.ndarray, size: int, max_lag: int,
                widen: str = "max_lag (--max-lag-ms)") -> np.ndarray:
    """Lags -max_lag..max_lag of the `size`-point circular correlation of cross-spectrum s:
    0..max_lag from s, the negative lags from conj(s), so equal channels (s real) give an
    exactly symmetric window.
    A window that misses the delay holds only sidelobes, so the whole correlation must peak
    inside it. An inverted channel turns the peak at the delay into a trough: a trough inside the
    window that outweighs the whole correlation's peak _INVERTED times raises AnalysisError
    naming the polarity. On pink noise captured by every rig, at both weightings, a clean
    broadband correlation's deepest trough is under a third of its peak and a band's under
    its peak, and a tone's about equals its peak, while an inverted capture's broadband
    trough is 3 or more times its peak. An overflow makes every lag NaN and argmax read lag 0,
    so _itd sees to that."""
    pos, neg = (np.fft.irfft(c, size) for c in (s, s.conj()))
    k, j = int(np.argmax(pos)), int(np.argmin(pos))
    if -pos[j] > _INVERTED * pos[k] and not max_lag < j < size - max_lag:
        lag = j if j <= max_lag else j - size
        raise AnalysisError(f"the correlation peaks negative, {pos[j]:.3g} at lag {lag} samples:"
                            f" one channel's polarity is inverted; flip it and analyze again")
    if max_lag < k < size - max_lag:
        raise AnalysisError(f"the correlation peaks outside the lag window; widen {widen}")
    return np.concatenate([neg[max_lag:0:-1], pos[: max_lag + 1]])


def _welch(stereo: StereoBuffer, fft_size: int = 0) -> _Welch:
    """One accumulator fed both channels whole, as views; by default over the segments the
    ITDs read, DEFAULT_FFT_SIZE samples or all of a shorter capture."""
    welch = _Welch(fft_size or min(DEFAULT_FFT_SIZE, len(stereo)), stereo.sample_rate)
    welch.update(stereo.left.samples, stereo.right.samples)
    return welch


def _weighted(s: np.ndarray, weighting: str) -> np.ndarray:
    """Cross-spectrum s as the weighting takes it: as it is for "none", whitened for "phat"."""
    if weighting == "phat":
        s = s / np.maximum(np.abs(s), np.abs(s).max() * 1e-12 + np.finfo(np.float64).tiny)
    return s


def cross_correlation(stereo: StereoBuffer, max_lag: float = DEFAULT_MAX_LAG_S,
                      weighting: str = "none") -> tuple[np.ndarray, np.ndarray]:
    """Generalized cross-correlation of right against left.

    Returns (lags_samples, correlation); a peak at a positive lag means the
    right channel lags the left. It is the inverse transform of the
    Welch-averaged cross-spectrum over DEFAULT_FFT_SIZE segments (one segment
    when the buffer is shorter), weighted by 1 for "none" and whitened for
    "phat". The window must fit four times in a segment (42.7 ms at 48 kHz)
    or ValidationError is raised before any sample is read; AnalysisError is
    raised when the whole circular correlation peaks outside the window, or when
    a trough inside it outweighs that peak twice over, as one inverted channel's does.
    """
    m, _ = _check_args(len(stereo), stereo.sample_rate, weighting, max_lag)
    spectra = _welch(stereo).spectra()
    return np.arange(-m, m + 1), _lag_window(_weighted(spectra.s_xy, weighting), spectra.size, m)


def _itd(s: np.ndarray, size: int, max_lag: int, sample_rate: int,
         widen: str = "max_lag (--max-lag-ms)") -> float:
    """The ITD rule on _lag_window of cross-spectrum s: the peak of a finite correlation, strictly
    inside the window, refined by a parabola through it and its neighbors."""
    cc = _lag_window(s, size, max_lag, widen)
    if not np.isfinite(cc).all():
        raise AnalysisError("the cross-correlation overflowed; scale the input down")
    k = int(np.argmax(cc))
    if k in (0, cc.size - 1):
        raise AnalysisError(f"ITD peak on the edge of the {max_lag / sample_rate * 1e3:g}"
                            f" ms lag window; widen {widen}")
    offset = 0.0
    denom = cc[k - 1] - 2.0 * cc[k] + cc[k + 1]
    if denom != 0.0:
        offset = 0.5 * (cc[k - 1] - cc[k + 1]) / denom
        offset = offset if -1.0 < offset < 1.0 else 0.0  # NaN where neighbors near 1e308 overflow
    return float((k - max_lag + offset) / sample_rate)


def _silent(spectra: _Spectra, sample_rate: int, w: float | np.ndarray = 1.0) -> list[bool]:
    """Whether left and right are silent, weighted by w: by Parseval a density times the bin
    width sums to the mean square of the windowed segments."""
    return [np.sum(w * s) * sample_rate / spectra.size < SILENCE_RMS ** 2
            for s in (spectra.s_xx, spectra.s_yy)]


def _require_sound(spectra: _Spectra, sample_rate: int) -> None:
    for what, silent in zip(("left channel", "right channel"), _silent(spectra, sample_rate)):
        if silent:
            raise SilentSignalError(f"{what} is silent (RMS below {SILENCE_RMS:g})")


def estimate_itd(stereo: StereoBuffer, max_lag: float = DEFAULT_MAX_LAG_S,
                 weighting: str = "none") -> float:
    """Interaural time difference in seconds, positive when right lags left.

    Takes the peak of cross_correlation (the GCC of the Welch cross-spectrum,
    unweighted or PHAT) and refines it with a parabolic fit through the peak
    and its neighbors, resolving delays well below one sample period. The
    window must fit four times in a segment, as cross_correlation says. A
    channel whose Hann-windowed segments' mean square, its auto-spectrum times
    the bin width, is under SILENCE_RMS ** 2 raises SilentSignalError; a
    correlation that peaks outside the window, whose trough in the window
    outweighs its peak twice over (a channel of inverted polarity), or whose
    peak is not finite or sits on the window's first or last lag, raises
    AnalysisError."""
    m, _ = _check_args(len(stereo), stereo.sample_rate, weighting, max_lag)
    spectra, sr = _welch(stereo).spectra(), stereo.sample_rate
    _require_sound(spectra, sr)
    return _itd(_weighted(spectra.s_xy, weighting), spectra.size, m, sr)


def _octave_response(freqs: np.ndarray, lo: float, hi: float, sample_rate: int) -> np.ndarray:
    """|H|^2 of butter(2, [lo, hi], "bandpass") over an octave from octave_bands: with
    t = tan(pi f / fs), 1 / (1 + ((t^2 - t_lo t_hi) / (t (t_hi - t_lo)))^4)."""
    t, t_lo, t_hi = (np.tan(np.pi * f / sample_rate) for f in (freqs, lo, hi))
    passed = (t * (t_hi - t_lo)) ** 4  # multiplied through, so DC reads 0 without dividing by 0
    return passed / (passed + (t * t - t_lo * t_hi) ** 4)


def _band_itds(spectra: _Spectra, bands: list, max_lag: int, sample_rate: int) -> tuple:
    results = []
    for center, lo, hi in bands:
        w = _octave_response(spectra.freqs, lo, hi, sample_rate) ** 2  # |H|^2 forward, backward
        if any(_silent(spectra, sample_rate, w)):
            raise AnalysisError(f"no usable energy in the {center:g} Hz octave band")
        results.append(_itd(w * spectra.s_xy, spectra.size, max_lag, sample_rate))
    return tuple(results)


def band_itd(stereo: StereoBuffer, low_hz: float = DEFAULT_LOW_BAND_HZ,
             high_hz: float = DEFAULT_HIGH_BAND_HZ,
             max_lag: float = DEFAULT_MAX_LAG_S) -> tuple[float, float]:
    """Per-band ITD around two probe tones.

    Band-passing both channels forward and backward with a fourth-order, octave-wide
    Butterworth centered on the tone weights their cross-spectrum by |H|^4, which is
    real and so adds no delay. Each band ITD is estimate_itd's rule on the Welch
    cross-spectrum of estimate_itd's segments times that weight. Before any sample is read,
    ValidationError is raised unless max_lag, low_hz and high_hz are numbers, the window fits
    four times in a segment and each octave lies below Nyquist; AnalysisError is raised when a
    band holds no usable energy.
    """
    check_number("low_hz", low_hz)
    check_number("high_hz", high_hz)
    m, bands = _check_args(len(stereo), stereo.sample_rate, "none", max_lag, (low_hz, high_hz))
    return _band_itds(_welch(stereo).spectra(), bands, m, stereo.sample_rate)


def _check_fft_size(fft_size: int, n: int, sample_rate: int) -> None:
    m = max(int(round(DEFAULT_MAX_LAG_S * sample_rate)), 1)
    if check_number("fft_size", fft_size, 2, ends="[)", integer=True) & (fft_size - 1):
        raise ValidationError(f"fft_size must be a power of two, got {fft_size}")
    if fft_size < 4 * m:
        raise ValidationError(f"fft_size {fft_size} is under 4x the {DEFAULT_MAX_LAG_S * 1e3:g} ms"
                              f" delay window ({4 * m} samples at {sample_rate} Hz)")
    if n < fft_size:
        raise ValidationError(f"signals ({n} samples) are shorter than fft_size {fft_size}")


def _transfer_function(spectra: _Spectra, sample_rate: int) -> TransferFunction:
    tiny = np.finfo(np.float64).tiny
    s_xx, s_yy, s_xy = spectra.s_xx, spectra.s_yy, spectra.s_xy
    h = s_xy / np.maximum(s_xx, tiny)
    magnitude_db = 20.0 * np.log10(np.maximum(np.abs(h), tiny))
    phase_deg = np.degrees(np.angle(h))
    phase_deg[phase_deg == -180.0] = 180.0
    coherence = np.clip(np.abs(s_xy) ** 2 / np.maximum(s_xx * s_yy, tiny), 0.0, 1.0)
    delay = _itd(s_xy, spectra.size, spectra.size // 4, sample_rate, "fft_size (--fft-size)")
    return TransferFunction(spectra.freqs, magnitude_db, phase_deg, coherence, delay)


def transfer_function(reference: SampleBuffer, measurement: SampleBuffer,
                      fft_size: int = DEFAULT_FFT_SIZE) -> TransferFunction:
    """Welch-averaged dual-channel transfer function.

    H = S_xy / S_xx with x the reference, estimated with Hann windows of
    fft_size samples at DEFAULT_OVERLAP. The broadband delay (positive:
    measurement lags; 0 for identical inputs) is the averaged S_xy's inverse
    transform read by estimate_itd's rule over the widest window that circular
    transform holds, fft_size // 4 lags: AnalysisError is raised when its
    whole circular correlation peaks outside that window or on its edge, or
    when a trough in it outweighs that peak twice over, as an inverted
    measurement's does.
    fft_size must hold four DEFAULT_MAX_LAG_S windows (512 at 48 kHz), or
    ValidationError is raised.
    """
    stereo = StereoBuffer(reference, measurement)
    _check_fft_size(fft_size, len(stereo), stereo.sample_rate)
    return _transfer_function(_welch(stereo, fft_size).spectra(), stereo.sample_rate)


def calibration_check(ref: SampleBuffer, meas: SampleBuffer, tolerance_db: float = 3.0,
                      band: tuple[float, float] = (20.0, 16000.0),
                      fft_size: int = DEFAULT_FFT_SIZE) -> CalibrationVerdict:
    """Verify a microphone pair: level match within tolerance and no time skew.

    Passes iff the worst absolute magnitude deviation over the band stays
    within tolerance_db and the broadband delay stays within half a sample. tolerance_db must
    be a number and band a pair of numbers, or ValidationError is raised before any sample is
    read. A capsule of inverted polarity raises transfer_function's AnalysisError, which names
    it: its magnitudes match, so no verdict could.
    """
    check_number("tolerance_db", tolerance_db)
    edges = tuple(band) if np.iterable(band) else ()
    if len(edges) != 2:
        raise ValidationError(f"band must be a (low, high) pair of numbers in Hz, got {band!r}")
    lo, hi = (check_number("band", edge) for edge in edges)
    tf = transfer_function(ref, meas, fft_size=fft_size)
    mask = (tf.freqs >= lo) & (tf.freqs <= hi)
    if not np.any(mask):
        raise AnalysisError(f"no analysis bins inside the {lo}..{hi} Hz band")
    deviations = np.abs(tf.magnitude_db[mask])
    worst = int(np.argmax(deviations))
    max_dev = float(deviations[worst])
    worst_freq = float(tf.freqs[mask][worst])
    half_sample = 0.5 / ref.sample_rate
    passed = max_dev <= tolerance_db and abs(tf.broadband_delay_s) <= half_sample
    return CalibrationVerdict(passed, max_dev, worst_freq, tf.broadband_delay_s)


def octave_bands(centers: Iterable[float], lowest_hz: float, highest_hz: float) -> list[tuple]:
    """(center, center / sqrt 2, center * sqrt 2) Hz per center, the one place an octave's
    edges live; ValidationError for the first center that is not a number, then for the first
    band whose edges do not lie strictly inside lowest_hz..highest_hz, as a non-positive
    center's never do."""
    bands = [(check_number("center", c), c / np.sqrt(2.0), c * np.sqrt(2.0)) for c in centers]
    for center, lo, hi in bands:
        if not lowest_hz < lo < hi < highest_hz:
            raise ValidationError(f"octave band around {center:g} Hz is outside the analyzed range"
                                  f" ({lowest_hz:g}..{highest_hz:g} Hz)")
    return bands


def ild_spectrum_summary(tf: TransferFunction,
                         bands: tuple[float, ...] = DEFAULT_OCTAVE_CENTERS) -> dict[float, float]:
    """Energy-averaged magnitude per octave band, keyed by band center in Hz; ValidationError
    for bands that are not a sequence of numbers, or a band outside the spectrum or holding none
    of its bins."""
    if not np.iterable(bands):
        raise ValidationError(f"bands must be a sequence of octave centers in Hz, got {bands!r}")
    out: dict[float, float] = {}
    for center, lo, hi in octave_bands(bands, tf.freqs[0], tf.freqs[-1]):
        mask = (tf.freqs >= lo) & (tf.freqs < hi)
        if not mask.any():
            raise ValidationError(f"no analysis bin in the octave band around {center:g} Hz")
        power = np.mean(10.0 ** (tf.magnitude_db[mask] / 10.0))
        out[center] = float(10.0 * np.log10(power))
    return out


def analyze_capture(stereo: StereoBuffer, fft_size: int = DEFAULT_FFT_SIZE,
                    weighting: str = "none", max_lag: float = DEFAULT_MAX_LAG_S) -> CueReport:
    """Full cue extraction for one stereo capture (left = reference channel).

    Equals its three stages called alone, sharing one Welch pass: transfer_function of right
    against left, estimate_itd and band_itd, each with the arguments given here; the band ITDs
    are always at the probe tones, DEFAULT_LOW_BAND_HZ and DEFAULT_HIGH_BAND_HZ. The broadband
    and band ITDs and the transfer function read one Welch pass over min(DEFAULT_FFT_SIZE, len)
    samples; at any other fft_size the transfer function takes a second pass. Every argument
    rule comes before any sample is read, last the octaves of the probe tones and of
    cue_report_doc's table (DEFAULT_OCTAVE_CENTERS) inside 0..Nyquist; then the samples' rules
    in the stages' order, but for the broadband delay's lag rule last. It is analyze_blocks of
    the whole capture as one block.
    """
    return analyze_blocks([(stereo.left.samples, stereo.right.samples)], len(stereo),
                          stereo.sample_rate, fft_size, weighting, max_lag)


def analyze_blocks(blocks: Iterable[tuple[np.ndarray, np.ndarray]], length: int,
                   sample_rate: int, fft_size: int = DEFAULT_FFT_SIZE,
                   weighting: str = "none", max_lag: float = DEFAULT_MAX_LAG_S) -> CueReport:
    """analyze_capture of a capture that arrives as consecutive (left, right) blocks of finite
    float64 or float32 samples, `length` in each channel and `sample_rate` Hz, with the same
    result, bit for bit, however the capture is cut. Each Welch pass holds 1.4 MiB at the
    default fft_size and peaks at 1.76 MiB, whatever the length. No block is drawn before the
    arguments are checked, the rate by check_rate and `length` as an integer >= 0 first;
    ValidationError is raised when the blocks do not add up to `length`.
    """
    centers = (DEFAULT_LOW_BAND_HZ, DEFAULT_HIGH_BAND_HZ, *DEFAULT_OCTAVE_CENTERS)  # probes, report
    m, bands = _check_args(length, sample_rate, weighting, max_lag, centers, fft_size)
    # the ITDs' segment size first, then the transfer function's when it differs
    sizes = dict.fromkeys((min(DEFAULT_FFT_SIZE, length), fft_size))
    passes = [_Welch(size, sample_rate) for size in sizes]
    for left, right in blocks:
        for welch in passes:
            welch.update(left, right)
    welch = passes[0]
    if welch.length != length:
        raise ValidationError(f"the blocks hold {welch.length} samples per channel, not {length}")
    spectra = [welch.spectra() for welch in passes]
    del passes, welch  # the accumulators' buffers go before the lag windows are read
    _require_sound(spectra[0], sample_rate)
    itd = _itd(_weighted(spectra[0].s_xy, weighting), spectra[0].size, m, sample_rate)
    low, high = _band_itds(spectra[0], bands[:2], m, sample_rate)
    return CueReport(itd, low, high, _transfer_function(spectra[-1], sample_rate))
