"""Dual-channel measurement pipeline.

Implements the measurement side of the artifact: Welch-averaged transfer
function (magnitude, phase, coherence, broadband delay), generalized
cross-correlation ITD estimation with sub-sample peak refinement, per-band
sine ITD, microphone-pair calibration verdicts, and octave-band level
summaries. All functions are pure and reentrant.

The Welch spectra are one value, from one batched Hann-windowed STFT per channel, which
analyze_capture builds once. Every correlation is Knapp & Carter's GCC on its one averaged
cross-spectrum, negative lags from the conjugate, and must peak inside its lag window: the
broadband delay and the "none" ITD read it as it is, the "phat" ITD whitened and each band
ITD weighted by an octave band-pass's |H|^4, so no transform spans the capture and no filter runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, SilentSignalError, ValidationError
from .signals import SampleBuffer, StereoBuffer

DEFAULT_FFT_SIZE = 8192
DEFAULT_OVERLAP = 0.5
DEFAULT_MAX_LAG_S = 0.002
DEFAULT_LOW_BAND_HZ = 220.0
DEFAULT_HIGH_BAND_HZ = 6000.0
DEFAULT_OCTAVE_CENTERS = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)

SILENCE_RMS = 1e-6

WEIGHTINGS = ("none", "phat")

# Welch segments per batched FFT: caps the spectral pass's buffers (8 MiB at 8192 points).
_SEGMENT_BATCH = 32


@dataclass(frozen=True)
class TransferFunction:
    """Per-bin measurement/reference comparison plus a broadband delay.

    magnitude_db is measurement minus reference; phase_deg is wrapped to
    (-180, +180]; broadband_delay_s is positive when the measurement lags.
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
        if np.any(self.coherence < 0) or np.any(self.coherence > 1):
            raise ValidationError("coherence must lie in [0, 1]")
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
    itd_high_s come from octave-band-weighted estimates around the low and
    high probe tones; ild_spectrum is the right-vs-left transfer function.
    All three ITDs are finite and strictly inside their lag window.
    """

    itd_s: float
    itd_low_s: float
    itd_high_s: float
    ild_spectrum: TransferFunction


def _lag_samples(max_lag: float, sample_rate: int) -> int:
    """The lag window max_lag in whole samples, at least one."""
    lag = max_lag * sample_rate
    if not np.isfinite(lag):
        raise ValidationError(f"max_lag must be finite, got {max_lag}")
    if round(lag) < 1:
        raise ValidationError(f"max_lag {max_lag} s is under one sample period")
    return int(round(lag))


@dataclass(frozen=True)
class _Spectra:
    """Welch's spectral densities of left x and right y."""

    size: int
    freqs: np.ndarray
    s_xx: np.ndarray
    s_yy: np.ndarray
    s_xy: np.ndarray


def _fit_window(size: int, max_lag: int, what: str) -> None:
    if size < 4 * max_lag:
        raise ValidationError(f"the {what} lag window ({max_lag} samples) does not fit four times"
                              f" in its {size}-sample segment; narrow max_lag (--max-lag-ms)")


def _lag_window(s: np.ndarray, size: int, max_lag: int,
                widen: str = "max_lag (--max-lag-ms)") -> np.ndarray:
    """Lags -max_lag..max_lag of the `size`-point circular correlation of cross-spectrum s:
    0..max_lag from s, the negative lags from conj(s), so equal channels (s real) give an
    exactly symmetric window.
    A window that misses the delay holds only sidelobes, so the whole correlation must peak
    inside it; an overflow makes every lag NaN and argmax read lag 0, so _itd_s sees to that."""
    pos, neg = (np.fft.irfft(c, size) for c in (s, s.conj()))
    if max_lag < int(np.argmax(pos)) < size - max_lag:
        raise AnalysisError(f"the correlation peaks outside the lag window; widen {widen}")
    return np.concatenate([neg[max_lag:0:-1], pos[: max_lag + 1]])


def _correlation(stereo: StereoBuffer, max_lag: float, weighting: str,
                 spectra: _Spectra | None = None) -> tuple[int, np.ndarray]:
    """(max_lag in samples, window) of cross_correlation, read off `spectra` if given."""
    if weighting not in WEIGHTINGS:
        raise ValidationError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    n, sr = len(stereo), stereo.sample_rate
    m = _lag_samples(max_lag, sr)
    if m >= n:
        raise ValidationError(f"max_lag {max_lag} s exceeds the buffer length {n / sr} s")
    spectra = spectra or _welch_spectra(stereo, min(DEFAULT_FFT_SIZE, n))
    _fit_window(spectra.size, m, "PHAT" if weighting == "phat" else "unweighted")
    s = spectra.s_xy
    if weighting == "phat":
        s = s / np.maximum(np.abs(s), np.abs(s).max() * 1e-12 + np.finfo(np.float64).tiny)
    return m, _lag_window(s, spectra.size, m)


def cross_correlation(stereo: StereoBuffer, max_lag: float = DEFAULT_MAX_LAG_S,
                      weighting: str = "none") -> tuple[np.ndarray, np.ndarray]:
    """Generalized cross-correlation of right against left.

    Returns (lags_samples, correlation); a peak at a positive lag means the
    right channel lags the left. It is the inverse transform of the
    Welch-averaged cross-spectrum over DEFAULT_FFT_SIZE segments (one segment
    when the buffer is shorter), weighted by 1 for "none" and whitened for
    "phat". The window must fit four times in a segment (42.7 ms at 48 kHz)
    or ValidationError is raised; AnalysisError is raised when the whole
    circular correlation peaks outside the window.
    """
    m, cc = _correlation(stereo, max_lag, weighting)
    return np.arange(-m, m + 1), cc


def _itd_s(cc: np.ndarray, sample_rate: int, widen: str = "max_lag (--max-lag-ms)") -> float:
    """The ITD rule: the peak of a finite correlation over lags -m..m, strictly inside the
    window, refined by a parabola through it and its neighbors."""
    if not np.isfinite(cc).all():
        raise AnalysisError("the cross-correlation overflowed; scale the input down")
    k = int(np.argmax(cc))
    if k in (0, cc.size - 1):
        raise AnalysisError(f"ITD peak on the edge of the {cc.size // 2 / sample_rate * 1e3:g}"
                            f" ms lag window; widen {widen}")
    offset = 0.0
    denom = cc[k - 1] - 2.0 * cc[k] + cc[k + 1]
    if denom != 0.0:
        offset = 0.5 * (cc[k - 1] - cc[k + 1]) / denom
        offset = offset if -1.0 < offset < 1.0 else 0.0
    return float((k - cc.size // 2 + offset) / sample_rate)


def _require_sound(stereo: StereoBuffer) -> None:
    for what, channel in (("left channel", stereo.left), ("right channel", stereo.right)):
        if np.sqrt(np.dot(channel.samples, channel.samples) / len(channel)) < SILENCE_RMS:
            raise SilentSignalError(f"{what} is silent (RMS below {SILENCE_RMS:g})")


def estimate_itd(stereo: StereoBuffer, max_lag: float = DEFAULT_MAX_LAG_S,
                 weighting: str = "none") -> float:
    """Interaural time difference in seconds, positive when right lags left.

    Takes the peak of cross_correlation (the GCC of the Welch cross-spectrum,
    unweighted or PHAT) and refines it with a parabolic fit through the peak
    and its neighbors, resolving delays well below one sample period. The
    window must fit four times in a segment, as cross_correlation says. A
    silent channel raises SilentSignalError; a correlation that peaks outside
    the window, or whose peak is not finite or sits on the window's first or
    last lag, raises AnalysisError."""
    _require_sound(stereo)
    return _itd_s(_correlation(stereo, max_lag, weighting)[1], stereo.sample_rate)


def _octave_response(freqs: np.ndarray, center_hz: float, sample_rate: int) -> np.ndarray:
    """|H|^2 of butter(2, [c / sqrt(2), c * sqrt(2)], "bandpass"), the fourth-order octave
    Butterworth: with t = tan(pi f / fs), 1 / (1 + ((t^2 - t_lo t_hi) / (t (t_hi - t_lo)))^4)."""
    lo, hi, nyq = center_hz / np.sqrt(2.0), center_hz * np.sqrt(2.0), sample_rate / 2.0
    if not 0.0 < lo < hi < nyq:
        raise ValidationError(f"octave band around {center_hz} Hz does not fit below Nyquist"
                              f" ({nyq} Hz)")
    t, t_lo, t_hi = (np.tan(np.pi * f / sample_rate) for f in (freqs, lo, hi))
    passed = (t * (t_hi - t_lo)) ** 4  # multiplied through, so DC reads 0 without dividing by 0
    return passed / (passed + (t * t - t_lo * t_hi) ** 4)


def _band_itds(spectra: _Spectra, low_hz: float, high_hz: float, max_lag: int,
               sample_rate: int) -> tuple[float, float]:
    _fit_window(spectra.size, max_lag, "band")
    results = []
    for center in (low_hz, high_hz):
        w = _octave_response(spectra.freqs, center, sample_rate) ** 2  # |H|^2 forward, backward
        # Parseval: the weighted density times the bin width sums to the band's mean square
        if any(np.sum(w * s) * sample_rate / spectra.size < SILENCE_RMS ** 2
               for s in (spectra.s_xx, spectra.s_yy)):
            raise AnalysisError(f"no usable energy in the {center:g} Hz octave band")
        cc = _lag_window(w * spectra.s_xy, spectra.size, max_lag)
        results.append(_itd_s(cc, sample_rate))
    return results[0], results[1]


def band_itd(stereo: StereoBuffer, low_hz: float = DEFAULT_LOW_BAND_HZ,
             high_hz: float = DEFAULT_HIGH_BAND_HZ,
             max_lag: float = DEFAULT_MAX_LAG_S) -> tuple[float, float]:
    """Per-band ITD around two probe tones.

    Band-passing both channels forward and backward with a fourth-order, octave-wide
    Butterworth centered on the tone weights their cross-spectrum by |H|^4, which is
    real and so adds no delay. Each band ITD is estimate_itd's rule on the Welch
    cross-spectrum of estimate_itd's segments times that weight, so the window must fit four
    times in a segment, and the band's whole circular correlation must peak inside it.
    Raises AnalysisError when a band holds no usable energy.
    """
    sr = stereo.sample_rate
    spectra = _welch_spectra(stereo, min(DEFAULT_FFT_SIZE, len(stereo)))
    return _band_itds(spectra, low_hz, high_hz, _lag_samples(max_lag, sr), sr)


def _check_fft_size(fft_size: int, n: int, sample_rate: int) -> None:
    m = max(int(round(DEFAULT_MAX_LAG_S * sample_rate)), 1)
    if fft_size < 2 or fft_size & (fft_size - 1):
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
    widen = "fft_size (--fft-size)"  # the window is the widest the transform holds
    cc = _lag_window(s_xy, spectra.size, spectra.size // 4, widen)
    return TransferFunction(spectra.freqs, magnitude_db, phase_deg, coherence,
                            _itd_s(cc, sample_rate, widen))


def transfer_function(reference: SampleBuffer, measurement: SampleBuffer,
                      fft_size: int = DEFAULT_FFT_SIZE) -> TransferFunction:
    """Welch-averaged dual-channel transfer function.

    H = S_xy / S_xx with x the reference, estimated with Hann windows of
    fft_size samples at DEFAULT_OVERLAP. The broadband delay (positive:
    measurement lags; 0 for identical inputs) is the averaged S_xy's inverse
    transform read by estimate_itd's rule over the widest window that circular
    transform holds, fft_size // 4 lags: AnalysisError is raised when its
    whole circular correlation peaks outside that window or on its edge.
    fft_size must hold four DEFAULT_MAX_LAG_S windows (512 at 48 kHz), or
    ValidationError is raised.
    """
    stereo = StereoBuffer(reference, measurement)
    _check_fft_size(fft_size, len(stereo), stereo.sample_rate)
    return _transfer_function(_welch_spectra(stereo, fft_size), stereo.sample_rate)


def _welch_spectra(stereo: StereoBuffer, fft_size: int,
                   overlap: float = DEFAULT_OVERLAP) -> _Spectra:
    """Welch's averaged periodograms of left x and right y, with no detrending, from one
    Hann-windowed STFT per channel into preallocated batch buffers. A batch adds one einsum
    per real sum over the spectra's (re, im) float64 views: |X|^2, |Y|^2, Re conj(X) Y = X.Y
    and, once Y is rotated in place, Im conj(X) Y = X.(-iY), whose products cancel pairwise in
    order for equal channels."""
    step = fft_size - int(fft_size * overlap)
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, fft_size + 1))[:-1]  # periodic Hann
    segs_x, segs_y = (np.lib.stride_tricks.sliding_window_view(c.samples, fft_size)[::step]
                      for c in (stereo.left, stereo.right))
    bins, batch = fft_size // 2 + 1, min(_SEGMENT_BATCH, len(segs_x))
    frames = np.empty((batch, fft_size))
    fx, fy = np.empty((2, batch, bins), dtype=complex)
    sums = np.zeros((4, 2 * bins))  # per bin (re, im) halves of |X|^2, |Y|^2, X.Y, X.(-iY)
    for i in range(0, len(segs_x), batch):
        k = min(batch, len(segs_x) - i)
        for segs, spectra in ((segs_x, fx), (segs_y, fy)):
            np.multiply(segs[i : i + k], window, out=frames[:k])
            np.fft.rfft(frames[:k], out=spectra[:k])
        vx, vy = fx[:k].view(np.float64), fy[:k].view(np.float64)
        for total, a, b in zip(sums, (vx, vy, vx), (vx, vy, vy)):
            total += np.einsum("ij,ij->j", a, b)
        fy[:k] *= -1j  # vy now views -iY
        sums[3] += np.einsum("ij,ij->j", vx, vy)
    s_xx, s_yy, re, im = sums[:, 0::2] + sums[:, 1::2]
    # onesided density: every bin but DC and Nyquist counts twice
    scale = np.full(bins, 2.0 / (stereo.sample_rate * np.sum(window ** 2) * len(segs_x)))
    scale[[0, -1]] /= 2.0
    return _Spectra(fft_size, np.fft.rfftfreq(fft_size, 1.0 / stereo.sample_rate),
                    *(s * scale for s in (s_xx, s_yy, re + 1j * im)))


def calibration_check(ref: SampleBuffer, meas: SampleBuffer, tolerance_db: float = 3.0,
                      band: tuple[float, float] = (20.0, 16000.0),
                      fft_size: int = DEFAULT_FFT_SIZE) -> CalibrationVerdict:
    """Verify a microphone pair: level match within tolerance and no time skew.

    Passes iff the worst absolute magnitude deviation over the band stays
    within tolerance_db and the broadband delay stays within half a sample.
    """
    tf = transfer_function(ref, meas, fft_size=fft_size)
    lo, hi = band
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


def ild_spectrum_summary(tf: TransferFunction,
                         bands: tuple[float, ...] = DEFAULT_OCTAVE_CENTERS) -> dict[float, float]:
    """Energy-averaged magnitude per octave band, keyed by band center in Hz."""
    out: dict[float, float] = {}
    for center in bands:
        lo, hi = center / np.sqrt(2.0), center * np.sqrt(2.0)
        if lo < tf.freqs[0] or hi > tf.freqs[-1]:
            raise ValidationError(f"octave band around {center:g} Hz is outside the analyzed range")
        mask = (tf.freqs >= lo) & (tf.freqs < hi)
        power = np.mean(10.0 ** (tf.magnitude_db[mask] / 10.0))
        out[center] = float(10.0 * np.log10(power))
    return out


def analyze_capture(stereo: StereoBuffer, fft_size: int = DEFAULT_FFT_SIZE,
                    weighting: str = "none",
                    low_hz: float = DEFAULT_LOW_BAND_HZ,
                    high_hz: float = DEFAULT_HIGH_BAND_HZ,
                    max_lag: float = DEFAULT_MAX_LAG_S) -> CueReport:
    """Full cue extraction for one stereo capture (left = reference channel).

    Equals its three stages called alone, sharing one Welch pass: transfer_function of
    right against left, estimate_itd and band_itd, each with the arguments given here.
    The broadband and band ITDs and the transfer function read one Welch pass over
    min(DEFAULT_FFT_SIZE, len) samples; at any other fft_size the transfer function takes
    a second pass. Errors come in the stages' order, except that the fft_size checks come
    first and the broadband delay's lag rule last.
    """
    n, sr = len(stereo), stereo.sample_rate
    _check_fft_size(fft_size, n, sr)
    _require_sound(stereo)
    spectra = _welch_spectra(stereo, min(DEFAULT_FFT_SIZE, n))
    m, cc = _correlation(stereo, max_lag, weighting, spectra)
    itd = _itd_s(cc, sr)
    itd_low, itd_high = _band_itds(spectra, low_hz, high_hz, m, sr)
    if fft_size != spectra.size:
        spectra = _welch_spectra(stereo, fft_size)
    return CueReport(itd, itd_low, itd_high, _transfer_function(spectra, sr))
