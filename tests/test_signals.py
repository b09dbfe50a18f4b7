import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import bincues
from bincues import signals
from bincues import (SampleBuffer, StereoBuffer, ValidationError, apply_fractional_delay,
                     gen_impulse, gen_pink_noise, gen_sine)

SR = 48000


def test_sine_220_length_start_and_peak():
    buf = gen_sine(220.0, 1.0, SR, 1.0)
    assert len(buf) == 48000
    assert buf.samples[0] == 0.0
    assert np.max(np.abs(buf.samples)) == pytest.approx(1.0, abs=1e-12)


def test_sine_zero_amplitude_is_silence():
    buf = gen_sine(440.0, 1.0, SR, 0.0)
    assert np.all(buf.samples == 0.0)


def test_sine_quarter_period_identity():
    # 1 kHz at 48 kHz: sample 12 sits exactly a quarter period in
    buf = gen_sine(1000.0, 0.01, SR, 1.0)
    assert buf.samples[12] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("freq, amplitude, sample_rate, seconds",
                         [(997.0, 0.5, 48000, 5.0), (440.0, 1.0, 44100, 1.3),
                          (12345.6, 0.3, 96000, 2.0), (20.0, 0.0, 8000, 0.5)])
def test_sine_is_built_in_one_array_with_the_bits_of_the_formula(freq, amplitude, sample_rate,
                                                                 seconds):
    # Each step writes over the one before, so the buffer adopts the one array the tone was
    # built in; the time, phase and sine arrays of the formula held 3 channels at once.
    gen_sine(freq, 0.01, sample_rate, amplitude)
    tracemalloc.start()
    try:
        buf = gen_sine(freq, seconds, sample_rate, amplitude)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * buf.samples.nbytes, peak / buf.samples.nbytes
    t = np.arange(round(seconds * sample_rate)) / sample_rate
    assert_same_bits(buf.samples, amplitude * np.sin(2.0 * np.pi * freq * t))


@pytest.mark.parametrize("freq", [0.0, -5.0, 24000.0, 30000.0])
def test_sine_rejects_out_of_range_freq(freq):
    with pytest.raises(ValidationError):
        gen_sine(freq, 1.0, SR)


def test_sine_rejects_bad_duration_and_amplitude():
    with pytest.raises(ValidationError):
        gen_sine(220.0, 0.0, SR)
    with pytest.raises(ValidationError):
        gen_sine(220.0, -1.0, SR)
    with pytest.raises(ValidationError):
        gen_sine(220.0, 1.0, SR, amplitude=1.5)


def test_pink_noise_deterministic():
    a = gen_pink_noise(1.0, SR, seed=42)
    b = gen_pink_noise(1.0, SR, seed=42)
    assert np.array_equal(a.samples, b.samples)
    c = gen_pink_noise(1.0, SR, seed=43)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("seed", (-1, -2**70))
def test_pink_noise_rejects_a_negative_seed(seed):
    with pytest.raises(ValidationError, match=r"^seed must be an integer in \[0, inf\)"):
        gen_pink_noise(1.0, SR, seed=seed)


def test_pink_noise_peak_bounded():
    buf = gen_pink_noise(1.0, SR, seed=7)
    assert np.max(np.abs(buf.samples)) <= 1.0


def octave_slope_db(samples, sample_rate):
    """Oracle: Welch PSD, octave-band levels, least-squares slope on log axes."""
    freqs, psd = sps.welch(samples, fs=sample_rate, nperseg=8192, noverlap=4096,
                           detrend=False)
    edges = [100.0 * 2 ** k for k in range(7)] + [10000.0]
    centers, levels = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = (freqs >= lo) & (freqs < hi)
        centers.append(np.sqrt(lo * hi))
        levels.append(10.0 * np.log10(psd[band].mean()))
    return np.polyfit(np.log2(centers), levels, 1)[0]


def test_pink_noise_spectral_slope():
    buf = gen_pink_noise(10.0, SR, seed=1)
    slope = octave_slope_db(buf.samples, SR)
    assert slope == pytest.approx(-3.0, abs=0.5)


def test_impulse_placement():
    buf = gen_impulse(0.1, SR, offset=0)
    assert buf.samples[0] == 1.0
    assert np.count_nonzero(buf.samples) == 1
    buf = gen_impulse(0.1, SR, offset=100)
    assert buf.samples[100] == 1.0
    assert np.count_nonzero(buf.samples) == 1


@pytest.mark.parametrize("seconds, sample_rate, offset",
                         [(5.0, 48000, 0), (5.0, 48000, 239999), (1.3, 44100, 777)])
def test_impulse_is_built_in_the_one_array_the_buffer_adopts(seconds, sample_rate, offset):
    # The zeros are handed over read-only, so the buffer keeps them rather than a copy.
    gen_impulse(0.01, sample_rate)
    tracemalloc.start()
    try:
        buf = gen_impulse(seconds, sample_rate, offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * buf.samples.nbytes, peak / buf.samples.nbytes
    want = np.zeros(round(seconds * sample_rate))
    want[offset] = 1.0
    assert_same_bits(buf.samples, want)


def test_impulse_offset_out_of_range():
    with pytest.raises(ValidationError):
        gen_impulse(0.1, SR, offset=4800)
    with pytest.raises(ValidationError):
        gen_impulse(0.1, SR, offset=-1)


def test_impulse_pair_correlates_at_lag_33():
    a = gen_impulse(0.01, SR, offset=50)
    b = gen_impulse(0.01, SR, offset=83)
    # brute-force correlation over every integer lag
    full = np.correlate(b.samples, a.samples, mode="full")
    lag = int(np.argmax(full)) - (len(a) - 1)
    assert lag == 33


@pytest.mark.parametrize("taps", (65, 511, 8193))
@pytest.mark.parametrize("n", (1, 2, 97, 4801, 1_440_000))
def test_fft_convolve_matches_scipy_fftconvolve(taps, n, convolve):
    # Overlap-add rounds otherwise than fftconvolve's one transform, so the two agree to
    # rounding, relative to the output's peak.
    rng = np.random.default_rng(n + taps)
    x, kernel = rng.standard_normal(n), rng.standard_normal(taps)
    for a, b in ((x, kernel), (kernel, x)):
        ours, ref = convolve(a, b), sps.fftconvolve(a, b)
        assert ours.shape == ref.shape == (n + taps - 1,)
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-14 * np.abs(ref).max(initial=0))


def one_pass_overlap_add(x, kernel):
    """The whole convolution as the overlap-add made it before it took a window: every block's
    rfft and irfft in one batch, then the heads padded by a row and the tails added a row on."""
    x, kernel = sorted((x, kernel), key=len, reverse=True)
    taps = kernel.size
    size = 1 << max(2 * taps - 2, 4095).bit_length()
    step = size - taps + 1
    whole = x.size // step
    spectra = np.empty((-(-x.size // step), size // 2 + 1), complex)
    np.fft.rfft(x[: whole * step].reshape(whole, step), size, out=spectra[:whole])
    if whole < len(spectra):
        np.fft.rfft(x[whole * step :], size, out=spectra[whole])
    spectra *= np.fft.rfft(kernel, size)
    y = np.fft.irfft(spectra, size)
    out = np.pad(y[:, :step], ((0, 1), (0, 0)))
    out[1:, : taps - 1] += y[:, step:]
    return out.ravel()[: x.size + taps - 1]


def crop_of_the_full_convolution(x, kernel, start, count):
    """Samples start..start+count of the zero-extended one-pass convolution."""
    full = one_pass_overlap_add(x, kernel)
    out = np.zeros(count)
    lo, hi = max(start, 0), min(start + count, full.size)
    if lo < hi:
        out[lo - start : hi - start] = full[lo:hi]
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


STEPS = {1: 4096, 65: 4032, 575: 3522, 8193: 24576}  # block length per kernel length


@settings(max_examples=150, deadline=None)
@given(taps=st.sampled_from(sorted(STEPS)), blocks=st.integers(0, 3), offset=st.integers(-2, 2),
       swap=st.booleans(), zeros=st.sampled_from((0.0, -0.0, None)), data=st.data())
def test_fft_convolve_window_is_the_slice_of_the_full_convolution(taps, blocks, offset, swap,
                                                                  zeros, data, convolve):
    # Bit for bit, signed zeros included: the window runs the one-pass convolution's FFTs and
    # adds the same two overlap-add terms per sample. Lengths and window edges straddle block
    # boundaries and the tails that reach over them, and a run of +-0.0 in the input gives
    # the output signed zeros.
    step = STEPS[taps]
    n = blocks * step + offset
    assume(n > 0)  # two non-empty operands
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x, kernel = rng.standard_normal(n), rng.standard_normal(taps)
    if zeros is not None:
        x[data.draw(st.integers(0, n), label="zeros_from") :] = zeros
    if swap:
        x, kernel = kernel, x
    full = n + taps - 1
    near_a_block_edge = st.builds(lambda m, d: m * step + d, st.integers(-1, 4),
                                  st.integers(-taps - 1, taps + 1))
    start = data.draw(st.integers(-full - 5, full + 5) | near_a_block_edge, label="start")
    count = data.draw(st.integers(0, full + 10), label="count")
    got = convolve(x, kernel, start, count)
    assert_same_bits(got, crop_of_the_full_convolution(x, kernel, start, count))
    assert got.base is None and got.flags.writeable
    assert_same_bits(convolve(x, kernel), one_pass_overlap_add(x, kernel))


@pytest.mark.parametrize("taps, seed, n", [(575, 7, 3519), (8193, 120, 24573)])
def test_fft_convolve_keeps_a_negative_zero_where_no_tail_is_added(taps, seed, n, convolve):
    # With numpy 2.4's pocketfft on x86-64, these all -0.0 inputs give a -0.0 among the first
    # block's taps - 1 samples, which no earlier tail reaches; adding a zero there would turn
    # it to +0.0.
    x, kernel = np.full(n, -0.0), np.random.default_rng(seed).standard_normal(taps)
    assert_same_bits(convolve(x, kernel), one_pass_overlap_add(x, kernel))
    for start in (-3, 0, 5):
        assert_same_bits(convolve(x, kernel, start, taps),
                         crop_of_the_full_convolution(x, kernel, start, taps))


@pytest.mark.parametrize("seconds", (0.05, 0.6, 5.0, 31.3))
def test_pink_noise_is_the_crop_of_the_full_convolution(seconds):
    n = round(seconds * SR)
    white = np.random.default_rng(2).standard_normal(n + signals._PINK_WARMUP)
    want = crop_of_the_full_convolution(white, signals._pink_filter()[0], signals._PINK_WARMUP, n)
    want *= signals._PINK_PEAK / np.max(np.abs(want))
    assert_same_bits(gen_pink_noise(seconds, SR, seed=2).samples, want)


@pytest.mark.parametrize("fir", (None, np.array([0.25, 0.5, 0.25]), "random"),
                         ids=["no-fir", "3-tap", "255-tap"])
@pytest.mark.parametrize("delay_samples", (0.37, 3.0, 40.5, 95990.25, 96010.75, 96050.5))
def test_fractional_delay_is_the_crop_of_the_full_convolution(delay_samples, fir, pink_2s):
    # The last delays run past the end of the buffer, into the convolution's tail and beyond.
    if isinstance(fir, str):
        fir = np.random.default_rng(1).standard_normal(255)
    total = delay_samples / SR * SR
    d_int = int(np.floor(total))
    x = pink_2s.samples
    kernel = fir
    if total != d_int:
        kernel = signals._fd_kernel(total - d_int)
        kernel = kernel if fir is None else np.convolve(kernel, fir)
    if kernel is None:  # an integer delay without a fir is an exact shift
        want = np.concatenate((np.zeros(d_int), x))[: x.size]
    else:
        want = crop_of_the_full_convolution(x, kernel, kernel.size // 2 - d_int, x.size)
    assert_same_bits(apply_fractional_delay(pink_2s, delay_samples / SR, fir).samples, want)


@pytest.mark.parametrize("delays", [(0.37, 3.0), (40.5, 0.0, 12.25, 7.0), (95990.25, 1.5),
                                    (96050.5, 96010.75)])
def test_mix_delayed_is_the_sum_of_its_parts_delays(delays, pink_2s):
    # Every kernel apply_fractional_delay picks: interpolator, interpolator and fir, fir alone
    # and an exact shift, float32 samples too, and delays that reach past the buffer's end.
    # One overlap-add for all rounds otherwise than one per part, by FFT rounding only.
    fir = np.random.default_rng(1).standard_normal(255)
    bufs = [pink_2s, SampleBuffer(gen_pink_noise(2.0, SR, seed=6).samples.astype(np.float32), SR)]
    parts = [(bufs[i % 2], d / SR, fir if i % 3 == 1 else None, 0.5 - 0.3 * i)
             for i, d in enumerate(delays)]
    want = np.zeros(len(pink_2s))
    for buf, delay, part_fir, gain in parts:
        want += gain * apply_fractional_delay(buf, delay, part_fir).samples
    got = signals.mix_delayed(parts)
    assert got.base is None and not got.flags.writeable
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(1.0, np.abs(want).max()))


def test_mix_delayed_of_whole_sample_shifts_is_exact_and_runs_no_fft(pink_2s, monkeypatch):
    # Parts with no kernel are exact shifts times their gains, float32 samples widened before
    # the gain, and a delay past the end adds nothing; a lone shift keeps a -0.0 at gain 1.
    narrow = SampleBuffer(gen_pink_noise(2.0, SR, seed=6).samples.astype(np.float32), SR)
    want = np.zeros(len(pink_2s))
    want[3:] = 0.7 * pink_2s.samples[:-3]
    want[40:] += -1.3 * narrow.samples[:-40].astype(np.float64)
    calls, rfft = [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    parts = [(pink_2s, 3 / SR, None, 0.7), (narrow, 40 / SR, None, -1.3),
             (pink_2s, 2.5, None, 2.0)]
    assert_same_bits(signals.mix_delayed(parts), want)
    zeros = SampleBuffer(np.full(5, -0.0), SR)
    assert_same_bits(apply_fractional_delay(zeros, 2 / SR).samples,
                     np.array([0.0, 0.0, -0.0, -0.0, -0.0]))
    assert not calls


@pytest.mark.parametrize("parts, message", [
    ([], "need at least one part"),
    ([(SampleBuffer(np.ones(10), SR), 0.0, None, 1.0),
      (SampleBuffer(np.ones(11), SR), 0.0, None, 1.0)], "need buffers of one"),
    ([(SampleBuffer(np.ones(10), SR), 0.0, None, 1.0),
      (SampleBuffer(np.ones(10), 44100), 0.0, None, 1.0)], "need buffers of one"),
    ([(SampleBuffer(np.ones(10), SR), 0.0, None, float("nan"))], "gain must be"),
    ([(SampleBuffer(np.ones(10), SR), -1.0, None, 1.0)], "delay must be"),
], ids=["no-parts", "lengths", "rates", "gain-nan", "delay-negative"])
def test_mix_delayed_checks_its_parts(parts, message):
    with pytest.raises(ValidationError, match=message):
        signals.mix_delayed(parts)


def test_pink_noise_holds_the_white_noise_and_its_window():
    # The convolution draws the white noise a block at a time, so the window it writes
    # (1 channel) is the one array that grows with the signal, and the buffer adopts it; the
    # block buffers add about 0.45 channel at 5 s and 0.07 at 30 s. Drawing the white noise
    # whole (1.03 channels more) peaked at 2.51 and 2.09; a crop of the whole convolution
    # peaked at 4.04.
    gen_pink_noise(0.1, SR)  # numpy's FFT state and the taps' spectrum are built untraced
    for seconds, bound in ((5.0, 1.6), (30.0, 1.2)):
        tracemalloc.start()
        try:
            pink = gen_pink_noise(seconds, SR, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * pink.samples.nbytes, (seconds, peak / pink.samples.nbytes)


@pytest.mark.parametrize("sample_rate", (44100, 48000))
@pytest.mark.parametrize("seed", (0, 3, 42))
@pytest.mark.parametrize("seconds", (0.05, 1.0, 30.0))
def test_pink_noise_matches_the_pinking_iir(seconds, seed, sample_rate):
    # scipy's lfilter runs the IIR itself; the truncated FIR drops taps under 2.4e-20
    n = round(seconds * sample_rate)
    white = np.random.default_rng(seed).standard_normal(n + signals._PINK_WARMUP)
    ref = sps.lfilter(signals._PINK_B, signals._PINK_A, white)[signals._PINK_WARMUP:]
    ref *= signals._PINK_PEAK / np.max(np.abs(ref))
    ours = gen_pink_noise(seconds, sample_rate, seed=seed).samples
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12 * signals._PINK_PEAK)


def test_fractional_delay_zero_is_exact_identity(pink_2s):
    out = apply_fractional_delay(pink_2s, 0.0)
    assert np.array_equal(out.samples, pink_2s.samples)


def test_fractional_delay_one_sample(pink_2s):
    out = apply_fractional_delay(pink_2s, 1.0 / SR)
    assert out.samples[0] == 0.0
    np.testing.assert_allclose(out.samples[1:], pink_2s.samples[:-1], atol=1e-6)


def measured_phase_deg(reference, delayed, freq, sample_rate):
    """Steady-state phase difference at one frequency via single-bin spectra."""
    n0, span = 4000, 48000  # an exact number of periods for any integer freq
    idx = np.arange(n0, n0 + span)
    probe = np.exp(-2j * np.pi * freq * idx / sample_rate)
    z_ref = np.dot(reference[idx], probe)
    z_del = np.dot(delayed[idx], probe)
    return np.degrees(np.angle(z_del * np.conj(z_ref)))


def test_fractional_delay_quarter_ms_gives_90_degrees():
    tone = gen_sine(1000.0, 1.5, SR, 0.9)
    out = apply_fractional_delay(tone, 0.25e-3)
    phase = measured_phase_deg(tone.samples, out.samples, 1000.0, SR)
    assert phase == pytest.approx(-90.0, abs=1.0)


@pytest.mark.parametrize("freq,delay_ms", [(500.0, 0.13), (3000.0, 0.69), (9000.0, 0.0371)])
def test_fractional_delay_phase_law(freq, delay_ms):
    tone = gen_sine(freq, 1.5, SR, 0.9)
    out = apply_fractional_delay(tone, delay_ms * 1e-3)
    phase = measured_phase_deg(tone.samples, out.samples, freq, SR)
    expected = -((360.0 * freq * delay_ms * 1e-3 + 180.0) % 360.0 - 180.0)
    assert phase == pytest.approx(expected, abs=1.0)


def test_fractional_delay_additivity(pink_2s):
    # restrict to the interpolator passband before comparing
    sos = sps.butter(8, 0.4, output="sos")
    band_limited = SampleBuffer(sps.sosfiltfilt(sos, pink_2s.samples), SR)
    a, b = 0.31e-3, 0.47e-3
    twice = apply_fractional_delay(apply_fractional_delay(band_limited, a), b)
    once = apply_fractional_delay(band_limited, a + b)
    err = twice.samples[100:-100] - once.samples[100:-100]
    assert np.sqrt(np.mean(err ** 2)) < 1e-4


def test_fractional_delay_rejects_negative(pink_2s):
    with pytest.raises(ValidationError):
        apply_fractional_delay(pink_2s, -1e-6)


@given(data=st.data(), n=st.integers(1, 5000), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_buffer_rejects_non_finite_sample_anywhere(data, n, bad):
    samples = np.zeros(n)
    samples[data.draw(st.integers(0, n - 1))] = bad
    with pytest.raises(ValidationError, match="finite"):
        SampleBuffer(samples, SR)


@pytest.mark.parametrize("duration", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("generate", (
    lambda d: gen_sine(440.0, d, SR), lambda d: gen_pink_noise(d, SR), lambda d: gen_impulse(d, SR),
), ids=["sine", "pink", "impulse"])
def test_generators_reject_non_finite_duration(generate, duration):
    with pytest.raises(ValidationError, match="finite"):
        generate(duration)


@pytest.mark.parametrize("generate", (
    lambda d: gen_sine(440.0, d, SR), lambda d: gen_pink_noise(d, SR), lambda d: gen_impulse(d, SR),
), ids=["sine", "pink", "impulse"])
def test_generators_reject_a_duration_under_one_sample(generate):
    with pytest.raises(ValidationError, match="shorter than one sample"):
        generate(0.4 / SR)


@pytest.mark.parametrize("rate", (0, -5, 48000.5))
@pytest.mark.parametrize("generate", (
    lambda r: gen_sine(100.0, 1.0, r), lambda r: gen_pink_noise(1.0, r), lambda r: gen_impulse(1.0, r),
), ids=["sine", "pink", "impulse"])
def test_generators_check_the_sample_rate_before_they_read_it(generate, rate):
    # the rate's own rule, not a duration or freq rule that reads it, and before any signal
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError,
                           match=rf"^sample_rate must be an integer in \[1, inf\), got {rate}$"):
            generate(rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


# Valid arguments but the rate, by name, for every exported callable that takes a sample_rate.
_RATE_TAKERS = {
    "SampleBuffer": dict(samples=np.zeros(4)),
    "gen_sine": dict(freq=100.0, duration=0.01),
    "gen_pink_noise": dict(duration=0.01),
    "gen_impulse": dict(duration=0.01),
    "shadow_filter_kernel": dict(rig=bincues.human_head(), azimuth=0.5),
    "analyze_blocks": dict(blocks=[], length=SR),
}


@pytest.mark.parametrize("rate", [None, 0, 48000.5, True, "48000"])
def test_every_exported_callable_that_takes_a_sample_rate_checks_it(rate):
    # a new public entry with a sample_rate parameter needs a row above, so it meets this rule
    takers = {name for name in bincues.__all__ if callable(obj := getattr(bincues, name))
              and not (isinstance(obj, type) and issubclass(obj, BaseException))
              and "sample_rate" in inspect.signature(obj).parameters}
    assert takers == set(_RATE_TAKERS)
    for name, kwargs in _RATE_TAKERS.items():
        with pytest.raises(ValidationError, match=r"^sample_rate must be an integer in \[1, inf\),"
                                                  rf" got {re.escape(repr(rate))}$"):
            getattr(bincues, name)(**kwargs, sample_rate=rate)


def test_sample_buffer_rejects_2d_samples():
    with pytest.raises(ValidationError, match=r"one-dimensional, got shape \(2, 3\)"):
        SampleBuffer(np.zeros((2, 3)), SR)


@pytest.mark.parametrize("delay", (np.nan, np.inf))
def test_fractional_delay_rejects_non_finite(delay, pink_2s):
    with pytest.raises(ValidationError, match="finite"):
        apply_fractional_delay(pink_2s, delay)


def test_fractional_delay_longer_than_buffer_is_silence(pink_2s):
    out = apply_fractional_delay(pink_2s, 3.0)
    assert np.all(out.samples == 0.0)


@pytest.mark.parametrize("delay", (1e300, 1e306))  # 1e306 s is inf samples at 48 kHz
def test_fractional_delay_of_overflowing_length_is_silence(delay, pink_2s):
    assert np.all(apply_fractional_delay(pink_2s, delay).samples == 0.0)
    # the cap covers a fir's reach too, so no tail of the filtered input is left behind
    assert np.all(apply_fractional_delay(pink_2s, delay, np.ones(601)).samples == 0.0)


@pytest.mark.parametrize("delay_samples", (0, 3, 4.5, 40.25, 400.75, 95990, 96010.5, 96070))
def test_fractional_delay_edges_match_a_padded_delay(delay_samples):
    # Delaying a zero-padded copy and dropping the padding changes nothing, so
    # the samples shifted past the end and the zero-filled head are exact.
    x = gen_pink_noise(2.0, SR, seed=9)
    padded = SampleBuffer(np.concatenate([x.samples, np.zeros(200)]), SR)
    got = apply_fractional_delay(x, delay_samples / SR).samples
    want = apply_fractional_delay(padded, delay_samples / SR).samples[: len(x)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@example(n=300, half=0, seed=1, past=0, frac=0.0)     # delay 0, one-tap fir
@example(n=1000, half=300, seed=2, past=0, frac=0.0)  # delay 0, 601-tap fir
@example(n=50, half=300, seed=3, past=450, frac=0.5)  # fir longer than the input
@example(n=100, half=10, seed=4, past=2000, frac=0.25)  # past the end: all zeros
@given(n=st.integers(1, 1500), half=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
       past=st.integers(0, 2000), frac=st.sampled_from((0.0, 0.25, 0.5, 0.731)))
def test_fractional_delay_with_fir_filters_the_zero_extended_input(n, half, seed, past, frac):
    # Oracle: delay the input padded with zeros on both sides without a fir, which is exact,
    # then np.convolve the fir, read centred and cropped back to the input's span.
    rng = np.random.default_rng(seed)
    x, fir = rng.standard_normal(n), rng.standard_normal(2 * half + 1)
    whole = past * (n + half + 80) // 2000  # from delay 0 to past the end plus the reach
    delay = (whole + frac) / SR
    pad = half + 40
    delayed = apply_fractional_delay(SampleBuffer(np.pad(x, pad), SR), delay).samples
    want = np.convolve(delayed, fir)[pad + half : pad + half + n]
    got = apply_fractional_delay(SampleBuffer(x, SR), delay, fir).samples
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(np.abs(want).max(), 1.0))
    if whole >= n + half + signals._FD_TAPS // 2:
        assert not got.any()


@pytest.mark.parametrize("fir", (None, np.array([0.25, 0.5, 0.25])), ids=["no-fir", "fir"])
def test_fractional_delay_snaps_a_residue_within_1e_9_to_the_nearest_sample(fir, pink_2s):
    exact = apply_fractional_delay(pink_2s, 7 / SR, fir).samples
    for samples in (7 - 1e-11, 7 + 1e-11):
        assert np.array_equal(apply_fractional_delay(pink_2s, samples / SR, fir).samples, exact)


@pytest.mark.parametrize("fir", (np.ones(4), np.zeros(0), np.ones((3, 3)), np.ones((1, 5)),
                                 np.array([1.0, np.nan, 1.0]), np.array([np.inf])),
                         ids=["even", "empty", "2d", "row", "nan", "inf"])
def test_fractional_delay_rejects_an_even_2d_or_non_finite_fir(fir, pink_2s):
    for delay in (0.0, 1e-3, 1.1e-4):
        with pytest.raises(ValidationError, match="fir"):
            apply_fractional_delay(pink_2s, delay, fir)


@pytest.mark.parametrize("generate", (
    lambda d: gen_sine(440.0, d, SR), lambda d: gen_pink_noise(d, SR), lambda d: gen_impulse(d, SR),
), ids=["sine", "pink", "impulse"])
@pytest.mark.parametrize("duration", (1e308, 1e12))
def test_generators_reject_more_samples_than_a_wav_chunk_holds(generate, duration):
    with pytest.raises(ValidationError, match="samples"):
        generate(duration)


def test_sample_count_cap_is_one_float32_wav_chunk():
    cap = (2**32 - 1) // 4  # checked without allocating: no generator runs
    assert signals._num_samples(cap / SR, SR) == cap
    with pytest.raises(ValidationError, match="samples"):
        signals._num_samples((cap + 1) / SR, SR)


def test_sample_buffer_immutable():
    buf = gen_sine(220.0, 0.01, SR)
    with pytest.raises(ValueError):
        buf.samples[0] = 5.0


def test_sample_buffer_copies_a_writable_array():
    samples = np.linspace(-0.5, 0.5, 64)
    buf = SampleBuffer(samples, SR)
    samples[:] = 0.0
    assert np.array_equal(buf.samples, np.linspace(-0.5, 0.5, 64))
    assert not buf.samples.flags.writeable


def read_only_owned(n=64):
    """A fresh float64 array that owns its memory (np.linspace returns a view), made read-only."""
    owned = np.arange(n) / n - 0.5
    assert owned.base is None
    owned.setflags(write=False)
    return owned


def test_sample_buffer_adopts_a_read_only_float64_array_that_owns_its_memory():
    owned = read_only_owned()
    buf = SampleBuffer(owned, SR)
    assert buf.samples is owned
    assert SampleBuffer(buf.samples, SR).samples is owned  # buffers share what they adopt
    # a float32 array, as read_wav fills, is adopted too: its samples widen exactly
    narrow = owned.astype(np.float32)
    narrow.setflags(write=False)
    assert SampleBuffer(narrow, SR).samples is narrow


@pytest.mark.parametrize("make", [
    lambda a: a[::2], lambda a: a[:32],
    lambda a: a.astype(np.float32)[:32],  # float32 is adopted only where it owns its memory
    lambda a: a.astype(np.float16), lambda a: a.tolist(),
], ids=["strided view", "contiguous view", "float32", "float16", "list"])
def test_sample_buffer_copies_a_view_another_dtype_or_a_list(make):
    owned = read_only_owned()
    source = make(owned)
    if isinstance(source, np.ndarray):
        source.setflags(write=False)
    buf = SampleBuffer(source, SR)
    assert not np.shares_memory(buf.samples, owned)
    assert not (isinstance(source, np.ndarray) and np.shares_memory(buf.samples, source))
    assert buf.samples.dtype == np.float64 and not buf.samples.flags.writeable
    assert np.array_equal(buf.samples, np.asarray(source, dtype=np.float64))


def test_sample_buffer_rejects_bad_rate():
    with pytest.raises(ValidationError):
        SampleBuffer(np.zeros(4), 0)
    with pytest.raises(ValidationError):
        SampleBuffer(np.zeros(4), -48000)


def test_stereo_buffer_rejects_mismatches():
    a = gen_sine(220.0, 0.01, 48000)
    with pytest.raises(ValidationError):
        StereoBuffer(a, gen_sine(220.0, 0.01, 44100))
    with pytest.raises(ValidationError):
        StereoBuffer(a, gen_sine(220.0, 0.02, 48000))


def test_stereo_swapped():
    left = gen_sine(220.0, 0.01, SR)
    right = gen_sine(440.0, 0.01, SR)
    stereo = StereoBuffer(left, right)
    assert np.array_equal(stereo.swapped().left.samples, right.samples)
    assert np.array_equal(stereo.swapped().right.samples, left.samples)
