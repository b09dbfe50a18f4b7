import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as scipy_signal

from bincues import analysis
from bincues import (AnalysisError, BincuesError, DuplexThresholds, HeadGeometry, RenderSpec,
                     SampleBuffer, ShadowParams, SilentSignalError, SourceSpec, StereoBuffer,
                     TransferFunction, ValidationError, analyze_capture, apply_fractional_delay,
                     band_itd, calibration_check, cross_correlation, duplex_classify,
                     estimate_itd, full_dummy, gen_impulse, gen_pink_noise, gen_sine,
                     head_shadow_ild, human_head, ild_spectrum_summary, ipd_from_itd, jecklin,
                     ortf, predicted_itd, semi_dummy, shadow_filter_kernel, simulate_capture,
                     speed_of_sound, transfer_function, wrap_phase_deg)

SR = 48000
ONE_SAMPLE = 1.0 / SR


def apply_spectral_gain(buf, gain_db_fn):
    """Filter a buffer by a smooth magnitude curve (test construction helper)."""
    spectrum = np.fft.rfft(buf.samples)
    freqs = np.fft.rfftfreq(len(buf), 1.0 / buf.sample_rate)
    freqs[0] = freqs[1]
    spectrum *= 10.0 ** (gain_db_fn(freqs) / 20.0)
    return SampleBuffer(np.fft.irfft(spectrum, len(buf)), buf.sample_rate)


def delayed_copy(buf, delay_s):
    return apply_fractional_delay(buf, delay_s)


def welch_spectra(stereo, fft_size, overlap=analysis.DEFAULT_OVERLAP):
    """The Welch pass over a whole capture: one accumulator fed both channels in one block."""
    welch = analysis._Welch(fft_size, stereo.sample_rate, overlap)
    welch.update(stereo.left.samples, stereo.right.samples)
    return welch.spectra()


# --- transfer_function ------------------------------------------------------

def test_tf_identity(pink_5s):
    tf = transfer_function(pink_5s, pink_5s)
    assert np.max(np.abs(tf.magnitude_db)) < 1e-6
    assert np.max(np.abs(tf.phase_deg)) < 1e-6
    assert np.min(tf.coherence) > 1.0 - 1e-6
    assert tf.broadband_delay_s == 0.0


def test_tf_half_gain(pink_5s):
    half = SampleBuffer(0.5 * pink_5s.samples, SR)
    tf = transfer_function(pink_5s, half)
    expected = 20.0 * math.log10(0.5)
    np.testing.assert_allclose(tf.magnitude_db, expected, atol=1e-6)
    assert np.max(np.abs(tf.phase_deg)) < 1e-6
    assert np.min(tf.coherence) > 1.0 - 1e-6


def test_tf_pure_delay_phase_law(pink_5s):
    tau = 0.5e-3  # 24 samples
    delayed = delayed_copy(pink_5s, tau)
    tf = transfer_function(pink_5s, delayed)

    bin_500 = int(np.argmin(np.abs(tf.freqs - 500.0)))
    expected = -360.0 * tf.freqs[bin_500] * tau
    assert tf.phase_deg[bin_500] == pytest.approx(expected, abs=0.5)

    # unwrapped phase is linear in frequency with slope -360*tau deg/Hz
    keep = tf.coherence > 0.9
    phase = np.unwrap(np.radians(tf.phase_deg[keep]))
    freqs = tf.freqs[keep]
    slope, intercept = np.polyfit(freqs, phase, 1)
    fitted = slope * freqs + intercept
    ss_res = np.sum((phase - fitted) ** 2)
    ss_tot = np.sum((phase - phase.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot >= 0.999
    assert np.degrees(slope) == pytest.approx(-360.0 * tau, rel=1e-3)

    assert tf.broadband_delay_s == pytest.approx(tau, abs=0.1 * ONE_SAMPLE)
    band = (tf.freqs >= 100) & (tf.freqs <= 16000)
    assert np.min(tf.coherence[band]) > 0.999


def test_tf_lti_filter_keeps_high_coherence(pink_5s):
    shaped = apply_spectral_gain(pink_5s, lambda f: -6.0 / (1.0 + (2000.0 / f) ** 2))
    tf = transfer_function(pink_5s, shaped)
    band = (tf.freqs >= 100) & (tf.freqs <= 16000)
    assert np.min(tf.coherence[band]) > 0.999


def test_tf_parseval(pink_5s):
    from scipy import signal as sps
    freqs, psd = sps.welch(pink_5s.samples, fs=SR, window="hann", nperseg=8192,
                           noverlap=4096, detrend=False)
    band_power = np.sum(psd) * (freqs[1] - freqs[0])
    time_power = np.mean(pink_5s.samples ** 2)
    assert abs(10.0 * np.log10(band_power / time_power)) < 0.1


@pytest.mark.parametrize("field, value", [
    ("freqs", np.nan), ("magnitude_db", np.nan), ("phase_deg", np.inf), ("coherence", np.nan),
    ("broadband_delay_s", np.nan), ("broadband_delay_s", np.inf),
])
def test_tf_rejects_a_non_finite_value_or_a_coherence_outside_0_1(field, value):
    arrays = dict(freqs=np.linspace(20.0, 16000.0, 4), magnitude_db=np.zeros(4),
                  phase_deg=np.zeros(4), coherence=np.ones(4), broadband_delay_s=0.0)
    if field == "broadband_delay_s":
        arrays[field] = value
    else:
        arrays[field][-1] = value
    with pytest.raises(ValidationError, match=field):
        TransferFunction(**arrays)


def test_tf_validation():
    short = gen_pink_noise(0.05, SR, seed=2)
    with pytest.raises(ValidationError):
        transfer_function(short, short, fft_size=8192)
    a = gen_pink_noise(0.5, SR, seed=2)
    b = gen_pink_noise(0.5, 44100, seed=2)
    with pytest.raises(ValidationError):
        transfer_function(a, b)
    with pytest.raises(ValidationError):
        transfer_function(a, a, fft_size=1000)  # not a power of two


def _pink_1s():
    return gen_pink_noise(1.0, SR, seed=2)


@pytest.mark.parametrize("call, name", [
    (lambda: transfer_function(_pink_1s(), _pink_1s(), 4096.0), "fft_size"),
    (lambda: analyze_capture(StereoBuffer(_pink_1s(), _pink_1s()), 4096.0), "fft_size"),
    (lambda: calibration_check(_pink_1s(), _pink_1s(), fft_size=4096.0), "fft_size"),
    (lambda: gen_pink_noise(1.0, seed=None), "seed"),
    (lambda: gen_pink_noise(1.0, seed=3.0), "seed"),
    (lambda: gen_impulse(1.0, offset=2.0), "offset"),
    (lambda: apply_fractional_delay(_pink_1s(), 1e-3, [0.5, 0.5]), "fir"),
], ids=["transfer_function", "analyze_capture", "calibration_check", "seed-None", "seed-float",
        "offset-float", "fir-list"])
def test_a_mistyped_integer_argument_is_a_validation_error(call, name):
    with pytest.raises(ValidationError, match=f"^{name} must"):
        call()


def test_integer_arguments_take_numpy_integers_and_fir_takes_a_list():
    pink, fir = _pink_1s(), [0.25, 0.5, 0.25]
    pairs = [(transfer_function(pink, pink, np.int64(4096)).magnitude_db,
              transfer_function(pink, pink, 4096).magnitude_db),
             (gen_pink_noise(0.1, seed=np.uint8(3)).samples, gen_pink_noise(0.1, seed=3).samples),
             (gen_impulse(0.1, offset=np.int32(7)).samples, gen_impulse(0.1, offset=7).samples),
             (apply_fractional_delay(pink, 1e-3, fir).samples,
              apply_fractional_delay(pink, 1e-3, np.array(fir)).samples)]
    for got, want in pairs:
        assert np.array_equal(got, want)


def _stereo_1s():
    return StereoBuffer(_pink_1s(), _pink_1s())


# None, a string, a bool or NaN where a number goes: the parameter's own rule names it, where a
# comparison or a product raised TypeError, and a bool offset gave an impulse of all ones.
@pytest.mark.parametrize("call, name, value", [
    (lambda: gen_sine(None, 1.0), "freq", None),
    (lambda: gen_sine("440", 1.0), "freq", "440"),
    (lambda: gen_pink_noise(None), "duration", None),
    (lambda: apply_fractional_delay(_pink_1s(), None), "delay", None),
    (lambda: apply_fractional_delay(_pink_1s(), 1e-3, ["a"]), "fir", np.str_("a")),
    (lambda: estimate_itd(_stereo_1s(), max_lag=None), "max_lag", None),
    (lambda: calibration_check(_pink_1s(), _pink_1s(), tolerance_db=None), "tolerance_db", None),
    (lambda: calibration_check(_pink_1s(), _pink_1s(), tolerance_db=math.nan), "tolerance_db",
     math.nan),
    (lambda: SourceSpec(None), "azimuth", None),
    (lambda: human_head(radius_m="0.1"), "radius_m", "0.1"),
    (lambda: ortf(capsule_angle_deg="110"), "capsule_angle_deg", "110"),
    (lambda: RenderSpec(azimuth_rad=None), "azimuth_rad", None),
    (lambda: RenderSpec(gain_db=None), "gain_db", None),
    (lambda: ShadowParams(max_attenuation_db=None), "max_attenuation_db", None),
    (lambda: HeadGeometry(temperature_c=None), "temperature_c", None),
    (lambda: DuplexThresholds(itd_limit_hz=None), "itd_limit_hz", None),
    (lambda: band_itd(_stereo_1s(), low_hz=None), "low_hz", None),
    (lambda: gen_impulse(0.01, 48000, True), "offset", True),
    (lambda: shadow_filter_kernel(human_head(), 0.5, None), "sample_rate", None),
    (lambda: shadow_filter_kernel(human_head(), 0.5, 0), "sample_rate", 0),
    (lambda: shadow_filter_kernel(human_head(), 0.5, 48000.5), "sample_rate", 48000.5),
    (lambda: analysis.analyze_blocks([], None, 48000), "length", None),
    (lambda: analysis.analyze_blocks([], 96000, None), "sample_rate", None),
    (lambda: analysis.analyze_blocks([], 96000, 0), "sample_rate", 0),
    (lambda: analysis.analyze_blocks([], -5, 48000), "length", -5),
    (lambda: analysis.analyze_blocks([], 9000.5, 48000), "length", 9000.5),
    (lambda: speed_of_sound(None), "temperature_c", None),
    (lambda: speed_of_sound(math.nan), "temperature_c", math.nan),
    (lambda: ipd_from_itd(500.0, None), "itd", None),
    (lambda: ipd_from_itd(500.0, math.nan), "itd", math.nan),
], ids=["sine-None", "sine-str", "pink-None", "delay-None", "fir-str", "max_lag-None",
        "tolerance-None", "tolerance-nan", "source-None", "radius-str", "capsule-str",
        "render-azimuth-None", "render-gain-None", "shadow-None", "temperature-None",
        "duplex-None", "band-None", "impulse-bool", "kernel-rate-None", "kernel-rate-0",
        "kernel-rate-fraction", "blocks-length-None", "blocks-rate-None", "blocks-rate-0",
        "blocks-length-negative", "blocks-length-fraction", "sound-speed-None",
        "sound-speed-nan", "ipd-itd-None", "ipd-itd-nan"])
def test_a_mistyped_number_argument_is_a_validation_error(call, name, value):
    rule = rf"^{name} must be (a|an|a finite) (number|integer) in .*, got "
    with pytest.raises(ValidationError, match=rule + re.escape(repr(value)) + "$"):
        call()


# A container or an object of the wrong kind, where a TypeError or AttributeError came out of
# the first use of it: the parameter's own check names it.
@pytest.mark.parametrize("call, name", [
    (lambda: wrap_phase_deg(None), "deg"),
    (lambda: ild_spectrum_summary(transfer_function(_pink_1s(), _pink_1s()), bands=None), "bands"),
    (lambda: calibration_check(_pink_1s(), _pink_1s(), band=None), "band"),
    (lambda: duplex_classify(1000.0, 1), "thresholds"),
    (lambda: StereoBuffer(_pink_1s(), None), "right"),
    (lambda: StereoBuffer(None, _pink_1s()), "left"),
    (lambda: wrap_phase_deg(["a"]), "deg"),
    (lambda: wrap_phase_deg({}), "deg"),
    (lambda: head_shadow_ild(ShadowParams(), 0.5, ["a"]), "freq"),
    (lambda: head_shadow_ild(ShadowParams(), 0.5, [[500.0], [500.0, 1000.0]]), "freq"),
], ids=["wrap-None", "summary-bands-None", "calibration-band-None", "duplex-thresholds-int",
        "stereo-right-None", "stereo-left-None", "wrap-str", "wrap-dict", "shadow-freq-str",
        "shadow-freq-ragged"])
def test_a_mistyped_container_or_object_argument_is_a_validation_error(call, name):
    with pytest.raises(ValidationError, match=rf"^{name} must be "):
        call()


# --- estimate_itd -----------------------------------------------------------

def test_itd_identical_channels_is_exactly_zero(pink_5s):
    stereo = StereoBuffer(pink_5s, pink_5s)
    assert estimate_itd(stereo) == 0.0


def test_itd_recovers_constructed_delay(pink_5s):
    right = delayed_copy(pink_5s, 0.69e-3)
    est = estimate_itd(StereoBuffer(pink_5s, right))
    assert est == pytest.approx(0.69e-3, abs=ONE_SAMPLE)


def test_itd_swap_is_exact_negation(pink_5s):
    stereo = StereoBuffer(pink_5s, delayed_copy(pink_5s, 0.69e-3))
    assert estimate_itd(stereo.swapped()) == -estimate_itd(stereo)


def test_itd_phat_weighting(pink_5s):
    right = delayed_copy(pink_5s, 0.69e-3)
    est = estimate_itd(StereoBuffer(pink_5s, right), weighting="phat")
    assert est == pytest.approx(0.69e-3, abs=ONE_SAMPLE)


def test_itd_invariant_to_power_of_two_gain(pink_2s):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 0.43e-3))
    base = estimate_itd(stereo)
    for k in (0.25, 2.0, 8.0):
        scaled = StereoBuffer(SampleBuffer(k * stereo.left.samples, SR),
                              SampleBuffer(k * stereo.right.samples, SR))
        assert estimate_itd(scaled) == base  # exact: power-of-two scaling


@given(st.floats(0.1, 9.0))
@settings(max_examples=15, deadline=None)
def test_itd_invariant_to_common_gain(k):
    pink = gen_pink_noise(0.25, SR, seed=5)
    stereo = StereoBuffer(pink, delayed_copy(pink, 0.43e-3))
    scaled = StereoBuffer(SampleBuffer(k * stereo.left.samples, SR),
                          SampleBuffer(k * stereo.right.samples, SR))
    assert estimate_itd(scaled) == pytest.approx(estimate_itd(stereo), abs=1e-10)


def test_itd_rejects_silence():
    quiet = SampleBuffer(np.zeros(SR), SR)
    with pytest.raises(SilentSignalError):
        estimate_itd(StereoBuffer(quiet, quiet))


@pytest.mark.parametrize("weighting", ["none", "phat"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_analyze_capture_rejects_a_silent_channel(pink_2s, side, weighting):
    quiet = SampleBuffer(np.zeros(len(pink_2s)), SR)
    stereo = StereoBuffer(quiet, pink_2s) if side == "left" else StereoBuffer(pink_2s, quiet)
    with pytest.raises(SilentSignalError, match=f"{side} channel"):
        analyze_capture(stereo, weighting=weighting)


def _right_after_the_last_segment(pink):
    # 1 s holds nine whole 8192-sample segments at a 4096-sample hop; the last ends at 45056
    right = pink.samples[:SR].copy()
    right[:45056] = 0.0
    return StereoBuffer(SampleBuffer(pink.samples[:SR], SR), SampleBuffer(right, SR))


def _right_click_on_sample_0(pink):
    click = np.zeros(len(pink))
    click[0] = 1.0  # where the first segment's Hann window is 0, and no other segment reads
    return StereoBuffer(pink, SampleBuffer(click, SR))


@pytest.mark.parametrize("make", [_right_after_the_last_segment, _right_click_on_sample_0])
@pytest.mark.parametrize("call", [estimate_itd, analyze_capture])
def test_sound_that_no_segment_reads_is_silence(pink_2s, call, make):
    # The silence rule reads the Welch auto-spectra that the cues are read from, so sound that
    # no windowed segment holds is silence, not an ITD on the edge of the lag window.
    with pytest.raises(SilentSignalError, match="right channel is silent"):
        call(make(pink_2s))


@pytest.mark.parametrize("call", [cross_correlation, estimate_itd, band_itd])
def test_empty_capture_is_rejected(call):
    empty = SampleBuffer(np.zeros(0), SR)
    with pytest.raises(ValidationError, match="the capture is empty"):
        call(StereoBuffer(empty, empty))


def test_itd_rejects_oversized_lag_window():
    pink = gen_pink_noise(0.01, SR, seed=1)
    with pytest.raises(ValidationError):
        estimate_itd(StereoBuffer(pink, pink), max_lag=0.02)


def test_itd_rejects_unknown_weighting(pink_2s):
    with pytest.raises(ValidationError):
        estimate_itd(StereoBuffer(pink_2s, pink_2s), weighting="scot")


def test_cross_correlation_matches_brute_force():
    # 40 seeded integer-delay cases against an independent full correlation
    max_lag = 96
    for case in range(40):
        rng_delay = np.random.default_rng(1000 + case)
        d = int(rng_delay.integers(0, max_lag + 1))
        pink = gen_pink_noise(2048 / SR, SR, seed=2000 + case)
        left = pink.samples
        right = np.zeros_like(left)
        right[d:] = left[: left.size - d]
        stereo = StereoBuffer(SampleBuffer(left, SR), SampleBuffer(right, SR))
        lags, cc = cross_correlation(stereo, max_lag=max_lag / SR)

        full = np.correlate(right, left, mode="full")
        center = left.size - 1
        window = full[center - max_lag : center + max_lag + 1]
        assert int(np.argmax(cc)) == int(np.argmax(window))
        assert lags[np.argmax(cc)] == d
        assert round(estimate_itd(stereo, max_lag=max_lag / SR) * SR) == d


@pytest.mark.parametrize("weighting", analysis.WEIGHTINGS)
@given(n=st.integers(8, 12000), lag=st.integers(1, 2048), seed=st.integers(0, 2**32 - 1),
       log_gain=st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_identical_channels_correlate_exactly_symmetrically(weighting, n, lag, seed, log_gain):
    # the negative lags come from the swapped cross-spectrum, which equals the unswapped one
    # for identical channels, so no rounding breaks the symmetry or moves the peak
    mono = SampleBuffer(np.random.default_rng(seed).standard_normal(n) * 10.0 ** log_gain, SR)
    stereo = StereoBuffer(mono, mono)
    max_lag = min(lag, min(n, analysis.DEFAULT_FFT_SIZE) // 4) / SR  # fits four times
    lags, cc = cross_correlation(stereo, max_lag, weighting)
    assert np.array_equal(cc, cc[::-1]) and np.array_equal(lags, -lags[::-1])
    assert estimate_itd(stereo, max_lag, weighting) == 0.0


# --- band_itd ---------------------------------------------------------------

def two_tone_capture(delay_low_s, delay_high_s, low_hz=220.0, high_hz=6000.0):
    """Sequential tone bursts; each band carries its own interaural delay."""
    total = int(2.6 * SR)

    def burst(freq, at_s):
        sig = np.zeros(total)
        tone = gen_sine(freq, 1.0, SR, 0.9).samples
        start = int(at_s * SR)
        sig[start : start + tone.size] = tone
        return SampleBuffer(sig, SR)

    low, high = burst(low_hz, 0.1), burst(high_hz, 1.4)
    left = SampleBuffer(low.samples + high.samples, SR)
    right = SampleBuffer(
        apply_fractional_delay(low, delay_low_s).samples
        + apply_fractional_delay(high, delay_high_s).samples,
        SR,
    )
    return StereoBuffer(left, right)


def test_band_itd_equal_delays():
    stereo = two_tone_capture(0.69e-3, 0.69e-3)
    low, high = band_itd(stereo)
    assert low == pytest.approx(0.69e-3, abs=ONE_SAMPLE)
    assert high == pytest.approx(0.69e-3, abs=ONE_SAMPLE)


def test_band_itd_recovers_42us_split():
    stereo = two_tone_capture(0.711e-3, 0.669e-3)
    low, high = band_itd(stereo)
    assert low - high == pytest.approx(42e-6, abs=25e-6)


def test_band_itd_missing_band_errors():
    # smooth-envelope low tone only: nothing usable in the 6 kHz octave
    n = int(2.0 * SR)
    envelope = np.hanning(n)
    tone = 0.9 * envelope * np.sin(2 * np.pi * 220.0 * np.arange(n) / SR)
    mono = SampleBuffer(tone, SR)
    stereo = StereoBuffer(mono, apply_fractional_delay(mono, 0.5e-3))
    with pytest.raises(AnalysisError):
        band_itd(stereo)


def test_band_itd_rejects_band_above_nyquist(pink_2s):
    stereo = StereoBuffer(pink_2s, pink_2s)
    with pytest.raises(ValidationError):
        band_itd(stereo, low_hz=220.0, high_hz=20000.0)


def test_band_energy_rule_is_the_filtered_mean_square(pink_2s):
    # By Parseval the weighted Welch density times the bin width is the mean square of the
    # channel band-passed forward and backward; under SILENCE_RMS**2 in either channel, a
    # band holds no usable energy. Weighted by 1 it is the mean square of the Hann-windowed
    # segments, and under SILENCE_RMS**2 the channel is silent.
    quiet = delayed_copy(pink_2s, 0.43e-3).samples
    edges = [np.array([c / np.sqrt(2.0), c * np.sqrt(2.0)]) / (SR / 2) for c in (220.0, 6000.0)]
    weakest = min(np.mean(scipy_signal.sosfiltfilt(
        scipy_signal.butter(2, e, btype="bandpass", output="sos"), quiet) ** 2) for e in edges)
    hann = scipy_signal.get_window("hann", 8192)
    segments = np.lib.stride_tricks.sliding_window_view(quiet, 8192)[::4096] * hann
    windowed = np.mean(np.sum(segments ** 2, axis=1)) / np.sum(hann ** 2)
    rules = [(weakest, lambda s: band_itd(s)[1], AnalysisError, "no usable energy"),
             (windowed, estimate_itd, SilentSignalError, "channel is silent")]
    for mean_square, itd, error, match in rules:
        for factor in (4.0, 0.25):  # the bin width alone is a factor of 5.9
            gain = np.sqrt(factor * analysis.SILENCE_RMS ** 2 / mean_square)
            right = SampleBuffer(quiet * gain, SR)
            for stereo in (StereoBuffer(pink_2s, right), StereoBuffer(right, pink_2s)):
                if factor > 1:
                    assert abs(itd(stereo)) == pytest.approx(0.43e-3, abs=ONE_SAMPLE)
                else:
                    with pytest.raises(error, match=match):
                        itd(stereo)


@pytest.mark.parametrize("rig", [human_head(), full_dummy(), semi_dummy(), jecklin(), ortf()],
                         ids=lambda r: r.kind.value)
def test_band_itds_of_a_short_capture_land_within_a_sample(rig):
    # 0.1 s is under one 8192-sample segment, so the whole capture is one Welch segment
    pink = gen_pink_noise(0.1, SR, seed=7)
    for azimuth in (10.0, 45.0, 90.0):
        source = SourceSpec(math.radians(azimuth))
        for itd in band_itd(simulate_capture(rig, source, pink)):
            assert itd == pytest.approx(predicted_itd(rig, source), abs=ONE_SAMPLE)


@pytest.mark.parametrize("sample_rate", [44100, 48000])
@pytest.mark.parametrize("center", [220.0, 1000.0, 6000.0])
def test_octave_response_is_the_butterworth_design(center, sample_rate):
    freqs = np.fft.rfftfreq(8192, 1.0 / sample_rate)
    edges = [center / np.sqrt(2.0), center * np.sqrt(2.0)]
    [band] = analysis.octave_bands((center,), 0.0, sample_rate / 2.0)
    assert band == (center, *edges)
    sos = scipy_signal.butter(2, np.array(edges) / (sample_rate / 2.0), btype="bandpass",
                              output="sos")
    _, h = scipy_signal.sosfreqz(sos, worN=freqs, fs=sample_rate)
    np.testing.assert_allclose(analysis._octave_response(freqs, *edges, sample_rate),
                               np.abs(h) ** 2, rtol=0, atol=1e-11)


def test_band_lag_window_must_fit_four_times_in_its_segment(pink_2s):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 0.43e-3))
    # 8192-sample segments: 2048 lags (42.7 ms at 48 kHz) fit, 2049 do not
    for itd in band_itd(stereo, max_lag=2048 / SR):
        assert itd == pytest.approx(0.43e-3, abs=ONE_SAMPLE)
    with pytest.raises(ValidationError, match="lag window.*does not fit four times"):
        band_itd(stereo, max_lag=2049 / SR)
    with pytest.raises(ValidationError, match="does not fit four times"):
        analyze_capture(stereo, max_lag=2049 / SR)


# --- calibration_check ------------------------------------------------------

def test_calibration_identical_passes(pink_5s):
    verdict = calibration_check(pink_5s, pink_5s)
    assert verdict.passed
    assert verdict.max_abs_deviation_db == pytest.approx(0.0, abs=1e-9)
    assert verdict.delay_s == 0.0


def test_calibration_shelf_fails(pink_5s):
    shelved = apply_spectral_gain(pink_5s, lambda f: 4.0 / (1.0 + (4000.0 / f) ** 8))
    verdict = calibration_check(pink_5s, shelved)
    assert not verdict.passed
    assert verdict.max_abs_deviation_db > 3.0
    assert verdict.worst_freq_hz > 4000.0


def test_calibration_narrow_sub3db_bump_passes(pink_5s):
    def bump(f):
        return 2.9 * np.exp(-0.5 * (np.log2(f / 8000.0) / 0.15) ** 2)

    boosted = apply_spectral_gain(pink_5s, bump)
    verdict = calibration_check(pink_5s, boosted)
    assert verdict.passed
    assert verdict.max_abs_deviation_db == pytest.approx(2.9, abs=0.3)


def test_calibration_time_skew_fails(pink_5s):
    shifted = np.zeros_like(pink_5s.samples)
    shifted[1:] = pink_5s.samples[:-1]
    verdict = calibration_check(pink_5s, SampleBuffer(shifted, SR))
    assert not verdict.passed
    assert abs(verdict.delay_s) > 0.5 / SR
    assert verdict.max_abs_deviation_db < 0.5  # level match alone was fine


def test_calibration_band_between_two_bins_is_an_error(pink_2s):
    # 8192-point bins are 5.86 Hz apart at 48 kHz: none lies in 100..101 Hz
    with pytest.raises(AnalysisError, match="no analysis bins inside the 100.0..101.0 Hz band"):
        calibration_check(pink_2s, pink_2s, band=(100.0, 101.0))


# --- ild_spectrum_summary ---------------------------------------------------

def flat_tf(level_db, n_bins=512, f_max=16000.0):
    freqs = np.linspace(20.0, f_max, n_bins)
    return TransferFunction(freqs, np.full(n_bins, level_db), np.zeros(n_bins),
                            np.ones(n_bins), 0.0)


def test_summary_flat_zero():
    summary = ild_spectrum_summary(flat_tf(0.0))
    assert all(level == pytest.approx(0.0, abs=1e-12) for level in summary.values())


def test_summary_flat_minus_6db():
    level = 20.0 * math.log10(0.5)
    summary = ild_spectrum_summary(flat_tf(level))
    assert all(v == pytest.approx(level, rel=1e-12) for v in summary.values())


def test_summary_of_synthetic_head_shadow():
    freqs = np.linspace(20.0, 16000.0, 4096)
    mags = -head_shadow_ild(ShadowParams(), math.pi / 2, freqs)
    tf = TransferFunction(freqs, mags, np.zeros_like(freqs), np.ones_like(freqs), 0.0)
    summary = ild_spectrum_summary(tf)
    assert summary[2000.0] == pytest.approx(-6.0, abs=1.0)
    assert summary[8000.0] == pytest.approx(-15.0, abs=3.0)


def test_summary_band_outside_range_errors():
    tf = flat_tf(0.0, f_max=10000.0)
    with pytest.raises(ValidationError):
        ild_spectrum_summary(tf, bands=(16000.0,))


@pytest.mark.parametrize("center, match", [
    (np.nan, r"center must be a number in \[-inf, inf\], got nan"),
    (0.0, "octave band around 0 Hz is outside"),
    (1.0, "no analysis bin in the octave band around 1 Hz"),  # 0.71..1.41 Hz, under one bin
])
def test_summary_of_a_band_with_no_bin_is_an_error(pink_2s, center, match):
    tf = transfer_function(pink_2s, pink_2s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no mean of an empty slice
        with pytest.raises(ValidationError, match=match):
            ild_spectrum_summary(tf, (center,))


# --- analyze_capture --------------------------------------------------------

def test_analyze_capture_identical_channels(pink_5s):
    report = analyze_capture(StereoBuffer(pink_5s, pink_5s))
    assert report.itd_s == 0.0
    assert report.itd_low_s == pytest.approx(0.0, abs=1e-7)
    assert report.itd_high_s == pytest.approx(0.0, abs=1e-7)
    assert np.max(np.abs(report.ild_spectrum.magnitude_db)) < 1e-6


def test_analyze_capture_constructed_delay(pink_5s):
    stereo = StereoBuffer(pink_5s, delayed_copy(pink_5s, 0.69e-3))
    report = analyze_capture(stereo)
    assert report.itd_s == pytest.approx(0.69e-3, abs=ONE_SAMPLE)
    assert report.itd_low_s == pytest.approx(0.69e-3, abs=2 * ONE_SAMPLE)
    assert report.itd_high_s == pytest.approx(0.69e-3, abs=ONE_SAMPLE)


# --- the ITD rule: a finite peak strictly inside the lag window -------------------

def test_itd_past_the_lag_window_is_an_error(pink_2s):
    # exactly the window's 96 samples: the peak sits on its last lag
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 2e-3))
    for call in (estimate_itd, analyze_capture):
        with pytest.raises(AnalysisError, match=r"edge of the 2 ms lag window.*max_lag"):
            call(stereo)


@pytest.mark.parametrize("delay_ms", [2.5, 3.3, 5.0, 8.0])
@pytest.mark.parametrize("weighting", ["none", "phat"])
def test_delay_past_the_lag_window_never_reads_as_an_itd(pink_2s, delay_ms, weighting):
    # a window that misses the delay holds only sidelobes, which can peak one lag inside its
    # edge (5 and 8 ms do), so only the whole circular correlation's peak tells them apart
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, delay_ms * 1e-3))
    for call in (cross_correlation, estimate_itd, analyze_capture):
        with pytest.raises(AnalysisError, match="--max-lag-ms"):
            call(stereo, weighting=weighting)


@pytest.fixture(scope="module")
def inverted_captures(pink_2s):
    """Every default rig's capture of 2 s pink at seven azimuths, its right channel negated."""
    from bincues.rigsim import RIG_NAMES, RigKind, default_rig
    captures = {}
    for rig in RIG_NAMES:
        for azimuth in (0, 10, 30, 45, 60, 80, 90):
            capture = simulate_capture(default_rig(RigKind(rig)),
                                       SourceSpec(math.radians(azimuth)), pink_2s)
            captures[rig, azimuth] = StereoBuffer(capture.left, SampleBuffer(
                -capture.right.samples, SR))
    return captures


@pytest.mark.parametrize("weighting", ["none", "phat"])
def test_an_inverted_channel_is_named_never_read_as_a_cue(inverted_captures, weighting):
    # The true peak of an inverted capture's correlation is a trough at the delay. Read as
    # argmax it was a sidelobe: "widen max_lag", or under phat a report whose ITDs missed by up
    # to 1.9 ms. Its trough in the window is 3 to 28 times the peak, which names the fault.
    for (rig, azimuth), stereo in inverted_captures.items():
        with pytest.raises(AnalysisError, match="correlation peaks negative.*polarity is inverted"):
            analyze_capture(stereo, weighting=weighting)
        with pytest.raises(AnalysisError, match="polarity is inverted"):
            estimate_itd(stereo, weighting=weighting)


def test_a_deep_trough_outside_the_window_is_no_inversion():
    # Independent channels share no delay: this pair's deepest trough is 2.64 times its peak,
    # but 1092 samples from lag 0, so it asks for a wider window, as a missed delay does.
    stereo = StereoBuffer(gen_pink_noise(1.0, SR, 17), gen_pink_noise(1.0, SR, 1017))
    with pytest.raises(AnalysisError, match="peaks outside the lag window; widen max_lag"):
        estimate_itd(stereo)


@pytest.mark.parametrize("freq, delay_ms", [(500.0, 0.656), (1000.0, 0.266)])
def test_a_clean_tone_delayed_past_a_quarter_period_reads_its_delay(freq, delay_ms):
    # A tone's correlation is a cosine under an envelope centred on lag 0, not on the delay:
    # past a quarter period, the trough half a period before the delay is the nearer to lag 0
    # and outweighs the peak by about 1e-4. It must not read as an inverted channel.
    tone = gen_sine(freq, 1.0, SR, 0.5)
    stereo = StereoBuffer(tone, delayed_copy(tone, delay_ms * 1e-3))
    report = analyze_capture(stereo)
    for itd in (estimate_itd(stereo), report.itd_s, report.itd_low_s, report.itd_high_s):
        assert itd == pytest.approx(delay_ms * 1e-3, abs=1e-6)


def test_calibration_names_an_inverted_capsule(pink_2s):
    # its broadband delay read a sidelobe tens of ms away, or asked to widen fft_size
    with pytest.raises(AnalysisError, match=r"peaks negative, -\S+ at lag 0 samples.*inverted"):
        calibration_check(pink_2s, SampleBuffer(-pink_2s.samples, SR))


@pytest.mark.parametrize("delay_ms", [0.5, 1.9])
def test_delay_inside_the_lag_window_passes_the_direct_rule(pink_2s, delay_ms):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, delay_ms * 1e-3))
    lags, cc = cross_correlation(stereo)
    # the documented rule on the unweighted window alone: its argmax, refined by a parabola
    k = int(np.argmax(cc))
    a, b, c = cc[k - 1 : k + 2]
    itd = float((lags[k] + 0.5 * (a - c) / (a - 2.0 * b + c)) / SR)
    assert itd == pytest.approx(delay_ms * 1e-3, abs=ONE_SAMPLE)
    assert estimate_itd(stereo) == itd
    assert analyze_capture(stereo).itd_s == itd


def test_itd_past_2ms_is_measured_in_a_wider_window(pink_2s):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 3.3e-3))
    for weighting in ("none", "phat"):
        report = analyze_capture(stereo, weighting=weighting, max_lag=0.005)
        for itd in (report.itd_s, report.itd_low_s, report.itd_high_s):
            assert itd == pytest.approx(3.3e-3, abs=ONE_SAMPLE)


@pytest.mark.parametrize("weighting", ["none", "phat"])
def test_overflowing_correlation_is_an_error(pink_2s, weighting):
    loud = SampleBuffer(pink_2s.samples * 1e160, SR)
    stereo = StereoBuffer(loud, delayed_copy(loud, 0.3e-3))
    with np.errstate(all="ignore"):
        for call in (estimate_itd, analyze_capture):
            with pytest.raises(AnalysisError, match="overflowed"):
                call(stereo, weighting=weighting)


@given(seed=st.integers(0, 2**32 - 1), delay=st.floats(0.0, 5e-3),
       log_gain=st.floats(-3.0, 200.0), lag=st.integers(1, 300),
       weighting=st.sampled_from(analysis.WEIGHTINGS), log2_fft=st.integers(9, 12))
@settings(max_examples=40, deadline=None)
def test_analyze_capture_itds_are_finite_and_inside_the_window(seed, delay, log_gain, lag,
                                                               weighting, log2_fft):
    noise = SampleBuffer(np.random.default_rng(seed).standard_normal(4096) * 10.0 ** log_gain, SR)
    stereo = StereoBuffer(noise, delayed_copy(noise, delay))
    max_lag = lag / SR  # a whole number of samples, so the window is exactly max_lag wide
    try:
        with np.errstate(all="ignore"):
            report = analyze_capture(stereo, fft_size=2**log2_fft, weighting=weighting,
                                     max_lag=max_lag)
    except BincuesError:
        return
    for itd in (report.itd_s, report.itd_low_s, report.itd_high_s):
        assert math.isfinite(itd) and abs(itd) < max_lag


# --- non-finite input -----------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    analyze_capture, lambda s: transfer_function(s.left, s.right), estimate_itd, band_itd,
], ids=["analyze_capture", "transfer_function", "estimate_itd", "band_itd"])
def test_non_finite_sample_is_rejected(pink_2s, call, bad):
    right = pink_2s.samples.copy()
    right[1000] = bad
    with pytest.raises(ValidationError, match="finite"):
        call(StereoBuffer(pink_2s, SampleBuffer(right, SR)))


@pytest.mark.parametrize("max_lag", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [cross_correlation, estimate_itd, analyze_capture])
def test_non_finite_lag_window_is_rejected(pink_2s, call, max_lag):
    with pytest.raises(ValidationError, match="finite"):
        call(StereoBuffer(pink_2s, pink_2s), max_lag=max_lag)


# --- the spectral pass --------------------------------------------------------------

@given(st.integers(1, 10), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 4000),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
@example(log2_size=1, overlap=0.0, extra=2201, seed=2201)  # S_xy bins cancel to 1.6e-11
@example(log2_size=9, overlap=0.0, extra=116, seed=404)  # S_yy cancels to 2.1e-12 at DC
def test_welch_spectra_match_scipy(log2_size, overlap, extra, seed):
    assert_welch_matches_scipy(2 ** log2_size, overlap, extra, seed)


@pytest.mark.parametrize("fft_size, extra", [(3, 0), (7, 33), (5001, 0), (1025, 7000)])
def test_welch_spectra_of_odd_sized_segments_match_scipy(fft_size, extra):
    # An odd size has no Nyquist bin, so every bin but DC counts twice, the last one too. A
    # capture shorter than DEFAULT_FFT_SIZE is one segment of its own length, odd or even.
    assert_welch_matches_scipy(fft_size, 0.5, extra, fft_size)


def assert_welch_matches_scipy(fft_size, overlap, extra, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(fft_size + extra)
    y = 0.5 * np.roll(x, 3) + rng.standard_normal(x.size)
    kwargs = dict(fs=SR, window="hann", nperseg=fft_size,
                  noverlap=int(fft_size * overlap), detrend=False)
    stereo = StereoBuffer(SampleBuffer(x, SR), SampleBuffer(y, SR))
    ours = welch_spectra(stereo, fft_size, overlap)
    ref = (*scipy_signal.welch(x, **kwargs), scipy_signal.welch(y, **kwargs)[1],
           scipy_signal.csd(x, y, **kwargs)[1])
    # Auto-spectra relative to their peak. A cross-spectrum bin can cancel to near
    # zero, so its error is bounded per bin by the sum over segments of |X||Y|,
    # which Cauchy-Schwarz bounds by sqrt(S_xx * S_yy), plus FFT rounding, which
    # scales with the segments' norm, not the bin's value: sqrt of the mean S_xx * S_yy.
    for got, want in zip((ours.freqs, ours.s_xx, ours.s_yy), ref[:3]):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    bound = np.sqrt(ref[1] * ref[2]) + np.sqrt(np.mean(ref[1]) * np.mean(ref[2]))
    assert np.all(np.abs(ours.s_xy - ref[3]) <= 1e-12 * bound)
    assert ours.size == fft_size


class _FirstTransform(Exception):
    """Raised by a stand-in np.fft.rfft to hand its input back to the test."""


def test_welch_window_is_scipys_periodic_hann(monkeypatch):
    # Ones times the window is the window, so the first segment the Welch pass
    # transforms is its window, bit for bit.
    def first_transform(a, *args, **kwargs):
        raise _FirstTransform(a)

    monkeypatch.setattr(np.fft, "rfft", first_transform)
    for size in range(2, 16385):
        ones = SampleBuffer(np.ones(size), SR)
        with pytest.raises(_FirstTransform) as caught:
            welch_spectra(StereoBuffer(ones, ones), size, 0.5)
        first = caught.value.args[0][0, 0]  # the left channel's first frame
        assert np.array_equal(first, scipy_signal.get_window("hann", size)), size


def _noise_buffer(rng, n, scale=1.0):
    samples = scale * rng.standard_normal(n)
    samples.setflags(write=False)  # adopted, not copied
    return SampleBuffer(samples, SR)


@pytest.mark.parametrize("log2_size", range(1, 15))
def test_welch_cross_spectrum_of_equal_channels_is_exactly_real(log2_size):
    # Im conj(X) X sums x_re x_im and -(x_im x_re) in one order, so it cancels to 0 in every
    # bin, from one segment up to several batches of them (79 or more) with a partial last one
    size = 2 ** log2_size
    rng = np.random.default_rng(log2_size)
    for n in (size, size + 1, 3 * size + 7, 40 * size + 123):
        x = _noise_buffer(rng, n, 10.0 ** rng.uniform(-3, 3))
        spectra = welch_spectra(StereoBuffer(x, x), size)
        assert np.all(spectra.s_xy.imag == 0.0), (size, n)
        assert np.array_equal(spectra.s_xy.real, spectra.s_xx)


@given(st.integers(2, 16384), st.floats(0.0, 0.9), st.integers(0, 3 * 16384),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_welch_cross_spectrum_of_equal_channels_is_real_at_any_size(fft_size, overlap, extra,
                                                                    seed):
    x = _noise_buffer(np.random.default_rng(seed), fft_size + extra)
    assert np.all(welch_spectra(StereoBuffer(x, x), fft_size, overlap).s_xy.imag == 0.0)


def test_welch_pass_working_set_does_not_grow_with_the_capture():
    # The pass holds one batch of four segments and their spectra, the four sums and the held
    # samples (1.4 MiB at the default fft size, 1.8 MiB while it reads the spectra out), never
    # a copy of the capture: 30 s and 120 s peak alike, under 2 MiB.
    rng = np.random.default_rng(5)
    peaks = []
    for seconds in (30, 120):
        stereo = StereoBuffer(*(_noise_buffer(rng, seconds * SR) for _ in range(2)))
        tracemalloc.start()
        try:
            welch_spectra(stereo, analysis.DEFAULT_FFT_SIZE)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del stereo
    assert abs(peaks[1] - peaks[0]) <= 2**20, peaks
    assert max(peaks) < 2 * 2**20, peaks


@given(st.integers(2, 2048), st.floats(0.0, 0.9), st.integers(0, 40 * 2048),
       st.lists(st.integers(0, 2**31), max_size=12), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
@example(fft_size=2048, overlap=0.5, extra=20000, cuts=[9000, 5000, 9000, 5000, 5000], seed=3)
@example(fft_size=16, overlap=0.5, extra=150, cuts=list(range(1, 166)), seed=1)  # 1-sample blocks
def test_welch_spectra_do_not_depend_on_how_the_capture_is_cut(fft_size, overlap, extra, cuts,
                                                               seed):
    # Segments that straddle blocks are carried over, and batches close at fixed segment
    # indices, so any cut gives the bits of one whole block, empty blocks included, even with
    # the spectra read part way through.
    rng = np.random.default_rng(seed)
    n = fft_size + extra
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    whole = welch_spectra(StereoBuffer(SampleBuffer(x, SR), SampleBuffer(y, SR)), fft_size, overlap)
    welch = analysis._Welch(fft_size, SR, overlap)
    bounds = sorted(cut % (n + 1) for cut in cuts)  # repeats give empty blocks
    middle = bounds[len(bounds) // 2] if bounds else None
    for a, b in zip([0, *bounds], [*bounds, n]):
        welch.update(x[a:b], y[a:b])
        if b == middle and b >= fft_size:  # once a segment is in
            welch.spectra()
    got = welch.spectra()
    assert got.size == whole.size and welch.length == n
    for field in ("freqs", "s_xx", "s_yy", "s_xy"):
        assert np.array_equal(getattr(got, field), getattr(whole, field), equal_nan=True), field


# --- analyze_capture is its three stages ------------------------------------------

@pytest.mark.parametrize("max_lag", [0.001, 0.002, 0.005])
@pytest.mark.parametrize("weighting", analysis.WEIGHTINGS)
def test_analyze_capture_equals_its_stages_called_alone(pink_2s, weighting, max_lag):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 0.43e-3))
    itd = estimate_itd(stereo, max_lag, weighting)
    bands = band_itd(stereo, max_lag=max_lag)
    # below, at and above the segment size PHAT and the bands use
    for fft_size in (4096, analysis.DEFAULT_FFT_SIZE, 16384):
        report = analyze_capture(stereo, fft_size, weighting, max_lag=max_lag)
        assert report.itd_s == itd
        assert (report.itd_low_s, report.itd_high_s) == bands
        tf = transfer_function(stereo.left, stereo.right, fft_size)
        assert report.ild_spectrum.broadband_delay_s == tf.broadband_delay_s
        for field in ("freqs", "magnitude_db", "phase_deg", "coherence"):
            assert np.array_equal(getattr(report.ild_spectrum, field), getattr(tf, field))


def count_spectral_passes(monkeypatch):
    calls = []

    class Spy(analysis._Welch):
        def __init__(self, fft_size, *args):
            calls.append(fft_size)
            super().__init__(fft_size, *args)

    monkeypatch.setattr(analysis, "_Welch", Spy)
    return calls


@pytest.mark.parametrize("fft_size, passes", [(8192, [8192]), (4096, [8192, 4096])])
@pytest.mark.parametrize("weighting", analysis.WEIGHTINGS)
def test_analyze_capture_spectral_passes(pink_2s, monkeypatch, weighting, fft_size, passes):
    # one Welch accumulator feeds PHAT, the bands and the transfer function; another fft_size
    # gives the transfer function a second accumulator of its own
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 0.43e-3))
    calls = count_spectral_passes(monkeypatch)
    analyze_capture(stereo, fft_size, weighting)
    assert calls == passes


def _loud(stereo):
    return StereoBuffer(*(SampleBuffer(c.samples * 1e160, c.sample_rate)
                          for c in (stereo.left, stereo.right)))


def _silent_right(stereo):
    return StereoBuffer(stereo.left, SampleBuffer(np.zeros(len(stereo)), stereo.sample_rate))


def _short(stereo):
    return StereoBuffer(*(SampleBuffer(c.samples[:4096], c.sample_rate)
                          for c in (stereo.left, stereo.right)))


# The argument rules, in analyze_capture's order: the fft_size checks, the weighting and
# max_lag; the probe bands' fit against the rate comes last of them, below. Each case breaks one
# of these rules or more, and the first wins over them and over every rule of the samples. The
# parameters hold at 16 kHz as at 48 kHz.
_ARGUMENT_RULES = [
    (3.3e-3, _silent_right, dict(fft_size=3, weighting="x"), ValidationError, "power of two"),
    (0.43e-3, _silent_right, dict(fft_size=64, weighting="x"), ValidationError, "under 4x"),
    (0.43e-3, _short, dict(weighting="x"), ValidationError, "shorter than fft_size"),
    (0.43e-3, _loud, dict(fft_size=64), ValidationError, "under 4x"),
    (0.43e-3, _silent_right, dict(weighting="x", max_lag=np.nan), ValidationError,
     "weighting must be"),
    (0.43e-3, _loud, dict(weighting="x"), ValidationError, "weighting must be"),
    (0.43e-3, _silent_right, dict(max_lag=np.nan), ValidationError, "finite"),
    (0.43e-3, _loud, dict(max_lag=np.inf), ValidationError, "finite"),
    (3.3e-3, _loud, dict(max_lag=1e-6), ValidationError, "under one sample"),
    (0.43e-3, _loud, dict(max_lag=3.0), ValidationError, "lag window.*does not fit four times"),
    (0.43e-3, None, dict(weighting="phat", max_lag=0.2), ValidationError,
     "lag window.*does not fit four times"),
    (3.3e-3, _silent_right, dict(max_lag=0.2), ValidationError,
     "lag window.*does not fit four times"),
]

# The samples' rules that come before the bands', in the stages' order: a silent channel, then
# the ITD's lag rules. That is the order of estimate_itd and band_itd called in turn, so sharing
# one Welch pass must not reorder them.
_SAMPLE_RULES = [
    (3.3e-3, _silent_right, dict(weighting="phat"), SilentSignalError, "silent"),
    (3.3e-3, _silent_right, {}, SilentSignalError, "silent"),
    (3.3e-3, None, dict(weighting="phat"), AnalysisError, "outside the lag window"),
    (0.43e-3, _loud, dict(weighting="phat"), AnalysisError, "overflowed"),
    (0.43e-3, _loud, {}, AnalysisError, "overflowed"),
    (3.3e-3, None, {}, AnalysisError, "outside the lag window"),
]

_NO_RULE = [(0.43e-3, None, {}), (0.43e-3, None, dict(weighting="phat"))]


@pytest.mark.parametrize("delay, make, kwargs, error, match", _ARGUMENT_RULES + _SAMPLE_RULES)
def test_analyze_capture_error_precedence(pink_2s, delay, make, kwargs, error, match):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, delay))
    with np.errstate(all="ignore"), pytest.raises(error, match=match):
        analyze_capture(make(stereo) if make else stereo, **kwargs)


def _band_breaking_capture(kind, sample_rate, delay):
    """2 s of pink noise that fails a band rule: at 16 kHz the 6 kHz octave's top edge is above
    Nyquist, and high-passed above 5 kHz it leaves the 220 Hz octave silent."""
    pink = gen_pink_noise(2.0, sample_rate, seed=3)
    if kind == "high-passed":
        pink = apply_spectral_gain(pink, lambda f: np.where(f > 5000.0, 0.0, -np.inf))
    return StereoBuffer(pink, delayed_copy(pink, delay))


_BAND_FIT = (ValidationError,
             r"octave band around 6000 Hz is outside the analyzed range \(0\.\.8000 Hz\)")
_BAND_ENERGY = (AnalysisError, "no usable energy in the 220 Hz octave band")


# A band's fit against the rate is the last argument rule: each argument rule before it wins,
# and it wins over every rule of the samples, so a high-passed 16 kHz capture, which breaks
# both bands, fails at the 6 kHz band's fit.
@pytest.mark.parametrize("delay, make, kwargs, error, match", _ARGUMENT_RULES + [
    (*case[:3], *_BAND_FIT) for case in _SAMPLE_RULES + _NO_RULE])
@pytest.mark.parametrize("kind", ["pink", "high-passed"])
def test_analyze_capture_checks_the_band_fit_last_of_the_arguments(kind, delay, make, kwargs,
                                                                   error, match):
    stereo = _band_breaking_capture(kind, 16000, delay)
    with np.errstate(all="ignore"), pytest.raises(error, match=match):
        analyze_capture(make(stereo) if make else stereo, **kwargs)


# A band's energy is a rule of the samples, after the ITD's: every rule above wins over it,
# and it wins when none is broken.
@pytest.mark.parametrize("delay, make, kwargs, error, match", _ARGUMENT_RULES + _SAMPLE_RULES + [
    (*case, *_BAND_ENERGY) for case in _NO_RULE])
def test_analyze_capture_checks_the_band_energy_after_the_itd(delay, make, kwargs, error, match):
    stereo = _band_breaking_capture("high-passed", SR, delay)
    with np.errstate(all="ignore"), pytest.raises(error, match=match):
        analyze_capture(make(stereo) if make else stereo, **kwargs)


# ...and before the broadband delay's lag rule, last of all: at the smallest fft_size the checks
# accept, a 3.3 ms delay is outside the transfer function's window and inside half its segment.
@pytest.mark.parametrize("kind, sample_rate, fft_size, error, match", [
    ("pink", 16000, 128, *_BAND_FIT),
    ("high-passed", SR, 512, *_BAND_ENERGY),
], ids=["pink-16kHz", "high-passed-48kHz"])
def test_analyze_capture_checks_the_bands_before_the_broadband_delay(kind, sample_rate, fft_size,
                                                                      error, match):
    stereo = _band_breaking_capture(kind, sample_rate, 3.3e-3)
    with pytest.raises(error, match=match):
        analyze_capture(stereo, fft_size=fft_size, max_lag=0.005)


@pytest.fixture()
def no_sample_read(monkeypatch):
    """Fails the test when a Welch accumulator is fed a block."""
    def update(self, x, y):
        raise AssertionError("a sample was read")

    monkeypatch.setattr(analysis._Welch, "update", update)


class _UnreadBlocks:
    """Blocks that fail the test when the first is drawn."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("a block was drawn")


@pytest.mark.parametrize("sample_rate, kwargs, match", [
    (SR, dict(fft_size=3), "power of two"),
    (SR, dict(weighting="x"), "weighting must be"),
    (SR, dict(max_lag=np.nan), "finite"),
    (SR, dict(max_lag=np.inf), "finite"),
    (SR, dict(max_lag=1e-6), "under one sample"),
    (SR, dict(max_lag=0.2), "does not fit four times"),
    (16000, {}, "octave band around 6000 Hz"),
    (22050, {}, r"octave band around 8000 Hz is outside the analyzed range \(0\.\.11025 Hz\)"),
])
def test_analyze_blocks_checks_its_arguments_before_it_draws_a_block(no_sample_read, sample_rate,
                                                                     kwargs, match):
    with pytest.raises(ValidationError, match=match):
        analysis.analyze_blocks(_UnreadBlocks(), 2 * sample_rate, sample_rate, **kwargs)


@pytest.mark.parametrize("call, kwargs, match", [
    (cross_correlation, dict(weighting="x"), "weighting must be"),
    (cross_correlation, dict(max_lag=0.2), "does not fit four times"),
    (estimate_itd, dict(weighting="phat", max_lag=np.nan), "finite"),
    (estimate_itd, dict(max_lag=1e-6), "under one sample"),
    (band_itd, dict(max_lag=np.inf), "finite"),
    (band_itd, dict(max_lag=0.2), "does not fit four times"),
    (band_itd, dict(high_hz=20000.0), "octave band around 20000 Hz"),
    (band_itd, dict(low_hz=0.0), "octave band around 0 Hz"),
    (analyze_capture, dict(max_lag=0.2), "does not fit four times"),
])
def test_a_stage_checks_its_arguments_before_it_reads_a_sample(pink_2s, no_sample_read, call,
                                                              kwargs, match):
    with pytest.raises(ValidationError, match=match):
        call(StereoBuffer(pink_2s, pink_2s), **kwargs)


@pytest.mark.parametrize("blocks, length, match", [
    (lambda x: [(x.reshape(2, -1), x.reshape(2, -1))], SR, "1-D and of equal length"),
    (lambda x: [(x, x[:-1])], SR, "1-D and of equal length"),
    (lambda x: [(x, x)], SR + 1, f"hold {SR} samples per channel, not {SR + 1}"),
    (lambda x: [(x, x)], SR - 1, f"hold {SR} samples per channel, not {SR - 1}"),
], ids=["2-D", "unequal", "too few", "too many"])
def test_analyze_blocks_rejects_blocks_that_break_its_contract(pink_2s, blocks, length, match):
    with pytest.raises(ValidationError, match=match):
        analysis.analyze_blocks(blocks(pink_2s.samples[:SR]), length, SR)


# --- the broadband delay from the averaged cross-spectrum ---------------------------

@given(seed=st.integers(0, 2**32 - 1), delay=st.floats(0.0, 1.95e-3))
@settings(max_examples=20, deadline=None)
def test_broadband_delay_matches_the_unweighted_itd(seed, delay):
    pink = gen_pink_noise(1.0, SR, seed=seed)
    stereo = StereoBuffer(pink, delayed_copy(pink, delay))
    itd = estimate_itd(stereo)  # the refined peak of the unweighted 2 ms window
    for fft_size in (512, 1024, 2048, 4096, 8192):  # every accepted size up to the default
        tf = transfer_function(stereo.left, stereo.right, fft_size=fft_size)
        assert tf.broadband_delay_s == pytest.approx(itd, abs=0.05 * ONE_SAMPLE)


@pytest.mark.parametrize("sample_rate", [8000, 44100, 48000])
def test_broadband_delay_of_identical_channels_is_exactly_zero(sample_rate):
    # Read off S_xy alone, or off S_xy and its conjugate, the window would be symmetric
    # only up to rounding, and the parabola would leave about 1e-21 s on some of these.
    for seed in range(8):
        white = np.random.default_rng(seed).standard_normal(sample_rate) * 10.0 ** (seed - 4)
        for mono in (gen_pink_noise(1.0, sample_rate, seed=seed), SampleBuffer(white, sample_rate)):
            for fft_size in (512, 2048, 4096):
                assert transfer_function(mono, mono, fft_size=fft_size).broadband_delay_s == 0.0


@pytest.mark.parametrize("fft_size", [2, 64, 128, 256])
def test_fft_size_under_four_delay_windows_is_rejected(pink_2s, fft_size):
    with pytest.raises(ValidationError, match="under 4x the 2 ms"):
        transfer_function(pink_2s, pink_2s, fft_size=fft_size)
    with pytest.raises(ValidationError, match="under 4x the 2 ms"):
        analyze_capture(StereoBuffer(pink_2s, pink_2s), fft_size=fft_size)


def test_fft_size_minimum_follows_the_sample_rate():
    pink = gen_pink_noise(0.5, 8000, seed=4)  # the 2 ms window is 16 samples at 8 kHz
    assert transfer_function(pink, pink, fft_size=64).broadband_delay_s == 0.0
    with pytest.raises(ValidationError, match=r"\(64 samples at 8000 Hz\)"):
        transfer_function(pink, pink, fft_size=32)


# --- one lag rule: every spectral correlation must peak inside its window -------------

def test_phat_peak_outside_the_window_is_an_error(pink_2s):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 3.3e-3))
    with pytest.raises(AnalysisError, match="outside the lag window.*--max-lag-ms"):
        estimate_itd(stereo, weighting="phat")
    with pytest.raises(AnalysisError, match="outside the lag window"):
        cross_correlation(stereo, weighting="phat")


@pytest.mark.parametrize("delay", [2.5e-3, 3.3e-3, 5e-3, 30e-3])
def test_broadband_delay_past_2ms_is_measured(pink_2s, delay):
    # read over fft_size // 4 lags (42.7 ms at 48 kHz), not the 2 ms ITD window
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, delay))
    tf = transfer_function(stereo.left, stereo.right)
    assert tf.broadband_delay_s == pytest.approx(estimate_itd(stereo, max_lag=0.04),
                                                 abs=0.05 * ONE_SAMPLE)


def test_broadband_delay_past_its_transform_is_an_error(pink_2s):
    # 512 points hold 128 lags (2.67 ms); 3.3 ms sits outside them
    delayed = delayed_copy(pink_2s, 3.3e-3)
    assert transfer_function(pink_2s, delayed, fft_size=1024).broadband_delay_s == pytest.approx(
        3.3e-3, abs=ONE_SAMPLE)
    with pytest.raises(AnalysisError, match="outside the lag window.*--fft-size"):
        transfer_function(pink_2s, delayed, fft_size=512)


def test_band_itd_of_a_wide_pair_needs_a_wider_lag_window(pink_2s):
    # a 1 m Jecklin pair at broadside: its 3.303 ms ITD lies past the default 2 ms window
    rig, source = jecklin(mic_spacing_m=1.0), SourceSpec(math.radians(90.0))
    capture = simulate_capture(rig, source, pink_2s)
    with pytest.raises(AnalysisError, match="outside the lag window.*--max-lag-ms"):
        band_itd(capture)
    for itd in band_itd(capture, max_lag=0.005):
        assert itd == pytest.approx(predicted_itd(rig, source), abs=ONE_SAMPLE)


# --- PHAT: GCC-PHAT on the Welch cross-spectrum ------------------------------------

def phat_oracle_itd(stereo, max_lag=0.002):
    """Full-length GCC-PHAT: the whitened cross-spectrum of both channels zero-padded
    to 2n points, its inverse transform over the lag window, and a parabola through
    the peak and its neighbors."""
    x, y = stereo.left.samples, stereo.right.samples
    nfft = 2 * x.size
    spec = np.fft.rfft(y, nfft) * np.conj(np.fft.rfft(x, nfft))
    mag = np.abs(spec)
    cc = np.fft.irfft(spec / np.maximum(mag, mag.max() * 1e-12), nfft)
    m = round(max_lag * stereo.sample_rate)
    window = np.concatenate([cc[-m:], cc[: m + 1]])
    k = int(np.argmax(window))
    a, b, c = window[k - 1 : k + 2]
    return (k - m + 0.5 * (a - c) / (a - 2.0 * b + c)) / stereo.sample_rate


@pytest.mark.parametrize("seconds", [0.1, 1.0, 5.0])  # 0.1 s is shorter than one segment
@pytest.mark.parametrize("rig", [human_head(), full_dummy(), semi_dummy(), jecklin(), ortf()],
                         ids=lambda r: r.kind.value)
def test_phat_itd_matches_the_full_length_whitened_correlation(rig, seconds):
    pink = gen_pink_noise(seconds, SR, seed=17)
    for azimuth in (0.0, 10.0, 45.0, 90.0):
        capture = simulate_capture(rig, SourceSpec(math.radians(azimuth)), pink)
        for stereo in (capture, capture.swapped()):  # the swap puts the delay at negative lags
            assert estimate_itd(stereo, weighting="phat") == pytest.approx(
                phat_oracle_itd(stereo), abs=0.01 * ONE_SAMPLE)


@pytest.mark.parametrize("sample_rate", [8000, 44100, 48000])
def test_phat_itd_of_identical_channels_is_exactly_zero(sample_rate):
    for seed in range(8):
        white = np.random.default_rng(seed).standard_normal(sample_rate) * 10.0 ** (seed - 4)
        for mono in (gen_pink_noise(1.0, sample_rate, seed=seed), SampleBuffer(white, sample_rate),
                     gen_pink_noise(0.1, sample_rate, seed=seed)):
            assert estimate_itd(StereoBuffer(mono, mono), weighting="phat") == 0.0


def test_phat_lag_window_must_fit_four_times_in_its_segment(pink_2s):
    stereo = StereoBuffer(pink_2s, delayed_copy(pink_2s, 0.43e-3))
    # 8192-sample segments: 2048 lags (42.7 ms at 48 kHz) fit, 2049 do not
    assert estimate_itd(stereo, 2048 / SR, "phat") == pytest.approx(0.43e-3, abs=ONE_SAMPLE)
    for call in (estimate_itd, cross_correlation, analyze_capture):
        with pytest.raises(ValidationError, match="does not fit four times"):
            call(stereo, max_lag=2049 / SR, weighting="phat")
    # a capture shorter than a segment is one segment: 4800 samples hold 1200 lags
    short = StereoBuffer(SampleBuffer(pink_2s.samples[:4800], SR),
                         SampleBuffer(stereo.right.samples[:4800], SR))
    assert estimate_itd(short, 1200 / SR, "phat") == pytest.approx(0.43e-3, abs=ONE_SAMPLE)
    with pytest.raises(ValidationError, match="in its 4800-sample segment"):
        estimate_itd(short, 1201 / SR, "phat")
    with pytest.raises(ValidationError, match=r"lag window \(1201 samples\).*4800-sample segment"):
        estimate_itd(short, 1201 / SR)
