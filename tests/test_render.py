import math
import tracemalloc

import numpy as np
import pytest

from bincues import rigsim, signals
from bincues import (RenderSpec, SampleBuffer, SourceSpec, ValidationError, binauralize,
                     binauralize_scene, estimate_itd, full_dummy, gen_pink_noise, human_head,
                     ild_spectrum_summary, jecklin, ortf, predicted_ild_db, predicted_itd,
                     semi_dummy, simulate_capture, transfer_function)

SR = 48000
HALF_PI = math.pi / 2


def test_median_plane_gives_identical_channels(pink_2s):
    out = binauralize(pink_2s, RenderSpec(azimuth_rad=0.0))
    assert np.array_equal(out.left.samples, out.right.samples)


@pytest.mark.parametrize("azimuth", (0.0, 1e-6, math.pi / 6))
def test_a_hot_source_renders_at_peak_one_at_every_azimuth(azimuth, pink_2s):
    # The peak rule holds on the median plane too, where both ears share one array.
    hot = SampleBuffer(pink_2s.samples * (1.5 / np.max(np.abs(pink_2s.samples))), SR)
    out = binauralize(hot, RenderSpec(azimuth_rad=azimuth))
    assert max(np.max(np.abs(out.left.samples)), np.max(np.abs(out.right.samples))) <= 1.0
    if azimuth == 0.0:
        assert out.left.samples is out.right.samples


def test_broadside_itd_recovery(pink_5s):
    spec = RenderSpec(azimuth_rad=HALF_PI, temperature_c=18.0)
    out = binauralize(pink_5s, spec)
    est = estimate_itd(out)
    assert est == pytest.approx(0.669e-3, abs=1.0 / SR)


@pytest.mark.parametrize("azimuth_deg", [15.0, 30.0, 45.0, 60.0, 90.0])
def test_itd_recovery_grid(azimuth_deg, pink_5s):
    azimuth = math.radians(azimuth_deg)
    out = binauralize(pink_5s, RenderSpec(azimuth_rad=azimuth))
    predicted = predicted_itd(human_head(), SourceSpec(azimuth_rad=azimuth), 20.0)
    assert estimate_itd(out) == pytest.approx(predicted, abs=1.0 / SR)


def test_negative_azimuth_is_exact_channel_mirror(pink_2s):
    for azimuth in (0.3, 1.1, HALF_PI):
        plus = binauralize(pink_2s, RenderSpec(azimuth_rad=azimuth))
        minus = binauralize(pink_2s, RenderSpec(azimuth_rad=-azimuth))
        assert np.array_equal(plus.left.samples, minus.right.samples)
        assert np.array_equal(plus.right.samples, minus.left.samples)


def test_ild_recovery_octaves(pink_5s):
    rig = human_head()
    out = binauralize(pink_5s, RenderSpec(rig=rig, azimuth_rad=HALF_PI))
    tf = transfer_function(out.left, out.right)
    summary = ild_spectrum_summary(tf, bands=(500.0, 1000.0, 2000.0, 4000.0, 8000.0))
    for center, level in summary.items():
        predicted = predicted_ild_db(rig, SourceSpec(azimuth_rad=HALF_PI), center)
        assert -level == pytest.approx(predicted, abs=1.5), f"band {center}"


def test_render_with_spaced_rigs(pink_5s):
    for rig in (jecklin(), ortf()):
        out = binauralize(pink_5s, RenderSpec(rig=rig, azimuth_rad=HALF_PI))
        predicted = predicted_itd(rig, SourceSpec(azimuth_rad=HALF_PI), 20.0)
        assert estimate_itd(out) == pytest.approx(predicted, abs=1.0 / SR)


def test_silence_in_silence_out():
    quiet = SampleBuffer(np.zeros(SR), SR)
    out = binauralize(quiet, RenderSpec(azimuth_rad=0.7))
    assert np.all(out.left.samples == 0.0)
    assert np.all(out.right.samples == 0.0)


def test_gain_applies_and_output_stays_in_range(pink_2s):
    out = binauralize(pink_2s, RenderSpec(azimuth_rad=0.5, gain_db=-6.0))
    near = out.left.samples
    expected = 10.0 ** (-6.0 / 20.0) * pink_2s.samples
    np.testing.assert_allclose(near, expected, atol=1e-15)
    assert max(np.max(np.abs(out.left.samples)), np.max(np.abs(out.right.samples))) <= 1.0


def test_render_spec_validation():
    with pytest.raises(ValidationError):
        RenderSpec(azimuth_rad=2.0)
    with pytest.raises(ValidationError):
        RenderSpec(gain_db=1.0)
    with pytest.raises(ValidationError, match="gain_db"):
        RenderSpec(gain_db=math.nan)
    for temperature_c in (math.nan, 60.0):  # checked even where azimuth 0 never uses it
        with pytest.raises(ValidationError, match="temperature_c"):
            RenderSpec(azimuth_rad=0.0, temperature_c=temperature_c)


def test_render_rejects_empty_signal():
    with pytest.raises(ValidationError):
        binauralize(SampleBuffer(np.zeros(0), SR), RenderSpec())


def test_scene_single_source_matches_binauralize(pink_2s):
    spec = RenderSpec(azimuth_rad=0.8)
    solo = binauralize(pink_2s, spec)
    scene = binauralize_scene([(pink_2s, spec)])
    assert np.array_equal(scene.left.samples, solo.left.samples)
    assert np.array_equal(scene.right.samples, solo.right.samples)


def test_scene_symmetric_pair_is_mirror_equal(pink_2s):
    gain = RenderSpec(azimuth_rad=HALF_PI, gain_db=-12.0)
    mirrored = RenderSpec(azimuth_rad=-HALF_PI, gain_db=-12.0)
    scene = binauralize_scene([(pink_2s, gain), (pink_2s, mirrored)])
    assert np.array_equal(scene.left.samples, scene.right.samples)
    left_energy = np.sum(scene.left.samples ** 2)
    right_energy = np.sum(scene.right.samples ** 2)
    assert left_energy == right_energy


def test_scene_empty_list():
    scene = binauralize_scene([])
    assert len(scene) == 0
    assert scene.sample_rate == SR


def test_scene_rejects_mixed_rates(pink_2s):
    other = gen_pink_noise(0.5, 44100, seed=9)
    with pytest.raises(ValidationError):
        binauralize_scene([(pink_2s, RenderSpec()), (other, RenderSpec())])


def test_scene_normalizes_only_on_clip(pink_2s):
    specs = [RenderSpec(azimuth_rad=0.0), RenderSpec(azimuth_rad=0.0)]
    scene = binauralize_scene([(pink_2s, spec) for spec in specs])
    peak = np.max(np.abs(scene.left.samples))
    assert peak <= 1.0  # two coherent 0.9-peak sources must have been scaled back
    quiet_scene = binauralize_scene([(pink_2s, RenderSpec(azimuth_rad=0.0, gain_db=-20.0))])
    expected_peak = 0.9 * 10.0 ** (-20.0 / 20.0)
    assert np.max(np.abs(quiet_scene.left.samples)) == pytest.approx(expected_peak, rel=1e-9)


def test_scene_normalizes_the_mix_not_each_source(pink_2s, caplog):
    # A source peaking at 1.5 beside a quiet one. Normalized on its own, the hot source would
    # lose 3.5 dB against the quiet one while the mix peaked at 0.94 and nothing was logged.
    # Normalizing only the mix scales both sources alike: the mix is the same scene at half
    # level, where nothing clips, scaled up to a peak of 1.
    hot = SampleBuffer(pink_2s.samples * (1.5 / np.max(np.abs(pink_2s.samples))), SR)
    quiet = SampleBuffer(0.2 * gen_pink_noise(2.0, SR, seed=5).samples, SR)
    specs = RenderSpec(azimuth_rad=math.radians(30)), RenderSpec(azimuth_rad=math.radians(-40))
    with caplog.at_level("WARNING", logger="bincues.render"):
        mix = binauralize_scene(list(zip((hot, quiet), specs)))
    assert [r.getMessage().split(";")[0] for r in caplog.records] == ["scene mix clipped"]
    halves = [SampleBuffer(source.samples / 2, SR) for source in (hot, quiet)]
    half = binauralize_scene(list(zip(halves, specs)))
    half_peak = max(np.max(np.abs(half.left.samples)), np.max(np.abs(half.right.samples)))
    assert half_peak < 1.0
    for got, want in ((mix.left, half.left), (mix.right, half.right)):
        np.testing.assert_allclose(got.samples, want.samples / half_peak, rtol=0, atol=1e-12)


def test_a_scene_that_does_not_clip_is_the_sum_of_its_solo_renders(pink_2s):
    # The first source sits on the median plane, where its two ears are one array, and is the
    # shorter: the mix pads it into one copy per ear, and the second source adds into each.
    short = gen_pink_noise(0.5, SR, seed=4)
    sources = [(short, RenderSpec(azimuth_rad=0.0, gain_db=-6.0)),
               (pink_2s, RenderSpec(azimuth_rad=math.radians(40), gain_db=-6.0))]
    scene = binauralize_scene(sources)
    first, second = (binauralize(signal, spec) for signal, spec in sources)
    pad = len(pink_2s) - len(short)
    for got, ears in ((scene.left, (first.left, second.left)),
                      (scene.right, (first.right, second.right))):
        assert np.array_equal(got.samples, np.pad(ears[0].samples, (0, pad)) + ears[1].samples)
    assert not np.array_equal(scene.left.samples, scene.right.samples)


def _azimuth_of_a_whole_sample_itd(rig, samples):
    """The azimuth in (0, pi/2] whose model ITD is `samples` whole samples, by bisection."""
    lo, hi = 0.0, HALF_PI
    for _ in range(60):
        mid = (lo + hi) / 2
        below = predicted_itd(rig, SourceSpec(azimuth_rad=mid)) * SR < samples
        lo, hi = (mid, hi) if below else (lo, mid)
    return hi


@pytest.mark.parametrize("rig", [human_head(), full_dummy(), semi_dummy(), jecklin(), ortf()],
                         ids=lambda rig: rig.kind.value)
def test_a_channel_of_several_far_ears_is_the_sum_of_its_solo_renders(rig, pink_2s):
    # Each channel sums two or more far ears, so the scene runs them through one overlap-add;
    # that rounds otherwise than the solo renders, but only by FFT rounding. The right channel
    # sums two 2 s far ears at distinct gains, one of whose ITDs is 12 whole samples, which
    # takes the shift or FIR-only kernel; the left sums two 0.5 s far ears, whose sum ends at
    # their own length, and a 2 s one.
    whole = _azimuth_of_a_whole_sample_itd(rig, 12)
    assert abs(predicted_itd(rig, SourceSpec(azimuth_rad=whole)) * SR - 12) < 1e-9
    short = [gen_pink_noise(0.5, SR, seed=seed) for seed in (4, 5)]
    sources = [(pink_2s, math.radians(40), -12.0), (gen_pink_noise(2.0, SR, seed=8), whole, -16.0),
               (short[0], math.radians(-25), -14.0), (short[1], math.radians(-80), -20.0),
               (gen_pink_noise(2.0, SR, seed=9), math.radians(-60), -18.0)]
    scene = [(signal, RenderSpec(rig=rig, azimuth_rad=azimuth, gain_db=gain_db))
             for signal, azimuth, gain_db in sources]
    mix = binauralize_scene(scene)
    for channel in ("left", "right"):
        want = np.zeros(len(pink_2s))
        for signal, spec in scene:  # in order, the sum a mix of solo renders would make
            want[: len(signal)] += getattr(binauralize(signal, spec), channel).samples
        assert np.max(np.abs(want)) < 1.0  # so the mix is not normalized
        np.testing.assert_allclose(getattr(mix, channel).samples, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("samples", (3, 12, 20))
def test_an_ortf_far_ear_at_a_whole_sample_itd_is_an_exact_shift(samples, pink_2s, monkeypatch):
    # ORTF's far-to-near ratio is flat, so at a whole-sample ITD its far ear has no kernel: the
    # signal shifted by the ITD and times the ratio, bit for bit, with no FFT.
    rig = ortf()
    azimuth = _azimuth_of_a_whole_sample_itd(rig, samples)
    ratio = rigsim.shadow_filter_kernel(rig, azimuth, SR)
    assert np.ndim(ratio) == 0
    calls, rfft = [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    got = rigsim.far_ear(rig, azimuth, pink_2s)
    want = np.zeros(len(pink_2s))
    want[samples:] = ratio * pink_2s.samples[:-samples]
    assert got.tobytes() == want.tobytes() and not calls


def count_inverse_transforms(monkeypatch):
    """The input shapes of np.fft.irfft's batched calls, the overlap-add's: the shadow FIR's
    design transform is 1-D and not counted."""
    calls, irfft = [], np.fft.irfft

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(np.shape(a))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    return calls


@pytest.mark.parametrize("rig", [human_head(), ortf()], ids=lambda rig: rig.kind.value)
def test_a_group_of_far_ears_runs_one_inverse_transform_per_block(rig, monkeypatch):
    # All sources on the right and of one length: one group of far ears, whose blocks each take
    # one irfft however many sources the group holds.
    counts = []
    for k in (1, 2, 5):
        scene = [(gen_pink_noise(2.0, SR, seed=seed),
                  RenderSpec(rig=rig, azimuth_rad=math.radians(10 + 15 * seed), gain_db=-20.0))
                 for seed in range(k)]
        calls = count_inverse_transforms(monkeypatch)
        binauralize_scene(scene)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 3


@pytest.mark.parametrize("rig", [human_head(), ortf()], ids=lambda rig: rig.kind.value)
def test_every_far_ear_is_one_mix_delayed_call(rig, pink_2s, monkeypatch):
    # far_ear, a capture, a solo render and each group of a scene's far ears, lone or not, run
    # the one far-ear path: one mix_delayed call, of as many parts as the far ears it sums.
    calls = []

    def spy(parts):
        calls.append(len(parts))
        return signals.mix_delayed(parts)

    monkeypatch.setattr(rigsim, "mix_delayed", spy)
    rigsim.far_ear(rig, 0.5, pink_2s)
    simulate_capture(rig, SourceSpec(azimuth_rad=0.5), pink_2s)
    binauralize(pink_2s, RenderSpec(rig=rig, azimuth_rad=-0.5, gain_db=-6.0))
    binauralize(pink_2s, RenderSpec(rig=rig))  # the median plane has no far ear
    assert calls == [1, 1, 1]
    short = gen_pink_noise(0.5, SR, seed=4)
    scene = [(pink_2s, 0.3), (short, 0.4), (pink_2s, -0.6), (pink_2s, 0.0), (pink_2s, 0.9)]
    binauralize_scene([(signal, RenderSpec(rig=rig, azimuth_rad=azimuth, gain_db=-20.0))
                       for signal, azimuth in scene])
    assert calls[3:] == [2, 1, 1]  # the right's 2 s pair, the 0.5 s one, the left's


def test_a_hot_solo_render_logs_its_normalization(pink_2s, caplog):
    hot = SampleBuffer(pink_2s.samples * (1.5 / np.max(np.abs(pink_2s.samples))), SR)
    with caplog.at_level("WARNING", logger="bincues.render"):
        out = binauralize(hot, RenderSpec(azimuth_rad=math.radians(30)))
    assert [r.getMessage().split(";")[0] for r in caplog.records] == ["scene mix clipped"]
    assert max(np.max(np.abs(out.left.samples)), np.max(np.abs(out.right.samples))) == 1.0


@pytest.mark.parametrize("gain_db", (0.0, -6.0))
def test_a_negative_zero_sample_keeps_its_sign(gain_db, pink_2s):
    # A near ear is the gain times the source and a scene adds into padded copies of its first
    # source's ears: a sum into zeros would turn -0.0 into +0.0. Sample 30000 lies past the
    # end of the shorter second source.
    samples = pink_2s.samples.copy()
    samples[[100, 30000]] = -0.0
    source = SampleBuffer(samples, SR)
    spec = RenderSpec(azimuth_rad=math.radians(30), gain_db=gain_db)
    assert np.signbit(binauralize(source, spec).left.samples[100])
    short = gen_pink_noise(0.5, SR, seed=4)
    scene = binauralize_scene([(source, spec), (short, RenderSpec(azimuth_rad=-0.5))])
    assert np.signbit(scene.left.samples[30000])


def test_scene_pads_shorter_sources(pink_2s):
    short = gen_pink_noise(0.5, SR, seed=4)
    scene = binauralize_scene([(pink_2s, RenderSpec(gain_db=-6.0)),
                               (short, RenderSpec(gain_db=-6.0))])
    assert len(scene) == len(pink_2s)


def _traced_channels(render, channel_bytes):
    """The traced peak of render() in channels, after one untraced call."""
    render()
    tracemalloc.start()
    try:
        render()
        return tracemalloc.get_traced_memory()[1] / channel_bytes
    finally:
        tracemalloc.stop()


def test_render_peaks_stay_near_their_outputs(pink_5s):
    # binauralize makes its far ear first, in one mix_delayed call with the gain in its kernel,
    # which peaks at 1.35 channels, and then its near ear: 2.00 in all, the peak taken with no
    # |x| copy. A scene holds its two-channel mix, one group's far ears or one near ear at a
    # time, and a group's block buffers: 3.52.
    specs = [RenderSpec(rig=full_dummy(), azimuth_rad=math.radians(azimuth), gain_db=-12.0)
             for azimuth in (-60.0, -20.0, 30.0, 75.0)]
    channel = pink_5s.samples.nbytes
    assert _traced_channels(lambda: binauralize(pink_5s, specs[2]), channel) <= 2.5
    scene = [(pink_5s, spec) for spec in specs]
    assert _traced_channels(lambda: binauralize_scene(scene), channel) <= 4.5
