"""A buffer that holds float32 samples, as read_wav gives, yields the same output bits as its
float64 twin in every public consumer: each stage widens float32 samples before arithmetic."""

import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from bincues import (RenderSpec, RigKind, SampleBuffer, SourceSpec, StereoBuffer,
                     analyze_blocks, analyze_capture, apply_fractional_delay, band_itd,
                     binauralize, binauralize_scene, calibration_check, cross_correlation,
                     default_rig, estimate_itd, gen_pink_noise, human_head, ortf, read_wav,
                     shadow_filter_kernel, simulate_capture, transfer_function, write_wav)
from bincues.signals import mix_delayed

SR = 48000


def twins(samples):
    """(a buffer that adopts float32 samples, one that adopts the same values as float64)."""
    narrow = np.array(samples, np.float32)
    wide = narrow.astype(np.float64)
    narrow.setflags(write=False)
    wide.setflags(write=False)
    pair = SampleBuffer(narrow, SR), SampleBuffer(wide, SR)
    assert pair[0].samples is narrow and pair[1].samples is wide
    return pair


def stereo_twins(left, right):
    (l32, l64), (r32, r64) = twins(left), twins(right)
    return StereoBuffer(l32, r32), StereoBuffer(l64, r64)


def assert_same_bits(a, b):
    """a and b hold the same values bit for bit, signed zeros included; float32 arrays are
    compared as the float64 values they widen to."""
    if isinstance(a, StereoBuffer):
        assert_same_bits(a.left, b.left)
        assert_same_bits(a.right, b.right)
    elif isinstance(a, SampleBuffer):
        assert a.sample_rate == b.sample_rate
        assert_same_bits(a.samples, b.samples)
    elif is_dataclass(a):
        for f in fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    else:
        x, y = np.asarray(a), np.asarray(b)
        assert x.dtype.kind == y.dtype.kind and x.shape == y.shape
        if x.dtype.kind in "fc":
            x, y = (np.asarray(v, np.complex128 if v.dtype.kind == "c" else np.float64)
                    for v in (x, y))
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
        else:
            assert np.array_equal(x, y)


@pytest.fixture(scope="module")
def pink():
    return twins(gen_pink_noise(1.5, SR, seed=21).samples)


@pytest.fixture(scope="module")
def capture():
    """A 3 s human-head capture at 40 degrees, rounded to float32, and its float64 twin."""
    src = SourceSpec(math.radians(40.0))
    cap = simulate_capture(human_head(), src, gen_pink_noise(3.0, SR, seed=22))
    return stereo_twins(cap.left.samples, cap.right.samples)


@pytest.mark.parametrize("kind", list(RigKind), ids=[kind.value for kind in RigKind])
@pytest.mark.parametrize("azimuth", [0.0, 37.0, 90.0])
def test_simulate_capture(pink, kind, azimuth):
    src = SourceSpec(math.radians(azimuth))
    narrow, wide = (simulate_capture(default_rig(kind), src, sig) for sig in pink)
    assert_same_bits(narrow, wide)


@pytest.mark.parametrize("rig", [human_head(), ortf()], ids=["human", "ortf"])
@pytest.mark.parametrize("azimuth", [37.0, -37.0])
@pytest.mark.parametrize("gain_db", [0.0, -3.0])
def test_binauralize(pink, rig, azimuth, gain_db):
    spec = RenderSpec(rig=rig, azimuth_rad=math.radians(azimuth), gain_db=gain_db)
    assert_same_bits(*(binauralize(sig, spec) for sig in pink))


def test_binauralize_scene(pink):
    # a second source, shorter, so the mix pads it; both clip together, so the mix normalizes
    other = twins(1.8 * gen_pink_noise(1.0, SR, seed=23).samples / 0.9)
    specs = [RenderSpec(rig=ortf(), azimuth_rad=math.radians(az)) for az in (-50.0, 20.0)]
    scenes = [binauralize_scene([(a, specs[0]), (b, specs[1])]) for a, b in zip(pink, other)]
    assert_same_bits(*scenes)


@pytest.mark.parametrize("delay_samples, fir", [
    (17.0, False), (17.37, False), (17.0, True), (17.37, True)],
    ids=["integer", "fractional", "integer-fir", "fractional-fir"])
def test_apply_fractional_delay(pink, delay_samples, fir):
    kernel = shadow_filter_kernel(human_head(), math.radians(60.0), SR) if fir else None
    delayed = [apply_fractional_delay(sig, delay_samples / SR, kernel) for sig in pink]
    assert_same_bits(*delayed)


@pytest.mark.parametrize("taps", [1, 65, 575])
def test_fft_convolve(pink, taps, convolve):
    kernel = np.hanning(taps + 2)[1:-1]
    narrow, wide = (sig.samples for sig in pink)
    assert_same_bits(convolve(narrow, kernel), convolve(wide, kernel))
    assert_same_bits(convolve(kernel, narrow, 100, 5000), convolve(kernel, wide, 100, 5000))
    # a float32 kernel widens too, and so does a float32 fir in a delay, before its gain
    short = twins(narrow[:taps])
    assert_same_bits(*(convolve(wide, k.samples) for k in short))
    assert_same_bits(*(mix_delayed([(pink[1], 0.0, k.samples, 0.3)]) for k in short))


@pytest.mark.parametrize("encoding", ["float32", "pcm16", "pcm24"])
def test_write_wav(tmp_path, capture, encoding):
    for name, buffer in zip(("narrow", "wide"), capture):
        write_wav(tmp_path / f"{name}.wav", buffer, encoding=encoding)
    assert (tmp_path / "narrow.wav").read_bytes() == (tmp_path / "wide.wav").read_bytes()


@pytest.mark.parametrize("weighting", ["none", "phat"])
def test_analyze_capture_and_its_stages(capture, weighting):
    assert_same_bits(*(analyze_capture(c, weighting=weighting) for c in capture))
    assert_same_bits(*(estimate_itd(c, weighting=weighting) for c in capture))
    assert_same_bits(*(cross_correlation(c, weighting=weighting) for c in capture))


def test_analyze_blocks_cut_across_segments(capture):
    # cuts that fall inside segments carry held samples from block to block
    cuts = [0, 5000, 5001, 23456, 70000, len(capture[0])]

    def blocks(c):
        return [(c.left.samples[a:b], c.right.samples[a:b]) for a, b in zip(cuts, cuts[1:])]

    reports = [analyze_blocks(blocks(c), len(c), SR) for c in capture]
    assert_same_bits(*reports)
    assert_same_bits(reports[1], analyze_capture(capture[1]))


def test_band_itd_transfer_function_and_calibration(capture):
    assert_same_bits(*(band_itd(c) for c in capture))
    assert_same_bits(*(transfer_function(c.left, c.right, fft_size=4096) for c in capture))
    assert_same_bits(*(calibration_check(c.left, c.right) for c in capture))


def test_a_float32_file_read_renders_as_its_float64_copy(tmp_path, pink):
    # read_wav's float32 buffer through simulate and render, written as the CLI writes them,
    # gives the bytes of its float64 copy's outputs
    write_wav(tmp_path / "pink.wav", pink[1])
    read = read_wav(tmp_path / "pink.wav")
    assert read.samples.dtype == np.float32
    copy = SampleBuffer(read.samples.astype(np.float64), SR)
    src = SourceSpec(math.radians(37.0))
    spec = RenderSpec(rig=ortf(), azimuth_rad=math.radians(-30.0), gain_db=-3.0)
    for name, sig in (("read", read), ("copy", copy)):
        write_wav(tmp_path / f"sim_{name}.wav", simulate_capture(ortf(), src, sig))
        write_wav(tmp_path / f"render_{name}.wav", binauralize(sig, spec))
    for what in ("sim", "render"):
        made = [(tmp_path / f"{what}_{name}.wav").read_bytes() for name in ("read", "copy")]
        assert made[0] == made[1]
