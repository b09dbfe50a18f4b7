import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bincues import (CueBand, DuplexThresholds, HeadGeometry, ShadowParams, ValidationError,
                     duplex_classify, head_shadow_ild, ipd_from_itd, itd_modified, itd_simple,
                     speed_of_sound)

HALF_PI = math.pi / 2


def test_speed_of_sound_reference_points():
    assert speed_of_sound(20.0) == pytest.approx(343.0)
    assert speed_of_sound(18.0) == pytest.approx(341.8)
    assert speed_of_sound(0.0) == 331.0


def test_itd_simple_broadside_at_18c():
    geom = HeadGeometry(radius_m=0.089, temperature_c=18.0)
    assert itd_simple(geom, HALF_PI) == pytest.approx(0.669e-3, abs=1e-6)


def test_itd_simple_matches_hand_formula():
    geom = HeadGeometry(radius_m=0.089, temperature_c=20.0)
    expected = 0.089 * (HALF_PI + math.sin(HALF_PI)) / 343.0
    assert itd_simple(geom, HALF_PI) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.667e-3, abs=1e-6)


def test_itd_simple_zero_at_median_plane():
    assert itd_simple(HeadGeometry(), 0.0) == 0.0
    assert itd_simple(HeadGeometry(radius_m=0.12, temperature_c=-5.0), 0.0) == 0.0


def test_itd_simple_rejects_out_of_range_azimuth():
    with pytest.raises(ValidationError):
        itd_simple(HeadGeometry(), -0.1)
    with pytest.raises(ValidationError):
        itd_simple(HeadGeometry(), HALF_PI + 0.1)


@given(st.floats(0.0, HALF_PI), st.floats(0.0, HALF_PI))
def test_itd_simple_strictly_increasing(a, b):
    lo, hi = sorted((a, b))
    assume(hi - lo > 1e-9)  # below float resolution "strict" is meaningless
    geom = HeadGeometry()
    assert itd_simple(geom, hi) > itd_simple(geom, lo)


@given(st.floats(0.05, 0.075), st.floats(0.0, HALF_PI))
def test_itd_simple_linear_in_radius(radius, azimuth):
    one = itd_simple(HeadGeometry(radius_m=radius), azimuth)
    two = itd_simple(HeadGeometry(radius_m=2 * radius), azimuth)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_head_geometry_bounds():
    with pytest.raises(ValidationError):
        HeadGeometry(radius_m=0.2)
    with pytest.raises(ValidationError):
        HeadGeometry(radius_m=0.01)
    with pytest.raises(ValidationError):
        HeadGeometry(temperature_c=80.0)


def test_itd_modified_coefficient_bands():
    geom = HeadGeometry(radius_m=0.089, temperature_c=20.0)
    assert itd_modified(geom, HALF_PI, 220.0) == pytest.approx(3 * 0.089 / 343.0, rel=1e-12)
    assert itd_modified(geom, HALF_PI, 1000.0) == pytest.approx(2 * 0.089 / 343.0, rel=1e-12)
    assert itd_modified(geom, HALF_PI, 220.0) == pytest.approx(0.778e-3, abs=1e-6)
    assert itd_modified(geom, HALF_PI, 1000.0) == pytest.approx(0.519e-3, abs=1e-6)


def test_itd_modified_zero_at_median_plane():
    assert itd_modified(HeadGeometry(), 0.0, 220.0) == 0.0
    assert itd_modified(HeadGeometry(), 0.0, 6000.0) == 0.0


def test_itd_modified_single_step_at_500():
    geom = HeadGeometry()
    values = {itd_modified(geom, HALF_PI, f) for f in np.linspace(50.0, 8000.0, 813)}
    assert len(values) == 2
    assert itd_modified(geom, HALF_PI, 499.99) > itd_modified(geom, HALF_PI, 500.0)
    assert itd_modified(geom, HALF_PI, 500.0) == itd_modified(geom, HALF_PI, 3000.0)


def test_itd_modified_vs_simple_crossover():
    # a=3 exceeds the arc model at broadside (3 > pi/2 + 1), a=2 does not
    geom = HeadGeometry()
    simple = itd_simple(geom, HALF_PI)
    assert itd_modified(geom, HALF_PI, 220.0) > simple
    assert itd_modified(geom, HALF_PI, 1000.0) < simple


def test_itd_modified_rejects_bad_freq():
    with pytest.raises(ValidationError):
        itd_modified(HeadGeometry(), 0.3, 0.0)
    with pytest.raises(ValidationError):
        itd_modified(HeadGeometry(), 0.3, -100.0)


def test_duplex_classify_reference_points():
    assert duplex_classify(1000.0) is CueBand.ITD_EFFECTIVE
    assert duplex_classify(1500.0) is CueBand.ITD_EFFECTIVE  # boundary inclusive
    assert duplex_classify(1750.0) is CueBand.TRANSITION
    assert duplex_classify(2000.0) is CueBand.ILD_INEFFICIENT
    assert duplex_classify(3000.0) is CueBand.ILD_INEFFICIENT
    assert duplex_classify(4000.0) is CueBand.ILD_INEFFICIENT
    assert duplex_classify(4001.0) is CueBand.ILD_EFFECTIVE
    assert duplex_classify(12000.0) is CueBand.ILD_EFFECTIVE


@given(st.floats(1e-3, 40000.0))
def test_duplex_classify_total(freq):
    assert duplex_classify(freq) in CueBand


def test_duplex_thresholds_validation():
    with pytest.raises(ValidationError):
        DuplexThresholds(itd_limit_hz=2500.0, ild_start_hz=2000.0)


def test_duplex_thresholds_order_the_ild_edges():
    with pytest.raises(ValidationError, match="ild_start_hz <= ild_effective_hz"):
        DuplexThresholds(ild_start_hz=3000.0, ild_effective_hz=2500.0)
    edges = DuplexThresholds(ild_start_hz=3000.0, ild_effective_hz=3000.0)
    assert duplex_classify(3000.0, edges) is CueBand.ILD_INEFFICIENT
    assert duplex_classify(3000.5, edges) is CueBand.ILD_EFFECTIVE


def test_ipd_reference_points():
    assert ipd_from_itd(500.0, 0.5e-3) == pytest.approx(90.0)
    assert ipd_from_itd(777.0, 0.0) == 0.0
    assert ipd_from_itd(1000.0, 1.5e-3) == pytest.approx(180.0)  # 540 wraps to +180


@given(st.floats(1.0, 20000.0), st.floats(-5e-3, 5e-3))
def test_ipd_always_in_half_open_range(freq, itd):
    ipd = ipd_from_itd(freq, itd)
    assert -180.0 < ipd <= 180.0


@given(st.floats(10.0, 10000.0), st.floats(-2e-3, 2e-3), st.integers(-3, 3))
@settings(max_examples=60)
def test_ipd_invariant_to_whole_periods(freq, itd, k):
    base = ipd_from_itd(freq, itd)
    shifted = ipd_from_itd(freq, itd + k / freq)
    delta = (shifted - base + 180.0) % 360.0 - 180.0
    assert abs(delta) < 1e-6


def test_head_shadow_anchors_at_broadside():
    params = ShadowParams()
    assert head_shadow_ild(params, HALF_PI, 250.0) < 3.0
    assert head_shadow_ild(params, HALF_PI, 2000.0) == pytest.approx(6.0, abs=1.5)
    assert head_shadow_ild(params, HALF_PI, 4000.0) >= 10.0
    assert head_shadow_ild(params, HALF_PI, 8000.0) == pytest.approx(15.0, abs=3.0)


def test_head_shadow_zero_on_median_plane():
    params = ShadowParams()
    for freq in (100.0, 1000.0, 8000.0, 16000.0):
        assert head_shadow_ild(params, 0.0, freq) == 0.0


@given(st.floats(0.0, HALF_PI), st.floats(0.0, HALF_PI), st.floats(50.0, 18000.0))
@settings(max_examples=80)
def test_head_shadow_monotone_in_azimuth(a, b, freq):
    lo, hi = sorted((a, b))
    params = ShadowParams()
    assert head_shadow_ild(params, hi, freq) >= head_shadow_ild(params, lo, freq)


@given(st.floats(0.01, HALF_PI), st.floats(50.0, 18000.0), st.floats(50.0, 18000.0))
@settings(max_examples=80)
def test_head_shadow_monotone_in_frequency(azimuth, fa, fb):
    lo, hi = sorted((fa, fb))
    params = ShadowParams()
    assert head_shadow_ild(params, azimuth, hi) >= head_shadow_ild(params, azimuth, lo)


def test_head_shadow_accepts_arrays():
    freqs = np.array([250.0, 2000.0, 8000.0])
    out = head_shadow_ild(ShadowParams(), HALF_PI, freqs)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


def test_shadow_params_validation():
    with pytest.raises(ValidationError):
        ShadowParams(max_attenuation_db=40.0)
    with pytest.raises(ValidationError):
        ShadowParams(corner_hz=0.0)
