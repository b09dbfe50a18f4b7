import math
import tracemalloc
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from bincues import (HeadGeometry, RenderSpec, RigKind, RigSpec, SampleBuffer, ShadowParams,
                     SourceSpec, StereoBuffer, ValidationError, binauralize, default_rig,
                     ear_gains, estimate_itd, far_ear, fit_path_extension, full_dummy,
                     gen_pink_noise,
                     head_shadow_ild, human_head, ild_spectrum_summary, jecklin, load_rig_config,
                     ortf, predicted_ild_db, predicted_itd, rigsim, shadow_filter_kernel,
                     semi_dummy, simulate_capture, transfer_function)
from bincues.reports import rig_to_dict
from bincues.rigsim import place_arrivals, rig_fields

SR = 48000
HALF_PI = math.pi / 2
BROADSIDE = SourceSpec(azimuth_rad=HALF_PI)
ALL_RIGS = [human_head(), full_dummy(), semi_dummy(), jecklin(), ortf()]


# --- predicted_itd ----------------------------------------------------------

def test_ortf_free_field_itd():
    itd = predicted_itd(ortf(), BROADSIDE, temperature_c=20.0)
    assert itd == pytest.approx(0.17 / 343.0, rel=1e-12)
    assert itd == pytest.approx(0.496e-3, abs=1e-6)
    # measured reference value was 0.50 ms
    assert abs(itd - 0.50e-3) < 0.01e-3


def test_human_head_broadside_itd_at_18c():
    itd = predicted_itd(human_head(), BROADSIDE, temperature_c=18.0)
    assert itd == pytest.approx(0.669e-3, abs=1e-6)


def test_fitted_baffled_rig_itds_at_18c():
    assert predicted_itd(semi_dummy(), BROADSIDE, 18.0) == pytest.approx(0.83e-3, abs=5e-6)
    assert predicted_itd(jecklin(), BROADSIDE, 18.0) == pytest.approx(0.58e-3, abs=5e-6)


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_itd_zero_at_median_plane(rig):
    assert predicted_itd(rig, SourceSpec(azimuth_rad=0.0)) == 0.0


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_itd_monotone_in_azimuth(rig):
    grid = np.linspace(0.0, HALF_PI, 20)
    itds = [predicted_itd(rig, SourceSpec(azimuth_rad=a)) for a in grid]
    assert np.all(np.diff(itds) >= 0)


def test_ortf_within_one_percent_of_spacing_over_c():
    itd = predicted_itd(ortf(), BROADSIDE, temperature_c=20.0)
    assert abs(itd - 0.17 / 343.0) / (0.17 / 343.0) < 0.01


@pytest.mark.parametrize("temperature_c", (math.nan, -20.5, 50.5))
@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_itd_applies_the_temperature_rule_to_every_rig(rig, temperature_c):
    with pytest.raises(ValidationError, match="temperature_c"):
        predicted_itd(rig, BROADSIDE, temperature_c)
    with pytest.raises(ValidationError, match="temperature_c"):
        simulate_capture(rig, BROADSIDE, gen_pink_noise(0.1), temperature_c)


def test_itd_rejects_out_of_range_azimuth():
    with pytest.raises(ValidationError):
        predicted_itd(ortf(), SourceSpec(azimuth_rad=-0.2))
    with pytest.raises(ValidationError):
        predicted_itd(ortf(), SourceSpec(azimuth_rad=2.0))


# --- predicted_ild_db -------------------------------------------------------

@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_ild_zero_at_median_plane(rig):
    for freq in (250.0, 1000.0, 8000.0):
        assert predicted_ild_db(rig, SourceSpec(azimuth_rad=0.0), freq) == pytest.approx(0.0, abs=1e-12)


def test_jecklin_ild_small_below_6k():
    assert predicted_ild_db(jecklin(), BROADSIDE, 1000.0) < 3.0
    assert predicted_ild_db(jecklin(), BROADSIDE, 4000.0) < 3.0


def test_full_dummy_ild_band():
    assert 3.0 <= predicted_ild_db(full_dummy(), BROADSIDE, 2000.0) <= 6.0
    assert 3.0 <= predicted_ild_db(full_dummy(), BROADSIDE, 500.0) <= 6.0
    assert 3.0 <= predicted_ild_db(full_dummy(), BROADSIDE, 8000.0) <= 6.0


def test_ortf_ild_is_frequency_independent():
    low = predicted_ild_db(ortf(), BROADSIDE, 100.0)
    high = predicted_ild_db(ortf(), BROADSIDE, 12000.0)
    assert low == high
    assert low > 0.0


def test_ortf_ild_with_the_far_null_on_the_source_is_an_error():
    # back-to-back capsules at broadside: the far cardioid's null faces the source, so its
    # level ratio is infinite; one degree less and the ratio is finite
    with pytest.raises(ValidationError, match="far capsule's null"):
        predicted_ild_db(ortf(capsule_angle_deg=180.0), BROADSIDE, 1000.0)
    assert 0.0 < predicted_ild_db(ortf(capsule_angle_deg=179.0), BROADSIDE, 1000.0) < math.inf
    assert predicted_ild_db(ortf(capsule_angle_deg=180.0), SourceSpec(math.radians(89.0)),
                            1000.0) < math.inf


FREQ_RULE = r"^freq must be a finite number in \(0, inf\), got "


@pytest.mark.parametrize("freq", (-1.0, 0.0, math.nan, math.inf))
@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_a_frequency_that_is_not_positive_and_finite_is_an_error(rig, freq):
    # ORTF's gains are flat in frequency, yet a NaN or infinite frequency is no more valid
    # there than for a shadow curve, where NaN would pass through and inf read the ceiling
    for bad in (freq, np.array([1000.0, freq])):
        with pytest.raises(ValidationError, match=FREQ_RULE):
            ear_gains(rig, HALF_PI / 2, bad)
    with pytest.raises(ValidationError, match=FREQ_RULE):
        predicted_ild_db(rig, SourceSpec(azimuth_rad=HALF_PI / 2), freq)


@settings(max_examples=60, deadline=None)
@given(rig=st.sampled_from(ALL_RIGS), a=st.floats(0.0, HALF_PI), b=st.floats(0.0, HALF_PI),
       freq=st.floats(20.0, 20000.0))
def test_ild_is_zero_ahead_non_negative_and_non_decreasing_in_azimuth(rig, a, b, freq):
    # ORTF included: d/dtheta ln(g_near / g_far) = tan((theta + h) / 2) - tan((theta - h) / 2)
    # > 0 for a half capsule angle h. A shadowed kind's ILD takes a round trip through the
    # far gain 10 ** (-A / 20), which may reorder two nearly equal values at rounding level.
    lo, hi = sorted((a, b))
    assert predicted_ild_db(rig, SourceSpec(azimuth_rad=0.0), freq) == 0.0
    lo_db, hi_db = (predicted_ild_db(rig, SourceSpec(azimuth_rad=az), freq) for az in (lo, hi))
    assert lo_db >= 0.0
    assert hi_db >= lo_db - 1e-12


def test_semi_dummy_ild_noticeable_from_2k():
    assert predicted_ild_db(semi_dummy(), BROADSIDE, 1000.0) < 3.0
    assert predicted_ild_db(semi_dummy(), BROADSIDE, 4000.0) > 4.0
    assert predicted_ild_db(semi_dummy(), BROADSIDE, 8000.0) > 10.0


# --- shadow filter realization ----------------------------------------------

@pytest.mark.parametrize("rig", [r for r in ALL_RIGS if r.shadow is not None],
                         ids=lambda r: r.kind.value)
def test_shadow_kernel_is_symmetric_and_fits_target(rig):
    kernel = shadow_filter_kernel(rig, HALF_PI, SR)
    np.testing.assert_allclose(kernel, kernel[::-1], atol=1e-16)

    freqs, response = sps.freqz(kernel, worN=4096, fs=SR)
    target_db = -head_shadow_ild(rig.shadow, HALF_PI, np.maximum(freqs, 1.0))
    got_db = 20.0 * np.log10(np.abs(response))
    band = (freqs >= 250.0) & (freqs <= 12000.0)
    assert np.max(np.abs(got_db[band] - target_db[band])) < 1.0


# --- simulate_capture -------------------------------------------------------

@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_capture_at_zero_azimuth_is_bit_identical(rig, pink_2s):
    capture = simulate_capture(rig, SourceSpec(azimuth_rad=0.0), pink_2s)
    assert np.array_equal(capture.left.samples, capture.right.samples)


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_capture_round_trip_itd(rig, pink_5s):
    for azimuth in (math.radians(30.0), HALF_PI):
        src = SourceSpec(azimuth_rad=azimuth)
        capture = simulate_capture(rig, src, pink_5s, temperature_c=20.0)
        est = estimate_itd(capture)
        assert est == pytest.approx(predicted_itd(rig, src, 20.0), abs=1.0 / SR)


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_capture_round_trip_ild_octaves(rig, pink_5s):
    capture = simulate_capture(rig, BROADSIDE, pink_5s)
    tf = transfer_function(capture.left, capture.right)
    summary = ild_spectrum_summary(tf, bands=(500.0, 1000.0, 2000.0, 4000.0, 8000.0))
    for center, level in summary.items():
        predicted = predicted_ild_db(rig, BROADSIDE, center)
        assert -level == pytest.approx(predicted, abs=1.5), f"band {center}"


def test_full_dummy_capture_octave_window(pink_5s):
    # every octave level from 500 Hz to 8 kHz sits inside [-6.5, -2.5] dB
    capture = simulate_capture(full_dummy(), BROADSIDE, pink_5s)
    tf = transfer_function(capture.left, capture.right)
    summary = ild_spectrum_summary(tf, bands=(500.0, 1000.0, 2000.0, 4000.0, 8000.0))
    for center, level in summary.items():
        assert -6.5 <= level <= -2.5, f"band {center}: {level:.2f} dB"


def test_capture_swap_negates_itd(pink_2s):
    capture = simulate_capture(jecklin(), SourceSpec(azimuth_rad=1.0), pink_2s)
    assert estimate_itd(capture.swapped()) == -estimate_itd(capture)


@pytest.mark.parametrize("degrees", (5.0, 30.0, 60.0, 90.0))
@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_capture_and_render_share_the_far_ear(rig, degrees, pink_2s):
    # Both place one arrival at unit gain, whose far ear is one mix_delayed call of the same
    # part; an ORTF capture then scales both channels by the near capsule's cardioid gain,
    # which binauralize leaves at 1.
    azimuth = math.radians(degrees)
    near_gain = 1.0
    if rig.kind is RigKind.ORTF:
        near_gain = 0.5 * (1.0 + math.cos(azimuth - math.radians(rig.capsule_angle_deg / 2.0)))
    capture = simulate_capture(rig, SourceSpec(azimuth_rad=azimuth), pink_2s)
    rendered = binauralize(pink_2s, RenderSpec(rig=rig, azimuth_rad=azimuth))
    assert np.array_equal(capture.left.samples, near_gain * pink_2s.samples)
    assert np.array_equal(capture.right.samples, near_gain * rendered.right.samples)


@pytest.mark.parametrize("degrees", (5.0, 30.0, 60.0, 90.0))
@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.kind.value)
def test_far_ear_is_one_lti_filter_of_the_zero_extended_signal(rig, degrees, pink_2s):
    # Zero padding on both sides, past the delay and the shadow FIR's reach, then cropping
    # back changes nothing: the far ear is exact at the edges, not only in the interior.
    pad = 600
    azimuth = math.radians(degrees)
    want = far_ear(rig, azimuth, pink_2s)
    got = far_ear(rig, azimuth, SampleBuffer(np.pad(pink_2s.samples, pad), SR))
    np.testing.assert_allclose(got[pad : pad + len(pink_2s)], want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("rig", [r for r in ALL_RIGS if r.kind is not RigKind.ORTF],
                         ids=lambda r: r.kind.value)
def test_capture_near_ear_is_the_source_array(rig, pink_2s):
    capture = simulate_capture(rig, SourceSpec(azimuth_rad=math.radians(30.0)), pink_2s)
    assert capture.left.samples is pink_2s.samples
    assert not capture.right.samples.flags.writeable


@pytest.mark.parametrize("rig, held, peak", [(human_head(), 1, 1.6), (ortf(), 2, 2.1)],
                         ids=["human", "ortf"])
def test_capture_allocates_each_channel_once(rig, held, peak, pink_5s):
    # A head rig's capture holds one new channel, the far ear, as its near ear is the
    # source's array; ORTF's gain makes both channels new. The far ear's convolution writes
    # only that channel, through block buffers of about a quarter MiB: 1.35 channels for the
    # head. ORTF scales its fresh far channel in place and builds one scaled near channel,
    # so it peaks at 2.00. A copy of each channel as the buffers wrap it would add 1x to both.
    channel = pink_5s.samples.nbytes
    tracemalloc.start()
    try:
        capture = simulate_capture(rig, SourceSpec(azimuth_rad=math.radians(30.0)), pink_5s)
        current, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capture) == len(pink_5s)
    assert current <= held * channel + (64 << 10), current / channel
    assert traced_peak <= peak * channel, traced_peak / channel


def test_capture_rejects_empty_signal():
    with pytest.raises(ValidationError):
        simulate_capture(ortf(), BROADSIDE, SampleBuffer(np.zeros(0), SR))


def test_a_shadowed_capture_evaluates_its_shadow_curve_once(pink_2s, monkeypatch):
    # The far ear's FIR design reads the shadow curve; the near gain is flat and needs none.
    calls = []

    def counted(*args):
        calls.append(args)
        return head_shadow_ild(*args)

    monkeypatch.setattr(rigsim, "head_shadow_ild", counted)
    simulate_capture(human_head(), SourceSpec(azimuth_rad=math.radians(30.0)), pink_2s)
    assert len(calls) == 1


def test_place_arrivals_needs_arrivals_of_one_rate(pink_2s):
    other = gen_pink_noise(0.5, 44100, seed=9)
    for arrivals in ([], [(pink_2s, human_head(), 0.5, 1.0, 20.0),
                          (other, human_head(), 0.5, 1.0, 20.0)]):
        with pytest.raises(ValidationError, match="one sample rate"):
            place_arrivals(arrivals)


# --- fit_path_extension -----------------------------------------------------

def test_fit_path_extension_reference_cases():
    semi = fit_path_extension(RigKind.SEMI_DUMMY, 0.83e-3, HALF_PI, 18.0)
    assert semi == pytest.approx(0.83e-3 / (0.19 / 341.8), rel=1e-12)
    assert semi == pytest.approx(1.493, abs=1e-3)

    disc = fit_path_extension(RigKind.JECKLIN, 0.58e-3, HALF_PI, 18.0)
    assert disc == pytest.approx(1.133, abs=1e-3)

    spaced_pair = fit_path_extension(RigKind.ORTF, 0.50e-3, HALF_PI, 18.0)
    assert spaced_pair == pytest.approx(1.005, abs=1e-3)  # free-field law holds


def test_fit_path_extension_rejects_zero_azimuth_and_head_rigs():
    with pytest.raises(ValidationError):
        fit_path_extension(RigKind.SEMI_DUMMY, 0.8e-3, 0.0)
    with pytest.raises(ValidationError):
        fit_path_extension(RigKind.HUMAN_HEAD, 0.7e-3, HALF_PI)
    with pytest.raises(ValidationError, match="temperature_c"):
        fit_path_extension(RigKind.ORTF, 0.5e-3, HALF_PI, math.nan)


# --- spec validation --------------------------------------------------------

def test_rig_spec_fills_kind_defaults():
    spec = RigSpec(RigKind.JECKLIN)
    assert spec.mic_spacing_m == 0.175
    assert spec.path_extension == 1.133
    assert spec.shadow is not None
    assert spec.radius_m is spec.capsule_angle_deg is None

    spec = RigSpec(RigKind.ORTF)
    assert spec.mic_spacing_m == 0.17
    assert spec.capsule_angle_deg == 110.0
    assert spec.path_extension is spec.shadow is spec.radius_m is None

    spec = RigSpec(RigKind.HUMAN_HEAD)
    assert spec.radius_m == 0.089
    assert spec.mic_spacing_m is spec.path_extension is spec.capsule_angle_deg is None


#: Each kind's fields: the complete list of what a RigSpec of that kind holds.
KIND_FIELDS = {
    RigKind.HUMAN_HEAD: ("radius_m", "shadow"),
    RigKind.FULL_DUMMY: ("radius_m", "shadow"),
    RigKind.SEMI_DUMMY: ("mic_spacing_m", "path_extension", "shadow"),
    RigKind.JECKLIN: ("mic_spacing_m", "path_extension", "shadow"),
    RigKind.ORTF: ("mic_spacing_m", "capsule_angle_deg"),
}
#: One valid value per field, so only the kind can make a setting stray.
FIELD_VALUES = {"radius_m": 0.09, "mic_spacing_m": 0.2, "capsule_angle_deg": 90.0,
                "path_extension": 1.2, "shadow": ShadowParams()}
FACTORIES = {RigKind.HUMAN_HEAD: human_head, RigKind.FULL_DUMMY: full_dummy,
             RigKind.SEMI_DUMMY: semi_dummy, RigKind.JECKLIN: jecklin, RigKind.ORTF: ortf}
STRAY = [(kind, name) for kind in RigKind for name in FIELD_VALUES
         if name not in KIND_FIELDS[kind]]


def test_rig_spec_settings_are_the_kind_fields():
    # FIELD_VALUES names every field, so the 12 kind fields and the 13 strays are all pairs
    assert [f.name for f in fields(RigSpec)] == ["kind", *FIELD_VALUES]
    assert (sum(map(len, KIND_FIELDS.values())), len(STRAY)) == (12, 13)
    for kind, names in KIND_FIELDS.items():
        for name in names:
            assert getattr(RigSpec(kind, **{name: FIELD_VALUES[name]}), name) == FIELD_VALUES[name]


@pytest.mark.parametrize("kind, name", STRAY, ids=lambda v: getattr(v, "value", v))
def test_rig_spec_rejects_a_field_of_another_kind(kind, name):
    for build in (lambda **kw: RigSpec(kind, **kw), FACTORIES[kind]):
        with pytest.raises(ValidationError, match=f"'{kind.value}' has no field {name}$"):
            build(**{name: FIELD_VALUES[name]})


@pytest.mark.parametrize("kind", list(RigKind), ids=lambda k: k.value)
def test_rig_spec_defaults_are_one_table(kind):
    assert RigSpec(kind) == default_rig(kind) == FACTORIES[kind]()


def test_rig_spec_invariants():
    with pytest.raises(ValidationError):
        semi_dummy(path_extension=0.9)
    with pytest.raises(ValidationError):
        ortf(capsule_angle_deg=200.0)
    with pytest.raises(ValidationError):
        ortf(mic_spacing_m=-0.1)
    with pytest.raises(ValidationError):
        human_head(radius_m=0.4)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_rig_spec_rejects_non_finite_geometry(bad):
    builds = (lambda: semi_dummy(mic_spacing_m=bad), lambda: semi_dummy(path_extension=bad),
              lambda: jecklin(path_extension=bad), lambda: ortf(mic_spacing_m=bad),
              lambda: ortf(capsule_angle_deg=bad), lambda: human_head(radius_m=bad),
              lambda: full_dummy(shadow=ShadowParams(corner_hz=bad)),
              lambda: jecklin(shadow=ShadowParams(azimuth_exponent=bad)))
    for build in builds:
        with pytest.raises(ValidationError):
            build()


@pytest.mark.parametrize("azimuth", (-0.1, HALF_PI + 1e-9, math.nan))
def test_source_spec_azimuth_rule(azimuth):
    with pytest.raises(ValidationError,
                       match=r"^azimuth must be a finite number in \[0, 1\.5708\], got "):
        SourceSpec(azimuth_rad=azimuth)


# --- config files -----------------------------------------------------------

SHADOW_KEYS = ("shadow.max_db", "shadow.corner_hz", "shadow.exponent")
CONFIG_KEYS = {
    RigKind.HUMAN_HEAD: ("radius_m", *SHADOW_KEYS),
    RigKind.FULL_DUMMY: ("radius_m", *SHADOW_KEYS),
    RigKind.SEMI_DUMMY: ("mic_spacing_m", "path_extension", *SHADOW_KEYS),
    RigKind.JECKLIN: ("mic_spacing_m", "path_extension", *SHADOW_KEYS),
    RigKind.ORTF: ("mic_spacing_m", "capsule_angle_deg"),
}
#: Config key -> (RigSpec attribute path, valid values).
CONFIG_FIELDS = {
    "radius_m": ("radius_m", st.floats(0.05, 0.15)),
    "mic_spacing_m": ("mic_spacing_m", st.floats(0.01, 2.0)),
    "capsule_angle_deg": ("capsule_angle_deg", st.floats(1.0, 180.0)),
    "path_extension": ("path_extension", st.floats(1.0, 3.0)),
    "shadow.max_db": ("shadow.max_attenuation_db", st.floats(0.0, 30.0)),
    "shadow.corner_hz": ("shadow.corner_hz", st.floats(20.0, 20000.0)),
    "shadow.exponent": ("shadow.azimuth_exponent", st.floats(0.1, 4.0)),
}


def write_config(path, kind: RigKind, fields: dict) -> None:
    lines = [f"kind = {kind.value}"] + [f"{key} = {value!r}" for key, value in fields.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def flattened(doc: dict) -> dict:
    flat = {key: value for key, value in doc.items() if not isinstance(value, dict)}
    for group, inner in doc.items():
        if isinstance(inner, dict):
            flat.update({f"{group}.{key}": value for key, value in inner.items()})
    return flat


@pytest.mark.parametrize("kind", list(RigKind), ids=lambda k: k.value)
def test_rig_config_file_lists_the_kind_keys_in_order(kind):
    assert list(rig_fields(default_rig(kind))) == list(CONFIG_KEYS[kind])


@pytest.mark.parametrize("kind", list(RigKind), ids=lambda k: k.value)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_rig_config_round_trip(kind, tmp_path, data):
    drawn = data.draw(st.fixed_dictionaries({key: CONFIG_FIELDS[key][1]
                                             for key in CONFIG_KEYS[kind]}))
    path = tmp_path / f"{kind.value}.cfg"
    write_config(path, kind, drawn)
    for rig in (default_rig(kind), load_rig_config(path)):
        write_config(path, kind, rig_fields(rig))
        assert load_rig_config(path) == rig
        saved = dict(line.split(" = ") for line in path.read_text(encoding="utf-8").splitlines())
        assert set(saved) == set(flattened(rig_to_dict(rig))) == {"kind", *CONFIG_KEYS[kind]}
    assert flattened(rig_to_dict(rig)) == {"kind": kind.value, **drawn}
    assert {key: attrgetter(CONFIG_FIELDS[key][0])(rig) for key in drawn} == drawn


def test_rig_config_overrides_and_comments(tmp_path):
    path = tmp_path / "rig.cfg"
    path.write_text(
        "# a tweaked disc rig\n"
        "kind = jecklin\n"
        "mic_spacing_m = 0.2\n"
        "path_extension = 1.2  # measured on our baffle\n",
        encoding="utf-8",
    )
    spec = load_rig_config(path)
    assert spec.kind is RigKind.JECKLIN
    assert spec.mic_spacing_m == 0.2
    assert spec.path_extension == 1.2
    assert spec.shadow == RigSpec(RigKind.JECKLIN).shadow  # untouched default


def test_rig_config_with_a_byte_order_mark_loads_as_without_one(tmp_path):
    # Some editors save UTF-8 with a byte-order mark, which must not hide the first key.
    text = "kind = jecklin\nmic_spacing_m = 0.2\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_rig_config(marked) == load_rig_config(plain) != RigSpec(RigKind.JECKLIN)
    marked.write_bytes(marked.read_bytes() + b"\xff")
    with pytest.raises(ValidationError, match="a rig config must be UTF-8 text"):
        load_rig_config(marked)


def test_rig_config_unknown_key_is_named(tmp_path):
    path = tmp_path / "rig.cfg"
    path.write_text("kind = ortf\nbogus_knob = 3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="bogus_knob"):
        load_rig_config(path)


def test_rig_config_wrong_kind_key(tmp_path):
    path = tmp_path / "rig.cfg"
    path.write_text("kind = ortf\nradius_m = 0.09\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="radius_m"):
        load_rig_config(path)


def test_rig_config_rejects_the_disc_diameter(tmp_path):
    # No model reads a disc diameter, so it is no setting of the disc rig.
    path = tmp_path / "rig.cfg"
    path.write_text("kind = jecklin\ndisc_diameter_m = 0.33\n", encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=r"invalid config key\(s\) for kind 'jecklin': disc_diameter_m$"):
        load_rig_config(path)


@pytest.mark.parametrize("line", ("mic_spacing_m = nan", "path_extension = inf",
                                  "shadow.corner_hz = nan"))
def test_rig_config_rejects_non_finite_values(line, tmp_path):
    path = tmp_path / "rig.cfg"
    path.write_text(f"kind = semi_dummy\n{line}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="finite"):
        load_rig_config(path)


@pytest.mark.parametrize("text, key, lines", [
    ("kind = jecklin\nmic_spacing_m = 0.2\nmic_spacing_m = 0.3\n", "mic_spacing_m", (2, 3)),
    ("kind = ortf\n# a comment\n\nkind = jecklin\n", "kind", (1, 4)),
    ("kind = human\nshadow.max_db = 9  # dB\nradius_m = 0.09\n shadow.max_db=9\n",
     "shadow.max_db", (2, 4)),
])
def test_rig_config_rejects_a_repeated_key(text, key, lines, tmp_path):
    # a repeat would silently drop one of the two settings, even when they agree
    path = tmp_path / "rig.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as caught:
        load_rig_config(path)
    assert str(caught.value) == f"{path}:{lines[1]}: key '{key}' repeats line {lines[0]}"


@pytest.mark.parametrize("text, match", [
    ("kind = ortf\nmic_spacing_m 0.2\n", r":2: expected 'key = value', got 'mic_spacing_m 0.2'"),
    ("kind = stereo_bar\n", "unknown rig kind; expected one of: "),
    ("kind = ortf\nmic_spacing_m = 17 cm\n", "key 'mic_spacing_m' must be a number, got '17 cm'"),
], ids=["no equals sign", "unknown kind", "not a number"])
def test_rig_config_rejects_a_malformed_entry(text, match, tmp_path):
    path = tmp_path / "rig.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=match):
        load_rig_config(path)


def test_rig_config_requires_kind(tmp_path):
    path = tmp_path / "rig.cfg"
    path.write_text("mic_spacing_m = 0.17\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="kind"):
        load_rig_config(path)


def test_default_rig_covers_all_kinds():
    for kind in RigKind:
        assert default_rig(kind).kind is kind
