import math

import numpy as np
import pytest

from bincues import (StereoBuffer, TransferFunction, ValidationError, analyze_capture,
                     apply_fractional_delay)
from bincues.reports import (CSV_SPECTRUM_HEADER, SCHEMA_VERSION, build_metadata,
                             comparison_csv_text, comparison_doc, comparison_summary_text,
                             cue_report_doc, emit_json, parse_json, rig_to_dict,
                             simulation_sidecar_doc, spectrum_csv_text)
from bincues.rigsim import human_head, jecklin, ortf


@pytest.fixture(scope="module")
def cue_doc(pink_5s):
    stereo = StereoBuffer(pink_5s, apply_fractional_delay(pink_5s, 0.5e-3))
    report = analyze_capture(stereo)
    meta = build_metadata(deterministic=True, name="probe", sample_rate=48000)
    return analyze_doc_pair(report, meta)


def analyze_doc_pair(report, meta):
    return report, cue_report_doc(report, metadata=meta)


def test_json_round_trip_equality(cue_doc):
    _, doc = cue_doc
    assert parse_json(emit_json(doc)) == doc


def test_emit_is_deterministic(cue_doc):
    _, doc = cue_doc
    assert emit_json(doc) == emit_json(doc)


def test_metadata_timestamp_toggle():
    assert "created_utc" in build_metadata(deterministic=False)
    assert "created_utc" not in build_metadata(deterministic=True)
    meta = build_metadata(deterministic=True, seed=7, skipped=None)
    assert meta["seed"] == 7
    assert "skipped" not in meta


def test_cue_doc_fields(cue_doc):
    report, doc = cue_doc
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["kind"] == "cue_report"
    assert doc["itd_s"] == report.itd_s
    assert set(doc["ild_octave_db"]) == {"250", "500", "1000", "2000", "4000", "8000"}


def test_parse_rejects_bad_schema():
    with pytest.raises(ValidationError):
        parse_json('{"schema_version": 99, "kind": "cue_report"}')
    with pytest.raises(ValidationError):
        parse_json("[1, 2, 3]")


@pytest.mark.parametrize("text", [b"RIFF\x24\x00\x00\x00WAVE\xff\xfe", "{not json",
                                  "[" * 100_000 + "]" * 100_000, '{"schema_version": 1}',
                                  '{"schema_version": 1, "kind": 7}'])
def test_parse_rejects_what_is_not_a_report(text):
    with pytest.raises(ValidationError):
        parse_json(text)


def test_comparison_rejects_a_document_that_is_not_a_cue_report(cue_doc):
    _, doc = cue_doc
    sidecar = simulation_sidecar_doc(ortf(), 90.0, 18.0, 0.497e-3, {"250": 20.0})
    with pytest.raises(ValidationError, match="'sidecar' is not a cue report"):
        comparison_doc("base", doc, {"sidecar": sidecar})
    with pytest.raises(ValidationError, match="'base' is not a cue report"):
        comparison_doc("base", {**doc, "ild_octave_db": {"250": None}}, {"probe": doc})


def test_spectrum_csv_shape(cue_doc):
    report, _ = cue_doc
    text = spectrum_csv_text(report.ild_spectrum)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_SPECTRUM_HEADER
    assert len(lines) == 1 + report.ild_spectrum.freqs.size
    first = lines[1].split(",")
    assert len(first) == 4
    assert float(first[0]) == report.ild_spectrum.freqs[0]
    assert "," not in f"{1.5:n}" or True  # no locale decimal separators in use


def test_spectrum_csv_is_the_row_by_row_repr_text(cue_doc):
    # Formatting whole columns gives the text of formatting each row's floats in turn, for a
    # measured spectrum and for values that stress repr: both zeros, subnormals, extremes.
    rng = np.random.default_rng(9)
    odd = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e-300, 0.1, 1 / 3, 180.0])
    values = np.concatenate([odd, rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
    stress = TransferFunction(np.arange(values.size) + 0.5, values, -values,
                              np.linspace(0.0, 1.0, values.size), 0.0)
    for tf in (cue_doc[0].ild_spectrum, stress):
        rows = [f"{float(f)!r},{float(m)!r},{float(p)!r},{float(c)!r}"
                for f, m, p, c in zip(tf.freqs, tf.magnitude_db, tf.phase_deg, tf.coherence)]
        assert spectrum_csv_text(tf) == "\n".join([CSV_SPECTRUM_HEADER, *rows]) + "\n"


def _doc(itd_s, bands):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cue_report",
        "itd_s": itd_s,
        "itd_low_s": itd_s,
        "itd_high_s": itd_s,
        "ild_octave_db": dict(bands),
        "metadata": {},
    }


BANDS_A = {"250": -0.1, "500": -0.5, "1000": -2.0}


def test_comparison_self_is_all_zero():
    base = _doc(0.69e-3, BANDS_A)
    doc = comparison_doc("base", base, {"base-again": base})
    delta = doc["deltas"]["base-again"]
    assert delta["itd_delta_s"] == 0.0
    assert all(v == 0.0 for v in delta["ild_delta_db"].values())


def test_comparison_deltas_are_candidate_minus_baseline():
    base = _doc(0.69e-3, BANDS_A)
    cand = _doc(0.67e-3, {"250": -0.2, "500": -1.5, "1000": -3.0})
    doc = comparison_doc("base", base, {"dummy": cand})
    delta = doc["deltas"]["dummy"]
    assert delta["itd_delta_s"] == 0.67e-3 - 0.69e-3
    assert delta["ild_delta_db"]["500"] == -1.0


def test_comparison_rejects_mismatched_band_grids():
    base = _doc(0.69e-3, BANDS_A)
    cand = _doc(0.67e-3, {"250": -0.2, "500": -1.5})
    with pytest.raises(ValidationError):
        comparison_doc("base", base, {"dummy": cand})


def test_comparison_summary_orders_by_abs_itd_delta():
    base = _doc(0.69e-3, BANDS_A)
    far = _doc(0.50e-3, BANDS_A)
    near = _doc(0.67e-3, BANDS_A)
    doc = comparison_doc("base", base, {"far": far, "near": near})
    summary = comparison_summary_text(doc)
    assert summary.index("near") < summary.index("far")
    csv_text = comparison_csv_text(doc)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("candidate,itd_delta_s,")
    assert lines[1].startswith("near,")
    assert lines[2].startswith("far,")


def test_rig_to_dict_covers_kind_fields():
    head = rig_to_dict(human_head())
    assert head["kind"] == "human"
    assert head["radius_m"] == 0.089
    assert "mic_spacing_m" not in head
    assert head["shadow"]["max_db"] == 16.0

    disc = rig_to_dict(jecklin())
    assert disc["path_extension"] == pytest.approx(1.133)
    assert set(disc) == {"kind", "mic_spacing_m", "path_extension", "shadow"}

    pair = rig_to_dict(ortf())
    assert pair["capsule_angle_deg"] == 110.0
    assert "shadow" not in pair
    assert "path_extension" not in pair


def test_sidecar_doc_round_trip():
    doc = simulation_sidecar_doc(ortf(), 90.0, 18.0, 0.497e-3,
                                 {"250": 20.0}, build_metadata(deterministic=True))
    assert parse_json(emit_json(doc)) == doc
    assert doc["kind"] == "simulation_sidecar"
    assert doc["predicted_itd_s"] == 0.497e-3
