import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bincues
from bincues import (SampleBuffer, StereoBuffer, estimate_itd, gen_pink_noise, gen_sine,
                     read_wav, wavio, write_wav)
from bincues.cli import EXIT_ANALYSIS, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from bincues.rigsim import RIG_NAMES


def run(*argv):
    return main([str(a) for a in argv])


# --- generate ----------------------------------------------------------------

def test_generate_pink_is_deterministic(tmp_path, capsys):
    one = tmp_path / "a.wav"
    two = tmp_path / "b.wav"
    assert run("generate", "pink", "--seconds", 2, "--seed", 1, "--out", one) == EXIT_OK
    assert run("generate", "pink", "--seconds", 2, "--seed", 1, "--out", two) == EXIT_OK
    assert one.read_bytes() == two.read_bytes()
    assert len(read_wav(one)) == 96000


def test_generate_sine_220(tmp_path):
    out = tmp_path / "tone.wav"
    assert run("generate", "sine", "--freq", 220, "--out", out) == EXIT_OK
    buf = read_wav(out)
    assert len(buf) == 48000
    # count zero crossings to confirm the frequency
    crossings = np.sum(np.diff(np.signbit(buf.samples)))
    assert crossings == pytest.approx(2 * 220, abs=2)


def test_generate_sine_negative_freq_names_parameter(tmp_path, capsys):
    code = run("generate", "sine", "--freq", -5, "--out", tmp_path / "x.wav")
    assert code == EXIT_USAGE
    assert "--freq" in capsys.readouterr().err


def test_generate_sine_requires_freq(tmp_path, capsys):
    assert run("generate", "sine", "--out", tmp_path / "x.wav") == EXIT_USAGE
    assert "--freq" in capsys.readouterr().err


def test_generate_impulse(tmp_path):
    out = tmp_path / "imp.wav"
    assert run("generate", "impulse", "--seconds", 0.1, "--offset", 100, "--out", out) == EXIT_OK
    buf = read_wav(out)
    assert buf.samples[100] == 1.0
    assert np.count_nonzero(buf.samples) == 1


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24"])
def test_generate_impulse_in_pcm_is_usage_error(encoding, tmp_path, capsys):
    out = tmp_path / "imp.wav"
    assert run("generate", "impulse", "--seconds", 0.1, "--encoding", encoding,
               "--out", out) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--encoding" in err and "float32" in err
    assert not out.exists()
    assert run("generate", "impulse", "--seconds", 0.1, "--encoding", "float32",
               "--out", out) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ("sine", "--freq", 220, "--amplitude", 1.5),
    ("impulse", "--seconds", 0.1, "--offset", 4800),
], ids=["amplitude", "offset"])
def test_generate_out_of_range_flag_is_usage_error(argv, tmp_path, capsys):
    assert run("generate", *argv, "--out", tmp_path / "x.wav") == EXIT_USAGE
    assert f"error: {argv[-2]} must be a finite number in [" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_generate_impulse_shorter_than_a_sample_names_the_duration(tmp_path, capsys):
    # as for pink noise, the duration is the fault, not the default offset 0 past its end
    out = tmp_path / "x.wav"
    for kind in ("impulse", "pink"):
        assert run("generate", kind, "--seconds", 0.00001, "--out", out) == EXIT_ANALYSIS
        assert ("duration 1e-05 s is shorter than one sample at 48000 Hz"
                in capsys.readouterr().err)
        assert not out.exists()


def test_generate_requires_out(capsys):
    assert run("generate", "pink") == EXIT_USAGE
    assert "--out" in capsys.readouterr().err


def test_generate_pcm16_clipping_is_validation_failure(tmp_path, capsys):
    code = run("generate", "sine", "--freq", 220, "--encoding", "pcm16",
               "--out", tmp_path / "c.wav")
    assert code == EXIT_ANALYSIS  # full-scale sine cannot be coded losslessly


@pytest.mark.parametrize("kind, seconds", [("pink", "nan"), ("pink", "inf"), ("impulse", "nan")])
def test_generate_non_finite_seconds_is_usage_error(kind, seconds, tmp_path, capsys):
    assert run("generate", kind, "--seconds", seconds, "--out", tmp_path / "x.wav") == EXIT_USAGE
    assert "--seconds" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["pink", "impulse"])
def test_generate_overlong_seconds_is_validation_failure(kind, tmp_path, capsys):
    assert run("generate", kind, "--seconds", "1e308", "--out", tmp_path / "x.wav") == EXIT_ANALYSIS
    assert "samples" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("argv, code, message", [
    (("generate", "pink"), EXIT_ANALYSIS, "sample_rate must be an integer in [1, inf), got 0"),
    (("generate", "impulse"), EXIT_ANALYSIS, "sample_rate must be an integer in [1, inf), got 0"),
    (("simulate", "--rig", "human", "--azimuth", 30, "--seconds", 1), EXIT_ANALYSIS,
     "sample_rate must be an integer in [1, inf), got 0"),
    # a sine's --freq is checked against the rate's Nyquist frequency, so its flag is named
    (("generate", "sine", "--freq", 100), EXIT_USAGE,
     "--freq must be a finite number in (0, 0), got 100.0"),
], ids=["pink", "impulse", "simulate", "sine"])
def test_a_zero_sample_rate_names_the_rule_it_breaks(argv, code, message, tmp_path, capsys):
    assert run(*argv, "--sample-rate", 0, "--out", tmp_path / "x.wav") == code
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("generate", "impulse", "--sample-rate", 5_000_000_000, "--seconds", 1e-9),
    ("simulate", "--rig", "ortf", "--azimuth", 30, "--sample-rate", 600_000_000, "--seconds", 1e-8),
], ids=["generate", "simulate"])
def test_a_rate_past_the_wav_header_fields_is_validation_failure(argv, tmp_path, capsys):
    assert run(*argv, "--out", tmp_path / "x.wav") == EXIT_ANALYSIS
    assert "a WAV header holds a byte rate and a RIFF size up to" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # neither the WAV nor the sidecar


@pytest.mark.parametrize("argv", [("generate", "pink", "--seed", -1),
                                  ("simulate", "--rig", "human", "--azimuth", 30, "--seconds", 1,
                                   "--seed", -5)])
def test_negative_seed_is_validation_failure(argv, tmp_path, capsys):
    assert run(*argv, "--out", tmp_path / "x.wav") == EXIT_ANALYSIS
    assert capsys.readouterr().err.startswith("error: seed must be an integer in [0, inf)")
    assert not (tmp_path / "x.wav").exists()


# --- analyze -------------------------------------------------------------------

@pytest.fixture()
def capture_wav(tmp_path):
    from bincues import apply_fractional_delay
    pink = gen_pink_noise(3.0, seed=6)
    stereo = StereoBuffer(pink, apply_fractional_delay(pink, 0.69e-3))
    path = tmp_path / "capture.wav"
    write_wav(path, stereo)
    return path


def test_analyze_reports_constructed_itd(capture_wav, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("analyze", capture_wav, "--out", out, "--deterministic") == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["itd_s"] == pytest.approx(0.69e-3, abs=0.021e-3)
    assert set(doc["ild_octave_db"]) == {"250", "500", "1000", "2000", "4000", "8000"}
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "freq_hz,magnitude_db,phase_deg,coherence"
    assert len(csv_lines) > 1000


@pytest.mark.parametrize("weighting", ["none", "phat"])
def test_analyze_identical_channels(tmp_path, weighting):
    pink = gen_pink_noise(3.0, seed=8)
    path = tmp_path / "same.wav"
    write_wav(path, StereoBuffer(pink, pink))
    out = tmp_path / "same.json"
    assert run("analyze", path, "--weighting", weighting, "--out", out) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["itd_s"] == 0.0
    assert all(abs(v) < 1e-6 for v in doc["ild_octave_db"].values())


@pytest.mark.parametrize("argv", [
    ("analyze", "{capture}"),
    ("simulate", "--rig", "jecklin", "--azimuth", 45, "--signal", "{mono}"),
    ("simulate", "--rig", "human", "--azimuth", 30, "--seconds", 1),
    ("render", "{mono}", "--azimuth", 30),
], ids=["analyze", "simulate-signal", "simulate-pink", "render"])
def test_deterministic_outputs_are_byte_identical(argv, capture_wav, tmp_path):
    # every file a run writes, the overlap-add convolutions' WAVs included, has the same bytes
    # from run to run
    mono = tmp_path / "pink.wav"
    write_wav(mono, gen_pink_noise(1.0, seed=1))
    argv = [{"{capture}": capture_wav, "{mono}": mono}.get(a, a) for a in argv]
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert run(*argv, "--out", tmp_path / name / "out.x", "--deterministic") == EXIT_OK
    outputs = [{path.name: data for path, data in _files(tmp_path / name).items()} for name in "ab"]
    assert outputs[0] == outputs[1] and len(outputs[0]) == (1 if argv[0] == "render" else 2)


def test_analyze_without_deterministic_has_timestamp(capture_wav, tmp_path):
    out = tmp_path / "t.json"
    assert run("analyze", capture_wav, "--out", out) == EXIT_OK
    assert "created_utc" in json.loads(out.read_text())["metadata"]


def test_analyze_mono_is_analysis_failure(tmp_path, capsys):
    path = tmp_path / "mono.wav"
    write_wav(path, gen_pink_noise(1.0, seed=1))
    assert run("analyze", path, "--out", tmp_path / "r.json") == EXIT_ANALYSIS
    assert "stereo" in capsys.readouterr().err


def test_analyze_missing_file_is_io_failure(tmp_path, capsys):
    assert run("analyze", tmp_path / "nope.wav", "--out", tmp_path / "r.json") == EXIT_IO


def test_analyze_garbage_file_is_io_failure(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"not audio at all")
    assert run("analyze", path, "--out", tmp_path / "r.json") == EXIT_IO


def test_analyze_zero_sample_rate_is_io_failure(capture_wav, tmp_path):
    blob = bytearray(capture_wav.read_bytes())
    blob[24:28] = bytes(4)  # fmt chunk: sample rate field
    capture_wav.write_bytes(bytes(blob))
    assert run("analyze", capture_wav, "--out", tmp_path / "r.json") == EXIT_IO


def test_analyze_nan_float_sample_is_io_failure(capture_wav, tmp_path):
    blob = bytearray(capture_wav.read_bytes())
    data = blob.index(b"data") + 8
    blob[data : data + 4] = np.array([np.nan], dtype="<f4").tobytes()
    capture_wav.write_bytes(bytes(blob))
    assert run("analyze", capture_wav, "--out", tmp_path / "r.json") == EXIT_IO


def write_delayed_noise(path, seconds, delay=10, seed=0):
    """A float32 stereo WAV of seeded noise whose right channel lags by `delay` samples,
    written a second at a time so the test never holds the capture."""
    frames = round(seconds * 48000)
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + 8 * frames) + b"WAVEfmt "
                 + struct.pack("<IHHIIHH", 16, 3, 2, 48000, 8 * 48000, 8, 32)
                 + b"data" + struct.pack("<I", 8 * frames))
        tail = np.zeros(delay, np.float32)
        for start in range(0, frames, 48000):
            left = (0.1 * rng.standard_normal(min(48000, frames - start))).astype(np.float32)
            joined = np.concatenate([tail, left])
            fh.write(np.column_stack([left, joined[: left.size]]).astype("<f4").tobytes())
            tail = joined[left.size :]


def test_analyze_of_sound_after_the_last_segment_is_a_silent_channel(tmp_path, capsys):
    # 1 s holds nine whole 8192-sample segments; the right channel sounds only after the last
    pink = gen_pink_noise(1.0, seed=1)
    right = pink.samples.copy()
    right[:45056] = 0.0
    path = tmp_path / "partial.wav"
    write_wav(path, StereoBuffer(pink, SampleBuffer(right, 48000)))
    assert run("analyze", path, "--out", tmp_path / "r.json") == EXIT_ANALYSIS
    assert "right channel is silent" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_analyze_streams_the_capture(tmp_path):
    # The file goes through one reader step and the Welch sums, so a 120 s capture peaks
    # where a 30 s one does, under 6 MiB, far below its 92 MiB of float64 channels.
    peaks = []
    for seconds in (30, 120):
        path = tmp_path / f"noise{seconds}.wav"
        write_delayed_noise(path, seconds)
        tracemalloc.start()
        try:
            assert run("analyze", path, "--out", tmp_path / "r.json", "--deterministic") == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert json.loads((tmp_path / "r.json").read_text())["itd_s"] == pytest.approx(10 / 48000)
        path.unlink()
    assert abs(peaks[1] - peaks[0]) <= 2**20, peaks
    assert max(peaks) < 6 * 2**20, peaks


@pytest.mark.parametrize("fft_size", [8192, 4096])
def test_analyze_stream_writes_the_reports_of_the_whole_capture(tmp_path, fft_size):
    # 7.3 s of float32 stereo is 2.67 reader steps, so the stream crosses step boundaries
    # mid-segment and ends on a partial step; the reports are those of the capture read whole.
    from bincues import analyze_capture, reports
    path = tmp_path / "cap.wav"
    write_delayed_noise(path, 7.3, delay=7, seed=3)
    assert (7.3 * 48000) % (wavio._CHUNK_BYTES // 8) and 7.3 * 48000 > 2 * wavio._CHUNK_BYTES // 8
    out = tmp_path / "stream.json"
    assert run("analyze", path, "--fft-size", fft_size, "--name", "cap", "--out", out,
               "--deterministic") == EXIT_OK
    report = analyze_capture(read_wav(path), fft_size=fft_size)
    meta = reports.build_metadata(deterministic=True, name="cap", source=str(path),
                                  sample_rate=48000, fft_size=fft_size, weighting="none")
    assert out.read_text() == reports.emit_json(reports.cue_report_doc(report, metadata=meta))
    assert out.with_suffix(".csv").read_text() == reports.spectrum_csv_text(report.ild_spectrum)


@pytest.mark.parametrize("max_lag_ms", ["nan", "inf"])
def test_analyze_non_finite_max_lag_is_validation_failure(max_lag_ms, capture_wav, tmp_path,
                                                          capsys):
    code = run("analyze", capture_wav, "--max-lag-ms", max_lag_ms, "--out", tmp_path / "r.json")
    assert code == EXIT_ANALYSIS
    assert "max_lag" in capsys.readouterr().err


def test_analyze_lag_window_leaves_the_reports_unchanged(tmp_path):
    # --max-lag-ms is the one analyze setting the report does not record, so it may bound the
    # search but not move a number: a compare of two reports reads like for like.
    capture = tmp_path / "jecklin.wav"
    assert run("simulate", "--rig", "jecklin", "--azimuth", 45, "--seconds", 2,
               "--out", capture, "--deterministic") == EXIT_OK
    outputs = []
    for max_lag_ms in (2, 5, 10):
        out = tmp_path / f"lag{max_lag_ms}.json"
        assert run("analyze", capture, "--max-lag-ms", max_lag_ms, "--name", "jecklin",
                   "--out", out, "--deterministic") == EXIT_OK
        outputs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_analyze_of_a_22khz_capture_is_validation_failure(tmp_path, capsys):
    # a report's top octave, at 8 kHz, reaches 11.31 kHz, past a 22.05 kHz capture's Nyquist
    capture = tmp_path / "cap.wav"
    assert run("simulate", "--rig", "jecklin", "--azimuth", 45, "--seconds", 1,
               "--sample-rate", 22050, "--out", capture) == EXIT_OK
    out = tmp_path / "r.json"
    assert run("analyze", capture, "--out", out) == EXIT_ANALYSIS
    assert "octave band around 8000 Hz is outside the analyzed range" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_analyze_checks_the_report_octaves_from_the_header(tmp_path, capsys, monkeypatch):
    # the header's 22.05 kHz rate rules the report out before a sample is read
    capture = tmp_path / "cap.wav"
    assert run("simulate", "--rig", "jecklin", "--azimuth", 45, "--seconds", 1,
               "--sample-rate", 22050, "--out", capture) == EXIT_OK

    def update(self, x, y):
        raise AssertionError("a sample was read")

    monkeypatch.setattr(bincues.analysis._Welch, "update", update)
    assert run("analyze", capture, "--out", tmp_path / "r.json") == EXIT_ANALYSIS
    assert "octave band around 8000 Hz is outside the analyzed range" in capsys.readouterr().err


# --- simulate ------------------------------------------------------------------

def test_simulate_ortf_sidecar_prediction(tmp_path):
    out = tmp_path / "ortf.wav"
    assert run("simulate", "--rig", "ortf", "--azimuth", 90, "--seconds", 1,
               "--out", out) == EXIT_OK
    sidecar = json.loads((tmp_path / "ortf.json").read_text())
    assert sidecar["predicted_itd_s"] == pytest.approx(0.496e-3, abs=1e-6)
    assert sidecar["rig"]["kind"] == "ortf"
    assert read_wav(out) is not None


def test_simulate_human_at_zero_has_identical_channels(tmp_path):
    out = tmp_path / "front.wav"
    assert run("simulate", "--rig", "human", "--azimuth", 0, "--seconds", 1,
               "--out", out) == EXIT_OK
    capture = read_wav(out)
    assert np.array_equal(capture.left.samples, capture.right.samples)


def test_simulate_jecklin_at_18c(tmp_path):
    out = tmp_path / "disc.wav"
    assert run("simulate", "--rig", "jecklin", "--azimuth", 90, "--temp", 18,
               "--seconds", 1, "--out", out) == EXIT_OK
    sidecar = json.loads((tmp_path / "disc.json").read_text())
    assert sidecar["predicted_itd_s"] == pytest.approx(0.58e-3, abs=5e-6)


def test_simulate_with_rig_config(tmp_path):
    cfg = tmp_path / "rig.cfg"
    cfg.write_text("kind = ortf\nmic_spacing_m = 0.34\n", encoding="utf-8")
    out = tmp_path / "wide.wav"
    assert run("simulate", "--rig-config", cfg, "--azimuth", 90, "--seconds", 1,
               "--out", out) == EXIT_OK
    sidecar = json.loads((tmp_path / "wide.json").read_text())
    assert sidecar["predicted_itd_s"] == pytest.approx(2 * 0.496e-3, abs=2e-6)


@pytest.mark.parametrize("config, key", [("kind = ortf\nnot_a_knob = 1\n", "not_a_knob"),
                                         ("kind = jecklin\ndisc_diameter_m = 0.33\n",
                                          "disc_diameter_m")],  # which no model reads
                         ids=["unknown-key", "disc-diameter"])
def test_simulate_bad_config_key_is_validation_failure(config, key, tmp_path, capsys):
    cfg = tmp_path / "rig.cfg"
    cfg.write_text(config, encoding="utf-8")
    code = run("simulate", "--rig-config", cfg, "--azimuth", 90,
               "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert key in capsys.readouterr().err


def test_simulate_rig_config_that_is_not_text_is_validation_failure(tmp_path, capsys):
    pink = tmp_path / "pink.wav"
    write_wav(pink, gen_pink_noise(0.1, seed=1))
    code = run("simulate", "--rig-config", pink, "--azimuth", 30, "--signal", pink,
               "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert capsys.readouterr().err == f"error: {pink}: a rig config must be UTF-8 text\n"
    assert not (tmp_path / "x.wav").exists()


def test_simulate_ortf_with_the_far_null_on_the_source_writes_nothing(tmp_path, capsys):
    # its ILD anchors would be infinite; they are computed before the WAV is written
    cfg = tmp_path / "rig.cfg"
    cfg.write_text("kind = ortf\ncapsule_angle_deg = 180\n", encoding="utf-8")
    code = run("simulate", "--rig-config", cfg, "--azimuth", 90, "--seconds", 0.1,
               "--out", tmp_path / "wo.wav")
    assert code == EXIT_ANALYSIS
    assert "far capsule's null" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rig.cfg"]


def test_simulate_repeated_config_key_is_validation_failure(tmp_path, capsys):
    cfg = tmp_path / "rig.cfg"
    cfg.write_text("kind = jecklin\nmic_spacing_m = 0.2\nmic_spacing_m = 0.3\n",
                   encoding="utf-8")
    code = run("simulate", "--rig-config", cfg, "--azimuth", 45, "--seconds", 0.1,
               "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert capsys.readouterr().err == f"error: {cfg}:3: key 'mic_spacing_m' repeats line 2\n"
    assert not (tmp_path / "x.wav").exists()


def test_simulate_rejects_a_stereo_signal(tmp_path, capsys):
    pink = gen_pink_noise(0.5, seed=1)
    path = tmp_path / "st.wav"
    write_wav(path, StereoBuffer(pink, pink))
    code = run("simulate", "--rig", "human", "--azimuth", 30, "--signal", path,
               "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert "simulation needs a mono test signal" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_simulate_azimuth_range(tmp_path, capsys):
    code = run("simulate", "--rig", "ortf", "--azimuth", 120, "--out", tmp_path / "x.wav")
    assert code == EXIT_USAGE
    assert "--azimuth" in capsys.readouterr().err


@pytest.mark.parametrize("azimuth", (0, 90))
def test_simulate_nan_temperature_is_validation_failure(azimuth, tmp_path, capsys):
    code = run("simulate", "--rig", "ortf", "--azimuth", azimuth, "--temp", "nan",
               "--seconds", 0.1, "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert "temperature_c" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("config", ("kind = ortf\nmic_spacing_m = nan\n",
                                    "kind = semi_dummy\npath_extension = inf\n"))
def test_simulate_non_finite_rig_config_is_validation_failure(config, tmp_path, capsys):
    cfg = tmp_path / "rig.cfg"
    cfg.write_text(config, encoding="utf-8")
    code = run("simulate", "--rig-config", cfg, "--azimuth", 90, "--seconds", 0.1,
               "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["nan", "inf"])
def test_simulate_non_finite_seconds_is_validation_failure(seconds, tmp_path, capsys):
    code = run("simulate", "--rig", "human", "--azimuth", 30, "--seconds", seconds,
               "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert "duration" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_simulate_overlong_seconds_is_validation_failure(tmp_path, capsys):
    code = run("simulate", "--rig", "human", "--azimuth", 30, "--seconds", "1e308",
               "--out", tmp_path / "x.wav")
    assert code == EXIT_ANALYSIS
    assert "samples" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


@pytest.fixture(scope="module")
def wide_pair(tmp_path_factory):
    """A 1 m Jecklin pair at broadside: its 3.303 ms ITD lies past the default 2 ms window."""
    tmp = tmp_path_factory.mktemp("wide")
    config = tmp / "wide.cfg"
    config.write_text("kind = jecklin\nmic_spacing_m = 1.0\n", encoding="utf-8")
    capture = tmp / "wide.wav"
    assert run("simulate", "--rig-config", config, "--azimuth", 90, "--seconds", 2,
               "--out", capture, "--deterministic") == EXIT_OK
    predicted = json.loads(capture.with_suffix(".json").read_text())["predicted_itd_s"]
    assert predicted == pytest.approx(3.303e-3, abs=1e-6)
    return capture, predicted


def test_analyze_wide_pair_needs_a_wider_lag_window(wide_pair, tmp_path, capsys):
    capture, _ = wide_pair
    assert run("analyze", capture, "--out", tmp_path / "r.json") == EXIT_ANALYSIS
    assert "--max-lag-ms" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_analyze_oversized_lag_window_reads_no_sample(wide_pair, tmp_path, capsys, monkeypatch):
    # a 50 ms window does not fit four times in an 8192-sample segment: the argument rule
    # fails before the capture's blocks are drawn, and nothing is written
    def blocks(*args, **kwargs):
        raise AssertionError("the capture was read")

    monkeypatch.setattr(wavio.WavReader, "blocks", blocks)
    capture, _ = wide_pair
    out = tmp_path / "r.json"
    assert run("analyze", capture, "--max-lag-ms", 50, "--out", out) == EXIT_ANALYSIS
    assert "--max-lag-ms" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_analyze_wide_pair_under_phat_needs_a_wider_lag_window(wide_pair, tmp_path, capsys):
    # the whitened correlation has no edge peak here; its global peak lies outside the window
    capture, _ = wide_pair
    out = tmp_path / "r.json"
    assert run("analyze", capture, "--weighting", "phat", "--out", out) == EXIT_ANALYSIS
    assert "outside the lag window" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_fft_size_under_four_lag_windows_is_validation_failure(capture_wav, tmp_path,
                                                                       capsys):
    out = tmp_path / "r.json"
    assert run("analyze", capture_wav, "--fft-size", 256, "--out", out) == EXIT_ANALYSIS
    assert "fft_size 256" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weighting", ["none", "phat"])
def test_analyze_wide_pair_in_a_5ms_window(wide_pair, weighting, tmp_path):
    capture, predicted = wide_pair
    out = tmp_path / "r.json"
    assert run("analyze", capture, "--max-lag-ms", 5, "--weighting", weighting,
               "--out", out) == EXIT_OK
    doc = json.loads(out.read_text())
    for key in ("itd_s", "itd_low_s", "itd_high_s"):
        assert doc[key] == pytest.approx(predicted, abs=1 / 48000)


# --- render --------------------------------------------------------------------

@pytest.fixture()
def voice_wav(tmp_path):
    path = tmp_path / "voice.wav"
    write_wav(path, gen_pink_noise(2.0, seed=12))
    return path


def test_render_round_trip_at_45_degrees(voice_wav, tmp_path):
    import math
    from bincues import SourceSpec, estimate_itd, human_head, predicted_itd
    out = tmp_path / "stereo.wav"
    assert run("render", voice_wav, "--azimuth", 45, "--out", out) == EXIT_OK
    rendered = read_wav(out)
    predicted = predicted_itd(human_head(), SourceSpec(azimuth_rad=math.radians(45)), 20.0)
    assert estimate_itd(rendered) == pytest.approx(predicted, abs=1 / 48000)


def test_render_zero_azimuth_identical_channels(voice_wav, tmp_path):
    # both ears are one array, which the scene loop places and peak-limits once
    out = tmp_path / "mid.wav"
    assert run("render", voice_wav, "--azimuth", 0, "--out", out) == EXIT_OK
    rendered = read_wav(out)
    assert rendered.left.samples.tobytes() == rendered.right.samples.tobytes()


def test_render_rejects_rear_hemisphere(voice_wav, tmp_path, capsys):
    code = run("render", voice_wav, "--azimuth", 120, "--out", tmp_path / "x.wav")
    assert code == EXIT_USAGE
    assert "--azimuth" in capsys.readouterr().err


def test_render_nan_gain_is_usage_error(voice_wav, tmp_path, capsys):
    code = run("render", voice_wav, "--azimuth", 30, "--gain-db", "nan",
               "--out", tmp_path / "x.wav")
    assert code == EXIT_USAGE
    assert "--gain-db" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("azimuth", [0, 30])
def test_a_clipping_render_prints_one_warning_each_call(azimuth, tmp_path, capsys):
    # The render's clip notice reaches stderr through the handler that render attaches for its
    # call, and only for that call: a second in-process run prints its own line, not two. The
    # peak rule holds on the median plane too: a source peaking at 1.5 renders at 1.0.
    pink = gen_pink_noise(1.0, seed=1).samples
    hot = tmp_path / "hot.wav"
    write_wav(hot, SampleBuffer(pink * (1.5 / np.max(np.abs(pink))), 48000))
    for _ in range(2):
        assert run("render", hot, "--azimuth", azimuth, "--out", tmp_path / "b.wav") == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: scene mix clipped; normalized by 0.")
        rendered = read_wav(tmp_path / "b.wav")
        peak = max(np.max(np.abs(c.samples)) for c in (rendered.left, rendered.right))
        assert 0.99 <= peak <= 1.0, peak


def test_render_rejects_stereo_input(tmp_path, capsys):
    pink = gen_pink_noise(0.5, seed=1)
    path = tmp_path / "st.wav"
    write_wav(path, StereoBuffer(pink, pink))
    assert run("render", path, "--azimuth", 10, "--out", tmp_path / "x.wav") == EXIT_ANALYSIS


# --- compare -------------------------------------------------------------------

def _cue_report(name, itd_s):
    return {"schema_version": 1, "kind": "cue_report", "itd_s": itd_s,
            "ild_octave_db": {"500": 1.5, "4000": 9.0}, "metadata": {"name": name}}


def _make_report(tmp_path, name, itd_ms, seed):
    from bincues import apply_fractional_delay
    pink = gen_pink_noise(2.0, seed=seed)
    stereo = StereoBuffer(pink, apply_fractional_delay(pink, itd_ms * 1e-3))
    wav = tmp_path / f"{name}.wav"
    write_wav(wav, stereo)
    out = tmp_path / f"{name}.json"
    assert run("analyze", wav, "--name", name, "--out", out, "--deterministic") == EXIT_OK
    return out


def test_compare_baseline_vs_itself_is_zero(tmp_path, capsys):
    base = _make_report(tmp_path, "base", 0.69, seed=21)
    out = tmp_path / "cmp.json"
    assert run("compare", base, base, "--out", out) == EXIT_OK
    doc = json.loads(out.read_text())
    delta = doc["deltas"]["base"]
    assert delta["itd_delta_s"] == 0.0
    assert all(v == 0.0 for v in delta["ild_delta_db"].values())
    assert "base" in capsys.readouterr().out


def test_compare_orders_and_reports_deltas(tmp_path, capsys):
    base = _make_report(tmp_path, "baseline", 0.69, seed=21)
    near = _make_report(tmp_path, "near", 0.67, seed=21)
    far = _make_report(tmp_path, "far", 0.50, seed=21)
    out = tmp_path / "cmp.json"
    assert run("compare", base, far, near, "--out", out) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["deltas"]["near"]["itd_delta_s"] == pytest.approx(-0.02e-3, abs=0.05e-3)
    assert doc["deltas"]["far"]["itd_delta_s"] == pytest.approx(-0.19e-3, abs=0.05e-3)
    stdout = capsys.readouterr().out
    assert stdout.index("near") < stdout.index("far")
    csv_text = (tmp_path / "cmp.csv").read_text()
    assert csv_text.startswith("candidate,itd_delta_s,")


def test_compare_of_two_candidates_with_one_name_is_validation_failure(tmp_path, capsys):
    # deltas are keyed by report name: a second 'human' would replace the first
    (tmp_path / "a").mkdir()
    paths = [tmp_path / "jecklin.report.json", tmp_path / "human.report.json",
             tmp_path / "a" / "r.json"]
    for path, name in zip(paths, ("jecklin", "human", "human")):
        path.write_text(json.dumps(_cue_report(name, 1e-4)), encoding="utf-8")
    out = tmp_path / "cmp.json"
    assert run("compare", *paths, "--out", out) == EXIT_ANALYSIS
    err = capsys.readouterr().err
    assert f"error: {paths[1]} and {paths[2]} are both named 'human'" in err
    assert "analyze --name" in err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_compare_missing_baseline_is_io_error(tmp_path):
    assert run("compare", tmp_path / "nope.json", tmp_path / "also.json",
               "--out", tmp_path / "c.json") == EXIT_IO


def _not_a_cue_report(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "wav":
        write_wav(path, gen_pink_noise(0.1, seed=1))
    elif kind == "sidecar":
        assert run("simulate", "--rig", "ortf", "--azimuth", 30, "--seconds", 0.1,
                   "--out", tmp_path / "sidecar.wav") == EXIT_OK
    else:
        report = '{"schema_version": 1, "kind": "cue_report", "itd_s": 0, "ild_octave_db": {}'
        path.write_text({"bad_json": '{"schema_version": 1,', "no_kind": '{"schema_version": 1}',
                         "text_itd": '{"schema_version": 1, "kind": "cue_report", "itd_s": "0",'
                                     ' "ild_octave_db": {}}',
                         "number_metadata": report + ', "metadata": 5}',
                         "number_name": report + ', "metadata": {"name": 5}}'}[kind],
                        encoding="utf-8")
    return path


@pytest.mark.parametrize("kind, problem", [
    ("wav", "report is not readable JSON"),
    ("bad_json", "report is not readable JSON"),
    ("no_kind", "report kind None is not one of"),
    ("sidecar", "'sidecar' is not a cue report"),
    ("text_itd", "'text_itd' is not a cue report"),
    ("number_metadata", "report metadata must be an object"),
    ("number_name", "report metadata must be an object, and its name a string"),
])
def test_compare_of_a_file_that_is_not_a_cue_report_is_validation_failure(kind, problem,
                                                                          tmp_path, capsys):
    base = _make_report(tmp_path, "base", 0.69, seed=21)
    bad = _not_a_cue_report(tmp_path, kind)
    capsys.readouterr()
    for argv in ((base, bad), (bad, base)):
        assert run("compare", *argv, "--out", tmp_path / "cmp.json") == EXIT_ANALYSIS
        assert capsys.readouterr().err.startswith(f"error: {problem}")
    assert not (tmp_path / "cmp.json").exists()


@pytest.mark.parametrize("value", ["true", "NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["true", "NaN", "Infinity", "-Infinity", "1e999", "int401"])
@pytest.mark.parametrize("field", ["itd_s", "band", "schema_version"])
def test_compare_rejects_a_bool_or_non_finite_number(field, value, tmp_path, capsys):
    # JSON true equals 1 in Python, NaN and Infinity are not JSON, 1e999 reads as inf and a
    # 401-digit int overflows a float: none is a cue or a schema version
    good = {"schema_version": 1, "kind": "cue_report", "itd_s": 5e-4,
            "ild_octave_db": {"500": 1.5, "4000": 9.0}, "metadata": {}}
    bad = json.loads(json.dumps(good))
    (bad["ild_octave_db"] if field == "band" else bad)["4000" if field == "band" else field] = "?"
    (tmp_path / "good.json").write_text(json.dumps(good), encoding="utf-8")
    (tmp_path / "bad.json").write_text(json.dumps(bad).replace('"?"', value), encoding="utf-8")
    assert run("compare", *[tmp_path / "good.json"] * 2, "--out", tmp_path / "ok.json") == EXIT_OK
    problem = ("report is not readable JSON" if value.lstrip("-") in ("NaN", "Infinity")
               else "unsupported schema_version" if field == "schema_version"
               else "'bad' is not a cue report")
    capsys.readouterr()
    for argv in (("good", "bad"), ("bad", "good")):
        assert run("compare", *(tmp_path / f"{n}.json" for n in argv),
                   "--out", tmp_path / "cmp.json") == EXIT_ANALYSIS
        assert capsys.readouterr().err.startswith(f"error: {problem}")
    assert not (tmp_path / "cmp.json").exists()


def test_full_workflow_simulate_analyze_compare(tmp_path):
    # end to end: two simulated rigs, analyzed and compared through the CLI
    for rig in ("human", "ortf"):
        assert run("simulate", "--rig", rig, "--azimuth", 90, "--temp", 18,
                   "--seconds", 2, "--seed", 5, "--out", tmp_path / f"{rig}.wav") == EXIT_OK
        assert run("analyze", tmp_path / f"{rig}.wav", "--name", rig,
                   "--out", tmp_path / f"{rig}.report.json") == EXIT_OK
        # the measurement leaves the sidecar, the prediction it is checked against, in place
        assert json.loads((tmp_path / f"{rig}.json").read_text())["kind"] == "simulation_sidecar"
    out = tmp_path / "cmp.json"
    assert run("compare", tmp_path / "human.report.json", tmp_path / "ortf.report.json",
               "--out", out) == EXIT_OK
    doc = json.loads(out.read_text())
    # spaced-pair ITD sits ~0.17 ms under the head model's broadside value
    assert doc["deltas"]["ortf"]["itd_delta_s"] == pytest.approx(-0.172e-3, abs=0.05e-3)


@pytest.mark.parametrize("rig, azimuth, encoding, seconds", [
    ("jecklin", 45, "float32", 1), ("human", 30, None, 1), ("ortf", 37, "float32", 1),
    ("jecklin", 45, "pcm16", 30), ("jecklin", 45, "pcm24", 30),
], ids=["jecklin", "human-builtin", "ortf", "jecklin-pcm16", "jecklin-pcm24"])
def test_a_simulated_capture_lands_on_its_sidecar(rig, azimuth, encoding, seconds, tmp_path):
    # The loop under the README's names: simulate writes the capture and its sidecar, and
    # analyze a report of its own beside them. Under both weightings every ITD lands within a
    # sample period of the sidecar's prediction, and the two broadband ITDs within one of each
    # other; every octave ILD lands within 0.5 dB of its predicted_ild_db. The signal is a
    # generated pink file (a PCM one of 30 s spans many of the reader's 1 MiB steps) or, with
    # no encoding, simulate's built-in pink.
    capture = tmp_path / f"{rig}.wav"
    if encoding is None:
        signal = ("--seconds", seconds)
    else:
        signal = ("--signal", tmp_path / "pink.wav")
        assert run("generate", "pink", "--seconds", seconds, "--seed", 1, "--encoding", encoding,
                   "--out", signal[1]) == EXIT_OK
    assert run("simulate", "--rig", rig, "--azimuth", azimuth, *signal, "--out", capture,
               "--deterministic") == EXIT_OK
    reports = {}
    for weighting in ("none", "phat"):
        out = tmp_path / f"{rig}.{weighting}.report.json"
        assert run("analyze", capture, "--weighting", weighting, "--out", out,
                   "--deterministic") == EXIT_OK
        reports[weighting] = json.loads(out.read_text())
    sidecar = json.loads(capture.with_suffix(".json").read_text())
    assert sidecar["kind"] == "simulation_sidecar"
    for report in reports.values():
        for key in ("itd_s", "itd_low_s", "itd_high_s"):
            assert report[key] == pytest.approx(sidecar["predicted_itd_s"], abs=1 / 48000), key
    assert abs(reports["none"]["itd_s"] - reports["phat"]["itd_s"]) <= 1 / 48000
    predicted, measured = sidecar["predicted_ild_db"], reports["none"]["ild_octave_db"]
    assert len(predicted) == 6 and predicted.keys() == measured.keys()
    for band, level in measured.items():
        assert -level == pytest.approx(predicted[band], abs=0.5), band


def test_the_readme_rig_config_simulates_and_its_sidecar_echoes_it(tmp_path):
    # README's example is a valid config, and the sidecar describes the rig with exactly its
    # keys and values, shadow.* nested under shadow
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(readme.split("### Rig config files", 1)[1].split("```\n", 2)[1],
                   encoding="utf-8")
    out = tmp_path / "readme.wav"
    assert run("simulate", "--rig-config", cfg, "--azimuth", 45, "--seconds", 1, "--out", out,
               "--deterministic") == EXIT_OK
    rig = json.loads(out.with_suffix(".json").read_text())["rig"]
    rig.update({f"shadow.{key}": value for key, value in rig.pop("shadow", {}).items()})
    lines = (line.split("#", 1)[0] for line in cfg.read_text(encoding="utf-8").splitlines())
    config = dict((part.strip() for part in line.split("=")) for line in lines if line.strip())
    assert rig == {key: value if key == "kind" else float(value) for key, value in config.items()}


# --- scipy stays out of the runtime ---------------------------------------------

def _python(code, *args):
    """stdout of `code` run in a fresh interpreter that imports this bincues."""
    path = [str(Path(bincues.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_import_loads_no_scipy():
    code = "import sys, bincues.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _python(code) == "[]"


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # The runtime needs numpy only: with scipy unimportable, each subcommand exits 0,
    # pink noise and the built-in simulate signal included.
    code = """import json, sys
sys.modules["scipy"] = None
from bincues.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv"""
    d = str(tmp_path)
    argvs = [["generate", "pink", "--seconds", "1", "--seed", "4", "--out", f"{d}/pink.wav"],
             ["generate", "sine", "--freq", "440", "--amplitude", "0.5", "--out", f"{d}/sine.wav"],
             ["generate", "impulse", "--seconds", "0.1", "--out", f"{d}/imp.wav"],
             *(["simulate", "--rig", rig, "--azimuth", "30", "--seconds", "1",
                "--out", f"{d}/{rig}.wav", "--deterministic"] for rig in RIG_NAMES),
             ["simulate", "--rig", "ortf", "--azimuth", "60", "--signal", f"{d}/pink.wav",
              "--out", f"{d}/sig.wav"],
             ["render", f"{d}/pink.wav", "--azimuth", "-45", "--out", f"{d}/bin.wav"],
             *(["analyze", f"{d}/{rig}.wav", "--weighting", weighting, "--name", rig,
                "--out", f"{d}/{rig}.{weighting}.json"]
               for rig in RIG_NAMES for weighting in ("none", "phat")),
             ["compare", *(f"{d}/{rig}.none.json" for rig in RIG_NAMES), "--out", f"{d}/cmp.json"]]
    _python(code, json.dumps(argvs))
    assert all((tmp_path / f"{rig}.phat.json").exists() for rig in RIG_NAMES)


# --- a cold process imports only what its subcommand runs -------------------------

def _loaded(code, *args):
    """The bincues modules, short names, and whether numpy is loaded after `code` runs in a
    fresh interpreter."""
    return _python(code + """
import sys
print(*sorted(m[8:] for m in sys.modules if m.startswith("bincues.")), "numpy" in sys.modules)""",
                   *args).splitlines()[-1]


# a cold process's code: main on the JSON argv list in sys.argv[1], which must exit 0
_MAIN = "import json, sys\nfrom bincues.cli import main\nassert main(json.loads(sys.argv[1])) == 0"


def test_import_loads_no_numpy_and_no_module_but_cli_and_errors():
    assert _loaded("import bincues") == "False"
    assert _loaded("import bincues.cli") == "cli errors False"


@pytest.fixture(scope="module")
def cold_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cold")
    for argv in (["generate", "pink", "--seconds", "1", "--out", d / "pink.wav"],
                 ["simulate", "--rig", "jecklin", "--azimuth", "30", "--signal", d / "pink.wav",
                  "--out", d / "cap.wav"],
                 ["analyze", d / "cap.wav", "--out", d / "a.json"],
                 ["analyze", d / "cap.wav", "--weighting", "phat", "--out", d / "b.json"]):
        assert run(*argv) == EXIT_OK
    return d


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], "cli errors False"),
    (["compare", "--help"], "cli errors False"),
    (["compare", "{d}/a.json", "{d}/b.json", "--out", "{d}/cmp.json"], "cli errors reports False"),
    (["generate", "pink", "--out", "{d}/g.wav"], "cli errors signals wavio True"),
    (["generate", "sine", "--freq", "440", "--out", "{d}/g.wav"], "cli errors signals wavio True"),
    (["analyze", "{d}/cap.wav", "--out", "{d}/r.json"],
     "analysis cli errors reports signals wavio True"),
    (["simulate", "--rig", "human", "--azimuth", "20", "--seconds", "1", "--out", "{d}/s.wav"],
     "cli cue_models errors reports rigsim signals wavio True"),
    (["render", "{d}/pink.wav", "--azimuth", "20", "--out", "{d}/b.wav"],
     "cli cue_models errors render rigsim signals wavio True"),
], ids=["help", "compare-help", "compare", "generate-pink", "generate-sine", "analyze",
        "simulate", "render"])
def test_a_subcommand_loads_only_the_modules_it_runs(cold_inputs, argv, loaded):
    # Each run is a cold process: compare and --help load no numpy, generate only signals and
    # wavio, analyze no rig model, render no analysis or reports, simulate no analysis.
    assert _loaded(_MAIN, json.dumps([arg.format(d=cold_inputs) for arg in argv])) == loaded


def test_a_cold_compare_writes_the_bytes_of_an_in_process_one(cold_inputs, tmp_path):
    argv = ["compare", str(cold_inputs / "a.json"), str(cold_inputs / "b.json"), "--deterministic"]
    _python(_MAIN, json.dumps([*argv, "--out", str(tmp_path / "cold.json")]))
    assert run(*argv, "--out", tmp_path / "warm.json") == EXIT_OK
    for suffix in (".json", ".csv"):
        cold, warm = ((tmp_path / name).with_suffix(suffix) for name in ("cold", "warm"))
        assert cold.read_bytes() == warm.read_bytes()


def test_every_exported_name_resolves_and_dir_lists_it():
    code = """import importlib, bincues
for name in bincues.__all__:
    module = importlib.import_module(f"bincues.{bincues._MODULE_OF[name]}")
    assert getattr(bincues, name) is getattr(module, name), name
    exec(f"from bincues import {name}")
assert set(bincues.__all__) <= set(dir(bincues)) and len(bincues.__all__) == 58
from bincues import rigsim
assert bincues.rigsim is rigsim
try:
    bincues.no_such_name
except AttributeError as exc:
    print(exc)"""
    assert _python(code) == "module 'bincues' has no attribute 'no_such_name'"


# --- global behavior -------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "generate" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("generate", "pink", "--temp", 18),
    ("analyze", "cap.wav", "--sample-rate", 44100),
    ("analyze", "cap.wav", "--temp", 18),
    ("analyze", "cap.wav", "--seed", 1),
    ("render", "mono.wav", "--azimuth", 30, "--sample-rate", 44100),
    ("render", "mono.wav", "--azimuth", 30, "--seed", 1),
    ("compare", "a.json", "b.json", "--sample-rate", 44100),
    ("compare", "a.json", "b.json", "--temp", 18),
    ("compare", "a.json", "b.json", "--seed", 1),
    ("analyze", "cap.wav", "--csv", "r.csv"),
    ("compare", "a.json", "b.json", "--csv", "c.csv"),
    ("analyze", "cap.wav", "--low-freq", 500),
    ("analyze", "cap.wav", "--high-freq", 4000),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_its_handler_does_not_read_is_usage_error(argv, tmp_path, capsys):
    assert run(*argv, "--out", tmp_path / "x") == EXIT_USAGE
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("simulate", "--rig", "human", "--azimuth", 30, "--signal", "{mono}", "--seconds", 30),
    ("simulate", "--rig", "human", "--azimuth", 30, "--signal", "{mono}", "--seed", 9),
    ("simulate", "--rig", "human", "--azimuth", 30, "--signal", "{mono}", "--sample-rate", 44100),
    ("generate", "sine", "--freq", 220, "--seed", 3),
    ("generate", "sine", "--freq", 220, "--offset", 7),
    ("generate", "pink", "--freq", 440),
    ("generate", "pink", "--amplitude", 0.2),
    ("generate", "pink", "--offset", 7),
    ("generate", "impulse", "--seed", 0),
    ("generate", "impulse", "--amplitude", 1.0),
], ids=lambda argv: f"{argv[0]}-{argv[1].lstrip('-')}{argv[-2]}")
def test_flag_the_run_does_not_read_is_usage_error(argv, voice_wav, tmp_path, capsys):
    # Each of these exits 0 and writes a file when the flag is left out; given, a value the
    # run would ignore is refused, even one equal to the default.
    argv = [voice_wav if a == "{mono}" else a for a in argv]
    assert run(*argv, "--out", tmp_path / "x.wav") == EXIT_USAGE
    assert f"error: {argv[-2]} is not read" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists() and not (tmp_path / "x.json").exists()
    assert run(*argv[:-2], "--out", tmp_path / "x.wav") == EXIT_OK


def test_every_unread_flag_is_named(voice_wav, tmp_path, capsys):
    code = run("simulate", "--rig", "human", "--azimuth", 30, "--signal", voice_wav, "--seconds",
               30, "--seed", 9, "--sample-rate", 44100, "--out", tmp_path / "x.wav")
    assert code == EXIT_USAGE
    assert "--seconds and --seed and --sample-rate are not read with --signal" in (
        capsys.readouterr().err)


def test_kept_flags_reach_their_handlers(voice_wav, tmp_path):
    tone = tmp_path / "tone.wav"
    assert run("generate", "sine", "--freq", 220, "--sample-rate", 44100, "--out", tone) == EXIT_OK
    assert read_wav(tone).sample_rate == 44100
    cold, warm = tmp_path / "cold.wav", tmp_path / "warm.wav"
    for temp, out in ((-20, cold), (50, warm)):
        assert run("render", voice_wav, "--azimuth", 60, "--temp", temp, "--out", out) == EXIT_OK
    assert estimate_itd(read_wav(cold)) > estimate_itd(read_wav(warm))  # sound is slower cold


# --- outputs: --out, and at most --out with a fixed suffix ---------------------------

def _files(directory):
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def test_analyze_without_out_is_usage_error_and_keeps_the_sidecar(tmp_path, capsys):
    capture = tmp_path / "cap.wav"
    assert run("simulate", "--rig", "human", "--azimuth", 30, "--seconds", 1,
               "--out", capture) == EXIT_OK
    before = _files(tmp_path)
    capsys.readouterr()
    assert run("analyze", capture) == EXIT_USAGE
    assert "--out is required" in capsys.readouterr().err
    assert _files(tmp_path) == before


def test_out_that_names_no_file_is_usage_error(capture_wav, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = _files(tmp_path)
    assert run("analyze", capture_wav, "--out", ".") == EXIT_USAGE
    assert "error: --out must name a file, got ." in capsys.readouterr().err
    assert _files(tmp_path) == before


def test_out_on_a_symlink_loop_is_io_failure(voice_wav, tmp_path, capsys):
    (tmp_path / "loop").symlink_to("loop")
    assert run("render", voice_wav, "--azimuth", 30, "--out", tmp_path / "loop") == EXIT_IO
    assert "Too many levels of symbolic links" in capsys.readouterr().err


@pytest.fixture()
def run_inputs(tmp_path):
    """A mono signal and a hard link to it, a stereo capture, a rig config and two cue reports:
    what the runs read."""
    from bincues import apply_fractional_delay
    pink = gen_pink_noise(1.0, seed=2)
    write_wav(tmp_path / "mono.wav", pink)
    write_wav(tmp_path / "cap.wav", StereoBuffer(pink, apply_fractional_delay(pink, 2e-4)))
    (tmp_path / "rig.json").write_text("kind = human\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    os.link(tmp_path / "mono.wav", tmp_path / "link.wav")
    for name, itd_s in (("a", 1e-4), ("b", 2e-4)):
        (tmp_path / f"{name}.json").write_text(json.dumps(_cue_report(name, itd_s)),
                                               encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("argv, out, problem", [
    (("simulate", "--rig", "human", "--azimuth", 30, "--seconds", 1), "clash.json",
     "is the path of the .json file"),
    (("simulate", "--rig", "human", "--azimuth", 30, "--signal", "mono.wav"), "mono.wav",
     "would overwrite the input"),
    (("simulate", "--rig-config", "rig.json", "--azimuth", 30, "--seconds", 1), "rig.wav",
     "would overwrite the input"),
    (("analyze", "cap.wav"), "r.csv", "is the path of the .csv file"),
    (("analyze", "cap.wav"), "cap.wav", "would overwrite the input"),
    (("analyze", "cap.wav"), "sub/../cap.wav", "would overwrite the input"),
    (("render", "mono.wav", "--azimuth", 30), "mono.wav", "would overwrite the input"),
    (("render", "mono.wav", "--azimuth", 30), "link.wav", "would overwrite the input"),
    (("compare", "a.json", "b.json"), "b.csv", "is the path of the .csv file"),
    (("compare", "a.json", "b.json"), "a.json", "would overwrite the input"),
    (("compare", "a.json", "b.json"), "b.json", "would overwrite the input"),
], ids=["simulate-sidecar-is-out", "simulate-out-is-signal", "simulate-sidecar-is-config",
        "analyze-csv-is-out", "analyze-out-is-wav", "analyze-out-resolves-to-wav",
        "render-out-is-wav", "render-out-is-a-hard-link-of-wav", "compare-csv-is-out",
        "compare-out-is-baseline", "compare-out-is-candidate"])
def test_an_output_on_another_output_or_an_input_is_usage_error(argv, out, problem, run_inputs,
                                                                monkeypatch, capsys):
    monkeypatch.chdir(run_inputs)
    before = _files(run_inputs)
    assert run(*argv, "--out", out) == EXIT_USAGE
    assert problem in capsys.readouterr().err
    assert _files(run_inputs) == before
    assert run(*argv, "--out", "fresh.out") == EXIT_OK  # the same run, on a path of its own


def test_unknown_command_is_usage_error(capsys):
    assert run("frobnicate") == EXIT_USAGE
