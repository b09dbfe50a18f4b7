"""Smoke tests: the example scripts under scripts/ run end to end on short signals."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_rig_comparison_script(tmp_path, capsys):
    main = load_main("run_rig_comparison")
    assert main(["--out-dir", str(tmp_path), "--seconds", "0.5", "--deterministic"]) == 0
    out = capsys.readouterr().out
    candidates = {"full_dummy", "semi_dummy", "jecklin", "ortf"}
    for kind in ("human", *candidates):
        assert kind in out
        assert (tmp_path / f"{kind}.wav").exists()
    disc = json.loads((tmp_path / "jecklin.json").read_text(encoding="utf-8"))
    assert disc["metadata"]["rig"]["mic_spacing_m"] == 0.175
    assert "disc_diameter_m" not in disc["metadata"]["rig"]
    assert disc["metadata"]["rig"]["shadow"]["max_db"] == 8.0
    comparison = json.loads((tmp_path / "comparison.json").read_text(encoding="utf-8"))
    assert set(comparison["deltas"]) == candidates


def test_sine_band_experiment_script(capsys):
    # The script's two-tone capture has a fixed 2.6 s length; it takes no duration option.
    assert load_main("run_sine_band_experiment")([]) == 0
    assert "recovered delays" in capsys.readouterr().out
