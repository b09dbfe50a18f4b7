"""The three benchmark workloads: seeded input builders, ops and output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has completed. Ops are grouped into cycles whose composition is
fixed by the workload and whose parameters come from the seed, so runs on
different seeds time the same mix of work.

- cli_cold: one user session of cold `python -m bincues.cli` processes on 5 s
  signals. Import dominates and analysis does little, and no in-process cache
  can help.
- analyze_long: read_wav, analyze_capture and the in-memory reports on 30 s
  stereo captures of every rig and one 120 s capture, each at both weightings.
  Analysis does most of the op and rig simulation none.
- synth_render: simulate_capture, binauralize and binauralize_scene on 5 s
  pink sources, each output written with write_wav in a rotating encoding.
  No analysis runs inside the op.

Run as a script, this module is one set-up trial:
    python3 perfbench/workloads.py setup WORKLOAD SEED WORKDIR [SPANFILE]
It imports bincues, builds the workload's inputs from the seed into
WORKDIR/inputs and writes WORKDIR/manifest.json. With SPANFILE it traces
the build and writes the spans there.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import numpy as np

import bincues
from bincues import analysis, render, reports, rigsim, signals, wavio

SAMPLE_RATE = signals.DEFAULT_SAMPLE_RATE
ITD_TOLERANCE_S = 1.0 / SAMPLE_RATE  # one sample period, 20.8 us
RIGS = tuple(kind.value for kind in rigsim.RigKind)
ENCODINGS = ("float32", "pcm16", "pcm24")
# Largest read-back error of a written sample for each encoding.
ENCODING_TOLERANCE = {"float32": 1e-7, "pcm16": 0.5 / 32768 + 1e-12,
                      "pcm24": 0.5 / 8388608 + 1e-12}

CLI_SIGNAL_S = 5.0
SYNTH_SOURCE_S = 5.0
SYNTH_SOURCES = 4
LONG_CAPTURE_S = 30.0
LONGEST_CAPTURE_S = 120.0
# The 120 s capture uses ORTF: its synthesis is the cheapest, so set-up time
# stays dominated by import and the 30 s captures.
LONGEST_CAPTURE_RIG = "ortf"

WORKLOADS = ("cli_cold", "analyze_long", "synth_render")
SIGNAL_SECONDS = {"cli_cold": (CLI_SIGNAL_S,), "analyze_long": (LONG_CAPTURE_S, LONGEST_CAPTURE_S),
                  "synth_render": (SYNTH_SOURCE_S,)}
# Wall seconds of one cycle, ops and checks, on the 2-core reference machine.
NOMINAL_CYCLE_S = {"cli_cold": 23.0, "analyze_long": 18.5, "synth_render": 1.1}


def _azimuth(rng: random.Random) -> float:
    return round(rng.uniform(15.0, 90.0), 2)


def _rig(name: str) -> rigsim.RigSpec:
    return rigsim.default_rig(rigsim.RigKind(name))


def predicted_itd_s(rig: str, azimuth_deg: float) -> float:
    """Model ITD for a signed azimuth: negative azimuths mirror the channels."""
    itd = rigsim.predicted_itd(_rig(rig), rigsim.SourceSpec(math.radians(abs(azimuth_deg))))
    return math.copysign(itd, azimuth_deg) if azimuth_deg else 0.0


def capture_bytes(seconds: float) -> int:
    """Computed size of one float64 stereo capture at the benchmark's sample rate."""
    return int(round(seconds * SAMPLE_RATE)) * 2 * 8


# -- set-up ---------------------------------------------------------------------

def build_cli_cold(rng: random.Random, workdir: Path) -> dict:
    secs = f"{CLI_SIGNAL_S:g}"
    azimuths = {rig: _azimuth(rng) for rig in RIGS}
    render_rig = rng.choice(RIGS)
    render_az = _azimuth(rng) * rng.choice((-1.0, 1.0))
    common = ["--deterministic"]
    session = [
        ["generate", "pink", "--seconds", secs, "--seed", str(rng.randrange(1 << 30)),
         "--out", "pink.wav"],
        ["generate", "sine", "--seconds", secs, "--freq", f"{rng.uniform(100, 4000):.1f}",
         "--amplitude", "0.5", "--out", "sine.wav"],
        ["generate", "impulse", "--seconds", secs,
         "--offset", str(rng.randrange(int(CLI_SIGNAL_S * SAMPLE_RATE))), "--out", "impulse.wav"],
    ]
    session += [["simulate", "--rig", rig, "--azimuth", str(az), "--signal", "pink.wav",
                 "--out", f"{rig}.wav", *common] for rig, az in azimuths.items()]
    session += [["analyze", f"{rig}.wav", "--name", rig, "--weighting", analysis.WEIGHTINGS[i % 2],
                 "--out", f"{rig}.report.json", *common] for i, rig in enumerate(RIGS)]
    session.append(["compare", f"{RIGS[0]}.report.json",
                    *[f"{rig}.report.json" for rig in RIGS[1:]], "--out", "compare.json", *common])
    session.append(["render", "pink.wav", "--azimuth", str(render_az), "--rig", render_rig,
                    "--gain-db", "-3", "--out", "render.wav", *common])
    return {"session": session}


def build_analyze_long(rng: random.Random, workdir: Path) -> dict:
    plan = [(rig, LONG_CAPTURE_S) for rig in RIGS] + [(LONGEST_CAPTURE_RIG, LONGEST_CAPTURE_S)]
    captures = []
    for i, (rig, seconds) in enumerate(plan):
        az = _azimuth(rng)
        pink = signals.gen_pink_noise(seconds, SAMPLE_RATE, seed=rng.randrange(1 << 30))
        capture = rigsim.simulate_capture(_rig(rig), rigsim.SourceSpec(math.radians(az)), pink)
        path = workdir / "inputs" / f"capture{i}_{rig}.wav"
        wavio.write_wav(path, capture)
        captures.append({"path": str(path), "rig": rig, "azimuth_deg": az, "seconds": seconds,
                         "predicted_itd_s": predicted_itd_s(rig, az)})
    return {"captures": captures}


def build_synth_render(rng: random.Random, workdir: Path) -> dict:
    sources = []
    for k in range(SYNTH_SOURCES):
        pink = signals.gen_pink_noise(SYNTH_SOURCE_S, SAMPLE_RATE, seed=rng.randrange(1 << 30))
        path = workdir / "inputs" / f"source{k}.npy"
        np.save(path, pink.samples)
        sources.append(str(path))

    def signed() -> float:
        return _azimuth(rng) * rng.choice((-1.0, 1.0))

    # Twelve slots, so each encoding in the rotation gets four of them.
    slots = [{"kind": "simulate", "rig": rig, "azimuth_deg": _azimuth(rng)} for rig in RIGS]
    slots.append({"kind": "simulate", "rig": rng.choice(RIGS), "azimuth_deg": 0.0})
    slots += [{"kind": "binauralize", "rig": rig, "azimuth_deg": signed(), "gain_db": -1.0}
              for rig in ("human", "semi_dummy", "jecklin", "ortf")]
    slots += [{"kind": "scene", "rig": rig, "gain_db": -12.0,
               "azimuths_deg": [signed() for _ in range(count)]}
              for rig, count in (("human", 3), ("full_dummy", 4))]
    for i, slot in enumerate(slots):
        slot["source"] = i % SYNTH_SOURCES
        slot["encoding"] = ENCODINGS[i % len(ENCODINGS)]
        slot["out"] = str(workdir / f"out{i}.wav")
    return {"sources": sources, "slots": slots}


BUILDERS = {"cli_cold": build_cli_cold, "analyze_long": build_analyze_long,
            "synth_render": build_synth_render}


def build(workload: str, seed: int, workdir: Path) -> None:
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    manifest = BUILDERS[workload](rng, workdir)
    manifest["workload"] = workload
    manifest["seed"] = seed
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


# -- ops ------------------------------------------------------------------------
# An op is a dict; "audio_s" is the audio duration it processes. A check
# returns (error or None, |measured - model| ITD in s or None).
Finding = tuple[str | None, float | None]


def cycle_ops(manifest: dict) -> list[dict]:
    workload = manifest["workload"]
    if workload == "cli_cold":
        return [{"argv": argv, "sub": argv[0],
                 "audio_s": 0.0 if argv[0] == "compare" else CLI_SIGNAL_S}
                for argv in manifest["session"]]
    if workload == "analyze_long":
        # Every capture at both weightings; the 30 s captures come first, so
        # ops 0-9 of a cycle are the 30 s ones and ops 10-11 the 120 s one.
        return [dict(cap, weighting=w, name=f"capture{i}", audio_s=cap["seconds"])
                for i, cap in enumerate(manifest["captures"]) for w in analysis.WEIGHTINGS]
    return [dict(slot, audio_s=SYNTH_SOURCE_S) for slot in manifest["slots"]]


def run_analyze(op: dict) -> dict:
    stereo = wavio.read_wav(op["path"])
    report = analysis.analyze_capture(stereo, weighting=op["weighting"])
    meta = reports.build_metadata(deterministic=True, name=op["name"], source=op["path"],
                                  sample_rate=stereo.sample_rate, weighting=op["weighting"])
    doc = reports.cue_report_doc(report, metadata=meta)
    text = reports.emit_json(doc)
    csv = reports.spectrum_csv_text(report.ild_spectrum)
    return {"itd_s": report.itd_s, "json": text, "csv_rows": csv.count("\n"),
            "bins": report.ild_spectrum.freqs.size}


def check_analyze(op: dict, out: dict) -> Finding:
    err = abs(out["itd_s"] - op["predicted_itd_s"])
    if err > ITD_TOLERANCE_S:
        return f"itd {out['itd_s']:.3e} s is {err * 1e6:.1f} us from the model", err
    doc = reports.parse_json(out["json"])
    if doc["itd_s"] != out["itd_s"] or doc["metadata"]["name"] != op["name"]:
        return "JSON report does not round-trip the cue report", err
    if out["csv_rows"] != out["bins"] + 1:
        return f"spectrum CSV has {out['csv_rows']} rows for {out['bins']} bins", err
    return None, err


def load_sources(manifest: dict) -> list[signals.SampleBuffer]:
    return [signals.SampleBuffer(np.load(path), SAMPLE_RATE) for path in manifest["sources"]]


def run_synth(op: dict, sources: list[signals.SampleBuffer]) -> bincues.StereoBuffer:
    source = sources[op["source"]]
    if op["kind"] == "simulate":
        src = rigsim.SourceSpec(math.radians(op["azimuth_deg"]))
        out = rigsim.simulate_capture(_rig(op["rig"]), src, source)
    elif op["kind"] == "binauralize":
        spec = render.RenderSpec(rig=_rig(op["rig"]), azimuth_rad=math.radians(op["azimuth_deg"]),
                                 gain_db=op["gain_db"])
        out = render.binauralize(source, spec)
    else:
        scene = [(sources[(op["source"] + k) % len(sources)],
                  render.RenderSpec(rig=_rig(op["rig"]), azimuth_rad=math.radians(az),
                                    gain_db=op["gain_db"]))
                 for k, az in enumerate(op["azimuths_deg"])]
        out = render.binauralize_scene(scene)
    wavio.write_wav(op["out"], out, encoding=op["encoding"])
    return out


def check_synth(op: dict, out: bincues.StereoBuffer) -> Finding:
    left, right = out.left.samples, out.right.samples
    if len(out) != int(SYNTH_SOURCE_S * SAMPLE_RATE):
        return f"output has {len(out)} frames", None
    if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
        return "output is not finite", None
    peak = max(np.max(np.abs(left)), np.max(np.abs(right)))
    if peak > 1.0:
        return f"output peaks at {peak}", None
    back = wavio.read_wav(op["out"])
    diff = max(np.max(np.abs(back.left.samples - left)), np.max(np.abs(back.right.samples - right)))
    if diff > ENCODING_TOLERANCE[op["encoding"]]:
        return f"{op['encoding']} file differs from the output by {diff}", None
    if op["kind"] == "scene":
        return None, None
    itd = analysis.estimate_itd(out)
    err = abs(itd - predicted_itd_s(op["rig"], op["azimuth_deg"]))
    if err > ITD_TOLERANCE_S:
        return f"itd {itd:.3e} s is {err * 1e6:.1f} us from the model", err
    return None, err


def check_cli_session(ops: list[dict], session_dir: Path) -> dict[int, Finding]:
    """Check a finished CLI session's output files; keyed by op index."""
    findings: dict[int, Finding] = {}
    itds: dict[str, float] = {}
    for i, op in enumerate(ops):
        argv = op["argv"]
        out = session_dir / argv[argv.index("--out") + 1]
        try:
            if op["sub"] in ("generate", "render", "simulate"):
                buf = wavio.read_wav(out)
                expect = int(CLI_SIGNAL_S * SAMPLE_RATE)
                channels = [buf] if isinstance(buf, signals.SampleBuffer) else [buf.left, buf.right]
                peak = max(float(np.max(np.abs(c.samples))) for c in channels)
                if len(buf) != expect or peak > 1.0:
                    findings[i] = (f"{out.name}: {len(buf)} frames, peak {peak}", None)
            elif op["sub"] == "analyze":
                doc = reports.load_report(out)
                rig = doc["metadata"]["name"]
                sidecar = json.loads((session_dir / f"{rig}.json").read_text(encoding="utf-8"))
                err = abs(doc["itd_s"] - sidecar["predicted_itd_s"])
                itds[rig] = doc["itd_s"]
                findings[i] = (None if err <= ITD_TOLERANCE_S else
                               f"{rig}: itd is {err * 1e6:.1f} us from the model", err)
            else:
                doc = reports.load_report(out)
                base = doc["baseline"]["itd_s"]
                for name, delta in doc["deltas"].items():
                    if abs(delta["itd_delta_s"] - (itds[name] - base)) > 1e-12:
                        findings[i] = (f"compare: itd delta of {name} is inconsistent", None)
                if len(doc["deltas"]) != len(RIGS) - 1:
                    findings[i] = (f"compare: {len(doc['deltas'])} candidates", None)
        except (bincues.BincuesError, OSError, KeyError, ValueError) as exc:
            findings[i] = (f"{out.name}: {type(exc).__name__}: {exc}", None)
    return findings


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5) or argv[0] != "setup" or argv[1] not in WORKLOADS:
        print("usage: workloads.py setup {cli_cold|analyze_long|synth_render} SEED WORKDIR "
              "[SPANFILE]", file=sys.stderr)
        return 1
    workload, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
    tracer = None
    if len(argv) == 5:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
        tracer.recording = True
    try:
        build(workload, seed, workdir)
    finally:
        if tracer is not None:
            tracer.dump(argv[4])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
