"""bincues benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload {cli_cold|analyze_long|synth_render}
                             --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; bincues is imported from ./src and
nothing is installed. Scratch files go to ./.bench_work and are removed at
the end, except the span file of a traced run.

A run has three phases.
1. Set-up: three fresh processes in turn, each importing bincues and building
   the workload's inputs from the seed (workloads.py). setup_s is the median of
   their wall times, spawn to exit.
2. Timed phase: whole cycles of ops (workloads.py), one op at a time. The
   number of cycles is S divided by the workload's nominal cycle time (at
   least one), so every run of a workload times the same mix of ops and its
   percentiles do not jump with the machine's speed. Each op is timed alone;
   its output is checked after its timer stops.
3. Report: every end-to-end metric (--trace 0) or every per-layer metric
   (--trace 1), each with its unit, then one JSON line as the last line of
   standard output.

End-to-end metrics:
- setup_s      median set-up wall time, s
- op_p50_ms    median op wall time, ms
- op_tail_ms   op time at the highest percentile with at least ten ops beyond
               it; with twenty ops or fewer (cli_cold and analyze_long at 20 s)
               that would not lie above the median, so the slowest op is used.
               The percentile and sample count are printed beside it
- audio_xrt    audio seconds processed per second of op wall time (48 kHz)
- peak_rss_mb  peak resident memory of the process that runs the ops, which
               builds no inputs, so set-up allocations cannot hide it; for
               cli_cold the largest CLI child. With transparent huge pages in
               madvise mode, numpy's large arrays get huge pages only when the
               kernel has them free; on the 2-vCPU Xeon reference VM that
               puts analyze_long at about 592 or 624 MiB from run to run of
               the same code.
- ok_ratio     ops that completed and passed their check over ops attempted,
               i.e. 1 - fail_ratio. fail_ratio itself reads 0 on a correct
               build, so a regression bound given as a share of its median
               could not apply to it; fail_ratio is printed as a note.

With --trace 1, cycles alternate untraced and traced (at least one of each);
set-up processes and the traced cycles record spans named <module>.<function>
(tracer.py); the per-layer metrics come from those spans, and
trace.overhead_ms is the traced minus the untraced op median. A span the
workload never calls reads 0 (render on analyze_long, analysis on
synth_render, cli.<subcommand>.ms outside cli_cold). The notes before the
metrics give calls, ms and self ms of every span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_TRIALS = 3
TAIL_BEYOND = 10
OP_TIMEOUT_S = 120.0
# No new cycle starts after this much time in the timed phase, whatever --seconds says.
MAX_PHASE_S = 100.0

SUBCOMMANDS = ("generate", "simulate", "analyze", "compare", "render")

def fail(message: str, code: int = 1) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(code)


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(workdir)
    return env


def run_setup(args, workdir: Path, env: dict) -> tuple[float, list[Path]]:
    """Run the set-up trials; returns the median wall time and any span files."""
    walls, span_files = [], []
    for trial in range(SETUP_TRIALS):
        cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "setup", args.workload,
               str(args.seed), str(workdir)]
        if args.trace:
            span_files.append(workdir / f"setup{trial}.spans.json")
            cmd.append(str(span_files[-1]))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise fail(f"set-up trial {trial} exited with code {proc.returncode}")
    return statistics.median(walls), span_files


@dataclass
class OpRecord:
    op: dict
    traced: bool
    seconds: float = 0.0
    error: str | None = None
    cue_err: float | None = None  # |measured - model| ITD, s
    rss_kb: int = 0  # peak RSS of the op's process, CLI ops only


def run_cli_op(rec: OpRecord, op_id: str, session: Path, env: dict,
               span_path: Path | None) -> None:
    argv = rec.op["argv"]
    if span_path is None:
        cmd = [sys.executable, "-m", "bincues.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(span_path), op_id, *argv]
    with open(session / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=session, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        rec.seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec.rss_kb = usage.ru_maxrss
    if proc.returncode != 0:
        rec.error = (f"exit code {proc.returncode}: "
                     + (session / "stderr.txt").read_text(errors="replace").strip()[-300:])


def timed_phase(args, manifest: dict, workdir: Path, env: dict, tracer,
                wl) -> tuple[list[OpRecord], list[Path]]:
    records: list[OpRecord] = []
    cli_spans: list[Path] = []
    if args.workload == "analyze_long":
        run, check = wl.run_analyze, wl.check_analyze
    elif args.workload == "synth_render":
        sources = wl.load_sources(manifest)
        run, check = (lambda op: wl.run_synth(op, sources)), wl.check_synth
    cycles = max(2 if args.trace else 1, round(args.seconds / wl.NOMINAL_CYCLE_S[args.workload]))
    t_phase = time.perf_counter()
    for cycle in range(cycles):
        traced = bool(args.trace) and cycle % 2 == 1
        ops = wl.cycle_ops(manifest)
        cycle_recs = [OpRecord(op, traced) for op in ops]
        if args.workload == "cli_cold":
            session = workdir / f"session{cycle}"
            session.mkdir()
            for i, rec in enumerate(cycle_recs):
                op_id = f"c{cycle}o{i}"
                span_path = session / f"{op_id}.spans.json" if traced else None
                run_cli_op(rec, op_id, session, env, span_path)
                if span_path is not None and span_path.exists():
                    cli_spans.append(span_path)
            for i, (error, cue_err) in wl.check_cli_session(ops, session).items():
                cycle_recs[i].error = cycle_recs[i].error or error
                cycle_recs[i].cue_err = cue_err
        else:
            if traced:
                tracer.install()
            for i, rec in enumerate(cycle_recs):
                run_in_process(rec, f"c{cycle}o{i}", tracer if traced else None, run, check)
            if traced:
                tracer.uninstall()
        records += cycle_recs
        if time.perf_counter() - t_phase > MAX_PHASE_S:
            break
    return records, cli_spans


def run_in_process(rec: OpRecord, op_id: str, tracer, run, check) -> None:
    op = rec.op
    out = None
    if tracer is not None:
        tracer.op = op_id
        tracer.recording = True
    t0 = time.perf_counter()
    try:
        out = run(op)
    except Exception as exc:  # any raise, typed BincuesError or not, is a failed op
        rec.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        rec.seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
    if out is not None:
        try:
            rec.error, rec.cue_err = check(op, out)
        except Exception as exc:
            rec.error = f"check raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND beyond it.

    With 2 * TAIL_BEYOND ops or fewer that percentile would lie at or below the
    median, so the tail is the slowest op (p100, none beyond).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(args, records: list[OpRecord], setup_s: float) -> tuple[dict, list[str]]:
    times = [r.seconds for r in records]
    tail_v, tail_p, beyond = tail(times)
    if args.workload == "cli_cold":
        rss_kb = max(r.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sum(r.error is not None for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_v * 1e3, "ms"),
        "audio_xrt": (sum(r.op["audio_s"] for r in records) / sum(times), "s/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }
    notes = [f"op_tail_ms is p{tail_p:.1f} of n={len(times)} ops ({beyond} beyond it)",
             f"fail_ratio = {failed}/{len(records)} = {failed / len(records):.4f}"]
    return metrics, notes


def ancestors_include(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer(records: list[OpRecord], spans: list[list], import_ms: dict,
              rigs: tuple[str, ...]) -> tuple[dict, list[str]]:
    from tracer import SpanStats, self_times

    stats = SpanStats(spans, self_times(spans))
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    m: dict[str, tuple[float, str]] = {}

    for sub in SUBCOMMANDS:
        walls = [r.seconds * 1e3 for r in untraced if r.op.get("sub") == sub]
        m[f"cli.{sub}.ms"] = (statistics.median(walls) if walls else 0.0, "ms")
    for key, value in import_ms.items():
        m[key] = (value, "ms")

    for fn in ("analyze_capture", "transfer_function", "estimate_itd", "band_itd",
               "cross_correlation"):
        m[f"analysis.{fn}.ms"] = (stats.mean_ms(f"analysis.{fn}"), "ms")
        m[f"analysis.{fn}.self_ms"] = (stats.mean_self_ms(f"analysis.{fn}"), "ms")
    analyses = stats.calls("analysis.analyze_capture")
    inner = sum(ancestors_include(spans, i, "analysis.analyze_capture")
                for i in stats.select("analysis.cross_correlation"))
    m["analysis.xcorr_per_capture"] = (inner / analyses if analyses else 0.0, "count")
    errs = [r.cue_err for r in records if r.cue_err is not None]
    m["analysis.cue_err_max_us"] = (max(errs) * 1e6 if errs else 0.0, "us")

    for fn in ("gen_pink_noise", "apply_fractional_delay"):
        m[f"signals.{fn}.ms"] = (stats.mean_ms(f"signals.{fn}"), "ms")
        m[f"signals.{fn}.calls"] = (stats.calls(f"signals.{fn}"), "count")
    for kind in rigs:
        m[f"rigsim.simulate_capture.{kind}.self_ms"] = (
            stats.mean_self_ms("rigsim.simulate_capture", rig=kind), "ms")
    m["rigsim.shadow_filter_kernel.ms"] = (stats.mean_ms("rigsim.shadow_filter_kernel"), "ms")
    m["rigsim.shadow_filter_kernel.calls"] = (stats.calls("rigsim.shadow_filter_kernel"), "count")
    m["cue_models.head_shadow_ild.calls"] = (stats.calls("cue_models.head_shadow_ild"), "count")

    for fn in ("binauralize", "binauralize_scene"):
        m[f"render.{fn}.ms"] = (stats.mean_ms(f"render.{fn}"), "ms")
        m[f"render.{fn}.self_ms"] = (stats.mean_self_ms(f"render.{fn}"), "ms")

    for fn in ("read_wav", "write_wav"):
        picked = stats.select(f"wavio.{fn}")
        secs = sum(stats.ms(picked)) / 1e3
        size = sum((spans[i][5] or {}).get("bytes", 0) for i in picked)
        m[f"wavio.{fn}.ms"] = (stats.mean_ms(f"wavio.{fn}"), "ms")
        m[f"wavio.{fn}.mb_per_s"] = (size / 1e6 / secs if secs else 0.0, "MB/s")

    for fn in ("cue_report_doc", "emit_json", "spectrum_csv_text", "comparison_doc"):
        m[f"reports.{fn}.ms"] = (stats.mean_ms(f"reports.{fn}"), "ms")

    overhead = 0.0
    if traced and untraced:
        overhead = (statistics.median(r.seconds for r in traced)
                    - statistics.median(r.seconds for r in untraced)) * 1e3
    m["trace.overhead_ms"] = (overhead, "ms")

    notes = [f"traced ops {len(traced)}, untraced ops {len(untraced)}, spans {len(spans)}; "
             f".ms and .self_ms are per call, .calls count the whole traced run "
             f"(set-up trials and traced ops)"]
    notes += span_table(stats)
    return m, notes


def span_table(stats) -> list[str]:
    """Calls, total ms and total self ms of every span name, most self time first."""
    totals: dict[str, list[float]] = {}
    for i, span in enumerate(stats.spans):
        row = totals.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (span[2] - span[1]) / 1e6
        row[2] += stats.self_ns[i] / 1e6
    lines = ["| span | calls | ms | self ms |", "| --- | --- | --- | --- |"]
    for name, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"| {name} | {calls} | {total:.1f} | {own:.1f} |")
    return lines


def collect_spans(tracer, files: list[Path]) -> list[list]:
    from tracer import load_spans

    spans: list[list] = []
    for path in files:
        spans += load_spans(str(path), len(spans))
    offset = len(spans)
    for span in tracer.spans:
        spans.append(span[:3] + [span[3] + offset if span[3] >= 0 else -1] + span[4:])
    return spans


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "analyze_long", "synth_render"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "bincues" / "__init__.py").is_file():
        raise fail(f"no bincues sources under {SRC}; run from a source checkout", 2)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    env = child_env(workdir)
    setup_s, setup_spans = run_setup(args, workdir, env)

    import bincues
    import probes
    import workloads as wl
    from tracer import Tracer

    if not Path(bincues.__file__).resolve().is_relative_to(SRC):
        raise fail(f"bincues was imported from {bincues.__file__}, not {SRC}")
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    tracer = Tracer()

    records, cli_spans = timed_phase(args, manifest, workdir, env, tracer, wl)

    context = probes.run_context(args.seed, {f"{s:g}s": wl.capture_bytes(s)
                                             for s in wl.SIGNAL_SECONDS[args.workload]})
    print("context " + json.dumps(context, sort_keys=True))
    for rec in records:
        if rec.error is not None:
            print(f"failed op {rec.op.get('sub') or rec.op.get('kind') or rec.op.get('name')}: "
                  f"{rec.error}", file=sys.stderr)

    if args.trace:
        import_ms = probes.import_split(env, workdir)
        spans = collect_spans(tracer, setup_spans + cli_spans)
        metrics, notes = per_layer(records, spans, import_ms, wl.RIGS)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": spans}), encoding="utf-8")
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(args, records, setup_s)

    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failed = sum(r.error is not None for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
