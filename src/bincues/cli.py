"""Command-line surface: generate, analyze, simulate, render, compare.

Angles are degrees at this boundary and radians inside the library. Exit
codes are a stable contract: 0 success, 1 usage error, 2 I/O error,
3 analysis or validation failure. Every subcommand writes the file --out names,
and at most one more: --out with a fixed suffix, simulate's .json sidecar or
analyze's and compare's .csv. Importing this module loads no numpy and no
bincues module but errors: a subcommand imports the modules it runs when it
runs, so a cold process pays only for its own.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable, Iterable
from pathlib import Path

from .errors import AnalysisError, BincuesError, ValidationError, WavFormatError, check_number

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_ANALYSIS = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError. A subcommand's parser adds its arguments,
    and imports the modules their choices and defaults come from, only when it parses, so a
    run builds and imports only its own subcommand's."""

    add_arguments: Callable[[argparse.ArgumentParser], None] | None = None

    def error(self, message: str) -> None:  # argparse default exits with code 2
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        add, self.add_arguments = self.add_arguments, None
        if add is not None:
            add(self)
        return super().parse_known_args(args, namespace)


# A flag that a run may not read defaults to None, so that giving it there is an error; the
# handler that reads it fills in its default.
_FLAGS = {
    "--sample-rate": dict(type=int, help="sample rate in Hz for generated signals (default 48000)"),
    "--temp": dict(type=float, default=20.0, help="air temperature in Celsius (default 20)"),
    "--seed": dict(type=int, help="noise generator seed (default 0)"),
    "--deterministic": dict(action="store_true", help="omit timestamps from reports"),
    "--out": dict(type=Path, help="output path (required)"),
}
# The generate flags that only one kind of signal reads.
_SIGNAL_FLAGS = {"sine": ("freq", "amplitude"), "pink": ("seed",), "impulse": ("offset",)}


def _common_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Adds the named _FLAGS, then --deterministic and --out, which every subcommand takes."""
    for flag in (*flags, "--deterministic", "--out"):
        parser.add_argument(flag, **_FLAGS[flag])


def _generate_args(p: argparse.ArgumentParser) -> None:
    from .wavio import ENCODINGS
    p.add_argument("signal_kind", choices=("pink", "sine", "impulse"))
    p.add_argument("--seconds", type=float, default=1.0, help="signal duration (default 1)")
    p.add_argument("--freq", type=float, help="sine frequency in Hz")
    p.add_argument("--amplitude", type=float, help="sine peak amplitude, 0..1 (default 1)")
    p.add_argument("--offset", type=int, help="impulse position in samples (default 0)")
    p.add_argument("--encoding", choices=ENCODINGS, default="float32")
    _common_flags(p, "--sample-rate", "--seed")


def _analyze_args(p: argparse.ArgumentParser) -> None:
    from . import analysis
    p.add_argument("wav", type=Path)
    p.add_argument("--fft-size", type=int, default=analysis.DEFAULT_FFT_SIZE)
    p.add_argument("--weighting", choices=analysis.WEIGHTINGS, default="none")
    p.add_argument("--max-lag-ms", type=float, default=analysis.DEFAULT_MAX_LAG_S * 1e3,
                   help="ITD lag window in ms either side of zero (default %(default)g)")
    p.add_argument("--name", help="report name (default: input file stem)")
    _common_flags(p)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    from .rigsim import RIG_NAMES
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rig", choices=RIG_NAMES)
    grp.add_argument("--rig-config", type=Path, help="flat key=value rig config file")
    p.add_argument("--azimuth", type=float, required=True, help="degrees, 0..90")
    p.add_argument("--signal", type=Path, help="mono WAV test signal (default: built-in pink)")
    p.add_argument("--seconds", type=float, help="built-in pink signal duration (default 5)")
    _common_flags(p, "--sample-rate", "--temp", "--seed")


def _render_args(p: argparse.ArgumentParser) -> None:
    from .rigsim import RIG_NAMES
    p.add_argument("wav", type=Path)
    p.add_argument("--azimuth", type=float, required=True,
                   help="degrees, -90..90, negative to the right")
    p.add_argument("--rig", choices=RIG_NAMES, default="human")
    p.add_argument("--gain-db", type=float, default=0.0, help="output gain, <= 0 dB")
    _common_flags(p, "--temp")


def _compare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("baseline", type=Path)
    p.add_argument("candidates", type=Path, nargs="+")
    _common_flags(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="bincues",
                     description="Binaural cue models, measurement, and rig simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text).add_arguments = add_arguments
    return parser


def _outputs(args: argparse.Namespace, suffix: str | None = None,
             inputs: Iterable[Path | None] = ()) -> tuple[Path, Path | None]:
    """--out and the one file a run writes beside it, which is --out with `suffix` (None when
    the run writes --out alone). Raises UsageError, before the run reads or writes a file, when
    --out is missing, when the two outputs are one file, or when either is one of `inputs`."""
    out = args.out
    if out is None:
        raise UsageError("--out is required for this command")
    if not out.name:
        raise UsageError(f"--out must name a file, got {out}")
    companion = None if suffix is None else out.with_suffix(suffix)
    if companion is not None and _file_key(companion) == _file_key(out):
        raise UsageError(f"--out {out} is the path of the {suffix} file written beside it;"
                         f" give --out another suffix")
    read = {_file_key(path): path for path in inputs if path is not None}
    for path in (out, companion):
        if path is not None and _file_key(path) in read:
            raise UsageError(f"output {path} would overwrite the input {read[_file_key(path)]}")
    return out, companion


def _file_key(path: Path) -> object:
    """What two paths to one file share: an existing file's device and inode, so that a hard
    link matches too, or else the path with its symlinks and '..' resolved (a symlink loop
    left as it is, for the write to report)."""
    try:
        st = path.stat()
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _default(value, default):
    """A flag's value, or its default when it was not given."""
    return default if value is None else value


def _reject_unread(args: argparse.Namespace, names: Iterable[str], where: str) -> None:
    """Raises UsageError when any of the named flags was given, as the run would not read it."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise UsageError(f"{' and '.join(given)} {'is' if len(given) == 1 else 'are'} not read"
                         f" {where}")


def _report_name(doc_path: Path, doc: dict) -> str:
    return doc.get("metadata", {}).get("name") or doc_path.stem


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import signals, wavio
    out, _ = _outputs(args)
    kind, sample_rate = args.signal_kind, _default(args.sample_rate, signals.DEFAULT_SAMPLE_RATE)
    _reject_unread(args, (name for other, names in _SIGNAL_FLAGS.items() if other != kind
                          for name in names), f"by a {kind} signal")
    check_number("--seconds", args.seconds, 0, ends="()", error=UsageError)
    if kind == "sine":
        amplitude = _default(args.amplitude, 1.0)
        if args.freq is None:
            raise UsageError("--freq is required for sine")
        check_number("--freq", args.freq, 0, sample_rate / 2, "()", error=UsageError)
        check_number("--amplitude", amplitude, 0, 1, error=UsageError)
        buf = signals.gen_sine(args.freq, args.seconds, sample_rate, amplitude)
    elif kind == "pink":
        buf = signals.gen_pink_noise(args.seconds, sample_rate, _default(args.seed, 0))
    else:
        if args.encoding != "float32":  # a PCM code stops short of the impulse's 1.0
            raise UsageError(f"--encoding {args.encoding} cannot hold an impulse; use float32")
        offset, n = _default(args.offset, 0), args.seconds * sample_rate
        # under one sample or past the float range, gen_impulse's duration rules name the fault
        if 0.5 < n < math.inf:
            check_number("--offset", offset, 0, round(n), "[)", error=UsageError)
        buf = signals.gen_impulse(args.seconds, sample_rate, offset)
    wavio.write_wav(out, buf, encoding=args.encoding)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    from . import analysis, reports, signals, wavio
    out, csv_path = _outputs(args, ".csv", [args.wav])
    with wavio.WavReader(args.wav) as wav:
        if wav.channels != 2:
            raise AnalysisError(f"{args.wav}: cue analysis needs a stereo capture, got mono")
        # the report's octaves must lie in the 0..Nyquist bins, and analyze_blocks checks its
        # own arguments, before the capture streams from the file into the Welch sums
        analysis.octave_bands(signals.DEFAULT_OCTAVE_CENTERS, 0.0, wav.sample_rate / 2)
        report = analysis.analyze_blocks(wav, wav.frames, wav.sample_rate, fft_size=args.fft_size,
                                         weighting=args.weighting, max_lag=args.max_lag_ms / 1000.0)
    meta = reports.build_metadata(
        deterministic=args.deterministic, name=args.name or args.wav.stem, source=str(args.wav),
        sample_rate=wav.sample_rate, fft_size=args.fft_size, weighting=args.weighting,
    )
    doc = reports.cue_report_doc(report, metadata=meta)

    out.write_text(reports.emit_json(doc), encoding="utf-8")
    csv_path.write_text(reports.spectrum_csv_text(report.ild_spectrum), encoding="utf-8")
    print(f"itd {report.itd_s * 1e3:+.3f} ms  (low {report.itd_low_s * 1e3:+.3f} ms, "
          f"high {report.itd_high_s * 1e3:+.3f} ms)")
    print(f"wrote {out} and {csv_path}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import reports, rigsim, signals, wavio
    out, sidecar_path = _outputs(args, ".json", [args.signal, args.rig_config])
    if args.signal is not None:
        _reject_unread(args, ("seconds", "seed", "sample_rate"), "with --signal")
    check_number("--azimuth", args.azimuth, 0, 90, error=UsageError)
    rig = (rigsim.load_rig_config(args.rig_config) if args.rig_config is not None
           else rigsim.default_rig(rigsim.RigKind(args.rig)))
    src = rigsim.SourceSpec(azimuth_rad=math.radians(args.azimuth))

    seed = None  # the sidecar's: none for a signal file
    if args.signal is not None:
        sig = wavio.read_wav(args.signal)
        if not isinstance(sig, signals.SampleBuffer):
            raise AnalysisError(f"{args.signal}: simulation needs a mono test signal")
    else:
        seed = _default(args.seed, 0)
        sig = signals.gen_pink_noise(_default(args.seconds, 5.0),
                                     _default(args.sample_rate, signals.DEFAULT_SAMPLE_RATE), seed)

    itd = rigsim.predicted_itd(rig, src, temperature_c=args.temp)  # both validate before writing
    anchors = {str(int(center)): rigsim.predicted_ild_db(rig, src, center)
               for center in signals.DEFAULT_OCTAVE_CENTERS}
    wavio.write_wav(out, rigsim.simulate_capture(rig, src, sig, temperature_c=args.temp))
    meta = reports.build_metadata(
        deterministic=args.deterministic, sample_rate=sig.sample_rate, seed=seed,
        source=str(args.signal) if args.signal else "pink",
    )
    sidecar = reports.simulation_sidecar_doc(rig, args.azimuth, args.temp, itd, anchors, meta)
    sidecar_path.write_text(reports.emit_json(sidecar), encoding="utf-8")
    print(f"predicted itd {itd * 1e3:+.3f} ms")
    print(f"wrote {out} and {sidecar_path}")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    import logging
    from . import render, rigsim, signals, wavio
    out, _ = _outputs(args, inputs=[args.wav])
    check_number("--azimuth", args.azimuth, -90, 90, error=UsageError)  # no rear hemisphere
    check_number("--gain-db", args.gain_db, -math.inf, 0, error=UsageError)
    sig = wavio.read_wav(args.wav)
    if not isinstance(sig, signals.SampleBuffer):
        raise AnalysisError(f"{args.wav}: rendering needs a mono source, got stereo")
    spec = render.RenderSpec(rig=rigsim.default_rig(rigsim.RigKind(args.rig)),
                             azimuth_rad=math.radians(args.azimuth),
                             temperature_c=args.temp, gain_db=args.gain_db)
    handler = logging.StreamHandler()  # on this call's sys.stderr, beside the error lines
    handler.setFormatter(logging.Formatter("warning: %(message)s"))  # the render's clip notice
    render.log.addHandler(handler)
    try:
        wavio.write_wav(out, render.binauralize(sig, spec))
    finally:  # a later call in this process gets its own handler, so prints each record once
        render.log.removeHandler(handler)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import reports
    out, csv_path = _outputs(args, ".csv", [args.baseline, *args.candidates])
    baseline = reports.load_report(args.baseline)
    candidates: dict[str, dict] = {}
    paths: dict[str, Path] = {}  # each candidate's file, by the name that keys its deltas
    for path in args.candidates:
        doc = reports.load_report(path)
        name = _report_name(path, doc)
        if name in paths:
            raise ValidationError(f"{paths[name]} and {path} are both named '{name}'; give each"
                                  f" candidate its own name with analyze --name")
        candidates[name], paths[name] = doc, path
    meta = reports.build_metadata(deterministic=args.deterministic)
    doc = reports.comparison_doc(_report_name(args.baseline, baseline), baseline,
                                 candidates, metadata=meta)
    out.write_text(reports.emit_json(doc), encoding="utf-8")
    csv_path.write_text(reports.comparison_csv_text(doc), encoding="utf-8")
    sys.stdout.write(reports.comparison_summary_text(doc))
    return EXIT_OK


# Each subcommand's help line, argument builder and handler, in the order --help lists them.
_SUBCOMMANDS = {
    "generate": ("write a test-signal WAV", _generate_args, _cmd_generate),
    "analyze": ("extract ITD and ILD cues from a stereo WAV", _analyze_args, _cmd_analyze),
    "simulate": ("synthesize a rig's two-channel capture", _simulate_args, _cmd_simulate),
    "render": ("binauralize a mono WAV", _render_args, _cmd_render),
    "compare": ("delta one or more cue reports against a baseline", _compare_args, _cmd_compare),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _, _, handler = _SUBCOMMANDS[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WavFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BincuesError as exc:  # validation, silence and analysis failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
