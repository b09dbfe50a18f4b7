"""Report documents and their JSON/CSV serialization.

Documents are plain dicts with a schema_version, emitted with sorted keys so
identical inputs produce byte-identical files. Timestamps are optional
metadata and omitted in deterministic mode. Importing the module loads no numpy
and no bincues module but errors: a function that reads a cue report or a rig
imports analysis or rigsim when called, so `bincues compare` loads no numpy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import __version__
from .errors import ValidationError

if TYPE_CHECKING:
    from .analysis import CueReport, TransferFunction
    from .rigsim import RigSpec

SCHEMA_VERSION = 1
_KINDS = ("cue_report", "simulation_sidecar", "comparison_report")

CSV_SPECTRUM_HEADER = "freq_hz,magnitude_db,phase_deg,coherence"
_CSV_ROWS = 512  # spectrum bins formatted per step

def build_metadata(deterministic: bool = False, **fields: Any) -> dict[str, Any]:
    """Common report metadata; pass deterministic=True to omit the timestamp."""
    meta: dict[str, Any] = {"tool_version": __version__}
    meta.update({k: v for k, v in fields.items() if v is not None})
    if not deterministic:
        from datetime import datetime, timezone
        meta["created_utc"] = datetime.now(timezone.utc).isoformat()
    return meta


def rig_to_dict(spec: RigSpec) -> dict[str, Any]:
    """The rig's config keys and values; a dotted key nests: shadow.max_db -> shadow/max_db."""
    from .rigsim import rig_fields
    out: dict[str, Any] = {"kind": spec.kind.value}
    for key, value in rig_fields(spec).items():
        group, _, name = key.rpartition(".")
        (out.setdefault(group, {}) if group else out)[name] = value
    return out


def cue_report_doc(report: CueReport, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    """Serializable summary of a CueReport: scalar cues plus the octave table at
    signals.DEFAULT_OCTAVE_CENTERS."""
    from .analysis import ild_spectrum_summary
    from .signals import DEFAULT_OCTAVE_CENTERS
    octave = ild_spectrum_summary(report.ild_spectrum, DEFAULT_OCTAVE_CENTERS)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cue_report",
        "itd_s": report.itd_s,
        "itd_low_s": report.itd_low_s,
        "itd_high_s": report.itd_high_s,
        "ild_octave_db": {str(int(center)): level for center, level in octave.items()},
        "metadata": metadata or {},
    }


def simulation_sidecar_doc(rig: RigSpec, azimuth_deg: float, temperature_c: float,
                           itd_s: float, ild_anchors_db: dict[str, float],
                           metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulation_sidecar",
        "rig": rig_to_dict(rig),
        "azimuth_deg": azimuth_deg,
        "temperature_c": temperature_c,
        "predicted_itd_s": itd_s,
        "predicted_ild_db": ild_anchors_db,
        "metadata": metadata or {},
    }


def comparison_doc(baseline_name: str, baseline: dict[str, Any],
                   candidates: dict[str, dict[str, Any]],
                   metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    """Deltas of each candidate cue report against the baseline.

    Each itd_s and ild_octave_db value is a number, not a bool, under 1e300 in magnitude, so
    every delta is finite. Band grids must match the baseline's; deltas are candidate - baseline.
    """
    for name, doc in [(baseline_name, baseline), *candidates.items()]:
        bands = doc.get("ild_octave_db")
        numbers = [doc.get("itd_s"), *bands.values()] if isinstance(bands, dict) else [None]
        if not all(type(v) in (int, float) and abs(v) < 1e300 for v in numbers):
            raise ValidationError(f"'{name}' is not a cue report with finite itd_s and ild_octave_db")
    base_bands = set(baseline["ild_octave_db"])
    deltas: dict[str, Any] = {}
    for name, cand in candidates.items():
        if set(cand["ild_octave_db"]) != base_bands:
            raise ValidationError(
                f"candidate '{name}' octave band grid differs from the baseline's"
            )
        deltas[name] = {
            "itd_delta_s": cand["itd_s"] - baseline["itd_s"],
            "ild_delta_db": {
                band: cand["ild_octave_db"][band] - baseline["ild_octave_db"][band]
                for band in baseline["ild_octave_db"]
            },
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "comparison_report",
        "baseline_name": baseline_name,
        "baseline": baseline,
        "candidates": candidates,
        "deltas": deltas,
        "metadata": metadata or {},
    }


def emit_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def parse_json(text: str | bytes) -> dict[str, Any]:
    """A JSON object of SCHEMA_VERSION, one of _KINDS and object metadata, else ValidationError."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # not JSON (NaN too), not UTF-8, or nested too deep
        raise ValidationError(f"report is not readable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("report must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 and 1.0 == 1 in Python
        raise ValidationError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    if doc.get("kind") not in _KINDS:
        raise ValidationError(f"report kind {doc.get('kind')!r} is not one of {', '.join(_KINDS)}")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("name", ""), str):
        raise ValidationError("report metadata must be an object, and its name a string")
    return doc


def load_report(path: str | Path) -> dict[str, Any]:
    return parse_json(Path(path).read_bytes())


def spectrum_csv_text(tf: TransferFunction) -> str:
    """One row per analysis bin: freq_hz, magnitude_db, phase_deg, coherence, each the repr
    of a Python float. Each column is formatted _CSV_ROWS bins at a time, so few float
    objects are alive at once, and the rows are joined."""
    columns = [a.astype(float, copy=False) for a in (tf.freqs, tf.magnitude_db, tf.phase_deg,
                                                     tf.coherence)]
    lines = [CSV_SPECTRUM_HEADER]
    for i in range(0, columns[0].size, _CSV_ROWS):
        lines += map(",".join, zip(*(map(repr, c[i : i + _CSV_ROWS].tolist()) for c in columns)))
    return "\n".join(lines) + "\n"


def _ordered_deltas(doc: dict[str, Any]) -> list[tuple[str, dict[str, Any]]]:
    return sorted(doc["deltas"].items(), key=lambda item: abs(item[1]["itd_delta_s"]))


def comparison_csv_text(doc: dict[str, Any]) -> str:
    bands = sorted(doc["baseline"]["ild_octave_db"], key=int)
    header = "candidate,itd_delta_s," + ",".join(f"ild_delta_{band}_db" for band in bands)
    lines = [header]
    for name, delta in _ordered_deltas(doc):
        cells = [name, repr(delta["itd_delta_s"])]
        cells += [repr(delta["ild_delta_db"][band]) for band in bands]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def comparison_summary_text(doc: dict[str, Any]) -> str:
    """Plain-text table of candidates ordered by |itd delta|, closest first."""
    lines = [f"baseline: {doc['baseline_name']}  (itd {doc['baseline']['itd_s'] * 1e3:+.3f} ms)",
             f"{'candidate':<20} {'itd delta (ms)':>14}  {'worst ild delta (dB)':>20}"]
    for name, delta in _ordered_deltas(doc):
        worst = max(delta["ild_delta_db"].values(), key=abs)
        lines.append(f"{name:<20} {delta['itd_delta_s'] * 1e3:>+14.3f}  {worst:>+20.2f}")
    return "\n".join(lines) + "\n"
