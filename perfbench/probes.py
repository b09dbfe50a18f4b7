"""Run context and the import-time split of a cold CLI process."""

from __future__ import annotations

import importlib.metadata
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)\s*$")

# Imported in this order in one process, each top-level cumulative time is
# the cost that import adds on top of the ones before it.
_SPLIT = (("numpy", "numpy"), ("scipy.fft", "scipy_fft"), ("scipy.signal", "scipy_signal"))
# What a CLI process pays before main() runs: bincues.cli and everything it pulls in.
_WHOLE = "bincues.cli"


def _top_level_us(stderr: str) -> dict[str, int]:
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) == " ":
            out[m.group(3)] = int(m.group(1))
    return out


def _importtime(statement: str, env: dict, cwd: Path) -> dict[str, int]:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return _top_level_us(proc.stderr)


def import_split(env: dict, cwd: Path, repeats: int = 3) -> dict[str, float]:
    """Median cumulative import ms of numpy, scipy.fft, scipy.signal and bincues.cli."""
    samples: dict[str, list[float]] = {}
    split_stmt = "import " + ", ".join(mod for mod, _ in _SPLIT)
    for _ in range(repeats):
        split = _importtime(split_stmt, env, cwd)
        for mod, key in _SPLIT:
            samples.setdefault(f"cli.import.{key}_ms", []).append(split[mod] / 1000.0)
        whole = _importtime(f"import {_WHOLE}", env, cwd)
        samples.setdefault("cli.import.bincues_ms", []).append(whole[_WHOLE] / 1000.0)
    return {key: statistics.median(values) for key, values in samples.items()}


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _size_bytes(text: str | None) -> int | None:
    m = re.fullmatch(r"(\d+)([KMG]?)", text or "")
    if not m:
        return None
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]


def _cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def run_context(seed: int, capture_bytes: dict[str, int]) -> dict:
    """Machine, versions, seed and computed capture sizes, with the working-set check."""
    largest_capture_bytes = max(capture_bytes.values())
    caches = _cache_sizes()
    l3 = _size_bytes(caches.get("L3"))
    if l3:
        limit = 4 * l3
        size = (f"largest capture {largest_capture_bytes / 1e6:.1f} MB (float64 stereo), "
                f"4 x L3 = {limit / 2**20:.0f} MiB")
        note = (f"{size}: below, so no op time here is a memory-bandwidth figure"
                if largest_capture_bytes < limit else
                f"{size}: NOT below, so op times include memory-bandwidth effects")
    else:
        note = "L3 size unknown; working set not compared with the caches"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
        "capture_bytes_computed": capture_bytes,
        "working_set": note,
    }
