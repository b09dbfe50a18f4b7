"""In-memory span tracer that instruments bincues from outside the package.

Every public function defined in a bincues module is wrapped once, and the
wrapper is bound under every name that refers to the original in any loaded
bincues module namespace. That matters because the package imports functions
by name: `apply_fractional_delay` is called through `rigsim` and `render` as
well as `signals`, and `transfer_function` reaches `cross_correlation` through
the `analysis` globals. Rebinding only the defining module would miss those
calls.

A span is (name, start_ns, end_ns, parent index, op id, tags). The tags are
the rig kind of a call whose first argument is a rig, and the file size of a
wavio call. Spans stay in
memory and are written out once, when the traced process ends. Self time is a
span's duration minus the durations of its direct children; calls nest on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time


class Tracer:
    """Records spans while `recording` is true; `op` labels the spans of one op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = ""
        self.recording = False
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------

    def _wrap(self, name: str, fn):
        is_wav = name.startswith("wavio.")
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[5] = _tags(args, is_wav)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public bincues function to a traced wrapper."""
        if self._bindings:
            return
        mods = [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "bincues" or key.startswith("bincues."))]
        wrappers: dict[int, object] = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _tags(args, is_wav) -> dict | None:
    if not args:
        return None
    tags = {}
    kind = getattr(getattr(args[0], "kind", None), "value", None)
    if isinstance(kind, str):
        tags["rig"] = kind
    if is_wav:
        try:
            tags["bytes"] = os.path.getsize(args[0])
        except (OSError, TypeError):
            pass
    return tags or None


def load_spans(path: str, offset: int) -> list[list]:
    """Read a span file written by another process, shifting parent indices by offset."""
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    for span in spans:
        if span[3] >= 0:
            span[3] += offset
    return spans


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time in ns: duration minus the durations of direct children."""
    out = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return out


class SpanStats:
    """Calls, inclusive and self milliseconds of the spans of one name, filtered by tag."""

    def __init__(self, spans: list[list], self_ns: list[int]) -> None:
        self.spans = spans
        self.self_ns = self_ns

    def select(self, name: str, **want) -> list[int]:
        picked = []
        for i, span in enumerate(self.spans):
            if span[0] != name:
                continue
            tags = span[5] or {}
            if all(tags.get(key) == value for key, value in want.items()):
                picked.append(i)
        return picked

    def ms(self, indices: list[int]) -> list[float]:
        return [(self.spans[i][2] - self.spans[i][1]) / 1e6 for i in indices]

    def mean_ms(self, name: str, **want) -> float:
        values = self.ms(self.select(name, **want))
        return statistics.fmean(values) if values else 0.0

    def mean_self_ms(self, name: str, **want) -> float:
        values = [self.self_ns[i] / 1e6 for i in self.select(name, **want)]
        return statistics.fmean(values) if values else 0.0

    def calls(self, name: str, **want) -> int:
        return len(self.select(name, **want))

