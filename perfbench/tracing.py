"""Outside-in spans around calls into the cubenets layers.

The wrappers are installed from the benchmark's own files; nothing under
``src/`` changes.  Each span name maps to one or more call sites, looked up
by module and attribute name when the trace is installed, so a refactor that
renames or merges a function shows up as an absent metric with a note instead
of a crash.  After a target is wrapped, every ``cubenets`` module that holds
the same function object under any name (``from .core import validate``) is
pointed at the wrapper too.

Spans are kept in memory as parallel lists and summarised once, after the
traced call has returned.  A span's self time is its duration minus the time
covered by the spans it caused, so the self times of all spans under a root
add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> call sites (module, attribute path, "call" | "gen" | "len").
# "gen" wraps a generator: one span per item pulled, items = items yielded.
# "len" records len(result) as the span's item count.
TARGETS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "enumeration.raw": (("cubenets.enumeration", "_raw_tree_masks", "gen"),),
    "enumeration.walk": (
        ("cubenets.enumeration", "_raw_path_masks", "gen"),
        ("cubenets.enumeration", "_raw_cycle_masks", "gen"),
    ),
    "enumeration.dedup": (("cubenets.enumeration", "_dedup_restricted", "len"),),
    "enumeration.classify": (("cubenets.enumeration", "classify_path", "call"),),
    "enumeration.sample": (("cubenets.enumeration", "random_spanning_tree", "call"),),
    "core.orbit": (("cubenets.core", "_orbit_arrays", "call"),),
    "core.dedup": (("cubenets.core", "dedup_canonical_masks", "len"),),
    "core.materialize": (("cubenets.core", "subgraph_from_mask", "call"),),
    "core.validate": (("cubenets.core", "validate", "call"),),
    "chords.enumerate": (("cubenets.chords", "enumerate_diagrams", "len"),),
    "rolling.develop_tree": (("cubenets.rolling", "develop_tree", "call"),),
    "rolling.develop_path": (
        ("cubenets.rolling", "RollSequence.develop", "call"),
        ("cubenets.rolling", "develop_path", "call"),
    ),
    "nets.verify": (("cubenets.nets", "verify_development", "call"),),
    "nets.partition": (("cubenets.nets", "cube_partition_of", "call"),),
    "partitions.enumerate": (
        ("cubenets.partitions", "enumerate_cube_partitions", "len"),
    ),
    "partitions.realize": (("cubenets.partitions", "realize_partition", "call"),),
}

ROOT_SPAN = "cli.main"


class Tracer:
    """Span recorder: one entry per call, parent links from a call stack."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.items: list[int] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.items.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, items: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.items[idx] = items
        self._stack.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, items, summed self seconds, the longest
        single span in seconds, and the median and 99th-percentile self
        time per call in microseconds."""
        child = [0.0] * len(self.name)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        per_name: dict[str, dict] = {}
        selfs: dict[str, list[float]] = {}
        for idx, name in enumerate(self.name):
            dur = self.end[idx] - self.start[idx]
            own = dur - child[idx]
            row = per_name.setdefault(
                name, {"calls": 0, "items": 0, "self_s": 0.0, "max_s": 0.0}
            )
            row["calls"] += 1
            row["items"] += self.items[idx]
            row["self_s"] += own
            row["max_s"] = max(row["max_s"], dur)
            selfs.setdefault(name, []).append(own)
        for name, values in selfs.items():
            values.sort()
            per_name[name]["p50_us"] = _rank(values, 0.50) * 1e6
            per_name[name]["p99_us"] = _rank(values, 0.99) * 1e6
        return per_name

    def columns(self) -> dict:
        """Raw spans, one list per field, for writing out after the run."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "items": self.items,
        }


def _rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _wrap_call(tracer: Tracer, name: str, fn, count_len: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        items = 0
        try:
            result = fn(*args, **kwargs)
            if count_len:
                items = len(result)
            return result
        finally:
            tracer.finish(idx, items)

    return wrapper


def _wrap_gen(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            idx = tracer.begin(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.finish(idx, 0)
                return
            except BaseException:
                tracer.finish(idx, 0)
                raise
            tracer.finish(idx, 1)
            yield item

    return wrapper


def install(tracer: Tracer, targets=TARGETS) -> tuple[set[str], list[str]]:
    """Wrap every target that exists; return (span names installed, notes
    on call sites that could not be found)."""
    installed: set[str] = set()
    notes: list[str] = []
    for name, sites in targets.items():
        for module_name, path, how in sites:
            try:
                owner = importlib.import_module(module_name)
            except ImportError as exc:
                notes.append(f"{name}: cannot import {module_name} ({exc})")
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                notes.append(f"{name}: {module_name}.{path} not found")
                continue
            if how == "gen":
                wrapper = _wrap_gen(tracer, name, original)
            else:
                wrapper = _wrap_call(tracer, name, original, how == "len")
            setattr(owner, attr, wrapper)
            _rebind(original, wrapper)
            installed.add(name)
    return installed, notes


def _rebind(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "cubenets" or module_name.startswith("cubenets.")
        ):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
