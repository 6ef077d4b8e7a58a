"""The benchmark's workloads, their pinned answers and their per-layer metrics.

Each workload is one ``cubenets`` subcommand with fixed arguments, run in a
fresh interpreter per call (a CLI user pays the per-process caches on every
invocation).  The four together put every module under load, and each
optimisation the roadmap names has one workload that exercises it and one
that bypasses it:

- ``trees``: ``enumerate --dim 4 --kind trees``, the full listing.  Time goes
  to raw tree generation (enumeration) and orbit dedup (core); chords,
  rolling and nets are never called.  n=5 (9694 classes) takes about 110 s
  and 575 MB per call on a 2-CPU machine, longer than one benchmark run may
  last, so n=4 (261 classes) is timed, many calls per run.
- ``table``: ``table --max-dim 7 --method both --format json``.  About 90 %
  is chord-diagram generation at m=16, the rest the direct path/cycle walker
  with full-group dedup, a different use of core's dedup than in ``trees``.
- ``verify``: ``verify --dim 12 --samples 4000 --seed S``.  Per-tree
  sample, validate, develop_tree and verify_development; no orbit or chord
  calls, so it is the bypass workload for enumeration and chord work.
- ``realize``: ``partitions --dim 28 --realize`` (3717 partitions).  The
  token-game realization, roll-word development (``RollSequence.develop``)
  and the box scan; the only workload that reaches ``partitions``.

Expected links from layer to end-to-end metric: every ``*_s`` self time
moves ``wall_s`` of its workload; ``enumeration.dedup_*`` (trees) and
``chords.enumerate_*`` (table) also move ``peak_rss_mb``, since the dedup
``seen`` set and the diagram key set are the largest live structures.
Counts and yields repeat exactly between runs of the same code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from tracing import ROOT_SPAN


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]  # child seed -> CLI arguments
    check: Callable[[bytes], tuple[list[str], dict]]  # output -> (problems, facts)
    spans: tuple[str, ...]  # spans a traced call must record


def trees(dim: int, count: int, sha256: str) -> Workload:
    def check(raw: bytes):
        doc = json.loads(raw)
        problems = []
        if doc["count"] != count or len(doc["classes"]) != count:
            problems.append(f"count {doc['count']}, pinned {count}")
        digest = hashlib.sha256(raw).hexdigest()
        if digest != sha256:
            problems.append(f"sha256 {digest}, pinned {sha256}")
        return problems, {}

    return Workload(
        "trees",
        f"full listing of the {count} tree classes at n={dim}: raw generation and restricted orbit dedup",
        lambda seed: ["enumerate", "--dim", str(dim), "--kind", "trees", "--jobs", "1"],
        check,
        ("enumeration.raw", "enumeration.dedup", "core.orbit", "core.materialize"),
    )


# The README's headline table, n -> (cycles, paths, ter, ext).
README_TABLE = {
    2: (1, 1, 0, 1),
    3: (2, 4, 1, 3),
    4: (7, 24, 4, 20),
    5: (29, 184, 24, 160),
    6: (196, 1911, 184, 1727),
    7: (1788, 24252, 1911, 22341),
}


def table(max_dim: int) -> Workload:
    expected = {
        "method": "both",
        "rows": [
            {"n": n, "cycles": c, "paths": p, "ter": t, "ext": e}
            for n, (c, p, t, e) in README_TABLE.items()
            if n <= max_dim
        ],
    }

    def check(raw: bytes):
        doc = json.loads(raw)
        return ([] if doc == expected else [f"table {doc} differs from the README"]), {}

    return Workload(
        "table",
        f"cycle/path table to n={max_dim} by both methods: chord generation plus direct walk and full-group dedup",
        lambda seed: [
            "table", "--max-dim", str(max_dim), "--method", "both",
            "--format", "json", "--jobs", "1",
        ],
        check,
        ("chords.enumerate", "enumeration.walk", "core.dedup", "core.orbit",
         "core.materialize", "enumeration.classify"),
    )


def verify(dim: int, samples: int) -> Workload:
    def check(raw: bytes):
        doc = json.loads(raw)
        problems = []
        if (doc["n"], doc["mode"]) != (dim, "samples"):
            problems.append(f"report is for n={doc['n']} mode={doc['mode']}")
        if doc["trees_checked"] != samples:
            problems.append(f"checked {doc['trees_checked']} of {samples} trees")
        if doc["failures"]:
            problems.append(f"{len(doc['failures'])} failures")
        if sum(doc["partitions"].values()) != samples:
            problems.append("partition histogram does not sum to the sample count")
        facts = {
            "verify.trees_checked": doc["trees_checked"],
            "verify.failures": len(doc["failures"]),
        }
        return problems, facts

    return Workload(
        "verify",
        f"{samples} random trees at n={dim} sampled, developed and checked; no orbit or chord work",
        lambda seed: [
            "verify", "--dim", str(dim), "--samples", str(samples),
            "--seed", str(seed), "--jobs", "1",
        ],
        check,
        ("enumeration.sample", "core.validate", "rolling.develop_tree",
         "nets.verify", "nets.partition"),
    )


def realize(dim: int, count: int) -> Workload:
    def check(raw: bytes):
        doc = json.loads(raw)
        rows = doc["partitions"]
        problems = []
        if doc["n"] != dim or len(rows) != count:
            problems.append(f"{len(rows)} partitions at n={doc['n']}, pinned {count} at n={dim}")
        parts = [tuple(r["partition"]) for r in rows]
        if len(set(parts)) != len(parts):
            problems.append("a partition is listed twice")
        for r, p in zip(rows, parts):
            legal = (
                len(p) == dim - 1 and min(p) >= 2 and sum(p) == 3 * dim - 2
                and list(p) == sorted(p, reverse=True)
            )
            if not legal or r["box"] != r["partition"]:
                problems.append(f"row {r['partition']} has box {r['box']}")
                break
        return problems, {}

    return Workload(
        "realize",
        f"all {count} box partitions at n={dim} realized as roll words, developed and boxed",
        lambda seed: ["partitions", "--dim", str(dim), "--realize"],
        check,
        ("partitions.enumerate", "partitions.realize", "rolling.develop_path",
         "nets.partition"),
    )


WORKLOADS = {
    w.name: w
    for w in (
        trees(4, 261, "a94ce90f45a722064308f830d5d3904fc23b7dca54f629af811be8535ac8240a"),
        table(7),
        verify(12, 4000),
        realize(28, 3717),
    )
}

# Tiny sizes for selfcheck.py.
SMALL = (
    trees(3, 11, "841ecce96679eab5648f6532f463397539de28e8f7868165e8782096db65f76a"),
    table(4),
    verify(4, 50),
    realize(6, 10),
)


# ---------------------------------------------------------------------------
# per-layer metrics from a traced call's span summary

# metric -> (unit, span, summary field); "*_s" fields are self time.
_SPAN_METRICS = {
    "cli.self_s": ("s", ROOT_SPAN, "self_s"),
    "enumeration.raw_s": ("s", "enumeration.raw", "self_s"),
    "enumeration.raw_count": ("count", "enumeration.raw", "items"),
    "core.orbit_s": ("s", "core.orbit", "self_s"),
    "core.orbit_calls": ("count", "core.orbit", "calls"),
    "enumeration.dedup_s": ("s", "enumeration.dedup", "self_s"),
    "core.materialize_s": ("s", "core.materialize", "self_s"),
    "chords.enumerate_s": ("s", "chords.enumerate", "self_s"),
    "chords.enumerate_max_s": ("s", "chords.enumerate", "max_s"),
    "chords.enumerate_calls": ("count", "chords.enumerate", "calls"),
    "chords.classes": ("count", "chords.enumerate", "items"),
    "enumeration.walk_s": ("s", "enumeration.walk", "self_s"),
    "enumeration.walk_count": ("count", "enumeration.walk", "items"),
    "core.dedup_s": ("s", "core.dedup", "self_s"),
    "enumeration.classify_s": ("s", "enumeration.classify", "self_s"),
    "nets.partition_s": ("s", "nets.partition", "self_s"),
    "partitions.enumerate_s": ("s", "partitions.enumerate", "self_s"),
    "partitions.realize_s": ("s", "partitions.realize", "self_s"),
    "rolling.develop_path_s": ("s", "rolling.develop_path", "self_s"),
    "partitions.count": ("count", "partitions.enumerate", "items"),
}
for _span in ("enumeration.sample", "core.validate", "rolling.develop_tree", "nets.verify"):
    _SPAN_METRICS[f"{_span}_s"] = ("s", _span, "self_s")
    _SPAN_METRICS[f"{_span}_s.p50_us"] = ("us", _span, "p50_us")
    _SPAN_METRICS[f"{_span}_s.p99_us"] = ("us", _span, "p99_us")

# metric -> (unit, numerator span, denominator span): items out per item in.
_YIELDS = {
    "enumeration.dedup_yield": ("ratio", "enumeration.dedup", "enumeration.raw"),
    "core.dedup_yield": ("ratio", "core.dedup", "enumeration.walk"),
}

# Taken from the CLI's output document, not from spans.
_FACTS = {"verify.trees_checked": "count", "verify.failures": "count"}

# Computed by run.py from the traced and untraced calls of one run.
_RUN_LEVEL = {
    "trace.overhead_frac": "ratio",  # traced wall / untraced wall - 1
    "trace.accounted_frac": "ratio",  # sum of all self times / traced wall
}

PER_LAYER_UNITS = {
    **{k: v[0] for k, v in _SPAN_METRICS.items()},
    **{k: v[0] for k, v in _YIELDS.items()},
    **_FACTS,
    **_RUN_LEVEL,
}


def layer_metrics(spans: dict, installed: set[str], facts: dict) -> dict[str, float]:
    """Per-layer values of one traced call.  A span that is installed but
    never fired reads 0; a metric whose span could not be installed is left
    out (the call's notes say why)."""
    have = installed | {ROOT_SPAN}

    def field(span: str, key: str) -> float:
        return spans.get(span, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric, (_, span, key) in _SPAN_METRICS.items():
        if span in have:
            out[metric] = field(span, key)
    for metric, (_, num, den) in _YIELDS.items():
        if num in have and den in have:
            d = field(den, "items")
            out[metric] = field(num, "items") / d if d else 0.0
    for metric in _FACTS:
        out[metric] = facts.get(metric, 0)
    return out
