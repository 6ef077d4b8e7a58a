"""Command-line surface: unfold, enumerate, verify, partitions, chords, table.

Exit codes: 0 success, 1 a verification found a failure, 2 bad usage or
unparseable input.  All output is UTF-8; JSON is the interchange format and
stays stably ordered so fixed seeds give byte-identical runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chords import edge_orbit_count, enumerate_diagrams
from .core import FacetLabel, SpanningSubgraph, _check_dim, validate
from .enumeration import (
    CHORDS_LIST_LIMIT,
    CountMismatchError,
    ResourceLimitError,
    _chord_counts,
    build_table,
    classify_path,
    enumerate_cycles,
    enumerate_paths,
    enumerate_trees,
    verify_unfoldings,
)
from .nets import cube_partition_of, is_net, net_json, render_svg
from .partitions import enumerate_cube_partitions, realize_partition
from .rolling import RevisitError, develop_path, develop_tree


def _default_jobs() -> int:
    raw = os.environ.get("CUBENETS_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        print(
            f"ignoring CUBENETS_JOBS={raw!r}: not a positive integer; using 1 job",
            file=sys.stderr,
        )
        return 1
    return jobs


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _parse_rolls(raw: str) -> list[int]:
    moves = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            moves.append(int(tok))
        except ValueError:
            raise ValueError(f"bad roll token {tok!r}; expected like +2 or -1")
    return moves


def _format_development(dev, fmt: str, output) -> int:
    if fmt == "svg":
        _emit(render_svg(dev), output)
        return 0
    doc = net_json(dev)
    if fmt == "json":
        _emit(json.dumps(doc, indent=2), output)
        return 0
    lines = [f"dimension {doc['n']}, base {doc['base']}"]
    for facet in doc["facets"]:
        coord = ",".join(str(v) for v in facet["coord"])
        lines.append(f"  {facet['label']:>4} at ({coord})")
    if "partition" in doc:
        lines.append("partition " + str(tuple(doc["partition"])))
    if not doc.get("spanning", True):
        lines.append("partial development: not spanning")
    _emit("\n".join(lines), output)
    return 0


def _cmd_unfold(args) -> int:
    n = args.dim
    base = FacetLabel.parse(args.base)
    if base.axis > n:
        print(f"base {base} does not exist in dimension {n}", file=sys.stderr)
        return 2
    if (args.rolls is None) == (args.tree is None):
        print("need exactly one of --rolls or --tree", file=sys.stderr)
        return 2
    if args.format == "svg" and n != 3:
        print("svg output is only defined for --dim 3", file=sys.stderr)
        return 2
    try:
        if args.rolls is not None:
            dev = develop_path(n, base, _parse_rolls(args.rolls))
        else:
            tree = SpanningSubgraph.from_text(n, args.tree)
            problem = validate(tree)
            if problem is not None:
                print(f"not a spanning tree: {problem}", file=sys.stderr)
                return 2
            dev = develop_tree(tree, base)
    except RevisitError as exc:
        print(f"facet revisited: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if dev.is_spanning and not is_net(dev):
        print("development overlaps itself", file=sys.stderr)
        return 1
    return _format_development(dev, args.format, args.output)


_ENUMERATORS = {"trees": enumerate_trees, "paths": enumerate_paths, "cycles": enumerate_cycles}


def _chord_count(kind: str, n: int) -> int:
    cycles, paths, _ter, _ext = _chord_counts(n)
    return cycles if kind == "cycles" else paths


def _cmd_enumerate(args) -> int:
    n, kind = args.dim, args.kind
    if args.method != "direct" and kind == "trees":
        print("trees have no diagram route; use --method direct", file=sys.stderr)
        return 2
    try:
        if args.method == "chords":
            count = _chord_count(kind, n)
            if not args.count_only:
                print(
                    "diagram route only counts classes; listing needs "
                    "--method direct",
                    file=sys.stderr,
                )
                return 2
            _emit(json.dumps({"n": n, "kind": kind, "count": count}), args.output)
            return 0
        subs = _ENUMERATORS[kind](n, args.jobs)
        if args.method == "both":
            expected = _chord_count(kind, n)
            if len(subs) != expected:
                print(
                    f"method disagreement: direct {len(subs)} vs chords {expected}",
                    file=sys.stderr,
                )
                return 1
    except ResourceLimitError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.count_only:
        _emit(json.dumps({"n": n, "kind": kind, "count": len(subs)}), args.output)
        return 0
    doc = {"n": n, "kind": kind, "count": len(subs)}
    if kind == "paths":
        doc["classes"] = [
            {"edges": sub.to_json(), "ends": classify_path(sub)} for sub in subs
        ]
    else:
        doc["classes"] = [sub.to_json() for sub in subs]
    _emit(json.dumps(doc, indent=2), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.exhaustive and args.samples:
        print("choose --exhaustive or --samples, not both", file=sys.stderr)
        return 2
    if not args.exhaustive and not args.samples:
        print("need --exhaustive or --samples K", file=sys.stderr)
        return 2
    try:
        report = verify_unfoldings(
            args.dim,
            exhaustive=args.exhaustive,
            samples=args.samples or 0,
            seed=args.seed,
            jobs=args.jobs,
        )
    except ResourceLimitError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _emit(json.dumps(report.to_json(), indent=2), args.output)
    return 0 if report.ok else 1


def _cmd_partitions(args) -> int:
    rows = []
    for p in enumerate_cube_partitions(args.dim):
        row = {"partition": list(p.parts)}
        if args.realize:
            seq = realize_partition(p)
            dev = seq.develop()
            row["rolls"] = list(seq.moves)
            row["box"] = list(cube_partition_of(dev).parts)
        rows.append(row)
    _emit(json.dumps({"n": args.dim, "partitions": rows}, indent=2), args.output)
    return 0


def _cmd_chords(args) -> int:
    n = args.dim
    _check_dim(n)
    if n > CHORDS_LIST_LIMIT:
        print(
            f"diagram listings are budgeted up to --dim {CHORDS_LIST_LIMIT} "
            f"(CHORDS_LIST_LIMIT), got --dim {n}",
            file=sys.stderr,
        )
        return 2
    diagrams = enumerate_diagrams(2 * n, args.loops)
    doc = {"n": n, "loops": args.loops, "count": len(diagrams)}
    rows = []
    for d in diagrams:
        row = d.to_json()
        if args.ext_net_counts:
            row["net_classes"] = edge_orbit_count(d)
        rows.append(row)
    doc["diagrams"] = rows
    if args.ext_net_counts and args.loops == 0:
        doc["net_class_total"] = sum(r["net_classes"] for r in rows)
    _emit(json.dumps(doc, indent=2), args.output)
    return 0


def _cmd_table(args) -> int:
    try:
        table = build_table(args.max_dim, args.method, args.jobs)
    except ResourceLimitError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CountMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.format == "json":
        _emit(json.dumps(table.to_json(), indent=2), args.output)
        return 0
    names = ("n", "cycles", "paths", "ter", "ext")
    cells = [[str(getattr(r, name)) for name in names] for r in table.rows]
    widths = [
        max([3 if name == "n" else 8] + [len(row[k]) for row in cells])
        for k, name in enumerate(names)
    ]
    fmt = lambda row: " ".join(v.rjust(w) for v, w in zip(row, widths))
    header = fmt(names)
    lines = [header, "-" * len(header)] + [fmt(row) for row in cells]
    _emit("\n".join(lines), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubenets",
        description="Unfoldings of the n-cube: developments, nets, counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jobs_default = _default_jobs()

    p = sub.add_parser("unfold", help="develop a roll word or spanning tree")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rolls", help="comma-separated signed directions, e.g. +1,+2,-1")
    p.add_argument("--tree", help="comma-separated facet pairs, e.g. 1-2,1-2*,2-3")
    p.add_argument("--base", default="1", help="facet to start from (default 1)")
    p.add_argument("--format", choices=("json", "text", "svg"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("enumerate", help="list or count classes of subgraphs")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=("trees", "paths", "cycles"), required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--method", choices=("direct", "chords", "both"), default="direct")
    p.add_argument("--jobs", type=int, default=jobs_default)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="develop trees and look for overlaps")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=jobs_default)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("partitions", help="box partitions, optionally realized")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--realize", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("chords", help="diagram classes on the 2n-gon")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--loops", type=int, choices=(0, 1), default=0)
    p.add_argument("--ext-net-counts", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_chords)

    p = sub.add_parser("table", help="cycle/path class counts per dimension")
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--method", choices=("direct", "chords", "both"), default="chords")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--jobs", type=int, default=jobs_default)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
