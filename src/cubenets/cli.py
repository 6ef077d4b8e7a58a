"""Command-line surface: unfold, enumerate, verify, partitions, chords, table.

Each command computes through the library, lays out its result and
returns it with an exit code, or raises; `main` alone writes: the result,
a string as it is and any other value as indented JSON, written piece by
piece so a large document never exists as one string, or the error's
message as one stderr line.  Every listing (tree, path and cycle classes,
box partitions, realized or not, and chord diagrams) is a `_Rows`: the
shape of one row and integer arrays of the rows' values, written one row
per piece from one string table per block of rows, with no dict or Python
int per row.  Exit codes: 0 success, 1 a verification failure (among them
an internal check that fails, such as a realized box that is not its
partition or an unfolding that overlaps itself, reported as its
RuntimeError's message) or a method disagreement, 2 bad usage, bad input,
a request past a budget or an output file that cannot be written.  All
output is UTF-8; JSON is the interchange format and stays stably ordered
so fixed seeds give byte-identical runs.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .chords import edge_orbit_count, enumerate_diagrams
from .core import (
    FacetLabel,
    SpanningSubgraph,
    _check_dim,
    _label_table,
    _mask_ranks,
    roberts_edges,
)
from .enumeration import (
    METHODS,
    CountMismatchError,
    ResourceLimitError,
    _class_masks,
    _classify_path_mask,
    build_table,
    count_classes,
    verify_unfoldings,
)
from .nets import is_net, net_json, render_svg
from .partitions import enumerate_cube_partitions, realization_block
from .rolling import RevisitError, develop_path, develop_tree


def _positive_int(raw: str) -> int:
    """The argparse type of `--samples`: a positive integer."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{raw!r}: not a positive integer")
    return value


def _check_output(output: str) -> None:
    """Refuse an output path that opening would refuse (a missing directory,
    a file in a directory's place, a directory as the target) before any
    work is done, with the error that opening it would raise, and create
    nothing."""
    if os.path.isdir(output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), output)
    try:
        # the trailing separator makes a file in the directory's place fail
        os.stat(os.path.join(os.path.dirname(output) or ".", ""))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, output) from None


def _emit(out, output: str | None) -> None:
    """Write a text result as it is, or any other result as indented JSON
    piece by piece, and end it with one newline."""
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
        if isinstance(out, str):  # a short text
            fh.write(out if out.endswith("\n") else out + "\n")
        else:
            _write_json(out, fh.write)
            fh.write("\n")
        # the flush makes a closed stdout pipe raise here, inside `main`
        fh.flush()


@dataclass(frozen=True, eq=False)
class _Rows:
    """A list of rows held as arrays, laid out by `_write_rows` without
    building a row or a Python int.  Every row has the layout of `shape`, a
    JSON value whose leaves are None; row r's leaves, in document order,
    hold row r of the (B, m_k) integer `arrays` side by side.  A value v is
    written as `table[v]`, a JSON text, or without a table as `str(v)`; the
    layout then holds one string per value in a block's range, so the
    values must span a small range, as partitions, roll words, boxes and
    chord ends do."""

    shape: object
    arrays: tuple[np.ndarray, ...]
    table: tuple[str, ...] | None = None


# rows laid out per block: one block's strings are alive at a time
_ROW_BLOCK = 256


def _write_rows(rows: _Rows, write, pad: str, lead: str) -> None:
    """`_write_json` of `rows`, one row per piece.  A block's values are
    stacked into one array and turned into strings by indexing the table,
    or one of `str(v)` over the block's range of values; each row is one
    join of them, interleaved with the text that `_write_json` lays around
    the shape's leaves."""
    count = len(rows.arrays[0])
    if not count:
        write(lead + "[]")
        return
    inner = pad + "  "
    pieces = []
    _write_json(rows.shape, pieces.append, inner)
    # seps[k] comes before leaf k of a row, seps[-1] after its last.  Only
    # a None leaf's piece ends in "null" (a string's ends in a quote), and
    # escaped JSON holds no NUL to take for a cut
    text = "".join(p[:-4] + "\0" if p.endswith("null") else p for p in pieces)
    seps = text.split("\0")
    between = np.array(seps[1:], object)
    rest = "," + inner + seps[0]
    first = lead + "[" + inner + seps[0]
    table = None if rows.table is None else np.array(rows.table, object)
    for lo in range(0, count, _ROW_BLOCK):
        flat = np.hstack([a[lo : lo + _ROW_BLOCK] for a in rows.arrays], dtype=np.int64)
        if table is None:
            low = int(flat.min())
            strings = np.array([str(v) for v in range(low, int(flat.max()) + 1)], object)
            flat -= low
        else:
            strings = table
        out = np.empty((len(flat), 2 * len(seps) - 1), object)
        out[:, 0] = rest
        out[0, 0] = first
        out[:, 1::2] = strings[flat]
        out[:, 2::2] = between
        for row in out.tolist():
            write("".join(row))
        first = rest
    write(pad + "]")


def _write_json(doc, write, pad: str = "\n", lead: str = "") -> None:
    """Pass `lead` and then `json.dumps(doc, indent=2)`, byte for byte, to
    `write`, in pieces no larger than one scalar, one empty container or
    one row of a `_Rows`, with the separator before it, so the document
    never exists as one string.  Keys must be strings, as in every document
    this CLI writes; a `_Rows` is written as its list of rows."""
    if type(doc) is _Rows:
        _write_rows(doc, write, pad, lead)
        return
    if not doc or not isinstance(doc, (dict, list, tuple)):
        write(lead + json.dumps(doc))
        return
    inner = pad + "  "
    if isinstance(doc, dict):
        items = ((encode_basestring_ascii(k) + ": ", v) for k, v in doc.items())
        sep, closing = lead + "{" + inner, pad + "}"
    else:
        items = (("", v) for v in doc)
        sep, closing = lead + "[" + inner, pad + "]"
    for key, value in items:
        _write_json(value, write, inner, sep + key)
        sep = "," + inner
    write(closing)


def _parse_rolls(raw: str) -> list[int]:
    moves = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            moves.append(int(tok))
        except ValueError:
            raise ValueError(f"bad roll token {tok!r}; expected like +2 or -1")
    return moves


def _format_development(dev, fmt: str):
    if fmt == "svg":
        return render_svg(dev)
    doc = net_json(dev)
    if fmt == "json":
        return doc
    lines = [f"dimension {doc['n']}, base {doc['base']}"]
    for facet in doc["facets"]:
        coord = ",".join(str(v) for v in facet["coord"])
        lines.append(f"  {facet['label']:>4} at ({coord})")
    if "partition" in doc:
        lines.append("partition " + str(tuple(doc["partition"])))
    if not doc.get("spanning", True):
        lines.append("partial development: not spanning")
    return "\n".join(lines)


def _cmd_unfold(args):
    n = args.dim
    base = FacetLabel.parse(args.base)
    if base.axis > n:
        raise ValueError(f"base {base} does not exist in dimension {n}")
    if (args.rolls is None) == (args.tree is None):
        raise ValueError("need exactly one of --rolls or --tree")
    if args.format == "svg" and n != 3:
        raise ValueError("svg output is only defined for --dim 3")
    if args.rolls is not None:
        dev = develop_path(n, base, _parse_rolls(args.rolls))
    else:
        dev = develop_tree(SpanningSubgraph.from_text(n, args.tree), base)
    if dev.is_spanning and not is_net(dev):
        raise RuntimeError("development overlaps itself")
    return _format_development(dev, args.format), 0


def _cmd_enumerate(args):
    n, kind = args.dim, args.kind
    _check_dim(n)
    if args.method == "chords" and not args.count_only:
        raise ValueError(
            "diagram route only counts classes; listing needs --method direct"
        )
    # a listing past its budget is refused as a listing, not as a count
    masks = () if args.count_only else _class_masks(kind, n)
    doc = {"n": n, "kind": kind, "count": count_classes(kind, n, args.method)}
    if args.count_only:
        return json.dumps(doc), 0
    # each class is a row of label indices, read off its certified mask:
    # no per-class object, and the labels' JSON texts are its table
    table = (*_label_table(n), "ter", "ext")
    size = 2 * n - (kind != "cycles")
    ranks = np.array([_mask_ranks(m) for m in masks], np.intp).reshape(-1, size)
    columns = [np.array(roberts_edges(n))[ranks].reshape(-1, 2 * size)]
    shape = [[None, None]] * size
    if kind == "paths":
        shape = {"edges": shape, "ends": None}
        ends = [[table.index(_classify_path_mask(n, m))] for m in masks]
        columns.append(np.array(ends))
    doc["classes"] = _Rows(shape, tuple(columns), tuple(map(json.dumps, table)))
    return doc, 0


def _cmd_verify(args):
    report = verify_unfoldings(
        args.dim,
        exhaustive=args.exhaustive,
        samples=args.samples or 0,
        seed=args.seed,
    )
    return report.to_json(), (0 if report.ok else 1)


def _cmd_partitions(args):
    n = args.dim
    parts = enumerate_cube_partitions(n)
    arrays = (parts, *realization_block(parts)) if args.realize else (parts,)
    keys = ("partition", "rolls", "box")
    shape = {key: [None] * a.shape[1] for key, a in zip(keys, arrays)}
    return {"n": n, "partitions": _Rows(shape, arrays)}, 0


def _cmd_chords(args):
    n = args.dim
    _check_dim(n)
    diagrams = enumerate_diagrams(2 * n, args.loops)
    doc = {"n": n, "loops": args.loops, "count": len(diagrams)}
    # each diagram is a row [m, chord ends..., net classes]; its chords
    # are (i, mate[i]) over the vertices i below their mates, in order
    shape = {"m": None, "matching": [[None, None]] * n}
    mates = np.array([d.mate for d in diagrams], np.int64).reshape(-1, 2 * n)
    lows = np.nonzero(mates > np.arange(2 * n))[1].reshape(-1, n)
    ends = np.stack([lows, np.take_along_axis(mates, lows, 1)], 2)
    columns = [np.full((len(diagrams), 1), 2 * n), ends.reshape(-1, 2 * n)]
    if args.ext_net_counts:
        shape["net_classes"] = None
        counts = [edge_orbit_count(d) for d in diagrams]
        columns.append(np.array(counts, np.int64).reshape(-1, 1))
    doc["diagrams"] = _Rows(shape, tuple(columns))
    if args.ext_net_counts and args.loops == 0:
        doc["net_class_total"] = sum(counts)
    return doc, 0


def _cmd_table(args):
    table = build_table(args.max_dim, args.method)
    if args.format == "json":
        return table.to_json(), 0
    names = ("n", "cycles", "paths", "ter", "ext")
    cells = [[str(getattr(r, name)) for name in names] for r in table.rows]
    widths = [
        max([3 if name == "n" else 8] + [len(row[k]) for row in cells])
        for k, name in enumerate(names)
    ]
    fmt = lambda row: " ".join(v.rjust(w) for v, w in zip(row, widths))
    header = fmt(names)
    lines = [header, "-" * len(header)] + [fmt(row) for row in cells]
    return "\n".join(lines), 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubenets",
        description="Unfoldings of the n-cube: developments, nets, counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--method", choices=METHODS, default="direct")
    # every run is one process, and nothing reads --jobs: it stays, hidden
    # and accepting 1 alone, on enumerate, verify and table while the
    # benchmark's command lines pass `--jobs 1`, and goes with them
    # (ROADMAP, Fix first)
    p.add_argument("--jobs", choices=("1",), help=argparse.SUPPRESS)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="develop trees and look for overlaps")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", choices=("1",), help=argparse.SUPPRESS)  # as on enumerate
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
    p.add_argument("--method", choices=METHODS, default="chords")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--jobs", choices=("1",), help=argparse.SUPPRESS)  # as on enumerate
    p.add_argument("--output")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        out, code = args.func(args)
        try:
            _emit(out, args.output)
        except BrokenPipeError:
            # the reader closed stdout: end quietly with the command's code,
            # and let the flush at exit write to devnull instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except RevisitError as exc:  # first: it is also a ValueError
        print(f"facet revisited: {exc}", file=sys.stderr)
        return 1
    except CountMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an internal check that failed
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
