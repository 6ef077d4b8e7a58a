"""End-to-end command behaviors: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenets import cli, core, enumeration
from cubenets.chords import enumerate_diagrams
from cubenets.cli import main
from cubenets.core import FacetLabel, SpanningSubgraph
from cubenets.enumeration import classify_path, enumerate_classes
from cubenets.partitions import enumerate_cube_partitions, realization_block
from oracles import (
    cycle_from_diagram,
    diagram_from_cycle,
    diagram_from_path,
    loop_chords,
    path_from_diagram,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unfold_rolls_staircase(capsys):
    code, out, err = run(
        capsys, "unfold", "--dim", "3", "--rolls", "+1,+2,+1,+2,+1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["partition"] == [4, 3]
    assert doc["facets"][0] == {"label": "1", "coord": [0, 0]}
    assert "spanning" not in doc


def test_unfold_tree_cross_svg(capsys):
    code, out, err = run(
        capsys,
        "unfold", "--dim", "3", "--tree", "1-2,1-2*,1-3,1-3*,2-1*",
        "--format", "svg",
    )
    assert code == 0
    assert out.count("<rect") == 6
    assert "<svg" in out


def test_unfold_partial_flagged(capsys):
    code, out, err = run(capsys, "unfold", "--dim", "4", "--rolls", "+1,+1")
    assert code == 0
    doc = json.loads(out)
    assert doc["spanning"] is False
    assert len(doc["facets"]) == 3
    assert "partition" not in doc


def test_unfold_text_format(capsys):
    code, out, err = run(
        capsys, "unfold", "--dim", "3", "--rolls", "+1,+2,+1,+2,+1",
        "--format", "text",
    )
    assert code == 0
    assert "partition (4, 3)" in out
    assert "1* at" in out


def test_unfold_revisit_is_failure(capsys):
    code, out, err = run(capsys, "unfold", "--dim", "3", "--rolls", "+1,-1")
    assert code == 1
    assert "revisited" in err


def test_unfold_overlap_is_failure(monkeypatch, capsys):
    # a spanning development that is no net fails with one stderr line
    monkeypatch.setattr(cli, "is_net", lambda dev: False)
    assert run(capsys, "unfold", "--dim", "3", "--rolls", "+1,+2,+1,+2,+1") == (
        1, "", "development overlaps itself\n",
    )


def test_unfold_rolls_refusals_name_the_broken_step(capsys):
    revisit = ("--rolls", "+1,-2,+1,+3,+1,+4,-2,+1,-2,+1", "--base", "3*")
    assert run(capsys, "unfold", "--dim", "5", *revisit) == (
        1, "", "facet revisited: facet 1 revisited at step 9\n",
    )
    assert run(capsys, "unfold", "--dim", "5", "--rolls", "+1,-2,+1,+3,+5") == (
        2, "", "direction 5 out of range for dimension 5\n",
    )


UNFOLD_USAGE_ERRORS = {
    "--dim 3": "need exactly one of --rolls or --tree",
    "--dim 4 --rolls +1 --format svg": "svg output is only defined for --dim 3",
    "--dim 3 --rolls +9": "direction 9 out of range for dimension 3",
    "--dim 3 --rolls woof": "bad roll token 'woof'; expected like +2 or -1",
    "--dim 3 --tree 1-2,2-3":
        "not a spanning tree: wrong edge count: expected 5, got 2",
    "--dim 3 --tree 1-1*,2-3,1-2,2-2*,3-1*":
        "not a spanning tree: antipodal edge 1-1*",
    "--dim 3 --base 7 --rolls +1": "base 7 does not exist in dimension 3",
}


def test_unfold_usage_errors(capsys):
    for argv, message in UNFOLD_USAGE_ERRORS.items():
        assert run(capsys, "unfold", *argv.split()) == (2, "", message + "\n"), argv


def test_unfold_output_file(tmp_path, capsys):
    target = tmp_path / "net.json"
    code, out, err = run(
        capsys, "unfold", "--dim", "3", "--rolls", "+1,+2,+1,+2,+1",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["partition"] == [4, 3]


@pytest.mark.parametrize("fmt", ["json", "text", "svg"])
def test_output_file_holds_the_stdout_bytes(fmt, tmp_path, capsys):
    argv = ["unfold", "--dim", "3", "--tree", "1-2,1-2*,1-3,1-3*,2-1*", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.endswith("\n") and not out.endswith("\n\n")
    target = tmp_path / f"net.{fmt}"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_unwritable_output_exits_two(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the table was built before --output was checked")

    monkeypatch.setattr(cli, "build_table", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    # a missing parent, a file as the parent, a directory as the target
    for target in (tmp_path / "missing" / "table.txt", blocker / "table.txt", tmp_path):
        with pytest.raises(OSError) as refused:
            open(target, "w")
        code, out, err = run(capsys, "table", "--max-dim", "3", "--output", str(target))
        assert (code, out, err) == (2, "", f"{refused.value}\n")
        assert list(tmp_path.iterdir()) == [blocker]


def test_enumerate_trees_count(capsys):
    code, out, err = run(
        capsys, "enumerate", "--dim", "3", "--kind", "trees", "--count-only"
    )
    assert code == 0
    assert json.loads(out) == {"n": 3, "kind": "trees", "count": 11}


def test_enumerate_paths_listing(capsys):
    code, out, err = run(capsys, "enumerate", "--dim", "3", "--kind", "paths")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    kinds = [row["ends"] for row in doc["classes"]]
    assert kinds.count("ter") == 1 and kinds.count("ext") == 3


def test_enumerate_chords_method(capsys):
    code, out, err = run(
        capsys, "enumerate", "--dim", "6", "--kind", "cycles",
        "--method", "chords", "--count-only",
    )
    assert code == 0
    assert json.loads(out)["count"] == 196
    # trees have no diagram route
    assert run(
        capsys, "enumerate", "--dim", "3", "--kind", "trees",
        "--method", "chords", "--count-only",
    )[0] == 2


def test_enumerate_chords_listing_refused_before_counting(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("classes were counted before the listing was refused")

    monkeypatch.setattr(cli, "count_classes", never)
    # the diagram route cannot list classes, whatever the kind or dimension
    for kind, dim in (("cycles", "4"), ("paths", "20"), ("trees", "3")):
        code, out, err = run(
            capsys, "enumerate", "--dim", dim, "--kind", kind, "--method", "chords"
        )
        assert (code, out) == (2, "")
        assert err == "diagram route only counts classes; listing needs --method direct\n"


def test_enumerate_both_methods_agree(capsys):
    code, out, err = run(
        capsys, "enumerate", "--dim", "4", "--kind", "paths",
        "--method", "both", "--count-only",
    )
    assert code == 0
    assert json.loads(out)["count"] == 24


def _direct_line(kind, limit, n, what="listings"):
    return (
        f"direct {kind} {what} are budgeted up to n={limit} (DIRECT_LIMITS), "
        f"got n={n}"
    )


_CHORD_COUNT_LINE = (
    "chord counts are budgeted up to n=20 (CHORDS_COUNT_LIMIT), got n=21"
)

# every budget a command can hit, with the one stderr line it exits 2 on
BUDGET_EXITS = {
    "enumerate --dim 6 --kind trees": _direct_line("trees", 5, 6),
    "enumerate --dim 7 --kind trees --count-only": _direct_line("trees", 5, 7, "counts"),
    "enumerate --dim 6 --kind paths": _direct_line("paths", 5, 6),
    "enumerate --dim 6 --kind paths --count-only": _direct_line("paths", 5, 6, "counts"),
    "enumerate --dim 7 --kind cycles --count-only": _direct_line("cycles", 6, 7, "counts"),
    "enumerate --dim 21 --kind paths --method chords --count-only": _CHORD_COUNT_LINE,
    "table --max-dim 6 --method direct": _direct_line("paths", 5, 6, "counts"),
    "table --max-dim 21": _CHORD_COUNT_LINE,
    "verify --dim 6 --exhaustive": _direct_line("trees", 5, 6),
    "chords --dim 9": (
        "diagram listings are budgeted up to n=8 (CHORDS_LIST_LIMIT), got n=9"
    ),
    "partitions --dim 37": (
        "partition listings are budgeted up to n=36 (PARTITIONS_LIMIT), got n=37"
    ),
}


@pytest.mark.parametrize(
    "argv", sorted(BUDGET_EXITS), ids=lambda a: a.replace("--", "").replace(" ", "-")
)
def test_budget_exits_two_naming_its_limit(argv, capsys):
    assert run(capsys, *argv.split()) == (2, "", BUDGET_EXITS[argv] + "\n")


def test_enumerate_chords_count_budget(capsys):
    code, out, err = run(
        capsys, "enumerate", "--dim", "20", "--kind", "paths",
        "--method", "chords", "--count-only",
    )
    assert code == 0
    assert len(str(json.loads(out)["count"])) == 23
    code, out, err = run(
        capsys, "enumerate", "--dim", "21", "--kind", "paths",
        "--method", "chords", "--count-only",
    )
    assert code == 2
    assert "CHORDS_COUNT_LIMIT" in err and "n=20" in err
    # below n=2 every route refuses, listing or counting
    routes = [("trees", "direct")] + [
        (kind, method)
        for kind in ("paths", "cycles")
        for method in ("direct", "chords", "both")
    ]
    for n in ("0", "1"):
        for kind, method in routes:
            for count_only in ((), ("--count-only",)):
                argv = ("enumerate", "--dim", n, "--kind", kind, "--method", method)
                assert run(capsys, *argv, *count_only) == (
                    2, "", f"dimension must be at least 2, got {n}\n"
                ), argv + count_only


def test_enumerate_method_disagreement_exits_one(capsys, monkeypatch):
    real = enumeration._chord_count

    def off_by_one(kind, n):
        return real(kind, n) + (kind == "paths")

    monkeypatch.setattr(enumeration, "_chord_count", off_by_one)
    code, out, err = run(
        capsys, "enumerate", "--dim", "3", "--kind", "paths",
        "--method", "both", "--count-only",
    )
    assert code == 1
    assert out == ""
    assert err == "method disagreement at n=3 on paths: direct 4 vs chords 5\n"


def test_verify_exhaustive(capsys):
    code, out, err = run(capsys, "verify", "--dim", "3", "--exhaustive")
    assert code == 0
    doc = json.loads(out)
    assert doc["trees_checked"] == 11
    assert doc["failures"] == []
    assert set(doc["partitions"]) == {"(5, 2)", "(4, 3)"}


def test_verify_samples_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "verify", "--dim", "6", "--samples", "40", "--seed", "2"
    )
    code2, out2, _ = run(
        capsys, "verify", "--dim", "6", "--samples", "40", "--seed", "2"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["trees_checked"] == 40


def test_verify_names_drawn_seed(capsys):
    runs = [run(capsys, "verify", "--dim", "5", "--samples", "20") for _ in range(2)]
    seeds = [json.loads(out)["seed"] for _code, out, _err in runs]
    assert all(isinstance(seed, int) for seed in seeds)
    assert seeds[0] != seeds[1]
    for (code, out, _err), seed in zip(runs, seeds):
        replay = run(
            capsys, "verify", "--dim", "5", "--samples", "20", "--seed", str(seed)
        )
        assert replay == (code, out, "")


def test_verify_exhaustive_has_no_seed(capsys):
    code, out, _err = run(capsys, "verify", "--dim", "2", "--exhaustive")
    assert code == 0
    assert "seed" not in json.loads(out)


def test_verify_exhaustive_refuses_a_seed(capsys):
    code, out, err = run(capsys, "verify", "--dim", "4", "--exhaustive", "--seed", "3")
    assert (code, out) == (2, "")
    assert err == "a seed only applies to samples, not to exhaustive mode\n"


def test_verify_exhaustive_budget_is_the_library_constant(capsys, monkeypatch):
    limit = enumeration.DIRECT_LIMITS["trees"]
    code, out, err = run(capsys, "verify", "--dim", str(limit + 1), "--exhaustive")
    assert code == 2 and out == ""
    assert "DIRECT_LIMITS" in err and f"n={limit}" in err
    monkeypatch.setitem(enumeration.DIRECT_LIMITS, "trees", 2)
    code, _out, err = run(capsys, "verify", "--dim", "3", "--exhaustive")
    assert code == 2
    assert "DIRECT_LIMITS" in err and "n=2" in err


def test_verify_usage(capsys):
    for flags in ([], ["--exhaustive", "--samples", "5"]):
        assert run(capsys, "verify", "--dim", "3", *flags) == (
            2, "", "need exactly one of exhaustive or samples > 0\n"
        )
    assert run(capsys, "verify", "--dim", "6", "--exhaustive") == (
        2, "", "direct trees listings are budgeted up to n=5 (DIRECT_LIMITS), got n=6\n"
    )
    for n in ("0", "1"):
        code, out, err = run(capsys, "verify", "--dim", n, "--samples", "5")
        assert (code, out) == (2, "")
        assert "dimension must be at least 2" in err


def test_partitions_listing(capsys):
    code, out, err = run(capsys, "partitions", "--dim", "4")
    assert code == 0
    doc = json.loads(out)
    assert [row["partition"] for row in doc["partitions"]] == [
        [6, 2, 2], [5, 3, 2], [4, 4, 2], [4, 3, 3],
    ]


def test_partitions_realized(capsys):
    code, out, err = run(capsys, "partitions", "--dim", "3", "--realize")
    assert code == 0
    doc = json.loads(out)
    for row in doc["partitions"]:
        assert row["box"] == row["partition"]
        assert all(d > 0 for d in row["rolls"])
    assert doc["partitions"][1] == {
        "partition": [4, 3], "rolls": [1, 2, 1, 1, 2], "box": [4, 3],
    }


def test_chords_listing(capsys):
    code, out, err = run(capsys, "chords", "--dim", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 7
    assert all(len(row["matching"]) == 4 for row in doc["diagrams"])


def test_chords_listing_budget(capsys):
    code, out, err = run(capsys, "chords", "--dim", "9")
    assert code == 2
    assert "CHORDS_LIST_LIMIT" in err and "n=8" in err
    for argv in (("--dim", "-1"), ("--dim", "0", "--loops", "1")):
        code, out, err = run(capsys, "chords", *argv)
        assert (code, out) == (2, "")
        assert "dimension must be at least 2" in err


def test_chords_net_counts(capsys):
    code, out, err = run(capsys, "chords", "--dim", "4", "--ext-net-counts")
    assert code == 0
    doc = json.loads(out)
    assert doc["net_class_total"] == 20
    assert sorted(r["net_classes"] for r in doc["diagrams"]) == [1, 2, 2, 3, 3, 4, 5]


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--max-dim", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "cycles", "paths", "ter", "ext"]
    assert lines[-1].split() == ["4", "7", "24", "4", "20"]


def test_table_json_full_range(capsys):
    code, out, err = run(
        capsys, "table", "--max-dim", "7", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["cycles"] for r in rows] == [1, 2, 7, 29, 196, 1788]
    assert [r["paths"] for r in rows] == [1, 4, 24, 184, 1911, 24252]


def test_table_text_full_range_unchanged(capsys):
    code, out, err = run(capsys, "table", "--max-dim", "7")
    assert code == 0
    assert out == (
        "  n   cycles    paths      ter      ext\n"
        "---------------------------------------\n"
        "  2        1        1        0        1\n"
        "  3        2        4        1        3\n"
        "  4        7       24        4       20\n"
        "  5       29      184       24      160\n"
        "  6      196     1911      184     1727\n"
        "  7     1788    24252     1911    22341\n"
    )


def test_table_to_twenty_widens_columns(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "table", "--max-dim", "20")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    lines = out.splitlines()
    assert len({len(line) for line in lines}) == 1  # columns line up
    assert lines[0].split() == ["n", "cycles", "paths", "ter", "ext"]
    last = lines[-1].split()
    assert last[0] == "20" and len(last[2]) == 23
    code, out, err = run(capsys, "table", "--max-dim", "20", "--format", "json")
    rows = json.loads(out)["rows"]
    for prev, row in zip(rows, rows[1:]):
        assert row["ter"] == prev["paths"]


def test_table_method_disagreement_exits_one(capsys, monkeypatch):
    real = enumeration._direct_count

    def off_by_one(kind, n):
        return real(kind, n) + (kind == "cycles" and n == 3)

    monkeypatch.setattr(enumeration, "_direct_count", off_by_one)
    code, out, err = run(capsys, "table", "--max-dim", "4", "--method", "both")
    assert code == 1
    assert out == ""
    assert "method disagreement at n=3" in err


def test_table_ter_check_exits_one(capsys, monkeypatch):
    counts = {"cycles": 1, "paths": 5, "ter": 0}
    monkeypatch.setattr(enumeration, "_direct_count", lambda kind, n: counts[kind])
    code, out, err = run(capsys, "table", "--max-dim", "3", "--method", "direct")
    assert code == 1
    assert "ter(3) = 0" in err


# every run is one process: the hidden --jobs takes 1 alone
JOBS_ARGV = {
    "enumerate": ("enumerate", "--dim", "3", "--kind", "trees", "--count-only"),
    "verify": ("verify", "--dim", "3", "--samples", "5", "--seed", "2"),
    "table": ("table", "--max-dim", "3"),
}
REFUSALS = [
    *((name, (*argv, "--jobs"), value) for name, argv in JOBS_ARGV.items()
      for value in ("0", "-1", "-3", "2")),
    *(("verify-samples", ("verify", "--dim", "3", "--samples"), value)
      for value in ("0", "-1", "-3")),
]


@pytest.mark.parametrize(
    "argv,value",
    [(argv, value) for _, argv, value in REFUSALS],
    ids=[f"{name}-{value}" for name, _, value in REFUSALS],
)
def test_jobs_below_one_exits_two(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    if argv[-1] == "--jobs":
        assert f"argument --jobs: invalid choice: {value!r}" in err
    else:
        assert f"argument {argv[-1]}: {value!r}: not a positive integer" in err


@pytest.mark.parametrize("name", sorted(JOBS_ARGV))
def test_jobs_one_changes_nothing(name, capsys):
    argv = JOBS_ARGV[name]
    assert run(capsys, *argv, "--jobs", "1") == run(capsys, *argv)


@pytest.mark.parametrize(
    "argv,keep",
    [
        (("partitions", "--dim", "20", "--realize"), 100),  # 0.6 MB, past a pipe's buffer
        (("unfold", "--dim", "3", "--rolls", "+1,+2"), 0),  # closed before the first write
    ],
    ids=["mid-document", "before-writing"],
)
def test_a_closed_stdout_pipe_ends_quietly_with_the_commands_code(argv, keep):
    # as in `cubenets ... | head -c 100`: no broken-pipe message, and the
    # command's exit code, not the bad-usage 2
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubenets.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert len(proc.stdout.read(keep)) == keep
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["unfold"])  # missing --dim
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["trees", "paths", "cycles"])
def test_enumerate_lists_what_the_object_route_lists(kind, n, capsys):
    # the listing is read off the class masks; the public subgraphs, their
    # to_json and classify_path must give the same document
    subs = enumerate_classes(kind, n)
    if kind == "paths":
        classes = [{"edges": sub.to_json(), "ends": classify_path(sub)} for sub in subs]
    else:
        classes = [sub.to_json() for sub in subs]
    doc = {"n": n, "kind": kind, "count": len(subs), "classes": classes}
    out = _cli_stdout(capsys, "enumerate", "--dim", str(n), "--kind", kind)
    assert out == json.dumps(doc, indent=2) + "\n"


def test_a_tree_listing_builds_no_subgraph_and_labels_each_facet_once(
    monkeypatch, capsys
):
    built, labelled = [], []
    post_init, from_index = SpanningSubgraph.__post_init__, FacetLabel.from_index

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_from_index(i, n):
        labelled.append(i)
        return from_index(i, n)

    monkeypatch.setattr(SpanningSubgraph, "__post_init__", counted_post_init)
    monkeypatch.setattr(FacetLabel, "from_index", staticmethod(counted_from_index))
    enumeration._listing.cache_clear()
    core._label_table.cache_clear()
    out = _cli_stdout(capsys, "enumerate", "--dim", "4", "--kind", "trees")
    assert json.loads(out)["count"] == 261
    assert built == []
    assert len(labelled) <= 2 * 4


# ---------------------------------------------------------------------------
# golden outputs of the direct route and the diagram converters


def _cli_stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


# the README's command-line examples, run as documented
README_EXAMPLES = {
    "readme-unfold-rolls-text": (
        "unfold", "--dim", "3", "--rolls", "+1,+2,+1,+2,+1", "--format", "text",
    ),
    "readme-unfold-tree-json": ("unfold", "--dim", "3", "--tree", "1-2,1-2*,1-3,1-3*,2-1*"),
    "readme-unfold-tree-svg": (
        "unfold", "--dim", "3", "--tree", "1-2,1-2*,1-3,1-3*,2-1*", "--format", "svg",
    ),
    "readme-verify-exhaustive": ("verify", "--dim", "3", "--exhaustive"),
    "readme-partitions-realize": ("partitions", "--dim", "4", "--realize"),
    "readme-chords-net-counts": ("chords", "--dim", "4", "--ext-net-counts"),
    "readme-table": ("table", "--max-dim", "7"),
}

# sampled verification, and at the dimension the benchmark samples
GOLDEN_ARGV = {
    **README_EXAMPLES,
    "verify-samples": ("verify", "--dim", "8", "--samples", "300", "--seed", "1"),
    "verify-samples-dim12": ("verify", "--dim", "12", "--samples", "500", "--seed", "7"),
    "chords7": ("chords", "--dim", "7"),
    "chords7-loops1": ("chords", "--dim", "7", "--loops", "1"),
    "chords7-net-counts": ("chords", "--dim", "7", "--ext-net-counts"),
}


def _golden_text(name, capsys):
    if name in GOLDEN_ARGV:
        return _cli_stdout(capsys, *GOLDEN_ARGV[name])
    if name.startswith(("trees", "paths", "cycles")):
        kind, n = name[:-1], name[-1]
        return _cli_stdout(capsys, "enumerate", "--dim", n, "--kind", kind)
    if name == "table-both":
        return _cli_stdout(
            capsys, "table", "--max-dim", "7", "--method", "both", "--format", "json"
        )
    if name == "diagram-from-path":
        return repr([diagram_from_path(p)[0].mate for p in enumerate_classes("paths", 5)])
    if name == "diagram-from-cycle":
        return repr([diagram_from_cycle(c).mate for c in enumerate_classes("cycles", 5)])
    if name.startswith("diagrams16-loops"):
        return repr([d.mate for d in enumerate_diagrams(16, int(name[-1]))])
    # name == "from-diagram": every dim-5 listing, opened at every allowed edge
    loopless = enumerate_diagrams(10, 0)
    edges = [cycle_from_diagram(d, 5).edges for d in loopless]
    for d in loopless:
        edges += [path_from_diagram(d, e, 5).edges for e in range(10)]
    for d in enumerate_diagrams(10, 1):
        (i, j), = loop_chords(d)
        edges.append(path_from_diagram(d, 9 if (i, j) == (0, 9) else i, 5).edges)
    return repr(edges)


# sha256 of each output; the direct-route and converter entries were captured
# before paths were walked from the fixed edge, the README entries before the
# package's public surface was cut down to the names the README uses, and the
# tree listing before the tree walker moved to an explicit stack, and the
# sampled verifications before one-job runs went through the shard merge, and
# the diagram listings before they dropped the packed bulk expansion, and the
# n=12 sampled verification before the sampler drew from getrandbits directly;
# the SVG entry was taken again when stdout stopped adding a blank line after
# the closing tag, so it now matches the bytes `--output` writes
GOLDEN = {
    "trees4": "a94ce90f45a722064308f830d5d3904fc23b7dca54f629af811be8535ac8240a",
    "paths2": "e11e6846daf7e3d731f8816e54c75e57bdf7569d1087ec9f5edbcdd6e182d104",
    "paths3": "8ab9c8c3e744efa9210327d477742be921db368bf79d17b629b0721fa571bbbd",
    "paths4": "ca477b028c4e72d41d7d776e15cff05c75a7256ec799cd1ce7507ac4c973be24",
    "paths5": "f36d83ed8841f4d74da372dc3a443d1d86374dcb86a10927dfb7b76eafda32a0",
    "cycles2": "69d4b417449669559f7c30f34bc9edf686aec5d7208da755664c2eb96c7f8f65",
    "cycles3": "058dc2efa62a788c7645f798d36c6172a02b56a6e0c9d8cf38a2cc3843911ac5",
    "cycles4": "8407d0c7bce4e2c31fac7fb5d7d62cd51f50134f611ce43090ff136fe23b8012",
    "cycles5": "832d6c0239557216308d36d512219bb5643dd4b82a2dc6c36a6aa1eadc77f4e8",
    "table-both": "834afa37e9b5be760a6ae849f67d1ce1be869e98009a2246988dd5d4a3845093",
    "diagram-from-path": "ee41448177d95491297464f95175a2481c2cba8d38e47d00e2629feed186daa9",
    "diagram-from-cycle": "51f26166d83fa21d9e597855e7309b6e8de529c89a8c19603d81417f03c6da0e",
    "from-diagram": "6fea9b4cea4e57368885b2f0ff7897562d498a17085ebc7df570085d2af3fdaf",
    "readme-unfold-rolls-text": "c91413c9cabeb79986972c5d233a742656f30ef5dd929866bb31e9586c3e559b",
    "readme-unfold-tree-json": "8232a038ae4c8fcb0b90f46c1be002cd1a349108162080b93a7cab1aa7b2ddbc",
    "readme-unfold-tree-svg": "16c76f2c6d6f988c64ac4fd6dfc482a1e96bdc4266e2631781df1b169e53e193",
    "readme-verify-exhaustive": "5bd6c88bc4e21f4542e9a6561b2b328723411eecdf17ddeda2a5e92cf067536d",
    "readme-partitions-realize": "88b5b2cec169c5263fafc626f74e13a561c6afac044c27eedfca1448c7cdd536",
    "readme-chords-net-counts": "8a581d201b14b80c18ef7e7ebbef118681768b47848c1add1b84c5451f7e1046",
    "readme-table": "1c055402c9fb33b3b6fd9000a2c1863f5e9849bc3bbc045150567e03cb7c2bd9",
    "verify-samples": "8005e7dec6b83ed792ca1c1c7a7396acd2d1141240263f50d59a39ee0da78f77",
    "verify-samples-dim12": "6e197c2cf29272d627a5ccacf9ced42c50059c9349fa5bce1edb4424a798ec82",
    "diagrams16-loops0": "75e3bafa43fa2c74aa7dc6ae42c3dd881bb1fed8ec646e76a268363d95579294",
    "diagrams16-loops1": "a7b10e60fa1cb5c0841aca686fe74609cd36b27c112328adfd74d5261953c9ea",
    "chords7": "3b52f8353a74f821fd567b650c79e02dbd8afcc0091300412489f99c2bb4e560",
    "chords7-loops1": "401b3a27b8f2263b5cd11efdd68df2f59fc5fc105493c3bb0fb79361fe530968",
    "chords7-net-counts": "46be8885f145e5b9918b1343d4c94542e0074eabb5afb4d23efb93b6d3d76c93",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_direct_route_golden(name, capsys):
    text = _golden_text(name, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner)
        | st.lists(st.integers(), min_size=1)
        | st.lists(st.integers() | st.booleans(), min_size=1)
        | st.lists(st.text(), min_size=1)
        | st.lists(st.lists(st.text(), min_size=1), min_size=1)
        | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner)
        | st.dictionaries(st.text(), st.lists(st.integers(), min_size=1))
    ),
    max_leaves=30,
)


def _written(doc):
    pieces = []
    cli._write_json(doc, pieces.append)
    return "".join(pieces)


@given(json_documents)
def test_indented_json_matches_json_dumps(doc):
    assert _written(doc) == json.dumps(doc, indent=2)


def test_indented_json_cases():
    row = {"partition": [4, 3], "rolls": [1, -2, 1], "box": [4, 3]}
    for doc in (
        {}, [], (), {"a": []}, [{}], [True, 1, None], "ö\n", {"é": [1, -2]},
        {"a": [1], "b": [True]},  # `%s` would write the bool as True
        {"a": [1], "b": []},
        [1, True],
        [2**70, -3],
        {"a": [1.0]},
        {"a": (1, 2), "b": [3]},
        {"%d": [1], "%%": [2, 3]},  # keys are not format directives
        ["a", "b"], ["a", 1], ("é", "%s"),
        [row, {**row, "rolls": [2, -1, 2]}],  # two rows of one shape
        [row, [row, [[4, 3]]], [4, 3]],  # one shape at two depths
        [["1", "2"], ["1", "2*"]],  # a listed class
        (("1", "2"), ["1", "2*"]),  # its edges as the listing holds them
        [["a"], []],  # an empty inner list is not one class
        [["a"], [1]], [["a", True]],  # nor are mixed types
        [["é", "%s"]],
        [[["1", "2"]], {"edges": [["1", "2"]]}],  # one class shape at two depths
    ):
        assert _written(doc) == json.dumps(doc, indent=2)


class _Pieces(list):
    """A stdout that keeps each piece written to it."""

    def write(self, piece):
        self.append(piece)

    def flush(self):
        pass


def test_a_large_document_is_written_in_short_pieces(monkeypatch):
    # the 0.6 MB realize document and the 0.16 MB plain listing reach stdout
    # a row at a time, never as one string; the realize workload's peak
    # memory rests on this
    for flags, size in ((["--realize"], 500_000), ([], 150_000)):
        pieces = _Pieces()
        monkeypatch.setattr(sys, "stdout", pieces)
        assert main(["partitions", "--dim", "20", *flags]) == 0
        text = "".join(pieces)
        assert len(text) > size
        assert max(map(len, pieces)) <= 4096
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _row_dicts(rows):
    """The list of dicts a `cli._Rows` stands for, built through `tolist()`."""
    columns = [a.tolist() for a in rows.arrays]
    return [dict(zip(rows.keys, values)) for values in zip(*columns)]


@st.composite
def row_blocks(draw):
    """A `cli._Rows` of 1-4 keys (non-ASCII ones and ones holding `%`
    among them) over int arrays of 1..300 rows and 1..60 columns, each
    array constant or spread over up to 10**4 values, negative ones too."""
    keys = draw(
        st.lists(
            st.text(max_size=4) | st.sampled_from(["%s", "%%d", "é", "ключ", "\u2028"]),
            min_size=1, max_size=4, unique=True,
        )
    )
    count = draw(st.integers(1, 300))
    arrays = []
    for _ in keys:
        width = draw(st.integers(1, 60))
        low = draw(st.integers(-(10**4), 10**4))
        span = draw(st.sampled_from([0, 1, 40, 10**4]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arrays.append(rng.integers(low, low + span, (count, width), endpoint=True))
    return cli._Rows(tuple(keys), tuple(arrays))


def _block_edges():
    """Row counts on and just past the layout's block boundaries, and the
    (1, 1) array of a plain listing at n=2."""
    block = cli._ROW_BLOCK
    ramp = lambda count, width: np.arange(count * width).reshape(count, width) - 7
    return [
        cli._Rows(("partition",), (np.array([[2]]),)),
        cli._Rows(("a", "%s"), (ramp(block, 3), ramp(block, 1))),
        cli._Rows(("a", "%s"), (ramp(block + 1, 3), ramp(block + 1, 1))),
        cli._Rows(("é",), (np.full((2 * block + 5, 4), -3),)),
    ]


@settings(max_examples=50, deadline=None)
@given(row_blocks(), st.sampled_from(["bare", "in a dict", "in a list"]))
def test_rows_are_written_as_their_list_of_dicts(rows, where):
    doc, equivalent = {
        "bare": (rows, _row_dicts(rows)),
        "in a dict": ({"n": 1, "partitions": rows}, {"n": 1, "partitions": _row_dicts(rows)}),
        "in a list": ([rows, 0], [_row_dicts(rows), 0]),
    }[where]
    assert _written(doc) == json.dumps(equivalent, indent=2)


@pytest.mark.parametrize("rows", _block_edges(), ids=["1x1", "one-block", "past-a-block", "constant"])
def test_rows_across_block_edges(rows):
    assert _written({"n": 2, "partitions": rows}) == json.dumps(
        {"n": 2, "partitions": _row_dicts(rows)}, indent=2
    )


def test_no_rows_are_an_empty_list():
    rows = cli._Rows(("partition",), (np.zeros((0, 3), int),))
    assert _written({"partitions": rows}) == json.dumps({"partitions": []}, indent=2)


@pytest.mark.parametrize("realize", [True, False], ids=["realize", "plain"])
def test_partition_documents_equal_their_dict_layout(capsys, realize):
    # the rows the command once built from `realization_block`'s arrays
    # through `tolist()`, laid out by json.dumps
    parts = enumerate_cube_partitions(20)
    if realize:
        words, boxes = realization_block(parts)
        rows = [
            {"partition": p, "rolls": word, "box": box}
            for p, word, box in zip(parts.tolist(), words.tolist(), boxes.tolist())
        ]
    else:
        rows = [{"partition": p} for p in parts.tolist()]
    code, out, err = run(capsys, "partitions", "--dim", "20", *["--realize"] * realize)
    assert (code, err) == (0, "")
    assert out == json.dumps({"n": 20, "partitions": rows}, indent=2) + "\n"
