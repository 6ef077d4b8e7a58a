"""End-to-end command behaviors: output shapes, exit codes, determinism."""

import hashlib
import json
import time

import pytest

from cubenets import cli, enumeration
from cubenets.chords import (
    cycle_from_diagram,
    diagram_from_cycle,
    diagram_from_path,
    enumerate_diagrams,
    path_from_diagram,
)
from cubenets.cli import main
from cubenets.enumeration import enumerate_cycles, enumerate_paths


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


def test_unfold_usage_errors(capsys):
    assert run(capsys, "unfold", "--dim", "3")[0] == 2
    assert run(
        capsys, "unfold", "--dim", "4", "--rolls", "+1", "--format", "svg"
    )[0] == 2
    assert run(capsys, "unfold", "--dim", "3", "--rolls", "+9")[0] == 2
    assert run(capsys, "unfold", "--dim", "3", "--rolls", "woof")[0] == 2
    assert run(capsys, "unfold", "--dim", "3", "--tree", "1-2,2-3")[0] == 2
    assert run(capsys, "unfold", "--dim", "3", "--tree", "1-1*,2-3,1-2,2-2*,3-1*")[0] == 2
    assert run(capsys, "unfold", "--dim", "3", "--base", "7", "--rolls", "+1")[0] == 2


def test_unfold_output_file(tmp_path, capsys):
    target = tmp_path / "net.json"
    code, out, err = run(
        capsys, "unfold", "--dim", "3", "--rolls", "+1,+2,+1,+2,+1",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["partition"] == [4, 3]


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
    # diagram route cannot list classes
    assert run(
        capsys, "enumerate", "--dim", "4", "--kind", "cycles", "--method", "chords"
    )[0] == 2


def test_enumerate_both_methods_agree(capsys):
    code, out, err = run(
        capsys, "enumerate", "--dim", "4", "--kind", "paths",
        "--method", "both", "--count-only",
    )
    assert code == 0
    assert json.loads(out)["count"] == 24


def test_enumerate_budget(capsys):
    code, out, err = run(
        capsys, "enumerate", "--dim", "7", "--kind", "trees", "--count-only"
    )
    assert code == 2
    assert "budget" in err


def test_enumerate_cycles_budget(capsys):
    code, out, err = run(
        capsys, "enumerate", "--dim", "7", "--kind", "cycles", "--count-only"
    )
    assert code == 2
    assert "budgeted up to n=6" in err


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
    for n in ("0", "1"):
        code, out, err = run(
            capsys, "enumerate", "--dim", n, "--kind", "paths",
            "--method", "chords", "--count-only",
        )
        assert (code, out) == (2, "")
        assert "dimension must be at least 2" in err


def test_enumerate_method_disagreement_exits_one(capsys, monkeypatch):
    real = enumeration._chord_counts

    def off_by_one(n):
        cycles, paths, ter, ext = real(n)
        return cycles, paths + 1, ter, ext + 1

    monkeypatch.setattr(cli, "_chord_counts", off_by_one)
    code, out, err = run(
        capsys, "enumerate", "--dim", "3", "--kind", "paths",
        "--method", "both", "--count-only",
    )
    assert code == 1
    assert out == ""
    assert "method disagreement: direct 4 vs chords 5" in err


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


def test_verify_exhaustive_budget_is_the_library_constant(capsys, monkeypatch):
    limit = enumeration.EXHAUSTIVE_VERIFY_LIMIT
    code, out, err = run(capsys, "verify", "--dim", str(limit + 1), "--exhaustive")
    assert code == 2 and out == ""
    assert "EXHAUSTIVE_VERIFY_LIMIT" in err and f"n={limit}" in err
    monkeypatch.setattr(enumeration, "EXHAUSTIVE_VERIFY_LIMIT", 2)
    code, _out, err = run(capsys, "verify", "--dim", "3", "--exhaustive")
    assert code == 2
    assert "EXHAUSTIVE_VERIFY_LIMIT" in err and "n=2" in err


def test_verify_usage(capsys):
    assert run(capsys, "verify", "--dim", "3")[0] == 2
    assert run(
        capsys, "verify", "--dim", "3", "--exhaustive", "--samples", "5"
    )[0] == 2
    assert run(capsys, "verify", "--dim", "5", "--exhaustive")[0] == 2
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
    assert "CHORDS_LIST_LIMIT" in err and "--dim 8" in err
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


def test_table_budget(capsys):
    code, out, err = run(capsys, "table", "--max-dim", "21")
    assert code == 2
    assert "CHORDS_COUNT_LIMIT" in err and "n=20" in err


def test_table_method_disagreement_exits_one(capsys, monkeypatch):
    real = enumeration._direct_counts

    def off_by_one(n, jobs):
        cycles, paths, ter, ext = real(n, jobs)
        return cycles + (n == 3), paths, ter, ext

    monkeypatch.setattr(enumeration, "_direct_counts", off_by_one)
    code, out, err = run(capsys, "table", "--max-dim", "4", "--method", "both")
    assert code == 1
    assert out == ""
    assert "method disagreement at n=3" in err


def test_table_ter_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "_direct_counts", lambda n, jobs: (1, 5, 0, 5))
    code, out, err = run(capsys, "table", "--max-dim", "3", "--method", "direct")
    assert code == 1
    assert "ter(3) = 0" in err


def test_bad_jobs_environment_warns(capsys, monkeypatch):
    monkeypatch.setenv("CUBENETS_JOBS", "abc")
    code, out, err = run(
        capsys, "enumerate", "--dim", "3", "--kind", "trees", "--count-only"
    )
    assert code == 0
    assert json.loads(out)["count"] == 11
    assert "CUBENETS_JOBS='abc'" in err
    monkeypatch.setenv("CUBENETS_JOBS", "2")
    assert run(capsys, "table", "--max-dim", "3")[2] == ""


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["unfold"])  # missing --dim
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


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


def _golden_text(name, capsys):
    if name in README_EXAMPLES:
        return _cli_stdout(capsys, *README_EXAMPLES[name])
    if name.startswith(("paths", "cycles")):
        kind, n = name[:-1], name[-1]
        return _cli_stdout(capsys, "enumerate", "--dim", n, "--kind", kind)
    if name == "table-both":
        return _cli_stdout(
            capsys, "table", "--max-dim", "7", "--method", "both", "--format", "json"
        )
    if name == "diagram-from-path":
        return repr([diagram_from_path(p)[0].mate for p in enumerate_paths(5)])
    if name == "diagram-from-cycle":
        return repr([diagram_from_cycle(c).mate for c in enumerate_cycles(5)])
    # name == "from-diagram": every dim-5 listing, opened at every allowed edge
    loopless = enumerate_diagrams(10, 0)
    edges = [cycle_from_diagram(d, 5).edges for d in loopless]
    for d in loopless:
        edges += [path_from_diagram(d, e, 5).edges for e in range(10)]
    for d in enumerate_diagrams(10, 1):
        (i, j), = d.loop_chords()
        edges.append(path_from_diagram(d, 9 if (i, j) == (0, 9) else i, 5).edges)
    return repr(edges)


# sha256 of each output; the direct-route and converter entries were captured
# before paths were walked from the fixed edge, the README entries before the
# package's public surface was cut down to the names the README uses
GOLDEN = {
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
    "readme-unfold-tree-svg": "6302c08bea6df4eefbfa858697ab85bb33694171aa7f1aa0d2628705feeccf2f",
    "readme-verify-exhaustive": "5bd6c88bc4e21f4542e9a6561b2b328723411eecdf17ddeda2a5e92cf067536d",
    "readme-partitions-realize": "88b5b2cec169c5263fafc626f74e13a561c6afac044c27eedfca1448c7cdd536",
    "readme-chords-net-counts": "8a581d201b14b80c18ef7e7ebbef118681768b47848c1add1b84c5451f7e1046",
    "readme-table": "1c055402c9fb33b3b6fd9000a2c1863f5e9849bc3bbc045150567e03cb7c2bd9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_direct_route_golden(name, capsys):
    text = _golden_text(name, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
