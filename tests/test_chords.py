"""Chord diagram behaviors: structure, symmetry classes, frozen class counts,
and the correspondences with spanning cycles and paths."""

import json
import random
import time

import pytest

import oracles
from cubenets import chords
from cubenets.chords import (
    ChordDiagram,
    count_diagram_classes,
    diagram_stabilizer,
    edge_orbit_count,
    enumerate_diagrams,
    _apply_vertex_map,
    _diagram_classes_by_loops,
    _dihedral_maps,
)
from cubenets.cli import main
from cubenets.core import ResourceLimitError, SpanningSubgraph, canonical_form
from cubenets.enumeration import build_table, enumerate_classes
from oracles import (
    canonical_diagram,
    cycle_from_diagram,
    diagram_from_cycle,
    diagram_from_json,
    diagram_from_path,
    diagram_orbit_size,
    insert_loop,
    loop_chords,
    loops,
    maxnet_profiles,
    path_from_diagram,
)


def square_cycle():
    # 1, 2, 1*, 2* around the square
    return SpanningSubgraph(2, "cycle", ((0, 1), (1, 2), (2, 3), (0, 3)))


def test_mate_table_validation():
    with pytest.raises(ValueError):
        ChordDiagram(4, (1, 0, 2, 3))  # fixed points
    with pytest.raises(ValueError):
        ChordDiagram(4, (2, 3, 0))  # length
    with pytest.raises(ValueError):
        ChordDiagram(3, (1, 0, 2))
    d = ChordDiagram(4, (2, 3, 0, 1))
    assert d.chords() == ((0, 2), (1, 3))


def test_loop_detection():
    assert loops(ChordDiagram(4, (2, 3, 0, 1))) == 0
    assert loop_chords(ChordDiagram(4, (1, 0, 3, 2))) == ((0, 1), (2, 3))
    # wrap-around adjacency counts too
    assert loop_chords(ChordDiagram(4, (3, 2, 1, 0))) == ((0, 3), (1, 2))


def test_json_roundtrip(capsys):
    # each row of the listing reads back as the class it was written from
    assert main(["chords", "--dim", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)["diagrams"]
    assert rows[0] == {"m": 6, "matching": [[0, 2], [1, 4], [3, 5]]}
    assert tuple(map(diagram_from_json, rows)) == enumerate_diagrams(6, 0)


def test_square_cycle_diagram():
    d = diagram_from_cycle(square_cycle())
    assert d == ChordDiagram(4, (2, 3, 0, 1))


def test_diagram_from_cycle_rejects_paths():
    p = SpanningSubgraph(2, "path", ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError):
        diagram_from_cycle(p)


def test_cycle_from_diagram_roundtrip():
    for n in (3, 4, 5):
        for d in enumerate_diagrams(2 * n, 0):
            c = cycle_from_diagram(d, n)
            assert canonical_diagram(diagram_from_cycle(c)) == d


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_listed_cycle_classes_are_the_loopless_diagrams_one_to_one(n):
    # class by class, not only in count: the direct listing's cycles map
    # onto pairwise-distinct diagram classes, and onto every one of them
    got = [canonical_diagram(diagram_from_cycle(c)) for c in enumerate_classes("cycles", n)]
    assert len(set(got)) == len(got)
    assert set(got) == set(enumerate_diagrams(2 * n, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_listed_path_classes_are_the_one_loop_diagrams_one_to_one(n):
    # a path closes into a 2n-gon whose closing edge takes the new loop
    paths = enumerate_classes("paths", n)
    got = [canonical_diagram(insert_loop(*diagram_from_path(p))) for p in paths]
    assert len(set(got)) == len(got)
    assert set(got) == set(enumerate_diagrams(2 * n + 2, 1))


def test_cycle_from_diagram_rejects_loops():
    d = ChordDiagram(6, (5, 3, 4, 1, 2, 0))
    assert loops(d) == 1
    with pytest.raises(ValueError):
        cycle_from_diagram(d, 3)


def test_canonical_diagram_invariant_under_symmetry():
    rng = random.Random(7)
    for d in enumerate_diagrams(8, 0) + enumerate_diagrams(8, 1):
        want = canonical_diagram(d)
        for _ in range(10):
            vm = rng.choice(_dihedral_maps(8))
            moved = ChordDiagram(8, _apply_vertex_map(d, vm))
            assert canonical_diagram(moved) == want


def test_orbit_times_stabilizer():
    # every class the pass generates up to the 12-gon, at every loop count,
    # carries its |Stab|: |Stab| * |orbit| = 2m, the orbit taken over all
    # 2m symmetries
    for m in range(2, 13, 2):
        for k in range(m // 2 + 1):
            diagrams, stabs = _diagram_classes_by_loops(m, k)
            for d, stab in zip(diagrams, stabs):
                assert stab == len(diagram_stabilizer(d))
                assert diagram_orbit_size(d) * stab == 2 * m


def test_stabilizer_is_the_full_filter():
    # the stabilizer tries only the maps that keep vertex 0's chord; it
    # must keep exactly the symmetries, in order, that fix the diagram
    rng = random.Random(12)
    for m in range(2, 13, 2):
        for k in range(m // 2 + 1):
            for d in _diagram_classes_by_loops(m, k)[0]:
                vm = rng.choice(_dihedral_maps(m))
                moved = ChordDiagram(m, _apply_vertex_map(d, vm))
                fixing = tuple(
                    g for g in _dihedral_maps(m) if _apply_vertex_map(moved, g) == moved.mate
                )
                assert diagram_stabilizer(moved) == fixing


def test_pass_lists_the_class_of_every_matching():
    # brute force: every perfect matching of the m-gon, put in canonical form
    # over all 2m symmetries, gives exactly the classes the pass lists at its
    # loop count, each with the order of its full stabilizer
    for m in range(2, 11, 2):
        classes = [set() for _ in range(m // 2 + 1)]
        for mate in oracles.perfect_matchings(m):
            d = ChordDiagram(m, mate)
            classes[loops(d)].add(canonical_diagram(d))
        for k in range(m // 2 + 1):
            got = enumerate_diagrams(m, k)
            assert got == tuple(sorted(classes[k], key=lambda d: d.mate))
            stabs = _diagram_classes_by_loops(m, k)[1]
            assert stabs == tuple(len(diagram_stabilizer(d)) for d in got)


def test_class_counts_loopless():
    # spanning-cycle classes per dimension
    assert len(enumerate_diagrams(4, 0)) == 1
    assert len(enumerate_diagrams(6, 0)) == 2
    assert len(enumerate_diagrams(8, 0)) == 7
    assert len(enumerate_diagrams(10, 0)) == 29


def test_class_counts_one_loop():
    # paths whose ends are antipodal, per dimension
    assert len(enumerate_diagrams(4, 1)) == 0
    assert len(enumerate_diagrams(6, 1)) == 1
    assert len(enumerate_diagrams(8, 1)) == 4
    assert len(enumerate_diagrams(10, 1)) == 24


def test_enumerate_sorted_and_canonical():
    for m in range(2, 13, 2):
        for loops in (0, 1):
            ds = enumerate_diagrams(m, loops)
            assert list(ds) == sorted(ds, key=lambda d: d.mate)
            for d in ds:
                assert canonical_diagram(d) == d
                assert oracles.loops(d) == loops


def test_enumerate_degenerate_requests():
    assert enumerate_diagrams(6, -1) == ()
    assert enumerate_diagrams(6, 4) == ()
    assert len(enumerate_diagrams(2, 1)) == 1
    assert len(enumerate_diagrams(2, 0)) == 0
    # an odd or non-positive vertex count is refused at any loop count
    for m, k in ((5, 0), (5, 3), (7, 4), (-2, 0)):
        with pytest.raises(ValueError, match="even and positive"):
            enumerate_diagrams(m, k)
    with pytest.raises(ResourceLimitError, match="CHORDS_LIST_LIMIT"):
        enumerate_diagrams(18, 0)


def test_all_loop_counts_partition_the_matchings():
    # every matching on 8 vertices lands in exactly one loop bucket
    total_raw = sum(
        diagram_orbit_size(d) for k in range(5) for d in enumerate_diagrams(8, k)
    )
    assert total_raw == 7 * 5 * 3 * 1


def test_diagram_from_path_marks_closing_edge():
    p = SpanningSubgraph(2, "path", ((0, 1), (1, 2), (2, 3)))
    d, marked = diagram_from_path(p)
    assert marked == 3
    assert d == ChordDiagram(4, (2, 3, 0, 1))
    assert loops(d) == 0  # ends 1 and 2* are not antipodal


def test_diagram_from_ter_path_has_loop_on_marked_edge():
    # 1, 2, 3, 2*, 3*, 1* ends on an antipodal pair
    p = SpanningSubgraph(3, "path", ((0, 1), (1, 2), (2, 4), (4, 5), (3, 5)))
    d, marked = diagram_from_path(p)
    assert marked == 5
    assert loop_chords(d) == ((0, 5),)


def test_path_from_diagram_roundtrip():
    for edges, n in [
        (((0, 1), (1, 2), (2, 3)), 2),
        (((0, 1), (1, 2), (2, 4), (4, 5), (3, 5)), 3),
        (((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)), 3),
    ]:
        p = SpanningSubgraph(n, "path", edges)
        d, marked = diagram_from_path(p)
        back = path_from_diagram(d, marked, n)
        assert canonical_form(back) == canonical_form(p)


def test_path_from_diagram_rejects_mismatched_loop():
    d = ChordDiagram(6, (5, 3, 4, 1, 2, 0))  # loop on edge 5
    with pytest.raises(ValueError):
        path_from_diagram(d, 2, 3)
    p = path_from_diagram(d, 5, 3)
    ends = [v for v in range(6) if sum(v in e for e in p.edges) == 1]
    assert ends[0] == (ends[1] + 3) % 6  # antipodal endpoints


def test_insert_loop_plain_edge():
    d = ChordDiagram(4, (2, 3, 0, 1))
    out = insert_loop(d, 3)
    assert out == ChordDiagram(6, (2, 3, 0, 1, 5, 4))
    assert loop_chords(out) == ((4, 5),)
    # there is only one one-loop class on six vertices
    assert canonical_diagram(out) == enumerate_diagrams(6, 1)[0]


def test_insert_loop_on_existing_loop():
    d = ChordDiagram(6, (5, 3, 4, 1, 2, 0))
    out = insert_loop(d, 5)
    assert out.m == 8
    assert loop_chords(out) == ((6, 7),)
    # the old loop opened up into an ordinary chord
    assert (0, 5) in out.chords()
    assert canonical_diagram(out) in enumerate_diagrams(8, 1)


def test_insert_loop_rejections():
    one_loop = ChordDiagram(6, (5, 3, 4, 1, 2, 0))
    with pytest.raises(ValueError):
        insert_loop(one_loop, 1)  # must use the loop's own edge
    two_loops = ChordDiagram(4, (1, 0, 3, 2))
    with pytest.raises(ValueError):
        insert_loop(two_loops, 0)
    with pytest.raises(ValueError):
        insert_loop(ChordDiagram(4, (2, 3, 0, 1)), 4)


def test_insert_loop_reaches_every_one_loop_class():
    # every one-loop class on m+2 vertices comes from some loopless class
    # on m vertices (or a one-loop class at its own edge)
    for m in (4, 6, 8):
        targets = set(enumerate_diagrams(m + 2, 1))
        hit = set()
        for d in enumerate_diagrams(m, 0):
            for e in range(m):
                hit.add(canonical_diagram(insert_loop(d, e)))
        for d in enumerate_diagrams(m, 1):
            loop = loop_chords(d)[0]
            e = loop[1] if loop == (0, m - 1) else loop[0]
            hit.add(canonical_diagram(insert_loop(d, e)))
        assert hit == targets


def test_edge_orbits_square():
    d = ChordDiagram(4, (2, 3, 0, 1))
    assert len(diagram_stabilizer(d)) == 8
    assert edge_orbit_count(d) == 1


def test_edge_orbit_sums():
    # one net class per boundary-edge orbit: totals match the path tallies
    # whose ends are not antipodal
    assert sum(edge_orbit_count(d) for d in enumerate_diagrams(6, 0)) == 3
    assert sum(edge_orbit_count(d) for d in enumerate_diagrams(8, 0)) == 20


def test_edge_orbit_counts_bounded_by_m():
    for d in enumerate_diagrams(8, 0):
        assert 1 <= edge_orbit_count(d) <= 8


def test_maxnet_profile_small():
    hist = maxnet_profiles(4)
    assert sum(hist.values()) == 7
    assert sum(k * v for k, v in hist.items()) == 20


def test_maxnet_profile_dimension_five():
    hist = maxnet_profiles(5)
    assert sum(hist.values()) == 29
    assert sum(k * v for k, v in hist.items()) == 160
    assert hist[1] == 1
    assert hist[3] == 8
    assert hist[5] == 5
    assert hist[10] == 6
    for absent in (4, 7, 8, 9):
        assert hist[absent] == 0


# ---------------------------------------------------------------------------
# Burnside counts against the listing


def test_burnside_matches_listing():
    # the m=16 listing (15!! matchings) runs once here, for both loop counts
    for m in range(4, 18, 2):
        for loops in (0, 1):
            assert count_diagram_classes(m, loops) == len(enumerate_diagrams(m, loops))


def test_burnside_first_row_past_the_listing_table():
    # n=8 as the m=16 listing gives it: cycles(8), and ter(8), which must
    # equal the n=7 path count 24252 of the headline table
    assert count_diagram_classes(16, 0) == 21994
    assert count_diagram_classes(16, 1) == 24252


def test_burnside_two_gon():
    # the 2-gon's two boundary edges are the same chord, which is a loop
    assert count_diagram_classes(2, 1) == 1
    assert count_diagram_classes(2, 0) == 0


def test_burnside_rejects_bad_requests():
    for m in (0, 3, -4):
        with pytest.raises(ValueError):
            count_diagram_classes(m, 0)
    for loops in (-1, 2):
        with pytest.raises(ValueError):
            count_diagram_classes(8, loops)


def test_burnside_indivisible_sum_is_an_error(monkeypatch):
    real = chords._reflection_fixed
    monkeypatch.setattr(chords, "_reflection_fixed", lambda m, loops: real(m, loops) + 1)
    with pytest.raises(RuntimeError, match="not a multiple"):
        count_diagram_classes(8, 0)


def test_table_to_twenty_is_fast_and_consistent():
    t0 = time.perf_counter()
    table = build_table(20, "chords")
    dt = time.perf_counter() - t0
    assert dt < 1.0
    assert [r.n for r in table.rows] == list(range(2, 21))
    assert table.rows[8 - 2].cycles == 21994
    for prev, row in zip(table.rows, table.rows[1:]):
        assert row.ter == prev.paths
        assert row.ext == row.paths - row.ter


# ---------------------------------------------------------------------------
# output guards that must survive python -O


def test_cycle_reassembly_failure_raises(monkeypatch):
    monkeypatch.setattr(oracles, "validate", lambda sub: "forced problem")
    with pytest.raises(RuntimeError, match="forced problem"):
        cycle_from_diagram(ChordDiagram(4, (2, 3, 0, 1)), 2)


def test_path_reassembly_failure_raises(monkeypatch):
    monkeypatch.setattr(oracles, "validate", lambda sub: "forced problem")
    with pytest.raises(RuntimeError, match="forced problem"):
        path_from_diagram(ChordDiagram(4, (2, 3, 0, 1)), 3, 2)


def test_insert_loop_loop_check_raises(monkeypatch):
    monkeypatch.setattr(oracles, "loops", lambda d: 2)
    with pytest.raises(RuntimeError, match="exactly the new one"):
        insert_loop(ChordDiagram(4, (2, 3, 0, 1)), 3)
