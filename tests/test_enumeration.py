"""Class counts by direct search, their brute-force oracles, the path split,
random tree sampling, the headline table, and the verification harness."""

import itertools
import random
from collections import Counter

import pytest

from cubenets.core import (
    SpanningSubgraph,
    canonical_mask,
    orbit_masks,
    random_signed_permutation,
    roberts_edges,
    validate,
)
from cubenets.chords import count_diagram_classes
from cubenets.enumeration import (
    CHORDS_COUNT_LIMIT,
    DIRECT_LIMITS,
    EXHAUSTIVE_VERIFY_LIMIT,
    EnumerationTable,
    ResourceLimitError,
    build_table,
    classify_path,
    enumerate_cycles,
    enumerate_paths,
    enumerate_trees,
    random_spanning_tree,
    verify_unfoldings,
)


def brute_classes(n, kind, size):
    """Canonical masks of every valid subgraph, found with no cleverness:
    try every edge subset of the right size."""
    edges = roberts_edges(n)
    out = set()
    for combo in itertools.combinations(range(len(edges)), size):
        sub = SpanningSubgraph(n, kind, tuple(edges[r] for r in combo))
        if validate(sub) is None:
            out.add(canonical_mask(n, sub.mask()))
    return out


def test_tree_counts():
    assert len(enumerate_trees(2)) == 1
    assert len(enumerate_trees(3)) == 11
    assert len(enumerate_trees(4)) == 261


def test_path_counts():
    assert len(enumerate_paths(2)) == 1
    assert len(enumerate_paths(3)) == 4
    assert len(enumerate_paths(4)) == 24


def test_cycle_counts():
    assert len(enumerate_cycles(2)) == 1
    assert len(enumerate_cycles(3)) == 2
    assert len(enumerate_cycles(4)) == 7


def test_trees_match_brute_force():
    for n in (2, 3):
        want = brute_classes(n, "tree", 2 * n - 1)
        got = {t.mask() for t in enumerate_trees(n)}
        assert got == want


def test_paths_match_brute_force():
    for n in (2, 3):
        want = brute_classes(n, "path", 2 * n - 1)
        got = {p.mask() for p in enumerate_paths(n)}
        assert got == want


def test_cycles_match_brute_force():
    for n in (2, 3):
        want = brute_classes(n, "cycle", 2 * n)
        got = {c.mask() for c in enumerate_cycles(n)}
        assert got == want


def test_trees_match_brute_force_dim_four():
    assert {t.mask() for t in enumerate_trees(4)} == brute_classes(4, "tree", 7)


def test_enumerated_objects_are_valid_and_canonical():
    for n in (2, 3, 4):
        for sub in enumerate_trees(n) + enumerate_paths(n) + enumerate_cycles(n):
            assert validate(sub) is None
            assert canonical_mask(n, sub.mask()) == sub.mask()


def test_no_two_representatives_share_an_orbit():
    for n in (2, 3):
        reps = [t.mask() for t in enumerate_trees(n)]
        for a, b in itertools.combinations(reps, 2):
            assert b not in orbit_masks(n, a)


def test_representatives_survive_relabelling():
    rng = random.Random(5)
    for p in enumerate_paths(3):
        for _ in range(5):
            g = random_signed_permutation(3, rng)
            moved = g.apply_subgraph(p)
            assert canonical_mask(3, moved.mask()) == p.mask()


def test_classify_path_split():
    for n, want in [(2, (0, 1)), (3, (1, 3)), (4, (4, 20))]:
        kinds = Counter(classify_path(p) for p in enumerate_paths(n))
        assert (kinds["ter"], kinds["ext"]) == want


def test_direct_limits_enforced():
    with pytest.raises(ResourceLimitError):
        enumerate_trees(DIRECT_LIMITS["trees"] + 1)
    with pytest.raises(ResourceLimitError):
        enumerate_paths(6)
    with pytest.raises(ResourceLimitError):
        enumerate_cycles(7)


def test_direct_cycles_at_the_budget_ceiling():
    # n=6 is the largest direct cycle budget; both routes give 196 classes
    assert DIRECT_LIMITS["cycles"] == 6
    cycles = enumerate_cycles(6)
    assert len(cycles) == 196 == count_diagram_classes(12, 0)
    assert all(c.mask() & 1 for c in cycles)  # each holds edge rank 0


def test_parallel_cycles_match_serial():
    from cubenets.enumeration import _CLASS_CACHE, _class_masks

    serial = [c.mask() for c in enumerate_cycles(4)]
    _CLASS_CACHE.pop(("cycles", 4), None)
    assert list(_class_masks("cycles", 4, jobs=2)) == serial


def test_parallel_generation_matches_serial():
    serial = [t.mask() for t in enumerate_trees(3)]
    from cubenets.enumeration import _CLASS_CACHE, _class_masks

    _CLASS_CACHE.pop(("trees", 3), None)
    parallel = list(_class_masks("trees", 3, jobs=2))
    assert parallel == serial
    # paths are sharded by their second step, which leaves 2n-3 shards
    for n in (3, 4, 5):
        serial = [p.mask() for p in enumerate_paths(n)]
        for jobs in (2, 3):
            _CLASS_CACHE.pop(("paths", n), None)
            assert list(_class_masks("paths", n, jobs=jobs)) == serial


def test_random_spanning_tree_valid():
    rng = random.Random(11)
    for n in (2, 3, 4, 5, 6, 7, 8):
        for _ in range(25):
            assert validate(random_spanning_tree(n, rng)) is None


def test_random_spanning_tree_uniform_smallest_case():
    # the square has 4 spanning trees; a uniform sampler stays near 1000 each
    rng = random.Random(1)
    freq = Counter(random_spanning_tree(2, rng).edges for _ in range(4000))
    assert len(freq) == 4
    assert all(850 < v < 1150 for v in freq.values())


def test_table_chords_small():
    table = build_table(5, "chords")
    assert [(r.cycles, r.paths, r.ter, r.ext) for r in table.rows] == [
        (1, 1, 0, 1),
        (2, 4, 1, 3),
        (7, 24, 4, 20),
        (29, 184, 24, 160),
    ]


def test_table_direct_equals_chords():
    direct = build_table(4, "direct")
    chords = build_table(4, "chords")
    assert [r.to_json() for r in direct.rows] == [r.to_json() for r in chords.rows]
    both = build_table(4, "both")
    assert both.rows == chords.rows


def test_table_row_lookup_and_json():
    table = build_table(3, "chords")
    assert table.row(3).paths == 4
    doc = table.to_json()
    assert doc["method"] == "chords"
    assert doc["rows"][1] == {"n": 3, "cycles": 2, "paths": 4, "ter": 1, "ext": 3}
    with pytest.raises(KeyError):
        table.row(9)


def test_table_budget_errors():
    assert CHORDS_COUNT_LIMIT == 20
    with pytest.raises(ResourceLimitError, match="n=20"):
        build_table(21, "chords")
    with pytest.raises(ResourceLimitError):
        build_table(6, "direct")
    with pytest.raises(ValueError):
        build_table(1, "chords")
    with pytest.raises(ValueError):
        build_table(3, "guesswork")


def test_verify_exhaustive_small():
    report = verify_unfoldings(3, exhaustive=True)
    assert report.ok
    assert report.trees_checked == 11
    assert set(report.partition_counts) == {(5, 2), (4, 3)}
    assert sum(report.partition_counts.values()) == 11


def test_verify_samples_deterministic():
    one = verify_unfoldings(5, samples=60, seed=9)
    two = verify_unfoldings(5, samples=60, seed=9)
    assert one.to_json() == two.to_json()
    assert one.ok and one.trees_checked == 60
    other_seed = verify_unfoldings(5, samples=60, seed=10)
    assert other_seed.to_json() != one.to_json()


def test_verify_samples_parallel_merge():
    report = verify_unfoldings(4, samples=50, seed=3, jobs=2)
    assert report.ok
    assert report.to_json()["seed"] == 3
    assert report.trees_checked == 50
    assert sum(report.partition_counts.values()) == 50
    again = verify_unfoldings(4, samples=50, seed=3, jobs=2)
    assert again.to_json() == report.to_json()


def test_verify_exhaustive_budget():
    assert EXHAUSTIVE_VERIFY_LIMIT == 4
    with pytest.raises(ResourceLimitError, match="EXHAUSTIVE_VERIFY_LIMIT"):
        verify_unfoldings(EXHAUSTIVE_VERIFY_LIMIT + 1, exhaustive=True)


def test_verify_argument_errors():
    with pytest.raises(ValueError):
        verify_unfoldings(3)
