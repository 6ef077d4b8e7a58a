"""Class counts by direct search, their brute-force oracles, the path split,
random tree sampling, the headline table, and the verification harness."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cubenets.core import (
    FacetLabel,
    SpanningSubgraph,
    _edge_rank_grid,
    antipode_index,
    canonical_mask,
    roberts_edges,
    subgraph_from_mask,
    validate,
)
from cubenets.chords import count_diagram_classes
from cubenets.enumeration import (
    CHORDS_COUNT_LIMIT,
    DIRECT_LIMITS,
    CountMismatchError,
    EnumerationTable,
    ResourceLimitError,
    TableRow,
    VerifyReport,
    _check_tree,
    _check_trees,
    _certify,
    _diagram_classes,
    _labelled_count,
    _raw_tree_masks,
    _tree_from_parents,
    build_table,
    classify_path,
    count_classes,
    enumerate_classes,
    enumerate_trees,
    random_spanning_tree,
    verify_unfoldings,
)
from cubenets.nets import cube_partition_of
from cubenets.rolling import _tree_bytes, develop_tree, tree_block_size
from oracles import (
    apply_subgraph,
    orbit_masks,
    random_signed_permutation,
    stabilizer_order,
)


def _closes_a_cycle(two_n, pairs):
    """Whether some edge of `pairs` joins two labels already connected by
    the edges before it (a union-find over the 2n labels)."""
    root = list(range(two_n))
    for i, j in pairs:
        while root[i] != i:
            i = root[i]
        while root[j] != j:
            j = root[j]
        if i == j:
            return True
        root[i] = j
    return False


def brute_classes(n, kind, size):
    """Canonical masks of every valid subgraph, found with no cleverness:
    try every edge subset of the right size.  Trees and paths have no
    cycle, so for them a subset that closes one is dropped by union-find
    before any subgraph is built; every other subset is validated."""
    edges = roberts_edges(n)
    out = set()
    for combo in itertools.combinations(range(len(edges)), size):
        pairs = tuple(edges[r] for r in combo)
        if kind != "cycle" and _closes_a_cycle(2 * n, pairs):
            continue
        sub = SpanningSubgraph(n, kind, pairs)
        if validate(sub) is None:
            out.add(canonical_mask(n, sub.mask()))
    return out


def test_tree_counts():
    assert len(enumerate_trees(2)) == 1
    assert len(enumerate_trees(3)) == 11
    assert len(enumerate_trees(4)) == 261


def test_path_counts():
    assert len(enumerate_classes("paths", 2)) == 1
    assert len(enumerate_classes("paths", 3)) == 4
    assert len(enumerate_classes("paths", 4)) == 24


def test_cycle_counts():
    assert len(enumerate_classes("cycles", 2)) == 1
    assert len(enumerate_classes("cycles", 3)) == 2
    assert len(enumerate_classes("cycles", 4)) == 7


def test_trees_match_brute_force():
    for n in (2, 3):
        want = brute_classes(n, "tree", 2 * n - 1)
        got = {t.mask() for t in enumerate_trees(n)}
        assert got == want


def test_paths_match_brute_force():
    for n in (2, 3):
        want = brute_classes(n, "path", 2 * n - 1)
        got = {p.mask() for p in enumerate_classes("paths", n)}
        assert got == want


def test_cycles_match_brute_force():
    for n in (2, 3):
        want = brute_classes(n, "cycle", 2 * n)
        got = {c.mask() for c in enumerate_classes("cycles", n)}
        assert got == want


def test_trees_match_brute_force_dim_four():
    assert {t.mask() for t in enumerate_trees(4)} == brute_classes(4, "tree", 7)


def test_enumerated_objects_are_valid_and_canonical():
    for n in (2, 3, 4):
        for kind in ("trees", "paths", "cycles"):
            for sub in enumerate_classes(kind, n):
                assert validate(sub) is None
                assert canonical_mask(n, sub.mask()) == sub.mask()


def test_no_two_representatives_share_an_orbit():
    for n in (2, 3):
        reps = [t.mask() for t in enumerate_trees(n)]
        for a, b in itertools.combinations(reps, 2):
            assert b not in orbit_masks(n, a)


def test_representatives_survive_relabelling():
    rng = random.Random(5)
    for p in enumerate_classes("paths", 3):
        for _ in range(5):
            g = random_signed_permutation(3, rng)
            moved = apply_subgraph(g, p)
            assert canonical_mask(3, moved.mask()) == p.mask()


def test_classify_path_split():
    for n, want in [(2, (0, 1)), (3, (1, 3)), (4, (4, 20))]:
        kinds = Counter(classify_path(p) for p in enumerate_classes("paths", n))
        assert (kinds["ter"], kinds["ext"]) == want
    # a cycle has no odd-degree facet, the cross tree four
    cross = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,2-1*")
    for sub in (enumerate_classes("cycles", 3)[0], cross):
        with pytest.raises(ValueError, match="not a path"):
            classify_path(sub)


def test_direct_limits_enforced():
    with pytest.raises(ResourceLimitError):
        enumerate_trees(DIRECT_LIMITS["trees"] + 1)
    with pytest.raises(ResourceLimitError):
        enumerate_classes("paths", 6)
    with pytest.raises(ResourceLimitError):
        enumerate_classes("cycles", 7)


def test_budget_does_not_depend_on_the_cache(monkeypatch):
    enumerate_trees(3)  # now cached
    monkeypatch.setitem(DIRECT_LIMITS, "trees", 2)
    with pytest.raises(ResourceLimitError, match="DIRECT_LIMITS"):
        enumerate_trees(3)


def test_direct_cycles_at_the_budget_ceiling():
    # n=6 is the largest direct cycle budget; both routes give 196 classes
    assert DIRECT_LIMITS["cycles"] == 6
    cycles = enumerate_classes("cycles", 6)
    assert len(cycles) == 196 == count_diagram_classes(12, 0)
    assert all(c.mask() & 1 for c in cycles)  # each holds edge rank 0


def orbit_sum(n, classes):
    return sum(2**n * math.factorial(n) // stab for _, stab in classes)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_walk_classes_are_the_diagram_classes(n):
    # one class per loopless 2n-gon diagram for cycles, and per one-loop
    # (2n+2)-gon diagram for paths, whose loop is at (0, 1); and their
    # orbits cover every walk
    for kind, (extra, loops) in (("cycles", (0, 0)), ("paths", (2, 1))):
        classes = _diagram_classes(kind, n)
        assert len(classes) == count_diagram_classes(2 * n + extra, loops)
        assert orbit_sum(n, classes) == _labelled_count(kind, n)
        if kind == "paths":
            assert all(d.mate[0] == 1 for d, _ in classes)


def test_path_classes_past_the_listing_budget():
    # n=7 paths and n=8 cycles are past DIRECT_LIMITS and past
    # canonical_mask's cap; both come from the 16-gon pass, and their orbits
    # still cover every labelled path and cycle exactly once
    paths, cycles = _diagram_classes("paths", 7), _diagram_classes("cycles", 8)
    assert len(paths) == 24252 == count_diagram_classes(16, 1)
    assert len(cycles) == 21994 == count_diagram_classes(16, 0)
    _certify("paths", 7, paths)
    _certify("cycles", 8, cycles)
    assert orbit_sum(7, paths) == _labelled_count("paths", 7)
    assert orbit_sum(8, cycles) == _labelled_count("cycles", 8)


def spanning_trees_without_vertex_zero(n, dropped=()):
    """Spanning trees of the Roberts graph minus vertex 0 and minus the
    edges `dropped`, by the matrix-tree theorem: the determinant of its
    Laplacian with the row and column of vertex 1 removed as well, taken
    exactly over the rationals."""
    size = 2 * n - 2  # vertices 2 .. 2n-1
    lap = [[Fraction(0)] * size for _ in range(size)]
    for i, j in roberts_edges(n):
        if i == 0 or (i, j) in dropped:
            continue
        for a, b in ((i, j), (j, i)):
            if a >= 2:
                lap[a - 2][a - 2] += 1
                if b >= 2:
                    lap[a - 2][b - 2] -= 1
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if lap[r][c] != 0), None)
        if pivot is None:  # disconnected: no spanning tree
            return 0
        if pivot != c:
            lap[c], lap[pivot] = lap[pivot], lap[c]
            det = -det
        det *= lap[c][c]
        for r in range(c + 1, size):
            f = lap[r][c] / lap[c][c]
            for k in range(c, size):
                lap[r][k] -= f * lap[c][k]
    return int(det)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_raw_tree_stream_is_every_tree_with_facet_one_a_leaf_on_facet_two(n):
    # adding the edge {0, 1} to a spanning tree of the graph G0 without
    # vertex 0 gives each tree in which vertex 0 is a leaf on vertex 1
    # exactly once
    leaf_shaped = spanning_trees_without_vertex_zero(n)
    assert leaf_shaped == {2: 1, 3: 45, 4: 6125, 5: 1750329}[n]
    # of those, the stream keeps the trees in which vertex 1 (facet 2)
    # holds the edge to vertex 2 (facet 3), or has no neighbour on axes
    # 3..n: tau(G0) - tau(G0 - {1, 2}) + tau(G0 - E2), E2 being vertex 1's
    # edges into axes 3..n (at n=2 there is no facet 3 and E2 is empty)
    far = tuple((1, u) for u in range(2, 2 * n) if u % n > 1)
    with_facet_three = leaf_shaped - spanning_trees_without_vertex_zero(n, far[:1])
    expected = with_facet_three + spanning_trees_without_vertex_zero(n, far)
    assert expected == {2: 1, 3: 32, 4: 2676, 5: 555120}[n]
    star = (1 << (2 * n - 2)) - 1  # vertex 0's edges are ranks 0 .. 2n-3
    grid = _edge_rank_grid(n)
    far_bits = sum(1 << grid[i][j] for i, j in far)
    to_facet_three = 1 << grid[1][2] if n > 2 else 0
    masks = list(_raw_tree_masks(n))
    assert len(masks) == expected
    assert len(set(masks)) == expected
    for mask in masks:
        assert mask & star == 1
        assert mask & to_facet_three or not mask & far_bits
        assert mask.bit_count() == 2 * n - 1
        # validating each of the n=5 trees would take about 10 s
        assert n == 5 or validate(subgraph_from_mask(n, mask, "tree")) is None


def labelled_walks(n, close):
    """Spanning paths (or, with `close`, cycles) of the Roberts graph, each
    counted once, by trying every vertex order: a path is met from both
    ends, a cycle from each of its 2n starts in both directions."""
    count = 0
    for order in itertools.permutations(range(2 * n)):
        steps = zip(order, order[1:] + (order[0],) if close else order[1:])
        if all(antipode_index(a, n) != b for a, b in steps):
            count += 1
    return count // (4 * n if close else 2)


def test_closed_forms_count_the_labelled_objects():
    for n in (2, 3, 4):
        assert _labelled_count("paths", n) == labelled_walks(n, close=False)
        assert _labelled_count("cycles", n) == labelled_walks(n, close=True)
        if n < 4:
            edges = roberts_edges(n)
            trees = sum(
                validate(SpanningSubgraph(n, "tree", pairs)) is None
                for pairs in itertools.combinations(edges, 2 * n - 1)
            )
            assert _labelled_count("trees", n) == trees
    assert [_labelled_count("trees", n) for n in (2, 3, 4, 5)] == [4, 384, 82944, 32768000]
    assert _labelled_count("paths", 5) == 631680
    assert _labelled_count("cycles", 6) == 6385920


@pytest.mark.parametrize("kind", ["trees", "paths", "cycles"])
def test_listed_orbits_cover_every_labelled_object(kind):
    # orbit-stabilizer, with each stabilizer from the full group's expansion
    for n in (2, 3, 4):
        order = 2**n * math.factorial(n)
        reps = [sub.mask() for sub in enumerate_classes(kind, n)]
        covered = sum(order // stabilizer_order(n, rep) for rep in reps)
        assert covered == _labelled_count(kind, n)


@pytest.mark.parametrize("fault", ["drop", "add"])
def test_a_dedup_that_loses_or_invents_a_class_fails_the_check(monkeypatch, capsys, fault):
    from cubenets import cli, enumeration

    real = enumeration._stream_classes

    def planted(kind, n):
        pairs = real(kind, n)
        if fault == "drop":
            return pairs[1:]
        # a second, non-canonical image of the last class, as a dedup or a
        # walk that failed to recognise it would emit
        rep, stab = pairs[-1]
        return pairs + [(min(orbit_masks(n, rep) - {rep}), stab)]

    monkeypatch.setattr(enumeration, "_stream_classes", planted)
    for kind in ("trees", "paths", "cycles"):
        with pytest.raises(CountMismatchError, match=f"orbit-stabilizer check at n=4 on {kind}"):
            enumeration._listing.__wrapped__(kind, 4)
    # the command fails with exit 1 and prints nothing
    enumeration._listing.cache_clear()
    assert cli.main(["enumerate", "--dim", "4", "--kind", "paths"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("orbit-stabilizer check at n=4 on paths: ")


def reference_random_spanning_tree(n, rng):
    """The sampler as first written, one `randrange` per walk step: the
    oracle for the stream the package's sampler must draw."""
    two_n = 2 * n
    in_tree = [False] * two_n
    succ = [-1] * two_n
    in_tree[0] = True

    def step(u):
        a, b = sorted((u, antipode_index(u, n)))
        v = rng.randrange(two_n - 2)
        if v >= a:
            v += 1
        if v >= b:
            v += 1
        return v

    edges = []
    for v0 in range(1, two_n):
        u = v0
        while not in_tree[u]:
            succ[u] = step(u)
            u = succ[u]
        u = v0
        while not in_tree[u]:
            in_tree[u] = True
            edges.append((u, succ[u]))
            u = succ[u]
    return SpanningSubgraph(n, "tree", tuple(edges))


@pytest.mark.parametrize("n", range(2, 14))
def test_random_spanning_tree_draws_the_reference_stream(n):
    # same trees and the same generator state after every tree, so the
    # sampler takes neither one draw more nor one fewer than randrange would
    for seed in range(24):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_spanning_tree(n, ours).edges == (
                reference_random_spanning_tree(n, ref).edges
            )
            assert ours.getstate() == ref.getstate()


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_count_classes_routes_agree(n):
    for kind in ("cycles", "paths", "ter"):
        direct = count_classes(kind, n)
        assert count_classes(kind, n, "chords") == direct
        assert count_classes(kind, n, "both") == direct
    assert count_classes("ter", n + 1, "both") == count_classes("paths", n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counts_equal_the_listings(n):
    # the count route reads the diagram classes, the listing their walks'
    # canonical masks; both must hold the same classes, and a path counted
    # as ter by the chord joining its ends must be one whose listed ends are
    # antipodal
    kinds = ("paths", "cycles") if n <= DIRECT_LIMITS["paths"] else ("cycles",)
    for kind in kinds:
        assert count_classes(kind, n) == len(enumerate_classes(kind, n))
    if n <= DIRECT_LIMITS["paths"]:
        paths = enumerate_classes("paths", n)
        ter = sum(classify_path(p) == "ter" for p in paths)
        assert count_classes("ter", n) == ter


@pytest.fixture
def fresh_listings():
    from cubenets import enumeration

    enumeration._listing.cache_clear()
    yield enumeration
    enumeration._listing.cache_clear()


def test_a_walk_that_drops_a_class_fails_the_count(monkeypatch, capsys, fresh_listings):
    from cubenets import cli

    real = fresh_listings._diagram_classes_by_loops

    def planted(m, loops):
        # the n=4 cycles (loopless 8-gon) and paths (one-loop 10-gon) each
        # lose their first class
        ds, ss = real(m, loops)
        if (m, loops) in ((8, 0), (10, 1)):
            return ds[1:], ss[1:]
        return ds, ss

    monkeypatch.setattr(fresh_listings, "_diagram_classes_by_loops", planted)
    for kind in ("paths", "cycles", "ter"):
        with pytest.raises(CountMismatchError, match="orbit-stabilizer check at n=4"):
            count_classes(kind, 4)
    assert cli.main(["table", "--max-dim", "4", "--method", "direct"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("orbit-stabilizer check at n=4 on ")


def test_direct_counts_are_refused_before_any_walk(monkeypatch, fresh_listings):
    def no_pass(m, loops):
        raise RuntimeError(f"generated the {m}-gon")

    monkeypatch.setattr(fresh_listings, "_diagram_classes_by_loops", no_pass)
    for kind, n in (("paths", 6), ("ter", 6), ("cycles", 7)):
        for method in ("direct", "both"):
            with pytest.raises(ResourceLimitError, match="DIRECT_LIMITS"):
                count_classes(kind, n, method)


def test_each_caller_generates_only_the_loop_count_it_reads(monkeypatch, fresh_listings):
    # the pass is keyed by (polygon, loops): the table's direct side asks for
    # the loopless 2n-gon (cycles) and the one-loop (2n+2)-gon (paths and
    # ter) and nothing else, and a listing asks for its own loop count alone
    from cubenets import chords

    real = chords._diagram_classes_by_loops
    asked = set()

    def recording(m, loops):
        asked.add((m, loops))
        return real(m, loops)

    monkeypatch.setattr(chords, "_diagram_classes_by_loops", recording)
    monkeypatch.setattr(fresh_listings, "_diagram_classes_by_loops", recording)
    build_table(5, "both")
    assert asked == {(4, 0), (6, 0), (8, 0), (10, 0), (6, 1), (8, 1), (10, 1), (12, 1)}
    asked.clear()
    count_classes("paths", 5)
    assert asked == {(12, 1)}
    asked.clear()
    chords.enumerate_diagrams(16, 0)
    assert asked == {(16, 0)}


def readme_table_rows():
    """The rows of the README's `cubenets table --max-dim 7` example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("$ cubenets table --max-dim 7\n", 1)[1].split("```", 1)[0]
    return [
        TableRow(*map(int, line.split()))
        for line in block.splitlines()
        if line.split() and line.split()[0].isdigit()
    ]


def test_table_counts_without_listing(monkeypatch, fresh_listings):
    # the table's direct side counts the diagram classes: no canonical mask,
    # no materialized subgraph, no endpoint classification, no orbit dedup
    def refused(*args, **kwargs):
        raise RuntimeError("the count route built a listing")

    for name in ("canonical_mask", "subgraph_from_mask", "classify_path", "_orbit_arrays"):
        monkeypatch.setattr(fresh_listings, name, refused)
    rows = readme_table_rows()
    assert [r.n for r in rows] == list(range(2, 8))
    assert build_table(7, "both").rows == tuple(rows)


def test_count_classes_refusals():
    assert count_classes("trees", 3) == 11
    for method in ("chords", "both"):
        # refused before any walk or budget, at any dimension
        for n in (3, 21):
            with pytest.raises(ValueError, match="trees have no diagram route"):
                count_classes("trees", n, method)
    with pytest.raises(ValueError, match="unknown method"):
        count_classes("paths", 3, "guesswork")
    with pytest.raises(ResourceLimitError, match="CHORDS_COUNT_LIMIT"):
        count_classes("ter", 21, "chords")
    # on every route, not a bare KeyError or advice to try another route
    for method in ("direct", "chords", "both"):
        with pytest.raises(ValueError) as err:
            count_classes("bogus", 3, method)
        assert str(err.value) == "unknown kind 'bogus'"
    # the listing route too; "ter" is a count, not a listing
    with pytest.raises(ValueError, match="unknown kind 'ter'"):
        enumerate_classes("ter", 3)


def test_table_direct_equals_chords():
    direct = build_table(4, "direct")
    chords = build_table(4, "chords")
    assert direct.rows == chords.rows
    both = build_table(4, "both")
    assert both.rows == chords.rows


def test_table_row_lookup_and_json():
    table = build_table(3, "chords")
    assert table.rows[3 - 2].paths == 4
    doc = table.to_json()
    assert doc["method"] == "chords"
    assert doc["rows"][1] == {"n": 3, "cycles": 2, "paths": 4, "ter": 1, "ext": 3}


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


def box_histogram(trees):
    """Box partitions of the trees' developments from 1, each box taken by
    `cube_partition_of`, apart from the verification pass."""
    return Counter(cube_partition_of(develop_tree(t, FacetLabel(1))).parts for t in trees)


def test_verify_histograms_match_a_separate_box():
    report = verify_unfoldings(4, exhaustive=True)
    assert report.ok
    assert report.partition_counts == box_histogram(enumerate_classes("trees", 4))
    assert report.partition_counts == {
        (4, 3, 3): 214, (4, 4, 2): 24, (5, 3, 2): 22, (6, 2, 2): 1,
    }
    for n in range(2, 7):
        report = verify_unfoldings(n, samples=200, seed=n)
        rng = random.Random(f"{n}:0")  # the sampler's one stream
        trees = [random_spanning_tree(n, rng) for _ in range(200)]
        assert report.ok
        assert report.partition_counts == box_histogram(trees)


def scalar_report(n, count, seed):
    """The sampled report as it was built before blocks: the trees drawn,
    developed and checked one at a time."""
    report = VerifyReport(n, "samples", seed)
    rng = random.Random(f"{seed}:0")
    for _ in range(count):
        _check_tree(report, random_spanning_tree(n, rng))
    return report


def test_block_reports_equal_the_scalar_route():
    block = tree_block_size(12)
    for samples in (block - 1, block, block + 1):
        report = verify_unfoldings(12, samples=samples, seed=samples)
        assert report.to_json() == scalar_report(12, samples, samples).to_json()


def test_verify_memory_stays_flat_in_the_sample_count():
    # ten blocks of trees peak within one block's bytes of one block
    block = tree_block_size(12)
    verify_unfoldings(12, samples=block, seed=1)  # fill the caches first
    peaks = []
    for samples in (block, 10 * block):
        tracemalloc.start()
        try:
            verify_unfoldings(12, samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < block * _tree_bytes(12)


def test_exhaustive_parent_arrays_are_the_listed_trees(monkeypatch):
    # the exhaustive route reads each class's parents off its mask, with no
    # per-class object: they are the listed trees
    from cubenets import enumeration

    rows = []
    monkeypatch.setattr(enumeration, "_check_trees", lambda report, walk: rows.extend(walk))
    for n in (2, 3, 4):
        rows.clear()
        verify_unfoldings(n, exhaustive=True)
        assert [_tree_from_parents(p) for p in rows] == list(enumerate_classes("trees", n))


def test_an_exhaustive_failure_names_its_listed_tree(monkeypatch):
    from cubenets import enumeration

    monkeypatch.setattr(
        enumeration, "verify_development", lambda dev: (["planted problem"], None)
    )
    kernel = enumeration.develop_parent_block

    def refuse_row_2(start, parents):
        cells, ok = kernel(start, parents)
        ok[2] = False
        return cells, ok

    monkeypatch.setattr(enumeration, "develop_parent_block", refuse_row_2)
    report = verify_unfoldings(3, exhaustive=True)
    tree = enumerate_classes("trees", 3)[2]
    assert report.trees_checked == 11
    assert report.failures == [{"tree": tree.to_json(), "problems": ["planted problem"]}]


def test_a_tree_the_block_refuses_takes_the_scalar_route(monkeypatch):
    from cubenets import enumeration

    kernel = enumeration.develop_parent_block

    def refuse_row_3(start, parents):
        cells, ok = kernel(start, parents)
        ok[3] = False
        return cells, ok

    monkeypatch.setattr(enumeration, "develop_parent_block", refuse_row_3)
    assert verify_unfoldings(6, samples=20, seed=4).to_json() == (
        scalar_report(6, 20, 4).to_json()
    )
    # the scalar route's failure entry is the report's, in stream order
    monkeypatch.setattr(
        enumeration, "verify_development", lambda dev: (["planted problem"], None)
    )
    report = verify_unfoldings(6, samples=20, seed=4)
    rng = random.Random("4:0")
    trees = [random_spanning_tree(6, rng) for _ in range(20)]
    assert report.trees_checked == 20
    assert report.failures == [{"tree": trees[3].to_json(), "problems": ["planted problem"]}]
    assert report.partition_counts == box_histogram(trees[:3] + trees[4:])


@pytest.mark.parametrize(
    "parents",
    [
        [-1, 0, 0, 0, 0, 0],  # facet 1 and its antipode 1* joined
        [-1, 2, 1, 0, 0, 0],  # 2 and 3 hang from each other
    ],
    ids=["antipodal-edge", "cycle"],
)
def test_parent_arrays_that_are_not_trees_raise_develop_trees_error(parents):
    with pytest.raises(ValueError) as scalar:
        develop_tree(_tree_from_parents(parents), FacetLabel(1))
    with pytest.raises(ValueError) as block:
        _check_trees(VerifyReport(3, "samples", 0), [parents])
    assert str(block.value) == str(scalar.value)
    assert str(block.value).startswith("not a spanning tree: ")


def test_verify_exhaustive_budget():
    # exhaustive verification is bounded by the tree listing it walks
    assert DIRECT_LIMITS["trees"] == 5
    with pytest.raises(ResourceLimitError, match="DIRECT_LIMITS"):
        verify_unfoldings(DIRECT_LIMITS["trees"] + 1, exhaustive=True)


def test_verify_argument_errors():
    with pytest.raises(ValueError):
        verify_unfoldings(3)
    # exactly one mode: samples are not quietly dropped beside exhaustive
    with pytest.raises(ValueError, match="exactly one"):
        verify_unfoldings(3, exhaustive=True, samples=5)
    # and a seed is not quietly dropped beside exhaustive
    with pytest.raises(ValueError, match="a seed only applies to samples"):
        verify_unfoldings(4, exhaustive=True, seed=3)
