"""Acceptance gate: one test per headline claim, with pinned budgets.

Each test prints a single summary line; pytest -v shows pass/fail per
criterion.  Budgets are asserted, not aspirational: a slow pass fails.
"""

import random
import time
from collections import Counter
from math import ceil

import pytest

from cubenets.chords import edge_orbit_count, enumerate_diagrams
from cubenets.core import FacetLabel, SpanningSubgraph, canonical_mask
from cubenets.enumeration import build_table, enumerate_trees, random_spanning_tree
from cubenets.nets import CubePartition, bounding_box, collision, cube_partition_of
from cubenets.partitions import enumerate_cube_partitions, realize_partition
from cubenets.rolling import (
    Development,
    _tree_walk,
    develop_parent_block,
    develop_tree,
    initial_state,
    tree_block_size,
)
from oracles import (
    apply_subgraph,
    box_growth_trace,
    canonical_net,
    cycle_from_diagram,
    is_coherent,
    maxnet_profiles,
    random_signed_permutation,
    roll,
    uturn_audit,
)
from test_rolling import reference_develop

SAMPLE_SEED = 20260817


def _fresh_tree_cache():
    from cubenets.enumeration import _listing

    _listing.cache_clear()


def test_c1_tree_class_counts():
    _fresh_tree_cache()
    t0 = time.perf_counter()
    count3 = len(enumerate_trees(3))
    dt3 = time.perf_counter() - t0
    t0 = time.perf_counter()
    count4 = len(enumerate_trees(4))
    dt4 = time.perf_counter() - t0
    print(f"C1 tree classes: n=3 {count3} in {dt3:.2f}s, n=4 {count4} in {dt4:.2f}s")
    assert count3 == 11
    assert dt3 < 1.0
    assert count4 == 261
    assert dt4 < 60.0


def block_developments(n, trees, base=FacetLabel(1)):
    """Each tree's development from `base`, as `develop_tree` builds it
    from a block of one, with the trees rolled in blocks of
    `tree_block_size(n)`."""
    start = initial_state(n, base)
    size = tree_block_size(n)
    for k in range(0, len(trees), size):
        walks = [_tree_walk(n, tree.edges, start.slots[0]) for tree in trees[k : k + size]]
        cells, ok = develop_parent_block(start, [parents for parents, _ in walks])
        assert ok.all()
        for (parents, order), tree_cells in zip(walks, cells):
            coords = tuple(map(tuple, tree_cells[order].tolist()))
            yield Development(n, tuple(order), coords, tuple(parents[lab] for lab in order))


@pytest.fixture(scope="module")
def development_sweep():
    """Shared by criteria 2 and 3: every n=4 class plus 10,000 sampled trees
    at each of n=5..8, developed once in blocks, with every defect kept."""
    t0 = time.perf_counter()
    collisions = []
    bad_boxes = []
    bad_traces = []
    checked = 0

    def check(n, tree, dev):
        nonlocal checked
        checked += 1
        if collision(dev) is not None:
            collisions.append((n, tree.to_json()))
            return
        box = bounding_box(dev)
        if len(box) != n - 1 or any(v < 2 for v in box) or sum(box) != 3 * n - 2:
            bad_boxes.append((n, tree.to_json(), box))
        if box_growth_trace(dev) != list(range(n - 1, 3 * n - 1)):
            bad_traces.append((n, tree.to_json()))

    sweeps = {4: list(enumerate_trees(4))}
    for n in (5, 6, 7, 8):
        rng = random.Random(f"{SAMPLE_SEED}:{n}")
        sweeps[n] = [random_spanning_tree(n, rng) for _ in range(10_000)]
    for n, trees in sweeps.items():
        for tree, dev in zip(trees, block_developments(n, trees)):
            check(n, tree, dev)
    return {
        "checked": checked,
        "collisions": collisions,
        "bad_boxes": bad_boxes,
        "bad_traces": bad_traces,
        "elapsed": time.perf_counter() - t0,
    }


def test_c2_every_development_is_a_net(development_sweep):
    s = development_sweep
    print(
        f"C2 overlap-free developments: {s['checked']} checked, "
        f"{len(s['collisions'])} collisions, {s['elapsed']:.1f}s"
    )
    assert s["checked"] == 261 + 4 * 10_000
    assert s["collisions"] == []
    assert s["elapsed"] < 300.0


def test_c3_boxes_are_cube_partitions_with_unit_growth(development_sweep):
    s = development_sweep
    print(
        f"C3 box partitions: {s['checked']} nets, "
        f"{len(s['bad_boxes'])} bad boxes, {len(s['bad_traces'])} bad traces"
    )
    assert s["bad_boxes"] == []
    assert s["bad_traces"] == []


def test_c4_partition_realization_roundtrip():
    t0 = time.perf_counter()
    total = 0
    for n in range(2, 13):
        for parts in enumerate_cube_partitions(n).tolist():
            dev = realize_partition(CubePartition(tuple(parts))).develop()
            assert collision(dev) is None
            assert list(cube_partition_of(dev).parts) == parts
            total += 1
    dt = time.perf_counter() - t0
    print(f"C4 realization: {total} partitions round-tripped in {dt:.1f}s")
    assert dt < 60.0


def test_c5_headline_table_via_diagrams():
    t0 = time.perf_counter()
    table = build_table(7, "chords")
    dt = time.perf_counter() - t0
    cycles = [r.cycles for r in table.rows]
    paths = [r.paths for r in table.rows]
    print(f"C5 table: cycles {cycles}, paths {paths}, {dt:.1f}s")
    assert cycles == [1, 2, 7, 29, 196, 1788]
    assert paths == [1, 4, 24, 184, 1911, 24252]
    for prev, row in zip(table.rows, table.rows[1:]):
        assert row.ter == prev.paths
        assert row.ext == row.paths - row.ter
    assert dt < 300.0


def test_c6_direct_and_diagram_methods_agree():
    table = build_table(5, "both")  # raises on any disagreement
    direct = build_table(5, "direct")
    pairs = [
        ((r.cycles, r.paths, r.ter, r.ext), (d.cycles, d.paths, d.ter, d.ext))
        for r, d in zip(table.rows, direct.rows)
    ]
    print(f"C6 dual methods agree on n=2..5: {[a for a, _ in pairs]}")
    for got, want in pairs:
        assert got == want


def test_c7_ext_net_counts_per_cycle():
    t0 = time.perf_counter()
    orbit_counts = []
    for d in enumerate_diagrams(8, 0):
        predicted = edge_orbit_count(d)
        cyc = cycle_from_diagram(d, 4)
        shapes = set()
        for edge in cyc.edges:
            rest = tuple(e for e in cyc.edges if e != edge)
            path = SpanningSubgraph(4, "path", rest)
            shapes.add(canonical_net(develop_tree(path, FacetLabel(1))))
        assert len(shapes) == predicted
        orbit_counts.append(predicted)
    assert sum(orbit_counts) == 20

    profile = Counter(edge_orbit_count(d) for d in enumerate_diagrams(10, 0))
    assert profile[1] == 1
    assert profile[3] == 8
    assert profile[5] == 5
    assert profile[10] == 6
    for absent in (4, 7, 8, 9):
        assert profile[absent] == 0
    total = sum(k * v for k, v in profile.items())
    dt = time.perf_counter() - t0
    print(
        f"C7 ext nets: n=4 per-cycle counts {sorted(orbit_counts)} sum 20, "
        f"n=5 total {total}, {dt:.1f}s"
    )
    assert total == 160
    assert dt < 120.0


def test_c8_extreme_net_counts_exist():
    t0 = time.perf_counter()
    found = {}
    for n in (5, 6, 7, 8):
        hist = maxnet_profiles(n)  # raises if a required value is missing
        found[n] = sorted(set(hist) & {1, ceil(n / 2), n, 2 * n})
    dt = time.perf_counter() - t0
    print(f"C8 profiles: {found}, {dt:.1f}s")
    for n in (5, 6, 7, 8):
        assert found[n] == sorted({1, ceil(n / 2), n, 2 * n})
    assert dt < 120.0


def _random_state(n, rng):
    base = FacetLabel(rng.randrange(1, n + 1), rng.random() < 0.5)
    state = initial_state(n, base)
    for _ in range(rng.randrange(0, 10)):
        state = roll(state, rng.choice([1, -1]) * rng.randrange(1, n))
    return state


def test_c9_randomized_property_sweeps():
    cases = 10_000
    t0 = time.perf_counter()

    rng = random.Random("roll-identities")
    for _ in range(cases):
        n = rng.randrange(2, 7)
        state = _random_state(n, rng)
        d = rng.choice([1, -1]) * rng.randrange(1, n)
        assert roll(roll(state, d), -d) == state
        four = state
        for _ in range(4):
            four = roll(four, d)
        assert four == state

    rng = random.Random("slot-bijection")
    for _ in range(cases):
        n = rng.randrange(2, 7)
        state = _random_state(n, rng)
        assert is_coherent(state)
        assert sorted(state.slots) == list(range(2 * n))

    rng = random.Random("child-order")
    by_start = {}
    for _ in range(cases):
        n = rng.randrange(2, 6)
        tree = random_spanning_tree(n, rng)
        base = FacetLabel(rng.randrange(1, n + 1), rng.random() < 0.5)
        shuffled = reference_develop(tree, base, lambda cs: rng.sample(cs, len(cs)))
        by_start.setdefault((n, base), []).append((tree, shuffled))
    for (n, base), pairs in by_start.items():
        trees = [tree for tree, _ in pairs]
        for (_, shuffled), dev in zip(pairs, block_developments(n, trees, base)):
            assert shuffled == dict(zip(dev.order, dev.coords))

    rng = random.Random("u-turns")
    by_n = {}
    for _ in range(cases):
        n = rng.randrange(2, 7)
        by_n.setdefault(n, []).append(random_spanning_tree(n, rng))
    for n, trees in by_n.items():
        for dev in block_developments(n, trees):
            assert uturn_audit(dev) is None

    rng = random.Random("canonical-idempotence")
    for _ in range(cases):
        n = rng.randrange(2, 5)
        tree = random_spanning_tree(n, rng)
        mask = canonical_mask(n, tree.mask())
        assert canonical_mask(n, mask) == mask
        g = random_signed_permutation(n, rng)
        assert canonical_mask(n, apply_subgraph(g, tree).mask()) == mask

    dt = time.perf_counter() - t0
    print(f"C9 property sweeps: 5 suites x {cases} cases, 0 failures, {dt:.1f}s")
