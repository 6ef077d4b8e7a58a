"""Randomized invariants across modules.  Bulk (10k-case) sweeps live in the
acceptance suite; here hypothesis explores odd corners with shrinking."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cubenets.chords import (
    ChordDiagram,
    _apply_vertex_map,
    _dihedral_maps,
    _edge_image,
    enumerate_diagrams,
)
from cubenets.core import FacetLabel, antipode_index, canonical_mask, roberts_edges
from cubenets.enumeration import random_spanning_tree
from cubenets.nets import (
    CubePartition,
    _box_scan,
    box_parts,
    is_net,
    verify_development,
)
from cubenets.partitions import enumerate_cube_partitions, realize_partition
from cubenets.rolling import develop_path, develop_tree, initial_state
from oracles import (
    apply_subgraph,
    bounding_box,
    box_growth_trace,
    canonical_diagram,
    canonical_net,
    insert_loop,
    is_coherent,
    label_map,
    random_signed_permutation,
    roll,
    uturn_audit,
)
from test_rolling import reference_develop, roll_words

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=6)


def random_state(n, rng):
    base = FacetLabel(rng.randrange(1, n + 1), rng.random() < 0.5)
    state = initial_state(n, base)
    for _ in range(rng.randrange(0, 12)):
        d = rng.choice([s for s in range(1, n) for s in (s, -s)])
        state = roll(state, d)
    return state


@given(dims, seeds)
def test_roll_inverse_and_order_four(n, seed):
    rng = random.Random(seed)
    state = random_state(n, rng)
    for d in range(1, n):
        assert roll(roll(state, d), -d) == state
        assert roll(roll(state, -d), d) == state
        four = state
        for _ in range(4):
            four = roll(four, d)
        assert four == state


@given(dims, seeds)
def test_roll_preserves_coherence_and_bijection(n, seed):
    rng = random.Random(seed)
    state = random_state(n, rng)
    assert is_coherent(state)
    assert sorted(state.slots) == list(range(2 * n))
    for k in range(0, 2 * n, 2):
        assert antipode_index(state.slots[k], n) == state.slots[k + 1]


@given(st.integers(min_value=2, max_value=4), seeds)
def test_canonical_idempotent_and_orbit_constant(n, seed):
    rng = random.Random(seed)
    tree = random_spanning_tree(n, rng)
    mask = canonical_mask(n, tree.mask())
    assert canonical_mask(n, mask) == mask
    g = random_signed_permutation(n, rng)
    assert canonical_mask(n, apply_subgraph(g, tree).mask()) == mask


@given(st.integers(min_value=2, max_value=5), seeds)
def test_develop_tree_ignores_child_order(n, seed):
    rng = random.Random(seed)
    tree = random_spanning_tree(n, rng)
    base = FacetLabel(rng.randrange(1, n + 1), rng.random() < 0.5)
    dev = develop_tree(tree, base)
    shuffled = reference_develop(tree, base, lambda cs: rng.sample(cs, len(cs)))
    assert shuffled == dict(zip(dev.order, dev.coords))


@given(st.integers(min_value=2, max_value=5), seeds)
def test_tree_developments_are_nets_with_unit_growth(n, seed):
    rng = random.Random(seed)
    dev = develop_tree(random_spanning_tree(n, rng), FacetLabel(1))
    assert is_net(dev)
    assert uturn_audit(dev) is None
    trace = box_growth_trace(dev)
    assert trace == list(range(n - 1, 3 * n - 1))


@settings(deadline=None)
@given(roll_words())
def test_roll_built_development_passes_exactly_when_its_extents_sum_to_3n_minus_2(case):
    # the identity the block check rests on: a cell next to a placed one
    # grows the extent sum by at most one, from n-1 over 2n-1 cells
    n, base, word = case
    try:
        dev = develop_path(n, base, word)
    except ValueError:
        return
    if dev.is_spanning:
        extents = bounding_box(dev)
        identity = sum(extents) == 3 * n - 2 and min(extents) >= 2
        assert (verify_development(dev)[0] == []) == identity
        passed, parts = box_parts([extents])
        assert passed.tolist() == [identity]
        assert parts.tolist() == [sorted(extents, reverse=True)]


def cube_partition_accepts(row) -> bool:
    try:
        CubePartition(tuple(row))
    except ValueError:
        return False
    return True


@st.composite
def extent_blocks(draw):
    """A (B, n-1) block of box extents, n = 2..12: rows that are legal
    partitions in some order, rows that sum to 3n-2 with parts of 1 allowed
    (cut at n-2 distinct points), and rows of any extents from 1 to 3n."""
    n = draw(st.integers(min_value=2, max_value=12))
    legal = enumerate_cube_partitions(n).tolist()
    shuffled = st.sampled_from(legal).flatmap(st.permutations)
    cuts = st.lists(
        st.integers(min_value=1, max_value=3 * n - 3),
        min_size=n - 2,
        max_size=n - 2,
        unique=True,
    ).map(sorted)
    summed = cuts.map(lambda c: [b - a for a, b in zip([0, *c], [*c, 3 * n - 2])])
    anything = st.lists(
        st.integers(min_value=1, max_value=3 * n), min_size=n - 1, max_size=n - 1
    )
    return draw(st.lists(shuffled | summed | anything, min_size=1, max_size=20))


@given(extent_blocks())
def test_box_parts_passes_exactly_the_rows_cube_partition_accepts(block):
    passed, parts = box_parts(block)
    assert passed.tolist() == [cube_partition_accepts(row) for row in block]
    assert parts.tolist() == [sorted(row, reverse=True) for row in block]


def naive_box_scan(coords):
    """The first cell that repeats an earlier one, by position, and the box
    extents recomputed from scratch after every cell, and their sums."""
    repeats = [(coords.index(c), k) for k, c in enumerate(coords) if coords.index(c) < k]
    extents = [
        tuple(max(axis) - min(axis) + 1 for axis in zip(*coords[: k + 1]))
        for k in range(len(coords))
    ]
    return (repeats or [None])[0], [sum(e) for e in extents], extents[-1]


@st.composite
def cell_sequences(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    # a small span makes repeated cells common, a wide one rare
    span = draw(st.sampled_from([2, 50]))
    cell = st.tuples(*[st.integers(min_value=-span, max_value=span)] * dim)
    return draw(st.lists(cell, min_size=1, max_size=30))


@given(cell_sequences())
def test_box_scan_matches_naive_recomputation(coords):
    assert _box_scan(coords) == naive_box_scan(coords)


@given(st.integers(min_value=2, max_value=5), seeds)
def test_distance_from_base_strictly_grows(n, seed):
    rng = random.Random(seed)
    dev = develop_tree(random_spanning_tree(n, rng), FacetLabel(1))
    depth = {dev.order[0]: 0}
    for lab, parent, pos in zip(dev.order[1:], dev.parents[1:], dev.coords[1:]):
        depth[lab] = depth[parent] + 1
        assert sum(abs(v) for v in pos) == depth[lab]


@given(st.integers(min_value=2, max_value=5), seeds)
def test_canonical_net_ignores_relabelling(n, seed):
    rng = random.Random(seed)
    tree = random_spanning_tree(n, rng)
    base = FacetLabel(rng.randrange(1, n + 1), rng.random() < 0.5)
    g = random_signed_permutation(n, rng)
    original = canonical_net(develop_tree(tree, base))
    lm = label_map(g)
    moved_base = FacetLabel.from_index(lm[base.index(n)], n)
    moved = canonical_net(develop_tree(apply_subgraph(g, tree), moved_base))
    assert moved == original


@given(st.integers(min_value=2, max_value=9), seeds)
def test_every_partition_realizes_to_its_own_box(n, seed):
    rng = random.Random(seed)
    options = enumerate_cube_partitions(n)
    p = CubePartition(tuple(options[rng.randrange(len(options))].tolist()))
    dev = realize_partition(p).develop()
    assert is_net(dev)
    from cubenets.nets import cube_partition_of

    assert cube_partition_of(dev).parts == p.parts


@settings(max_examples=60)
@given(st.sampled_from([4, 6, 8]), seeds)
def test_insert_loop_commutes_with_symmetry(m, seed):
    rng = random.Random(seed)
    pool = enumerate_diagrams(m, 0)
    d = pool[rng.randrange(len(pool))]
    e = rng.randrange(m)
    want = canonical_diagram(insert_loop(d, e))
    vm = _dihedral_maps(m)[rng.randrange(2 * m)]
    moved = ChordDiagram(m, _apply_vertex_map(d, vm))
    moved_edge = _edge_image(m, vm, e)
    assert canonical_diagram(insert_loop(moved, moved_edge)) == want


@given(seeds)
def test_random_matchings_canonicalize_consistently(seed):
    # pair up shuffled polygon vertices, then check the canonical form is a
    # fixed point and stays put under one more random symmetry
    rng = random.Random(seed)
    m = rng.choice([4, 6, 8, 10])
    verts = list(range(m))
    rng.shuffle(verts)
    mate = [-1] * m
    for k in range(0, m, 2):
        a, b = verts[k], verts[k + 1]
        mate[a], mate[b] = b, a
    d = ChordDiagram(m, tuple(mate))
    canon = canonical_diagram(d)
    assert canonical_diagram(canon) == canon
    vm = _dihedral_maps(m)[rng.randrange(2 * m)]
    assert canonical_diagram(ChordDiagram(m, _apply_vertex_map(d, vm))) == canon


@given(st.integers(min_value=2, max_value=5), seeds)
def test_sampled_trees_hit_only_real_edges(n, seed):
    rng = random.Random(seed)
    tree = random_spanning_tree(n, rng)
    legal = set(roberts_edges(n))
    assert set(tree.edges) <= legal
