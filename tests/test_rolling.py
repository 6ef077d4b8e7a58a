"""Roll mechanics and tree developments."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenets import rolling
from cubenets.core import FacetLabel, SpanningSubgraph
from cubenets.enumeration import random_spanning_tree
from cubenets.nets import bounding_box, is_net
from cubenets.rolling import (
    Development,
    RevisitError,
    RollSequence,
    develop_parent_block,
    develop_path,
    develop_tree,
    develop_word_block,
    development_json,
    initial_state,
    tree_block_size,
)
from oracles import (
    is_coherent,
    roll,
    root_path,
    slot,
    slot_table_parent_block,
    uturn_audit,
)

L = FacetLabel.parse


def parents_of(tree):
    """Each facet's parent toward facet 1, as verify's block takes it."""
    return rolling._tree_walk(tree.n, tree.edges, 0)[0]


def state_table(state):
    d = {"base": str(state.base), "base*": str(state.base.antipode())}
    for k in range(1, state.n):
        d[f"+{k}"] = str(slot(state, k))
        d[f"-{k}"] = str(slot(state, -k))
    return d


def reference_develop(tree, base, order=sorted):
    """Immutable-state development used as an oracle for the fast engine.

    Maps label index to cell.  `order` arranges each facet's tree neighbours
    before they are visited; the placement must not depend on it.
    """
    n = tree.n
    adj = {i: [] for i in range(2 * n)}
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    placements = {}

    def rec(state, lab, pos):
        placements[lab] = pos
        for c in order(adj[lab]):
            if c in placements:
                continue
            slot_dir = None
            for d in range(1, n):
                if slot(state, d).index(n) == c:
                    slot_dir = d
                elif slot(state, -d).index(n) == c:
                    slot_dir = -d
            assert slot_dir is not None
            step = [0] * (n - 1)
            step[abs(slot_dir) - 1] = 1 if slot_dir > 0 else -1
            rec(
                roll(state, slot_dir),
                c,
                tuple(p + s for p, s in zip(pos, step)),
            )

    rec(initial_state(n, base), base.index(n), (0,) * (n - 1))
    return placements


def reference_develop_path(n, base, dirs):
    """Immutable-state oracle for develop_path: roll, then place the new base."""
    state = initial_state(n, base)
    order, coords, parents = [state.slots[0]], [(0,) * (n - 1)], [-1]
    for step, d in enumerate(dirs):
        prev = state.slots[0]
        state = roll(state, d)
        lab = state.slots[0]
        if lab in order:
            raise RevisitError(FacetLabel.from_index(lab, n), step)
        unit = [0] * (n - 1)
        unit[abs(d) - 1] = 1 if d > 0 else -1
        order.append(lab)
        coords.append(tuple(a + b for a, b in zip(coords[-1], unit)))
        parents.append(prev)
    return Development(n, tuple(order), tuple(coords), tuple(parents))


def outcome(fn, *args):
    """Result of a call, or the identifying parts of the error it raised."""
    try:
        return fn(*args)
    except RevisitError as exc:
        return ("revisit", str(exc.facet), exc.step)
    except ValueError as exc:
        return ("value", str(exc))


@st.composite
def roll_words(draw, n=None, base=None):
    """A dimension, a base, and a word that mostly avoids revisits: each step
    is a random direction, or one chosen by the oracle to land on a fresh
    facet, or (rarely) out of range."""
    if n is None:
        n = draw(st.integers(min_value=2, max_value=8))
        base = FacetLabel(draw(st.integers(1, n)), draw(st.booleans()))
    state = initial_state(n, base)
    seen = {state.slots[0]}
    word = []
    length = draw(st.one_of(st.just(2 * n - 1), st.integers(0, 2 * n + 1)))
    for _ in range(length):
        dirs = [d for k in range(1, n) for d in (k, -k)]
        fresh = [d for d in dirs if roll(state, d).slots[0] not in seen]
        mode = draw(st.sampled_from(["fresh"] * 14 + ["any", "out"]))
        if mode == "out":
            word.append(draw(st.sampled_from([0, n, -n, n + 3])))
            break
        if mode == "fresh" and fresh:
            d = draw(st.sampled_from(fresh))
        else:
            d = draw(st.sampled_from(dirs))
        word.append(d)
        state = roll(state, d)
        seen.add(state.slots[0])
    return n, base, word


# ---------------------------------------------------------------------------
# states and single rolls


def test_initial_state_convention():
    st = initial_state(3, L("1"))
    assert state_table(st) == {
        "base": "1",
        "base*": "1*",
        "+1": "2",
        "-1": "2*",
        "+2": "3",
        "-2": "3*",
    }
    assert is_coherent(st)


def test_initial_state_skips_base_axis():
    st = initial_state(4, L("2"))
    assert state_table(st) == {
        "base": "2",
        "base*": "2*",
        "+1": "1",
        "-1": "1*",
        "+2": "3",
        "-2": "3*",
        "+3": "4",
        "-3": "4*",
    }


def test_roll_four_cycle():
    st = roll(initial_state(3, L("1")), 1)
    assert state_table(st) == {
        "base": "2",
        "base*": "2*",
        "+1": "1*",
        "-1": "1",
        "+2": "3",
        "-2": "3*",
    }


def test_roll_inverse_and_order_four():
    rng = random.Random(3)
    for n in (2, 3, 5):
        st = initial_state(n, L("1"))
        for _ in range(30):
            d = rng.choice([k for k in range(-(n - 1), n) if k != 0])
            st = roll(st, d)
            assert is_coherent(st)
            assert roll(roll(st, -d), d) == st
            four = st
            for _ in range(4):
                four = roll(four, d)
            assert four == st


def test_direction_bounds():
    state = initial_state(3, L("1"))
    for d in (0, 3, -3):
        with pytest.raises(ValueError):
            roll(state, d)


def test_roll_antipodality_check(monkeypatch):
    # send -d to the slot of another direction: the old base would land
    # opposite a facet that is not its antipode
    monkeypatch.setattr(rolling, "_slot_index", lambda d: 2 if d > 0 else 5)
    with pytest.raises(RuntimeError, match="antipodality"):
        roll(initial_state(3, L("1")), 1)


# ---------------------------------------------------------------------------
# path developments


def test_staircase_development():
    dev = develop_path(3, L("1"), [1, 2, 1, 2, 1])
    assert dev.is_spanning
    want = {
        "1": (0, 0),
        "2": (1, 0),
        "3": (1, 1),
        "1*": (2, 1),
        "2*": (2, 2),
        "3*": (3, 2),
    }
    assert {str(k): v for k, v in dev.placement().items()} == want
    assert [str(FacetLabel.from_index(i, 3)) for i in dev.order] == [
        "1",
        "2",
        "3",
        "1*",
        "2*",
        "3*",
    ]


def test_partial_development_is_legal():
    dev = develop_path(3, L("1"), [1, 2])
    assert not dev.is_spanning
    assert len(dev.order) == 3


def test_revisit_raises():
    with pytest.raises(RevisitError) as exc:
        develop_path(3, L("1"), [1, -1])
    assert exc.value.step == 1
    assert str(exc.value.facet) == "1"


def test_line_development_dim2():
    dev = develop_path(2, L("1"), [1, 1, 1])
    assert [p[0] for p in dev.coords] == [0, 1, 2, 3]
    assert [str(FacetLabel.from_index(i, 2)) for i in dev.order] == [
        "1",
        "2",
        "1*",
        "2*",
    ]


def test_word_engine_half_roll_is_caught_by_the_oracle(monkeypatch):
    # a planted roll that swaps only the base and the slot rolled toward
    # breaks antipodality; no check in the engine looks for that, so the
    # oracle must see the development change
    def half_roll(slots, p):
        k = np.arange(len(p))
        slots[k, 0], slots[k, p] = slots[k, p], slots[k, 0]

    word = [1, 2, 1, 2, 1]
    want = reference_develop_path(3, L("1"), word)
    assert develop_path(3, L("1"), word) == want
    monkeypatch.setattr(rolling, "_roll_rows", half_roll)
    assert outcome(develop_path, 3, L("1"), word) != want


@settings(max_examples=400, deadline=None)
@given(roll_words())
def test_develop_path_matches_roll_oracle(case):
    n, base, word = case
    got = outcome(develop_path, n, base, word)
    assert got == outcome(reference_develop_path, n, base, word)
    if isinstance(got, Development):
        seq = RollSequence(n, initial_state(n, base), tuple(word))
        assert seq.develop() == got


def test_roll_oracle_cases_cover_every_outcome():
    # the word strategy above reaches spanning words, revisits, bad
    # directions and the empty word; pin one of each so the comparison
    # never runs vacuously
    spanning = [1, 2, 3, 1, 1, 2, 3]
    cases = [
        (4, L("2*"), spanning),
        (3, L("1"), [1, 2, -2]),
        (3, L("1"), [1, 0]),
        (3, L("3*"), []),
    ]
    got = [outcome(develop_path, *c) for c in cases]
    assert got[0].is_spanning
    assert got[1] == ("revisit", "2", 2)
    assert got[2] == ("value", "direction 0 out of range for dimension 3")
    assert got[3] == Development(3, (5,), ((0, 0),), (-1,))
    assert got == [outcome(reference_develop_path, *c) for c in cases]
    for (n, base, word), want in zip(cases, got):
        assert outcome(RollSequence(n, initial_state(n, base), tuple(word)).develop) == want


def test_roll_sequence_develops_like_path():
    seq = RollSequence(3, initial_state(3, L("1")), (1, 2, 1, 2, 1))
    assert seq.develop() == develop_path(3, L("1"), [1, 2, 1, 2, 1])


def test_development_json_staircase():
    dev = develop_path(3, L("1"), [1, 2, 1, 2, 1])
    assert development_json(dev) == {
        "n": 3,
        "base": "1",
        "facets": [
            {"label": "1", "coord": [0, 0]},
            {"label": "2", "coord": [1, 0]},
            {"label": "3", "coord": [1, 1]},
            {"label": "1*", "coord": [2, 1]},
            {"label": "2*", "coord": [2, 2]},
            {"label": "3*", "coord": [3, 2]},
        ],
        "tree": [
            ["1", "2"],
            ["2", "3"],
            ["3", "1*"],
            ["1*", "2*"],
            ["2*", "3*"],
        ],
    }


# ---------------------------------------------------------------------------
# tree developments


def test_cross_development():
    tree = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,2-1*")
    dev = develop_tree(tree, L("1"))
    want = {
        "1": (0, 0),
        "2": (1, 0),
        "2*": (-1, 0),
        "3": (0, 1),
        "3*": (0, -1),
        "1*": (2, 0),
    }
    assert {str(k): v for k, v in dev.placement().items()} == want
    assert SpanningSubgraph(dev.n, "tree", dev.tree_edges()).edges == tree.edges


def test_develop_tree_rejects_invalid():
    broken = SpanningSubgraph.from_text(3, "1-2,2-3")
    with pytest.raises(ValueError) as err:
        develop_tree(broken, L("1"))
    assert str(err.value) == "not a spanning tree: wrong edge count: expected 5, got 2"
    cross = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,2-1*", kind="path")
    with pytest.raises(ValueError) as err:
        develop_tree(cross, L("1"))
    assert str(err.value) == "not a spanning path: wrong degrees: 4 endpoints, expected 2"
    cyc = SpanningSubgraph.from_text(2, "1-2,2-1*,1*-2*,2*-1", kind="cycle")
    with pytest.raises(ValueError):
        develop_tree(cyc, L("1"))


def test_develop_tree_slot_check(monkeypatch):
    # an edge between antipodes is not a Roberts edge; with validation
    # switched off, the child 1* sits in the base-antipode slot
    monkeypatch.setattr(rolling, "validate", lambda tree: None)
    bad = SpanningSubgraph.from_text(2, "1-1*,1-2,1-2*")
    with pytest.raises(RuntimeError, match="base antipode"):
        develop_tree(bad, L("1"))


def test_develop_tree_child_order_invariance():
    rng = random.Random(41)
    tree = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,2-1*")
    dev = develop_tree(tree, L("1"))
    # preorder, children in label order
    assert dev.order == (0, 1, 3, 2, 4, 5)
    placed = dict(zip(dev.order, dev.coords))
    for _ in range(20):
        shuffled = reference_develop(tree, L("1"), lambda cs: rng.sample(cs, len(cs)))
        assert shuffled == placed


def test_develop_tree_matches_reference():
    from test_core import random_tree

    rng = random.Random(2718)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            tree = random_tree(n, rng)
            base = FacetLabel.from_index(rng.randrange(2 * n), n)
            dev = develop_tree(tree, base)
            assert dev.is_spanning
            assert dev.placement() == {
                FacetLabel.from_index(lab, n): pos
                for lab, pos in reference_develop(tree, base).items()
            }


def test_develop_tree_deeper_than_the_recursion_limit():
    # the spanning path 1-2-...-n-1*-...-n*, 1199 rolls deep from facet 1
    n = 600
    labels = [f"{k}{star}" for star in ("", "*") for k in range(1, n + 1)]
    tree = SpanningSubgraph.from_text(
        n, ",".join(f"{a}-{b}" for a, b in zip(labels, labels[1:]))
    )
    dev = develop_tree(tree, L("1"))
    assert [str(FacetLabel.from_index(lab, n)) for lab in dev.order] == labels
    assert dev.parents == (-1, *dev.order[:-1])
    assert is_net(dev)


def test_develop_path_agrees_with_develop_tree():
    dirs = [1, 2, 1, 2, 1]
    dev = develop_path(3, L("1"), dirs)
    tree = SpanningSubgraph(dev.n, "path", dev.tree_edges())
    assert develop_tree(tree, L("1")).placement() == dev.placement()


# ---------------------------------------------------------------------------
# u-turn audit and distance growth


def test_uturn_audit_clean_on_developments():
    from test_core import random_tree

    assert uturn_audit(develop_path(3, L("1"), [1, 2, 1, 2, 1])) is None
    rng = random.Random(99)
    for _ in range(40):
        tree = random_tree(4, rng)
        assert uturn_audit(develop_tree(tree, L("1"))) is None


def test_uturn_audit_flags_synthetic_backtrack():
    dev = Development(
        n=3,
        order=(0, 1, 3),
        coords=((0, 0), (1, 0), (0, 0)),
        parents=(-1, 0, 1),
    )
    hit = uturn_audit(dev)
    assert hit is not None
    labels, dirs = hit
    assert dirs == (1, -1)


def test_distance_from_base_strictly_grows():
    from test_core import random_tree

    rng = random.Random(12)
    for _ in range(40):
        tree = random_tree(4, rng)
        dev = develop_tree(tree, L("2"))
        coord_of = dict(zip(dev.order, dev.coords))
        for lab in dev.order:
            labels, _dirs = root_path(dev, FacetLabel.from_index(lab, 4))
            coords = [coord_of[l] for l in labels]
            dists = [sum(c * c for c in p) for p in coords]
            assert all(a < b for a, b in zip(dists, dists[1:]))


# ---------------------------------------------------------------------------
# the block kernel against the immutable-roll oracle


def kernel_bases(n, rng):
    """The starts the kernel test rolls from: every base at n = 3 and 4,
    facet 1 and three random bases at n = 9 and 70, facet 1 elsewhere."""
    if n in (3, 4):
        return [FacetLabel.from_index(b, n) for b in range(2 * n)]
    if n in (9, 70):
        return [L("1")] + [FacetLabel.from_index(rng.randrange(1, 2 * n), n) for _ in range(3)]
    return [L("1")]


@pytest.mark.parametrize("n", [*range(2, 10), 70])
def test_parent_block_cells_match_develop_tree(n):
    # develop_tree is itself a block of one, so the kernel is held to the
    # immutable-roll oracle; at n=70 the 140 labels no longer fit int8 entries
    rng = random.Random(n)
    for base in kernel_bases(n, rng):
        root = base.index(n)
        trees = [random_spanning_tree(n, rng) for _ in range(5 if n == 70 else 40)]
        rows = [rolling._tree_walk(n, t.edges, root)[0] for t in trees]
        # the root's own entry is not read: an in-range label develops as -1
        rows.append(rows[0][:])
        rows[-1][root] = rng.randrange(2 * n)
        cells, ok = develop_parent_block(initial_state(n, base), rows)
        assert ok.all()
        assert cells[-1].tolist() == cells[0].tolist()
        for tree, block_cells in zip(trees, cells.tolist()):
            assert reference_develop(tree, base) == {
                lab: tuple(pos) for lab, pos in enumerate(block_cells)
            }


def test_parent_block_marks_rows_that_are_not_trees():
    n = 4
    tree = parents_of(SpanningSubgraph.from_text(n, "1-2,1-2*,1-3,1-3*,1-4,1-4*,2-1*"))
    assert tree == [-1, 0, 0, 0, 1, 0, 0, 0]

    def edited(parents):
        row = tree[:]
        for v, p in parents.items():
            row[v] = p
        return row

    # label indices at n=4: 0..3 are facets 1..4, 4..7 are 1*..4*
    rows = [
        tree,
        edited({1: 1}),  # facet 2 hangs from itself
        edited({1: 5}),  # facet 2 hangs from its antipode 2*
        edited({1: 2, 2: 1}),  # 2 and 3 hang from each other
        edited({3: -1}),  # facet 4 has no parent
        edited({0: 7}),  # facet 1's own entry is not read
    ]
    _cells, ok = develop_parent_block(initial_state(n, L("1")), np.array(rows))
    assert ok.tolist() == [True, False, False, False, False, True]


def planted_rows(n, rng):
    """Random parent rows of the n-cube, most with one planted fault: a
    facet hanging from itself or from its antipode, two facets hanging
    from each other, a facet with no parent, or a few random entries."""
    rows = []
    for k in range(60 if n < 60 else 12):
        row = parents_of(random_spanning_tree(n, rng))
        v, w = rng.randrange(1, 2 * n), rng.randrange(1, 2 * n)
        fault = k % 6
        if fault == 1:
            row[v] = v
        elif fault == 2:
            row[v] = (v + n) % (2 * n)
        elif fault == 3 and v != w:
            row[v], row[w] = w, v
        elif fault == 4:
            row[v] = -1
        elif fault == 5:
            for _ in range(rng.randrange(1, 4)):
                row[rng.randrange(2 * n)] = rng.randrange(-1, 2 * n)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [*range(2, 10), 63, 64, 70])
def test_parent_block_matches_the_slot_table_oracle(n):
    # n=63 is the last dimension whose labels fit int8 entries, 64 the first
    # on int16
    rows = planted_rows(n, random.Random(n))
    cells, ok = develop_parent_block(initial_state(n, L("1")), rows)
    want_cells, want_ok = slot_table_parent_block(rows)
    assert cells.dtype == want_cells.dtype == (np.int8 if n <= 63 else np.int16)
    assert ok.tolist() == want_ok.tolist()
    assert ok.any() and not ok.all()
    assert cells[ok].tolist() == want_cells[ok].tolist()


def test_tree_blocks_hold_about_192_kb_of_rows():
    # a facet row holds five 8-byte row indices, 2n+3 entries of one byte
    # up to 2n = 127 and of two past it, and a placed flag
    assert rolling._tree_bytes(12) == 24 * (5 * 8 + 27 + 1)
    assert tree_block_size(12) == (192 << 10) // (24 * 68) == 120
    assert tree_block_size(40) == (192 << 10) // (80 * (40 + 83 + 1))
    assert tree_block_size(70) == (192 << 10) // (140 * (40 + 143 * 2 + 1)) == 4


@st.composite
def word_blocks(draw):
    """A dimension, a base, and two or three words from it cut to one length."""
    n, base, word = draw(roll_words())
    words = [word] + [draw(roll_words(n, base))[2] for _ in range(draw(st.integers(1, 2)))]
    length = min(map(len, words))
    return n, base, [w[:length] for w in words]


@settings(max_examples=250, deadline=None)
@given(word_blocks())
def test_word_block_matches_develop_path(case):
    # every row against the oracle; a block with a refused row raises the
    # first such row's error
    n, base, words = case
    want = [outcome(reference_develop_path, n, base, word) for word in words]
    got = outcome(develop_word_block, initial_state(n, base), words)
    refused = [w for w in want if not isinstance(w, Development)]
    if refused:
        assert got == refused[0]
    else:
        extents, placed = got
        assert placed.dtype == np.int8
        assert placed.tolist() == [list(dev.order) for dev in want]
        assert [tuple(e) for e in extents.tolist()] == [bounding_box(dev) for dev in want]


def test_word_block_rolls_many_words_at_once():
    # the oracle cases of every outcome, side by side in one block: the
    # first refused row raises, even where a later row breaks earlier
    spanning, revisit, bad = [1, 2, 3, 1, 1, 2, 3], [1, 2, -2, 1, 1, 1, 1], [1, 0, 1, 1, 1, 1, 1]
    start = initial_state(4, L("2*"))
    assert outcome(develop_word_block, start, [spanning, revisit, bad]) == (
        outcome(reference_develop_path, 4, L("2*"), revisit)
    ) == ("revisit", "1", 2)
    assert outcome(develop_word_block, start, [spanning, bad, revisit]) == (
        "value", "direction 0 out of range for dimension 4",
    )
    extents, placed = develop_word_block(start, [spanning, spanning[::-1]])
    dev = develop_path(4, L("2*"), spanning)
    assert tuple(extents[0].tolist()) == bounding_box(dev)
    assert tuple(placed[0].tolist()) == dev.order
    # empty words place the base alone
    extents, placed = develop_word_block(start, [[], []])
    assert extents.tolist() == [[1, 1, 1]] * 2
    assert placed.tolist() == [[start.slots[0]]] * 2
