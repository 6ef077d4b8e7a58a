"""Roll mechanics and tree developments."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenets import rolling
from cubenets.core import FacetLabel, SpanningSubgraph
from cubenets.rolling import (
    Development,
    RevisitError,
    RollSequence,
    develop_path,
    develop_tree,
    development_json,
    initial_state,
    roll,
    uturn_audit,
)

L = FacetLabel.parse


def state_table(state):
    d = {"base": str(state.base), "base*": str(state.base.antipode())}
    for k in range(1, state.n):
        d[f"+{k}"] = str(state.slot(k))
        d[f"-{k}"] = str(state.slot(-k))
    return d


def reference_develop(tree, base):
    """Immutable-state development used as an oracle for the fast engine."""
    n = tree.n
    adj = {i: [] for i in range(2 * n)}
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    placements = {}

    def rec(state, lab, pos):
        placements[lab] = pos
        for c in sorted(adj[lab]):
            if c in placements:
                continue
            slot_dir = None
            for d in range(1, n):
                if state.slot(d).index(n) == c:
                    slot_dir = d
                elif state.slot(-d).index(n) == c:
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
    order, coords, parents, entry = [state.slots[0]], [(0,) * (n - 1)], [-1], [0]
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
        entry.append(d)
    return Development(n, tuple(order), tuple(coords), tuple(parents), tuple(entry))


def outcome(fn, *args):
    """Result of a call, or the identifying parts of the error it raised."""
    try:
        return fn(*args)
    except RevisitError as exc:
        return ("revisit", str(exc.facet), exc.step)
    except ValueError as exc:
        return ("value", str(exc))


@st.composite
def roll_words(draw):
    """A dimension, a base, and a word that mostly avoids revisits: each step
    is a random direction, or one chosen by the oracle to land on a fresh
    facet, or (rarely) out of range."""
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
    assert st.is_coherent()


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
            assert st.is_coherent()
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


def test_word_engine_antipodality_check(monkeypatch):
    def half_roll(slots, d):
        p = 2 * d if d > 0 else 1 - 2 * d
        slots[0], slots[p] = slots[p], slots[0]

    monkeypatch.setattr(rolling, "_roll_in_place", half_roll)
    with pytest.raises(RuntimeError, match="antipodality"):
        develop_path(3, L("1"), [1, 2])


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
    # the word strategy above reaches spanning words, revisits and bad
    # directions; pin one of each so the comparison never runs vacuously
    spanning = [1, 2, 3, 1, 1, 2, 3]
    cases = [(4, L("2*"), spanning), (3, L("1"), [1, 2, -2]), (3, L("1"), [1, 0])]
    got = [outcome(develop_path, *c) for c in cases]
    assert got[0].is_spanning
    assert got[1] == ("revisit", "2", 2)
    assert got[2] == ("value", "direction 0 out of range for dimension 3")
    assert got == [outcome(reference_develop_path, *c) for c in cases]


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
    assert dev.subgraph().edges == tree.edges


def test_develop_tree_rejects_invalid():
    broken = SpanningSubgraph.from_text(3, "1-2,2-3")
    with pytest.raises(ValueError):
        develop_tree(broken, L("1"))
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
    base = develop_tree(tree, L("1")).placement()
    for _ in range(20):
        def shuffle(_lab, children, rng=rng):
            out = list(children)
            rng.shuffle(out)
            return out

        dev = develop_tree(tree, L("1"), child_order=shuffle)
        assert dev.placement() == base


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


def test_develop_path_agrees_with_develop_tree():
    dirs = [1, 2, 1, 2, 1]
    dev = develop_path(3, L("1"), dirs)
    tree = dev.subgraph("path")
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
        entry_dirs=(0, 1, -1),
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
        for lab in dev.order:
            labels, _dirs = dev.root_path(FacetLabel.from_index(lab, 4))
            coords = [dev.coord_of(FacetLabel.from_index(l, 4)) for l in labels]
            dists = [sum(c * c for c in p) for p in coords]
            assert all(a < b for a, b in zip(dists, dists[1:]))
