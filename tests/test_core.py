"""Labels, Roberts edges, validation, and canonical forms."""

import random

import pytest

from cubenets.core import (
    FacetLabel,
    SignedPermutation,
    SpanningSubgraph,
    antipode_index,
    canonical_form,
    canonical_mask,
    dedup_canonical_masks,
    group_order,
    orbit_masks,
    roberts_edges,
    signed_permutations,
    stabilizer_order,
    subgraph_from_mask,
    validate,
)
from cubenets.enumeration import (
    _dedup_restricted,
    _raw_cycle_masks,
    _raw_path_masks,
    _raw_tree_masks,
)


def random_tree(n, rng):
    """Kruskal on a shuffled edge list; independent of the library enumerators."""
    edges = list(roberts_edges(n))
    rng.shuffle(edges)
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
    return SpanningSubgraph(n, "tree", tuple(chosen))


def naive_canonical(sub):
    """Reference canonicalization: minimum sorted edge list over the group."""
    best = None
    for g in signed_permutations(sub.n):
        img = g.apply_subgraph(sub).edges
        if best is None or img < best:
            best = img
    return SpanningSubgraph(sub.n, sub.kind, best)


# ---------------------------------------------------------------------------
# labels


def test_label_parse_format_roundtrip():
    for text in ("1", "3*", "12", "12*"):
        assert str(FacetLabel.parse(text)) == text


def test_label_parse_rejects_garbage():
    for text in ("0", "-1", "1**", "x", "", "*2"):
        with pytest.raises(ValueError):
            FacetLabel.parse(text)


def test_antipode_involution():
    lab = FacetLabel(3)
    assert lab.antipode() == FacetLabel(3, True)
    assert lab.antipode().antipode() == lab


def test_label_order_unstarred_then_starred():
    n = 3
    order = sorted(
        (FacetLabel(a, s) for a in (1, 2, 3) for s in (False, True)),
        key=lambda l: l.index(n),
    )
    assert [str(l) for l in order] == ["1", "2", "3", "1*", "2*", "3*"]


def test_antipode_index_matches_label_antipode():
    n = 4
    for i in range(2 * n):
        lab = FacetLabel.from_index(i, n)
        assert antipode_index(i, n) == lab.antipode().index(n)


# ---------------------------------------------------------------------------
# Roberts edges


def test_roberts_edge_count():
    # complete graph minus the n antipodal pairs
    for n in range(2, 8):
        expected = (2 * n) * (2 * n - 1) // 2 - n
        assert len(roberts_edges(n)) == expected
    assert len(roberts_edges(4)) == 24


def test_roberts_edges_rank_order():
    for n in (2, 3, 4):
        edges = roberts_edges(n)
        assert list(edges) == sorted(edges)
        assert all(i < j and j - i != n for i, j in edges)


# ---------------------------------------------------------------------------
# subgraph construction and validation


def test_from_text_roundtrip():
    sub = SpanningSubgraph.from_text(3, "1-2, 1-2*, 1-3, 1-3*, 2-1*")
    assert sub.to_json() == [
        ["1", "2"],
        ["1", "3"],
        ["1", "2*"],
        ["1", "3*"],
        ["2", "1*"],
    ]
    assert validate(sub) is None
    again = SpanningSubgraph.from_json(3, sub.to_json())
    assert again == sub


def test_edges_normalized_and_deduped():
    a = SpanningSubgraph.from_text(2, "1-2,2-1,1-2*")
    assert len(a.edges) == 2


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        SpanningSubgraph(2, "tree", ((1, 1), (0, 1), (0, 3)))


def test_validate_good_tree():
    assert validate(SpanningSubgraph.from_text(2, "1-2,2-1*,1*-2*")) is None


def test_validate_antipodal_edge():
    sub = SpanningSubgraph.from_text(3, "1-2,2-3,3-1*,1*-2*,2-2*")
    assert "antipodal edge 2-2*" in validate(sub)


def test_validate_wrong_edge_count():
    sub = SpanningSubgraph.from_text(3, "1-2,2-3")
    assert "wrong edge count" in validate(sub)


def test_validate_cycle_present():
    sub = SpanningSubgraph.from_text(3, "1-2,2-3,3-1,1*-2*,2*-3*")
    assert validate(sub) == "cycle present"


def test_validate_disconnected_cycle():
    # two disjoint squares: right degrees, wrong connectivity
    sub = SpanningSubgraph.from_text(
        4, "1-2,2-1*,1*-2*,2*-1,3-4,4-3*,3*-4*,4*-3", kind="cycle"
    )
    assert validate(sub) == "disconnected"


def test_validate_path_degrees():
    star = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,2-1*", kind="path")
    assert "wrong degrees" in validate(star)
    snake = SpanningSubgraph.from_text(3, "1-2,2-3,3-1*,1*-2*,2*-3*", kind="path")
    assert validate(snake) is None


def test_validate_cycle():
    good = SpanningSubgraph.from_text(2, "1-2,2-1*,1*-2*,2*-1", kind="cycle")
    assert validate(good) is None
    bad = SpanningSubgraph.from_text(3, "1-2,2-3,3-1,1-1*,1*-2*,2*-3*", kind="cycle")
    assert validate(bad) is not None


# ---------------------------------------------------------------------------
# signed permutations


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_order(n):
    assert group_order(n) == len(list(signed_permutations(n)))


def test_label_map_bijective_and_antipodal():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            flips = tuple(rng.random() < 0.5 for _ in range(n))
            g = SignedPermutation(tuple(perm), flips)
            lm = g.label_map()
            assert sorted(lm) == list(range(2 * n))
            for i in range(2 * n):
                assert lm[antipode_index(i, n)] == antipode_index(lm[i], n)


def test_apply_preserves_validity():
    rng = random.Random(11)
    for _ in range(50):
        tree = random_tree(3, rng)
        g = SignedPermutation((2, 3, 1), (True, False, True))
        assert validate(g.apply_subgraph(tree)) is None


# ---------------------------------------------------------------------------
# canonical forms


def test_star_trees_same_canonical_form():
    # the two stars differ by swapping axes 2 and 3
    a = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,2-1*")
    b = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,3-1*")
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a).edges == naive_canonical(a).edges


def test_canonical_is_idempotent_and_matches_naive():
    rng = random.Random(2024)
    for n in (2, 3, 4):
        for _ in range(25):
            tree = random_tree(n, rng)
            canon = canonical_form(tree)
            assert canonical_form(canon) == canon
            assert canon.edges == naive_canonical(tree).edges


def test_canonical_constant_on_orbit():
    rng = random.Random(5)
    tree = random_tree(4, rng)
    canon = canonical_form(tree)
    for g in signed_permutations(4):
        assert canonical_form(g.apply_subgraph(tree)) == canon


def test_orbit_stabilizer_product():
    rng = random.Random(99)
    for n in (2, 3, 4):
        for _ in range(10):
            mask = random_tree(n, rng).mask()
            orbit = len(orbit_masks(n, mask))
            assert orbit * stabilizer_order(n, mask) == group_order(n)


def test_canonical_form_capped_at_full_expansion():
    tree = random_tree(7, random.Random(7))
    with pytest.raises(ValueError, match="full group expansion capped at n=6"):
        canonical_mask(7, tree.mask())
    with pytest.raises(ValueError, match="full group expansion capped at n=6"):
        canonical_form(tree)


def test_dedup_emits_canonical_representatives():
    rng = random.Random(17)
    raw = [random_tree(3, rng).mask() for _ in range(200)]
    reps = dedup_canonical_masks(3, raw)
    assert len(reps) == len(set(reps))
    for mask in reps:
        assert canonical_mask(3, mask) == mask
    # every input collapses onto exactly one emitted representative
    for mask in raw:
        assert canonical_mask(3, mask) in reps
    # the enumeration's restricted dedup, which remembers only images holding
    # edge rank 0, gives the same list on every direct stream
    for raw_masks, top in (
        (_raw_tree_masks, 4),
        (_raw_path_masks, 5),
        (_raw_cycle_masks, 5),
    ):
        for n in range(2, top + 1):
            stream = list(raw_masks(n))
            assert all(mask & 1 for mask in stream)
            assert _dedup_restricted(n, stream) == dedup_canonical_masks(n, stream)


def test_subgraph_mask_roundtrip():
    rng = random.Random(4)
    for n in (2, 3, 4):
        tree = random_tree(n, rng)
        assert subgraph_from_mask(n, tree.mask(), "tree") == tree
