"""Boxes, partitions of nets, growth traces, canonical shapes, rendering."""

import random

import pytest

from cubenets.core import FacetLabel, SpanningSubgraph
from cubenets.nets import (
    CubePartition,
    bounding_box,
    collision,
    cube_partition_of,
    is_net,
    net_json,
    render_svg,
    verify_development,
)
from cubenets.rolling import Development, develop_path, develop_tree
from oracles import box_growth_trace, canonical_net

L = FacetLabel.parse


def staircase():
    return develop_path(3, L("1"), [1, 2, 1, 2, 1])


def cross():
    tree = SpanningSubgraph.from_text(3, "1-2,1-2*,1-3,1-3*,2-1*")
    return develop_tree(tree, L("1"))


# ---------------------------------------------------------------------------
# partitions as values


def test_partition_normalizes_descending():
    assert CubePartition((2, 4, 4)).parts == (4, 4, 2)


def test_partition_rejects_bad_sums_and_parts():
    with pytest.raises(ValueError):
        CubePartition((3, 3))  # sums to 6, needs 7
    with pytest.raises(ValueError):
        CubePartition((6, 1))  # part below 2
    with pytest.raises(ValueError):
        CubePartition(())


def test_partition_dimension():
    assert CubePartition((4, 3)).n == 3
    assert CubePartition((4,)).n == 2


# ---------------------------------------------------------------------------
# boxes and traces


def test_staircase_box_and_partition():
    dev = staircase()
    assert collision(dev) is None
    assert is_net(dev)
    assert bounding_box(dev) == (4, 3)
    assert cube_partition_of(dev) == CubePartition((4, 3))


def test_cross_box_matches_staircase_partition():
    dev = cross()
    assert bounding_box(dev) == (4, 3)
    assert cube_partition_of(dev) == CubePartition((4, 3))


def test_growth_trace_unit_steps():
    assert box_growth_trace(staircase()) == [2, 3, 4, 5, 6, 7]
    assert box_growth_trace(cross()) == [2, 3, 4, 5, 6, 7]


def test_growth_trace_random_trees():
    from test_core import random_tree

    rng = random.Random(8)
    for n in (2, 3, 4, 5):
        for _ in range(15):
            dev = develop_tree(random_tree(n, rng), L("1"))
            assert box_growth_trace(dev) == list(range(n - 1, 3 * n - 1))
            problems, partition = verify_development(dev)
            assert problems == [] and partition == cube_partition_of(dev)


def test_partition_requires_spanning():
    with pytest.raises(ValueError):
        cube_partition_of(develop_path(3, L("1"), [1, 2]))


# ---------------------------------------------------------------------------
# canonical shapes


def test_staircase_and_cross_share_box_not_shape():
    a, b = staircase(), cross()
    assert cube_partition_of(a) == cube_partition_of(b)
    assert canonical_net(a) != canonical_net(b)


def test_canonical_net_invariant_under_motions():
    rng = random.Random(77)
    dev = staircase()
    base_shape = canonical_net(dev)
    # mirrored staircase: same shape
    mirrored = develop_path(3, L("1"), [2, 1, 2, 1, 2])
    assert canonical_net(mirrored) == base_shape
    # development from the other end of the same path walks the mirror image
    tree = SpanningSubgraph(dev.n, "path", dev.tree_edges())
    other_end = develop_tree(tree, L("3*"))
    assert canonical_net(other_end) == base_shape


def test_canonical_net_separates_different_paths():
    a = develop_path(3, L("1"), [1, 1, 2, 1, 1])
    b = develop_path(3, L("1"), [1, 2, 1, 2, 1])
    assert canonical_net(a) != canonical_net(b)


# ---------------------------------------------------------------------------
# reporting and serialization


def test_verify_development_flags_partial():
    report, partition = verify_development(develop_path(3, L("1"), [1, 2]))
    assert any("covers 3 of 6" in p for p in report)
    assert partition is None


def hand_built(n, coords):
    """A development that visits facets in label order and puts them on the
    given cells; its parents play no part in checking."""
    k = len(coords)
    parents = (-1,) + tuple(range(k - 1))
    return Development(n, tuple(range(k)), tuple(coords), parents)


def test_verify_development_flags_collision():
    # 2* lands back on 2's cell; the box complaint comes from the same scan,
    # and the partition is not judged once cells collide
    dev = hand_built(2, [(0,), (1,), (2,), (1,)])
    assert verify_development(dev) == ([
        "collision between 2 and 2*",
        "box sum trace [1, 2, 3, 3] is not unit growth",
    ], None)


def test_verify_development_flags_collision_in_partial():
    dev = hand_built(3, [(0, 0), (1, 0), (0, 0)])
    assert verify_development(dev) == (
        ["collision between 1 and 3", "covers 3 of 6 facets"], None
    )


def test_verify_development_flags_jumps_of_two():
    dev = hand_built(3, [(0, 0), (2, 0), (4, 0), (0, 2), (0, 4), (2, 2)])
    assert verify_development(dev) == ([
        "box sum trace [2, 4, 6, 8, 10, 10] is not unit growth",
        "parts (5, 5) sum to 10, expected 7",
    ], None)


def test_verify_development_withholds_partition_of_a_bad_trace():
    # cells distinct and a legal (4, 3) box, but the second cell grows it by two
    dev = hand_built(3, [(0, 0), (2, 0), (1, 0), (3, 0), (0, 1), (0, 2)])
    assert bounding_box(dev) == (4, 3)
    assert verify_development(dev) == (
        ["box sum trace [2, 4, 4, 5, 6, 7] is not unit growth"], None
    )


def test_collision_names_the_first_repeat_in_visiting_order():
    # 3 repeats 1's cell before 2* repeats 2's
    dev = hand_built(3, [(0, 0), (1, 0), (0, 0), (2, 0), (1, 0), (3, 0)])
    assert collision(dev) == (L("1"), L("3"))
    assert not is_net(dev)


def test_verify_development_flags_illegal_partition():
    # six cells in a row: distinct, growing by one, but a box of height 1
    dev = hand_built(3, [(k, 0) for k in range(6)])
    assert verify_development(dev) == (["parts must all be at least 2, got (6, 1)"], None)


def test_net_json_includes_partition():
    doc = net_json(staircase())
    assert doc["partition"] == [4, 3]
    assert doc["n"] == 3
    assert len(doc["facets"]) == 6


def test_svg_dimension_guard():
    with pytest.raises(ValueError):
        render_svg(develop_path(2, L("1"), [1, 1, 1]))


def test_svg_contains_cells_and_labels():
    svg = render_svg(staircase())
    assert svg.count("<rect") == 6
    assert svg.count("<text") == 6
    assert 'width="100"' in svg and 'stroke-width="2"' in svg
    assert ">3*</text>" in svg
    # staircase box is 4x3 cells
    assert 'viewBox="0 0 404 304"' in svg
