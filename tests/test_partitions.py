"""Partition enumeration and the token-game realization."""

import hashlib
import itertools
from collections import Counter

import pytest

from cubenets import partitions
from cubenets.cli import main
from cubenets.nets import CubePartition, bounding_box, cube_partition_of
from cubenets.partitions import (
    IllegalSlideError,
    TokenClassification,
    classify_tokens,
    enumerate_cube_partitions,
    realization_slides,
    realize_partition,
    reservoir_parts,
)


def brute_partitions(n):
    """Independent oracle: filter descending tuples by brute force."""
    total = 3 * n - 2
    parts = n - 1
    found = set()
    for combo in itertools.combinations_with_replacement(range(2, total + 1), parts):
        if sum(combo) == total:
            found.add(tuple(sorted(combo, reverse=True)))
    return sorted(found, reverse=True)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_small_dimensions():
    assert [p.parts for p in enumerate_cube_partitions(2)] == [(4,)]
    assert [p.parts for p in enumerate_cube_partitions(3)] == [(5, 2), (4, 3)]
    assert [p.parts for p in enumerate_cube_partitions(4)] == [
        (6, 2, 2),
        (5, 3, 2),
        (4, 4, 2),
        (4, 3, 3),
    ]


def composition_partitions(n):
    """Second oracle: every composition of 3n-2 into n-1 parts >= 2, by
    stars and bars, kept when non-increasing, then sorted descending."""
    slack, parts = n, n - 1  # 3n-2 minus the 2 every part must hold
    found = []
    for bars in itertools.combinations(range(slack + parts - 1), parts - 1):
        cuts = (-1,) + bars + (slack + parts - 1,)
        comp = tuple(b - a + 1 for a, b in zip(cuts, cuts[1:]))
        if all(x >= y for x, y in zip(comp, comp[1:])):
            found.append(comp)
    return sorted(found, reverse=True)


@pytest.mark.parametrize("n", range(2, 9))
def test_enumerate_matches_brute_force(n):
    assert [p.parts for p in enumerate_cube_partitions(n)] == brute_partitions(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_enumerate_matches_compositions(n):
    got = tuple(p.parts for p in enumerate_cube_partitions(n))
    assert got == tuple(composition_partitions(n))


def test_extreme_partitions_present():
    # thinnest and squattest admissible boxes
    for n in range(3, 10):
        parts = [p.parts for p in enumerate_cube_partitions(n)]
        assert tuple([n + 2] + [2] * (n - 2)) in parts
    assert (4, 3, 3) in [p.parts for p in enumerate_cube_partitions(4)]


# ---------------------------------------------------------------------------
# token classification


def test_reservoir_parts_sum():
    for n in range(2, 10):
        for p in enumerate_cube_partitions(n):
            res = reservoir_parts(p)
            assert sum(res) == 2 * n - 1
            assert all(r >= 1 for r in res)


def test_classification_identities():
    for n in range(2, 10):
        for p in enumerate_cube_partitions(n):
            cls = classify_tokens(p)
            assert len(cls.towers) == (n - 1) - len(cls.singletons)
            assert cls.middle_total == len(cls.singletons) + 1
            assert set(cls.towers) | set(cls.singletons) == set(range(1, n))


def test_classification_example():
    cls = classify_tokens(CubePartition((5, 3, 2)))
    assert cls.towers == (1, 2)
    assert cls.singletons == (3,)
    assert cls.middles == ((1, 2),)


# ---------------------------------------------------------------------------
# slides


def play(parts, word):
    """Board (reservoirs, near, far, transfer) after sliding `word` from the
    empty board of the partition, one `partitions._slide` per direction."""
    res = list(reservoir_parts(CubePartition(parts)))
    near, far, transfer = [False] * len(res), [False] * len(res), False
    for d in word:
        transfer = partitions._slide(res, near, far, transfer, d)
    return res, near, far, transfer


def test_slide_on_empty_track():
    res, near, far, transfer = play((5, 2), [1])
    assert near == [True, False]
    assert not transfer and not any(far)
    assert res == [3, 1]


def test_slide_pushes_near_token_to_transfer():
    _res, near, far, transfer = play((5, 2), [1, 1])
    assert near[0] and transfer and not any(far)


def test_singleton_slide_fills_both_ends():
    # the two slides along 1 leave a token on the transfer point
    _res, near, far, transfer = play((5, 2), [1, 1, 2])
    assert near[1] and far[1] and not transfer


def test_slide_preconditions():
    with pytest.raises(IllegalSlideError, match="direction 3 out of range"):
        play((4, 3), [3])
    with pytest.raises(IllegalSlideError, match="direction 2 is empty"):
        play((4, 3), [2, 2, 2])  # reservoir drained
    with pytest.raises(IllegalSlideError, match="direction 1 is empty"):
        play((4, 3), [1, 1, 1, 1])  # reservoir drained as the far slot fills
    with pytest.raises(IllegalSlideError, match="direction 1 is finished"):
        play((5, 2), [1, 1, 1, 1])  # far slot already occupied


# ---------------------------------------------------------------------------
# realization


def test_realization_words_frozen_examples():
    assert realization_slides(CubePartition((4, 3))) == (1, 2, 1, 1, 2)
    assert realization_slides(CubePartition((4,))) == (1, 1, 1)


def test_realize_matches_staircase_placements():
    dev = realize_partition(CubePartition((4, 3))).develop()
    coords = list(dev.coords)
    assert coords == [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)]


def test_slide_count_per_direction():
    for n in range(2, 9):
        for p in enumerate_cube_partitions(n):
            word = realization_slides(p)
            counts = Counter(word)
            for d, r in enumerate(reservoir_parts(p), 1):
                assert counts[d] == r


@pytest.mark.parametrize("n", range(2, 9))
def test_realization_roundtrip(n):
    for p in enumerate_cube_partitions(n):
        dev = realize_partition(p).develop()
        assert dev.is_spanning
        assert cube_partition_of(dev) == p
        # direction k spans exactly part k cells
        assert bounding_box(dev) == p.parts


def test_realize_dim12_golden(capsys):
    # stdout of `partitions --dim 12 --realize`, pinned from the immutable
    # roll engine and tuple token board this output used to come from
    assert main(["partitions", "--dim", "12", "--realize"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8b7aa4a07608c08b87b93d6f159b4c5e253743f2593a4c305fcd36b348a5b306"
    )


# ---------------------------------------------------------------------------
# the schedule checks raise, so they survive python -O


def fake_classification(**fields):
    def classify(p):
        return TokenClassification(p.n, **fields)

    return classify


def test_phase_check(monkeypatch):
    # a second "tower" slides in step 2 while the transfer point is occupied
    monkeypatch.setattr(
        partitions,
        "classify_tokens",
        fake_classification(singletons=(2,), towers=(1, 2), middles=((1, 2),)),
    )
    with pytest.raises(RuntimeError, match="phase discipline broken at slide 3"):
        realization_slides(CubePartition((5, 2)))


def test_conservation_check(monkeypatch):
    real = partitions._slide

    def leaky(res, near, far, transfer, d):
        real(res, near, far, transfer, d)
        return False  # the token pushed onto the transfer point vanishes

    monkeypatch.setattr(partitions, "_slide", leaky)
    with pytest.raises(RuntimeError, match="token conservation broken at slide 1"):
        realization_slides(CubePartition((5, 2)))


def test_full_board_check(monkeypatch):
    # legal slides that never reach direction 2 leave its track empty
    monkeypatch.setattr(
        partitions,
        "classify_tokens",
        fake_classification(singletons=(), towers=(1,), middles=()),
    )
    with pytest.raises(RuntimeError, match="board not full"):
        realization_slides(CubePartition((5, 2)))
