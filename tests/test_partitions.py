"""Partition enumeration and the token-game realization."""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from cubenets import partitions
from cubenets.cli import main
from cubenets.core import FacetLabel, ResourceLimitError
from cubenets.nets import CubePartition, bounding_box, cube_partition_of
from cubenets.partitions import (
    PARTITIONS_LIMIT,
    IllegalSlideError,
    _schedules,
    enumerate_cube_partitions,
    realization_block,
    realize_partition,
)
from cubenets.rolling import develop_word_block, initial_state

import oracles
from oracles import realization_slides


def brute_partitions(n):
    """Independent oracle: filter descending tuples by brute force."""
    total = 3 * n - 2
    parts = n - 1
    found = set()
    for combo in itertools.combinations_with_replacement(range(2, total + 1), parts):
        if sum(combo) == total:
            found.add(tuple(sorted(combo, reverse=True)))
    return sorted(found, reverse=True)


def listed(n):
    """The listing at n as a list of part tuples, one per row."""
    return [tuple(row) for row in enumerate_cube_partitions(n).tolist()]


def partitions_of(n):
    """The listing at n as CubePartitions, for the one-partition routes."""
    return [CubePartition(parts) for parts in listed(n)]


def schedule_rows(n):
    """(parts, word, middle range) of every row of the listing at n, read
    from one `_schedules` block."""
    rows = enumerate_cube_partitions(n)
    words, start, stop = _schedules(rows)
    for parts, word, a, b in zip(rows.tolist(), words.tolist(), start.tolist(), stop.tolist()):
        yield tuple(parts), word, range(a, b)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_small_dimensions():
    assert listed(2) == [(4,)]
    assert listed(3) == [(5, 2), (4, 3)]
    assert listed(4) == [
        (6, 2, 2),
        (5, 3, 2),
        (4, 4, 2),
        (4, 3, 3),
    ]
    rows = enumerate_cube_partitions(4)
    assert (rows.dtype, rows.shape) == (np.intp, (4, 3))


def test_enumerate_budget():
    assert PARTITIONS_LIMIT == 36
    with pytest.raises(ResourceLimitError, match=r"n=36 \(PARTITIONS_LIMIT\), got n=37"):
        enumerate_cube_partitions(PARTITIONS_LIMIT + 1)


def composition_partitions(n):
    """Second oracle: every composition of 3n-2 into n-1 parts >= 2, by
    stars and bars, kept when non-increasing, then sorted descending.  The
    bars are placed left to right, and a bar that closes a part larger than
    the one before it ends its branch: that bar and every later one make an
    increasing pair."""
    slack, parts = n, n - 1  # 3n-2 minus the 2 every part must hold
    end = slack + parts - 1  # the cut after the last star or bar
    found = []

    def place(comp, cut):
        if len(comp) == parts - 1:
            last = end - cut + 1
            if not comp or last <= comp[-1]:
                found.append(comp + (last,))
            return
        for bar in range(cut + 1, end):
            part = bar - cut + 1
            if comp and part > comp[-1]:
                break
            place(comp + (part,), bar)

    place((), -1)
    return sorted(found, reverse=True)


@pytest.mark.parametrize("n", range(2, 9))
def test_enumerate_matches_brute_force(n):
    assert listed(n) == brute_partitions(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_enumerate_matches_compositions(n):
    got = tuple(listed(n))
    assert got == tuple(composition_partitions(n))


def partition_numbers(top):
    """p(0), ..., p(top), counted by the coin-change recurrence."""
    counts = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            counts[total] += counts[total - part]
    return counts


def test_listing_holds_every_partition_of_the_excess_but_one():
    # taking 2 from each part leaves a partition of n into at most n-1
    # parts: every partition of n but 1+1+...+1
    p = partition_numbers(PARTITIONS_LIMIT)
    for n in range(2, PARTITIONS_LIMIT + 1):
        assert len(enumerate_cube_partitions(n)) == p[n] - 1
    assert p[36] - 1 == 17976


def test_extreme_partitions_present():
    # thinnest and squattest admissible boxes
    for n in range(3, 10):
        assert tuple([n + 2] + [2] * (n - 2)) in listed(n)
    assert (4, 3, 3) in listed(4)


# ---------------------------------------------------------------------------
# the slide word: towers, singletons and middles


def test_reservoir_parts_sum():
    # direction d slides part d minus one times, 2n-1 slides in all
    for n in range(2, 10):
        for parts, word, _middle in schedule_rows(n):
            assert len(word) == 2 * n - 1
            counts = Counter(word)
            assert [counts[d] for d in range(1, n)] == [part - 1 for part in parts]


def test_classification_identities():
    # the towers, the parts above 2, slide first and last; the middle phase
    # holds every singleton, each between two middles
    for n in range(2, 10):
        for parts, word, middle in schedule_rows(n):
            towers = word[: middle.start]
            singletons = [d for d, part in enumerate(parts, 1) if part == 2]
            assert towers == [d for d, part in enumerate(parts, 1) if part > 2]
            assert word[middle.stop :] == towers
            assert len(middle) == 2 * len(singletons) + 1
            assert word[middle.start : middle.stop][1::2] == singletons
            assert set(towers) | set(singletons) == set(range(1, n))


def test_classification_example():
    # towers 1 and 2, singleton 3, and direction 1's two middles
    words, start, stop = _schedules(np.array([(5, 3, 2)]))
    assert words.tolist() == [[1, 2, 1, 3, 1, 1, 2]]
    assert range(start[0], stop[0]) == range(2, 5)


def test_block_schedule_matches_the_one_partition_schedule():
    # the block's words and middle ranges are the oracle's, row by row, over
    # every listing the budget allows
    for n in range(2, PARTITIONS_LIMIT + 1):
        for parts, word, middle in schedule_rows(n):
            assert (word, middle) == oracles.schedule(CubePartition(parts))


# ---------------------------------------------------------------------------
# slides on the oracle's board


def play(parts, word):
    """Board (reservoirs, near, far, transfer) after sliding `word` from the
    empty board of the partition, one `oracles.slide` per direction."""
    res = [part - 1 for part in parts]
    near, far, transfer = [False] * len(res), [False] * len(res), False
    for d in word:
        transfer = oracles.slide(res, near, far, transfer, d)
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
    for parts, word in (((4, 3), (1, 2, 1, 1, 2)), ((4,), (1, 1, 1))):
        assert realization_slides(CubePartition(parts)) == word
        assert realize_partition(CubePartition(parts)).moves == word


def test_realize_matches_staircase_placements():
    dev = realize_partition(CubePartition((4, 3))).develop()
    coords = list(dev.coords)
    assert coords == [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)]


def test_slide_count_per_direction():
    for n in range(2, 9):
        for p in partitions_of(n):
            word = realize_partition(p).moves
            counts = Counter(word)
            for d, part in enumerate(p.parts, 1):
                assert counts[d] == part - 1


@pytest.mark.parametrize("n", range(2, 9))
def test_realization_roundtrip(n):
    for p in partitions_of(n):
        dev = realize_partition(p).develop()
        assert dev.is_spanning
        assert cube_partition_of(dev) == p
        # direction k spans exactly part k cells
        assert bounding_box(dev) == p.parts


@pytest.mark.parametrize("n", range(2, 13))
def test_word_block_boxes_match_the_developments(n):
    seqs = [realize_partition(p) for p in partitions_of(n)]
    start = initial_state(n, FacetLabel(1))
    extents, placed = develop_word_block(start, np.array([seq.moves for seq in seqs]))
    for seq, ext, labels in zip(seqs, extents.tolist(), placed.tolist()):
        dev = seq.develop()
        assert CubePartition(ext) == cube_partition_of(dev)
        assert tuple(labels) == dev.order


@pytest.mark.parametrize("n", range(2, 13))
def test_realization_block_matches_the_one_board_route(n):
    words, boxes = realization_block(enumerate_cube_partitions(n))
    parts = partitions_of(n)
    assert words.shape == (len(parts), 2 * n - 1)
    assert [tuple(word) for word in words.tolist()] == [realization_slides(p) for p in parts]
    assert [tuple(box) for box in boxes.tolist()] == [p.parts for p in parts]


# rows at n=4 that are no descending partition of 10 into parts >= 2
NOT_PARTITIONS = {"wrong sum": (5, 3, 3), "part of 1": (6, 3, 1), "ascending": (2, 3, 5)}


@pytest.mark.parametrize("fault", sorted(NOT_PARTITIONS))
def test_block_refuses_a_row_that_is_no_descending_partition(monkeypatch, fault):
    # the first such row raises ValueError before a word is built or a
    # board played; (1, 1, 8), after it, breaks all three rules
    row = NOT_PARTITIONS[fault]
    played = []
    monkeypatch.setattr(partitions, "_schedules", lambda rows: played.append(rows))
    monkeypatch.setattr(partitions, "_slide_rows", lambda *board: played.append(board))
    message = f"{row} is not a descending partition of 3n-2 = 10 into parts of at least 2"
    block = [(6, 2, 2), row, (1, 1, 8)]
    assert raised(realization_block, block) == (ValueError, message)
    assert raised(realization_block, np.array(block)) == (ValueError, message)
    assert played == []


def test_block_refuses_rows_that_hold_no_integers():
    # (5.5, 2.5) would pass as (5, 2) if it were cast to integers
    message = "partition rows must hold integers, got float64"
    assert raised(realization_block, [(5.5, 2.5)]) == (ValueError, message)


def roll_after_the_board(monkeypatch, words=None, extents=None):
    """Patch the roll block that `realization_block` calls once the boards
    pass: `words` maps a row to the word rolled in its place, `extents` a
    row to the extents reported for it, rows in listing order: (6, 2, 2),
    (5, 3, 2), (4, 4, 2), (4, 3, 3) at n=4.  The board refuses a bad word
    before it is rolled, so a fault past the board goes in here."""
    real = partitions.develop_word_block

    def block(start, block_words):
        block_words = block_words.copy()
        for row, word in (words or {}).items():
            block_words[row] = word
        boxes, placed = real(start, block_words)
        for row, ext in (extents or {}).items():
            boxes[row] = ext
        return boxes, placed

    monkeypatch.setattr(partitions, "develop_word_block", block)


def test_realize_hands_a_refused_word_to_the_one_word_engine(monkeypatch, capsys):
    # a word the roll block refuses fails with the revisit it makes
    word = (1, -1) + realization_slides(CubePartition((4, 3, 3)))[2:]
    roll_after_the_board(monkeypatch, words={3: word})
    assert main(["partitions", "--dim", "4", "--realize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "facet revisited: facet 1 revisited at step 1\n"


def test_realize_checks_each_box_against_its_partition(monkeypatch, capsys):
    # (5, 3, 2)'s word has the same length as (6, 2, 2)'s and rolls without
    # a revisit, but its box is (5, 3, 2)
    word = realization_slides(CubePartition((5, 3, 2)))
    with monkeypatch.context() as m:
        roll_after_the_board(m, words={0: word})
        assert main(["partitions", "--dim", "4", "--realize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "partition (6, 2, 2) realized with box (5, 3, 2)\n"


@pytest.mark.parametrize("extents", [(1, 1, 1), (7, 1, 2)])
def test_realize_redevelops_a_block_box_that_is_no_partition(monkeypatch, capsys, extents):
    # a box that sums wrong, or has a part below 2, is no longer developed
    # again: it fails the box == partition check like any other mismatch
    roll_after_the_board(monkeypatch, extents={1: extents})
    assert main(["partitions", "--dim", "4", "--realize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    box = tuple(sorted(extents, reverse=True))
    assert captured.err == f"partition (5, 3, 2) realized with box {box}\n"


def test_realize_partition_checks_its_box(monkeypatch):
    # the library call rolls its word and refuses a box that is not p
    roll_after_the_board(monkeypatch, extents={0: (2, 3, 5)})
    with pytest.raises(RuntimeError) as exc:
        realize_partition(CubePartition((4, 4, 2)))
    assert str(exc.value) == "partition (4, 4, 2) realized with box (5, 3, 2)"


def test_realize_dim12_golden(capsys):
    # stdout of `partitions --dim 12 --realize`, pinned from the immutable
    # roll engine and tuple token board this output used to come from
    assert main(["partitions", "--dim", "12", "--realize"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8b7aa4a07608c08b87b93d6f159b4c5e253743f2593a4c305fcd36b348a5b306"
    )


# ---------------------------------------------------------------------------
# the oracle's checks raise, so they survive python -O


def test_phase_check(monkeypatch):
    # a second "tower" slides in step 2 while the transfer point is occupied
    misclassify(monkeypatch, "phase, long word")
    with pytest.raises(RuntimeError, match="phase discipline broken at slide 3"):
        realization_slides(CubePartition((5, 2)))


def test_conservation_check(monkeypatch):
    real = oracles.slide

    def leaky(res, near, far, transfer, d):
        real(res, near, far, transfer, d)
        return False  # the token pushed onto the transfer point vanishes

    monkeypatch.setattr(oracles, "slide", leaky)
    with pytest.raises(RuntimeError, match="phase discipline broken at slide 2: transfer must be occupied"):
        realization_slides(CubePartition((5, 2)))


def test_full_board_check(monkeypatch):
    # legal slides that never reach direction 2 leave its track empty
    misclassify(monkeypatch, "full board, short word")
    with pytest.raises(RuntimeError, match="board not full"):
        realization_slides(CubePartition((5, 2)))


# ---------------------------------------------------------------------------
# a broken board: the block, the block of one and the CLI raise the
# oracle's error for it


def raised(fn, *args):
    """The class and message of the error that fn(*args) raises."""
    with pytest.raises(Exception) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def assert_every_route_raises(capsys, parts, target, error, message):
    """The block of the listing, the block of the target alone and
    `partitions --realize` each end in error(message); the CLI prints it as
    one stderr line and nothing on stdout."""
    assert raised(realization_block, parts) == (error, message)
    assert raised(realize_partition, CubePartition(target)) == (error, message)
    code = main(["partitions", "--dim", str(len(target) + 1), "--realize"])
    assert code == (2 if error is IllegalSlideError else 1)
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


# Each fault breaks one board of a listing with the word and middle range
# that a wrong split into towers, singletons and middles gives; the oracle
# raises its message for that board only
CLASSIFICATION_FAULTS = {
    # towers 1 and 2, singleton 2, two middles on 1: a word two slides too
    # long, whose second "tower" slides in step 2 while the transfer point is
    # occupied
    "phase, long word": (
        (5, 2), ([1, 2, 1, 2, 1, 1, 2], range(2, 5)),
        RuntimeError, "phase discipline broken at slide 3: transfer must be empty",
    ),
    # towers 2 and 3, three middles on 1: legal slides that fill the board,
    # but the first middle slide, a non-tower, finds the transfer point empty
    "phase": (
        (4, 3, 3), ([2, 3, 1, 1, 1, 2, 3], range(2, 5)),
        RuntimeError, "phase discipline broken at slide 2: transfer must be occupied",
    ),
    # tower 1 alone, no middles: a word three slides short
    "full board, short word": (
        (5, 2), ([1, 1], range(1, 1)),
        RuntimeError, "board not full after realizing (5, 2)",
    ),
    # tower 1, singleton 2, two middles on each of 1 and 2
    "empty reservoir": (
        (6, 2, 2), ([1, 1, 2, 1, 2, 2, 1], range(1, 6)),
        IllegalSlideError, "reservoir for direction 2 is empty",
    ),
    "far slot taken": (
        (5, 3, 2), ([1, 1, 2, 1, 2, 2, 1], range(1, 6)),
        IllegalSlideError, "direction 2 is finished (end slot occupied)",
    ),
    # towers 1 and 4, singleton 3, two middles on 1
    "direction out of range": (
        (4, 3, 3), ([1, 4, 1, 3, 1, 1, 4], range(2, 5)),
        IllegalSlideError, "direction 4 out of range",
    ),
    # towers 1 and 3, singleton 4, two middles on 1: a middle slide out of
    # range, with the transfer point occupied as a non-tower needs it;
    # direction 3, the last in range, is a tower
    "direction out of range, middle phase": (
        (4, 3, 3), ([1, 3, 1, 4, 1, 1, 3], range(2, 5)),
        IllegalSlideError, "direction 4 out of range",
    ),
}

# the block refuses a block of words of another width than 2n-1 before
# playing it, naming its first row
UNPLAYED = {
    "phase, long word": "slide word for (5, 2) has 7 slides, not 2n-1 = 5",
    "full board, short word": "slide word for (5, 2) has 2 slides, not 2n-1 = 5",
}


def misclassify(monkeypatch, *faults):
    """Schedule each fault's partition by its word and middle range, every
    other one truly, in the oracle and in the block.  A word of another
    length than 2n-1 plants a block of its width, whose other rows are
    zeros: the block refuses such a block before it reads a row."""
    schedules = {CLASSIFICATION_FAULTS[f][0]: CLASSIFICATION_FAULTS[f][1] for f in faults}
    real_one, real_block = oracles.schedule, partitions._schedules

    def block(rows):
        words, start, stop = real_block(rows)
        for b, parts in enumerate(rows.tolist()):
            if tuple(parts) in schedules:
                word, middle = schedules[tuple(parts)]
                if len(word) != words.shape[1]:
                    words = np.zeros((len(rows), len(word)), words.dtype)
                words[b], start[b], stop[b] = word, middle.start, middle.stop
        return words, start, stop

    monkeypatch.setattr(oracles, "schedule", lambda p: schedules.get(p.parts) or real_one(p))
    monkeypatch.setattr(partitions, "_schedules", block)


@pytest.mark.parametrize("fault", sorted(CLASSIFICATION_FAULTS))
def test_block_refuses_only_a_misclassified_board(monkeypatch, capsys, fault):
    target, _word, error, message = CLASSIFICATION_FAULTS[fault]
    misclassify(monkeypatch, fault)
    parts = enumerate_cube_partitions(len(target) + 1)
    others = parts[(parts != target).any(1)]
    assert [tuple(word) for word in realization_block(others)[0].tolist()] == [
        realization_slides(CubePartition(tuple(p))) for p in others.tolist()
    ]
    assert raised(realization_slides, CubePartition(target)) == (error, message)
    assert_every_route_raises(capsys, parts, target, error, UNPLAYED.get(fault, message))


def test_realize_hands_a_refused_board_to_the_one_board_route(monkeypatch, capsys):
    # the one-board route is now the block itself: the CLI prints the
    # refused board's error as the list-based board words it
    misclassify(monkeypatch, "direction out of range")
    _target, _word, _error, message = CLASSIFICATION_FAULTS["direction out of range"]
    assert main(["partitions", "--dim", "4", "--realize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_the_first_broken_row_raises(monkeypatch, capsys):
    # (5, 3, 2), row 1, breaks at slide 4 and (4, 3, 3), row 3, at slide 1
    misclassify(monkeypatch, "far slot taken", "direction out of range")
    parts = enumerate_cube_partitions(4)
    assert parts.tolist() == [[6, 2, 2], [5, 3, 2], [4, 4, 2], [4, 3, 3]]
    message = "direction 2 is finished (end slot occupied)"
    assert_every_route_raises(capsys, parts, (5, 3, 2), IllegalSlideError, message)
    assert raised(realization_block, parts[2:]) == (IllegalSlideError, "direction 4 out of range")


# (4, 4, 2) slides 1, 2, 1, 3, 2, 1, 2; its transfer point holds a token
# after slides 2, 4, 5 and 6
LEAKS = {
    "middle phase": (2, "phase discipline broken at slide 3: transfer must be occupied"),
    "last slide": (6, "board not full after realizing (4, 4, 2)"),
}


@pytest.mark.parametrize("leak", sorted(LEAKS))
def test_block_refuses_only_a_board_that_loses_a_token(monkeypatch, capsys, leak):
    # the token on (4, 4, 2)'s transfer point after slide `step` vanishes
    step, message = LEAKS[leak]
    parts = enumerate_cube_partitions(4)
    row = parts.tolist().index([4, 4, 2])
    real_rows, real_one = partitions._slide_rows, oracles.slide
    slides = {"block": 0, "board": 0}

    def leaky_rows(res, near, far, transfer, d):
        transfer, why = real_rows(res, near, far, transfer, d)
        if slides["block"] % 7 == step:
            # (4, 4, 2)'s row of the listing, or the block of it alone
            transfer[row if len(d) > 1 else 0] = False
        slides["block"] += 1
        return transfer, why

    def leaky_one(res, near, far, transfer, d):
        transfer = real_one(res, near, far, transfer, d)
        leaked = slides["board"] == step
        slides["board"] += 1
        return transfer and not leaked

    monkeypatch.setattr(partitions, "_slide_rows", leaky_rows)
    monkeypatch.setattr(oracles, "slide", leaky_one)
    assert raised(realization_slides, CubePartition((4, 4, 2))) == (RuntimeError, message)
    assert_every_route_raises(capsys, parts, (4, 4, 2), RuntimeError, message)
