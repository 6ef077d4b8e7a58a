"""Which bounding boxes occur, and how to unfold into any admissible one.

Every net of the n-cube has box extents forming a partition of 3n-2 into
n-1 parts of size at least 2, and every such partition is realized by some
unfolding.  The construction plays a token game on the Roberts graph: each
direction d carries a track [reservoir -> near slot -> transfer -> far slot]
where the transfer point (the base's antipode) is shared by all tracks, and
a slide along d is exactly a roll in direction +d.  Part k of the partition,
minus one, is the number of slides direction k must make.

The listing is a row array, one partition per row, and
`realization_block` is the one route from such rows to roll words: it
builds every row's slide word in one `_schedules` block, plays the boards
of all rows at once as numpy arrays, raising on the first broken rule of
the first board that breaks one, rolls every word in one
`rolling.develop_word_block` and checks each word's box, sorted by
`nets.box_parts`, against its partition.  `realize_partition` is a block of
one.
"""

from __future__ import annotations

import numpy as np

from .core import FacetLabel, _check_budget, _check_dim
from .nets import CubePartition, box_parts
from .rolling import RollSequence, develop_word_block, initial_state


class IllegalSlideError(ValueError):
    pass


# the listing grows as p(n) - 1 (17976 partitions at n=36): realizing it takes
# about 1-1.3 s and 110 MB at n=36 and 2.8 s and 210 MB at n=40, listing
# alone 0.2-0.3 s and 46 MB at n=36 and 0.6 s and 64 MB at n=40
PARTITIONS_LIMIT = 36


def enumerate_cube_partitions(n: int) -> np.ndarray:
    """All partitions of 3n-2 into n-1 parts >= 2, descending lexicographic,
    as a (P, n-1) `intp` array of rows, each row's parts descending.

    Taking 2 from every part leaves a partition of the excess n into at
    most n-1 parts: any partition of n but 1+1+...+1, so the last one is
    2+1+...+1, the only one with n-1 parts.  They are listed without
    recursion by Zoghbi and Stojmenovic's ZS1 (Int. J. Comput. Math. 70,
    1998), which steps from each partition to the next in descending
    lexicographic order.  x holds the excess partition padded with zeros:
    its m parts come first, x[h - 1] is the last part above 1, and the
    parts after it are 1s.
    """
    _check_dim(n)
    _check_budget(n, PARTITIONS_LIMIT, "PARTITIONS_LIMIT", "partition listings")
    x = [n] + [0] * (n - 2)
    m = h = 1
    out = [x[:]]
    while m < n - 1:
        if x[h - 1] == 2:
            # the last part above 1 is a 2: split it into 1+1
            x[h - 1] = x[m] = 1
            m += 1
            h -= 1
        else:
            # lower the last part above 1 by one, and regroup that one and
            # the 1s after it into parts of its new size, any rest last
            r = x[h - 1] - 1
            t = m - h + 1
            x[h - 1] = r
            while t >= r:
                x[h] = r
                h += 1
                t -= r
            if t:
                x[h] = t
            for k in range(h + (t > 0), m):
                x[k] = 0
            m = h + (t > 0)
            h += t > 1
        out.append(x[:])
    return np.array(out, np.intp) + 2


def _schedules(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three-phase slide words of a (B, n-1) block of descending
    partitions, as a (B, 2n-1) array, and the (B,) start and stop columns
    of each word's middle phase.

    Direction d owes part d minus one slides.  A track that takes a single
    token is a singleton; every other track is a tower holding a bottom
    token, part - 3 middle tokens and a top token.  Parts descend, so the k
    towers, k the number of parts above 2, are directions 1..k and the
    singletons the rest.  The word slides one bottom per tower, then the
    middles, tower by tower, alternating with the singletons, then one top
    per tower.  In the middle phase the transfer point must be empty before
    a tower slides and occupied before a singleton does.
    """
    B, dirs = rows.shape
    width = 2 * dirs + 1
    k = (rows > 2).sum(1)
    start, stop = k, width - k
    col = np.arange(width)
    # column c holds tower c + 1 before the middle phase and tower c - stop
    # + 1 after it; at offset j into the middle phase it holds singleton
    # k + 1 + j // 2 at odd j and the next middle at even j, one middle
    # more than there are singletons: m s m ... s m
    j = col - start[:, None]
    words = np.where(j < 0, col + 1, k[:, None] + (j + 1) // 2)
    tops = col >= stop[:, None]
    words[tops] = (col - stop[:, None])[tops] + 1
    middles = np.repeat(np.tile(np.arange(1, dirs + 1), B), np.maximum(rows - 3, 0).ravel())
    words[(j >= 0) & ~tops & (j % 2 == 0)] = middles
    return words, start, stop


# the rules a slide can break, by the code `_slide_rows` gives each board
_ILLEGAL_SLIDES = {
    1: "direction {} out of range",
    2: "reservoir for direction {} is empty",
    3: "direction {} is finished (end slot occupied)",
}


def _slide_rows(res, near, far, transfer, d):
    """Slide every board of a block at once, board k along its own direction
    d[k]: every token on that track moves one place up and a fresh one
    comes from the reservoir, far <- transfer <- near <- reservoir.  The
    boards are (B, n-1) reservoir counts and near/far occupancy and a (B,)
    transfer column, the one point all tracks share.  Returns the new
    transfer column and each board's code: 0 for a legal slide, else the
    first rule of `_ILLEGAL_SLIDES` it breaks.  A board with a nonzero code
    is left in no particular state."""
    k = np.arange(len(d))
    in_range = (d >= 1) & (d <= res.shape[1])
    i = np.where(in_range, d - 1, 0)
    # each rule overwrites the code of the rules after it
    why = np.where(far[k, i], np.int8(3), np.int8(0))
    why[res[k, i] < 1] = 2
    why[~in_range] = 1
    far[k, i] = transfer
    transfer = near[k, i]
    near[k, i] = True
    res[k, i] -= 1
    return transfer, why


def realization_block(rows) -> tuple[np.ndarray, np.ndarray]:
    """Roll words realizing a (B, n-1) block of partitions, each row's parts
    descending: a (B, 2n-1) array of slide words and a (B, n-1) array of box
    extents, each row sorted descending, which is the row's partition.

    Rows that hold no integers, and the first row that is not a descending
    partition of 3n-2 into parts of at least 2, raise ValueError before
    any board is played.  The words come from `_schedules`, and a block of
    them of another width than 2n-1 is refused unplayed, naming the first
    row.  Then all B boards are played at once, one slide column per step,
    and each board must end full: every reservoir spent and every near, far
    and transfer point holding a token.  The first board in row order that breaks a rule
    raises, with the first rule it breaks: at each slide the phase, then
    the slide's own rules; the full board after the last.  An illegal slide
    raises IllegalSlideError, anything else RuntimeError.  The words are
    then rolled from facet 1 in one `develop_word_block`, which raises for a
    word it refuses, and the first row whose box, sorted by
    `nets.box_parts`, is not its partition raises RuntimeError.
    """
    target = np.asarray(rows)
    if target.dtype.kind not in "iu":
        raise ValueError(f"partition rows must hold integers, got {target.dtype}")
    target = target.astype(np.intp, copy=False)
    B, dirs = target.shape
    n = dirs + 1
    passed, ordered = box_parts(target)
    illegal = ~passed | (ordered != target).any(1)
    if illegal.any():
        row = tuple(target[illegal.argmax()].tolist())
        raise ValueError(
            f"{row} is not a descending partition of 3n-2 = {3 * n - 2} into "
            "parts of at least 2"
        )
    width = 2 * n - 1
    words, start, stop = _schedules(target)
    if words.shape[1] != width:
        raise RuntimeError(
            f"slide word for {tuple(target[0].tolist())} has {words.shape[1]} "
            f"slides, not 2n-1 = {width}"
        )
    steps = np.arange(width)
    res = target - 1  # the slides each direction owes
    # the first phase slides each tower once, so is_tower[b, d] says
    # whether direction d is a tower of row b; in the middle phase row b's
    # transfer point must hold a token exactly when the sliding direction
    # is not one of its towers.  A direction out of range reads column 0,
    # which only a row refused in its first phase marks.
    d = np.where((words >= 1) & (words < n), words, 0)
    is_tower = np.zeros((B, n), bool)
    first_phase = np.nonzero(steps < start[:, None])
    is_tower[first_phase[0], d[first_phase]] = True
    want = ~is_tower[np.arange(B)[:, None], d]
    middle = (start[:, None] <= steps) & (steps < stop[:, None])
    near = np.zeros(res.shape, bool)
    far = np.zeros(res.shape, bool)
    transfer = np.zeros(B, bool)
    # held[b, j]: whether row b's transfer point holds a token before slide
    # j; why[b, j]: the code `_slide_rows` gives slide j of row b
    held = np.empty(words.shape, bool)
    why = np.empty(words.shape, np.int8)
    for j in steps:
        held[:, j] = transfer
        transfer, why[:, j] = _slide_rows(res, near, far, transfer, words[:, j])
    phase = middle & (held != want)
    full = ~res.any(1) & near.all(1) & far.all(1) & transfer
    refused = phase.any(1) | why.any(1) | ~full
    if refused.any():
        b = int(refused.argmax())
        broken = phase[b] | (why[b] > 0)
        j = int(broken.argmax())
        if not broken.any():
            raise RuntimeError(f"board not full after realizing {tuple(target[b].tolist())}")
        if phase[b, j]:
            raise RuntimeError(
                f"phase discipline broken at slide {j}: transfer must be "
                f"{'occupied' if want[b, j] else 'empty'}"
            )
        raise IllegalSlideError(_ILLEGAL_SLIDES[why[b, j]].format(int(words[b, j])))
    extents, _ = develop_word_block(initial_state(n, FacetLabel(1)), words)
    # a box equal to its partition, a legal one, passes box_parts
    boxes = box_parts(extents)[1]
    wrong = (boxes != target).any(1)
    if wrong.any():
        b = int(wrong.argmax())
        raise RuntimeError(
            f"partition {tuple(target[b].tolist())} realized with box "
            f"{tuple(boxes[b].tolist())}"
        )
    return words, boxes


def realize_partition(p: CubePartition) -> RollSequence:
    """Roll word from facet 1 whose development has bounding box exactly p
    (slides along track d become rolls in direction +d): the block of one
    partition, so its box is checked, which raises as `realization_block`
    does."""
    words, _ = realization_block([p.parts])
    word = tuple(words[0].tolist())
    return RollSequence(p.n, initial_state(p.n, FacetLabel(1)), word)
