"""Which bounding boxes occur, and how to unfold into any admissible one.

Every net of the n-cube has box extents forming a partition of 3n-2 into
n-1 parts of size at least 2, and every such partition is realized by some
unfolding.  The construction plays a token game on the Roberts graph: each
direction d carries a track [reservoir -> near slot -> transfer -> far slot]
where the transfer point (the base's antipode) is shared by all tracks, and
a slide along d is exactly a roll in direction +d.  Part k of the partition,
minus one, is the number of slides direction k must make.

`realization_slides` plays one partition's word on a board of Python lists
and raises on the first broken rule; `realization_block` plays the boards
of many partitions at once as numpy arrays and only marks the rows that
break one, for the one-board route to word the error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FacetLabel, _check_budget, _check_dim
from .nets import CubePartition
from .rolling import RollSequence, initial_state


class IllegalSlideError(ValueError):
    pass


# the listing grows as p(n) - 1 (17976 partitions at n=36): realizing it takes
# about 2 s and 150 MB at n=36 and 4 s and 230 MB at n=40, listing alone
# 0.5 s and 64 MB at n=36 and 1.1 s and 88 MB at n=40
PARTITIONS_LIMIT = 36


def enumerate_cube_partitions(n: int) -> tuple[CubePartition, ...]:
    """All partitions of 3n-2 into n-1 parts >= 2, descending lexicographic.

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
    out = [CubePartition(tuple([v + 2 for v in x]))]
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
        out.append(CubePartition(tuple([v + 2 for v in x])))
    return tuple(out)


@dataclass(frozen=True)
class TokenClassification:
    """How a partition's 2n-1 tokens split over the directional tracks.

    Tracks with a single token are the singletons; every other track is a
    tower holding a bottom token, middle tokens, and a top token.  middles
    lists (direction, middle count) for towers that have any.
    """

    singletons: tuple[int, ...]
    towers: tuple[int, ...]
    middles: tuple[tuple[int, int], ...]


def reservoir_parts(p: CubePartition) -> tuple[int, ...]:
    """Slides owed per direction: part k maps to direction k, minus one."""
    return tuple([part - 1 for part in p.parts])


def classify_tokens(p: CubePartition) -> TokenClassification:
    # parts descend, so the k towers are directions 1..k and the singletons
    # the rest
    res = reservoir_parts(p)
    k = len(res) - res.count(1)
    return TokenClassification(
        tuple(range(k + 1, len(res) + 1)),
        tuple(range(1, k + 1)),
        tuple([(d, r - 2) for d, r in enumerate(res[:k], 1) if r > 2]),
    )


def _slide(res: list, near: list, far: list, transfer: bool, d: int) -> bool:
    """Move every token on track d one place up and pull a fresh one from the
    reservoir, in place: far <- transfer <- near <- reservoir.  The board is
    the reservoir counts and the near/far occupancy lists; the shared
    transfer point's occupancy goes in and its new value is returned."""
    if not 1 <= d <= len(res):
        raise IllegalSlideError(f"direction {d} out of range")
    i = d - 1
    if res[i] < 1:
        raise IllegalSlideError(f"reservoir for direction {d} is empty")
    if far[i]:
        raise IllegalSlideError(f"direction {d} is finished (end slot occupied)")
    far[i] = transfer
    transfer = near[i]
    near[i] = True
    res[i] -= 1
    return transfer


def _schedule(cls: TokenClassification) -> tuple[list[int], range]:
    """The three-phase slide word of a classification: one bottom slide per
    tower, middles alternating with singletons, one top slide per tower.
    Also the index range of the middle phase, where the transfer point must
    be empty before a tower slides and occupied before a singleton does."""
    flat_middles = [d for d, count in cls.middles for _ in range(count)]
    step2 = []
    for k, m in enumerate(flat_middles):
        step2.append(m)
        if k < len(cls.singletons):
            step2.append(cls.singletons[k])
    t = len(cls.towers)
    return [*cls.towers, *step2, *cls.towers], range(t, t + len(step2))


def realization_slides(p: CubePartition) -> tuple[int, ...]:
    """Slide word realizing the partition, by the three-phase schedule.
    The word is played on a board before it is returned; an illegal slide
    raises IllegalSlideError, and a broken phase or a board left unfilled
    raises RuntimeError (`_slide` conserves tokens itself)."""
    cls = classify_tokens(p)
    word, middle = _schedule(cls)
    res = list(reservoir_parts(p))
    near = [False] * len(res)
    far = [False] * len(res)
    transfer = False
    towers = set(cls.towers)
    for idx, d in enumerate(word):
        if idx in middle and transfer == (d in towers):
            raise RuntimeError(
                f"phase discipline broken at slide {idx}: transfer must be "
                f"{'empty' if d in towers else 'occupied'}"
            )
        transfer = _slide(res, near, far, transfer, d)
    if any(res) or not (all(near) and all(far) and transfer):
        raise RuntimeError(f"board not full after realizing {p.parts}")
    return tuple(word)


def _slide_rows(res, near, far, transfer, d):
    """`_slide` on every board of a block at once, board k along its own
    direction d[k].  The boards are (B, n-1) reservoir counts and near/far
    occupancy and a (B,) transfer column; returns the new transfer column
    and the mask of boards where the slide was legal.  A board outside the
    mask is left in no particular state."""
    k = np.arange(len(d))
    legal = (d >= 1) & (d <= res.shape[1])
    i = np.where(legal, d - 1, 0)
    legal &= (res[k, i] >= 1) & ~far[k, i]
    far[k, i] = transfer
    transfer = near[k, i]
    near[k, i] = True
    res[k, i] -= 1
    return transfer, legal


def realization_block(parts) -> tuple[np.ndarray, np.ndarray]:
    """`realization_slides` for B partitions of one n at once.

    Returns the (B, 2n-1) slide words and a (B,) mask of the rows that
    `realization_slides` returns without raising; a word outside the mask
    is meaningless, and `realization_slides` gives its exact error.  Each
    word comes from `_schedule`; then all B boards are played at once, one
    slide column per step, with every check of the one-board route made
    per row.  A word of another length than 2n-1 cannot fill its board,
    since each legal slide spends one of the 2n-1 reservoir tokens; it is
    played as a row of zeros, which the range check refuses.
    """
    n = parts[0].n
    width = 2 * n - 1
    schedules = [_schedule(classify_tokens(p)) for p in parts]
    words = np.array(
        [word if len(word) == width else [0] * width for word, _ in schedules], np.intp
    )
    start, stop = np.array([(m.start, m.stop) for _, m in schedules]).T
    B = len(words)
    steps = np.arange(width)
    res = np.array([p.parts for p in parts]) - 1  # every row's reservoir_parts
    # the first phase slides each tower once, so is_tower[b, d] says
    # whether direction d is a tower of row b; in the middle phase row b's
    # transfer point must hold a token exactly when the sliding direction
    # is not one of its towers
    d = np.clip(words, 0, n - 1)
    is_tower = np.zeros((B, n), bool)
    first_phase = np.nonzero(steps < start[:, None])
    is_tower[first_phase[0], d[first_phase]] = True
    want = ~is_tower[np.arange(B)[:, None], d]
    middle = (start[:, None] <= steps) & (steps < stop[:, None])
    near = np.zeros(res.shape, bool)
    far = np.zeros(res.shape, bool)
    transfer = np.zeros(B, bool)
    ok = np.ones(B, bool)
    # held[b, j]: whether row b's transfer point holds a token before slide j
    held = np.empty(words.shape, bool)
    for j in steps:
        held[:, j] = transfer
        transfer, legal = _slide_rows(res, near, far, transfer, words[:, j])
        ok &= legal
    ok &= (~middle | (held == want)).all(1)
    ok &= ~res.any(1) & near.all(1) & far.all(1) & transfer
    return words, ok


def realize_partition(p: CubePartition) -> RollSequence:
    """Roll word from facet 1 whose development has bounding box exactly p
    (slides along track d become rolls in direction +d)."""
    word = realization_slides(p)
    return RollSequence(p.n, initial_state(p.n, FacetLabel(1)), word)
