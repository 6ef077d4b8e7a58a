"""Which bounding boxes occur, and how to unfold into any admissible one.

Every net of the n-cube has box extents forming a partition of 3n-2 into
n-1 parts of size at least 2, and every such partition is realized by some
unfolding.  The construction plays a token game on the Roberts graph: each
direction d carries a track [reservoir -> near slot -> transfer -> far slot]
where the transfer point (the base's antipode) is shared by all tracks, and
a slide along d is exactly a roll in direction +d.  Part k of the partition,
minus one, is the number of slides direction k must make.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FacetLabel, _check_dim
from .nets import CubePartition
from .rolling import RollSequence, initial_state


class IllegalSlideError(ValueError):
    pass


def enumerate_cube_partitions(n: int) -> tuple[CubePartition, ...]:
    """All partitions of 3n-2 into n-1 parts >= 2, descending lexicographic."""
    _check_dim(n)
    out = []

    def gen(prefix, remaining, parts_left, cap):
        if parts_left == 0:
            if remaining == 0:
                out.append(CubePartition(tuple(prefix)))
            return
        # parts descend, so the first one left is at least the mean of the rest
        lo = max(2, -(-remaining // parts_left))
        hi = min(cap, remaining - 2 * (parts_left - 1))
        for p in range(hi, lo - 1, -1):
            prefix.append(p)
            gen(prefix, remaining - p, parts_left - 1, p)
            prefix.pop()

    gen([], 3 * n - 2, n - 1, 3 * n - 2)
    return tuple(out)


@dataclass(frozen=True)
class TokenClassification:
    """How a partition's 2n-1 tokens split over the directional tracks.

    Tracks with a single token are the singletons; every other track is a
    tower holding a bottom token, middle tokens, and a top token.  middles
    lists (direction, middle count) for towers that have any.
    """

    n: int
    singletons: tuple[int, ...]
    towers: tuple[int, ...]
    middles: tuple[tuple[int, int], ...]

    @property
    def middle_total(self) -> int:
        return sum(c for _, c in self.middles)


def reservoir_parts(p: CubePartition) -> tuple[int, ...]:
    """Slides owed per direction: part k maps to direction k, minus one."""
    return tuple(part - 1 for part in p.parts)


def classify_tokens(p: CubePartition) -> TokenClassification:
    res = reservoir_parts(p)
    singles = tuple(d for d, r in enumerate(res, 1) if r == 1)
    towers = tuple(d for d, r in enumerate(res, 1) if r >= 2)
    middles = tuple((d, res[d - 1] - 2) for d in towers if res[d - 1] > 2)
    return TokenClassification(p.n, singles, towers, middles)


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


def realization_slides(p: CubePartition) -> tuple[int, ...]:
    """Slide word realizing the partition, by the three-phase schedule:
    one bottom slide per tower, middles alternating with singletons, one top
    slide per tower.  The word is played on a board before it is returned;
    an illegal slide raises IllegalSlideError, and a broken phase, a lost
    token or a board left unfilled raises RuntimeError."""
    cls = classify_tokens(p)
    step1 = list(cls.towers)
    flat_middles = [d for d, count in cls.middles for _ in range(count)]
    step2 = []
    for k, m in enumerate(flat_middles):
        step2.append(m)
        if k < len(cls.singletons):
            step2.append(cls.singletons[k])
    step3 = list(cls.towers)
    word = step1 + step2 + step3

    res = list(reservoir_parts(p))
    near = [False] * len(res)
    far = [False] * len(res)
    transfer = False
    total = sum(res)
    towers = set(cls.towers)
    step2_range = range(len(step1), len(step1) + len(step2))
    for idx, d in enumerate(word):
        if idx in step2_range and transfer == (d in towers):
            raise RuntimeError(
                f"phase discipline broken at slide {idx}: transfer must be "
                f"{'empty' if d in towers else 'occupied'}"
            )
        transfer = _slide(res, near, far, transfer, d)
        if sum(res) + sum(near) + sum(far) + transfer != total:
            raise RuntimeError(f"token conservation broken at slide {idx}")
    if any(res) or not (all(near) and all(far) and transfer):
        raise RuntimeError(f"board not full after realizing {p}")
    return tuple(word)


def realize_partition(p: CubePartition, base: FacetLabel = FacetLabel(1)) -> RollSequence:
    """Roll word whose development has bounding box exactly p (slides along
    track d become rolls in direction +d)."""
    word = realization_slides(p)
    return RollSequence(p.n, initial_state(p.n, base), word)
