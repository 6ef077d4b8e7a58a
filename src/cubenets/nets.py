"""Geometry of developments: the net check, bounding boxes, SVG pictures.

A spanning development with all 2n cells distinct is a net.  Its bounding
box always has n-1 extents that are at least 2 and sum to 3n-2, i.e. the
extents form an integer partition of 3n-2 into n-1 parts of size >= 2; the
box sum grows by exactly one with every facet placed after the first.
One pass over the cells, `_box_scan`, yields what `collision`,
`cube_partition_of` and `verify_development` read.  `box_parts` judges a
whole block of boxes from the block kernels in `rolling`, and is the
library's only box test over blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FacetLabel
from .rolling import Development, development_json


@dataclass(frozen=True)
class CubePartition:
    """Extents of a net's bounding box, sorted descending."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(sorted(self.parts, reverse=True))
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 2 for p in parts):
            raise ValueError(f"parts must all be at least 2, got {parts}")
        n = len(parts) + 1
        if sum(parts) != 3 * n - 2:
            raise ValueError(
                f"parts {parts} sum to {sum(parts)}, expected {3 * n - 2}"
            )

    @property
    def n(self) -> int:
        return len(self.parts) + 1


def _box_scan(coords) -> tuple[Optional[tuple[int, int]], list[int], tuple[int, ...]]:
    """One pass over cells in visiting order: the positions (j, k) of the
    first cell k to repeat an earlier cell j (None if all differ), the
    box-extent sum after each cell (a cell adds what it pushes the box out
    by) and the final extents in axis order."""
    lo = list(coords[0])
    hi = lo[:]
    total = len(lo)
    trace = []
    seen = {}
    hit = None
    for j, pos in enumerate(coords):
        # cells after the first repeat need not be remembered
        if hit is None and seen.setdefault(pos, j) != j:
            hit = (seen[pos], j)
        for k, v in enumerate(pos):
            if v < lo[k]:
                total += lo[k] - v
                lo[k] = v
            elif v > hi[k]:
                total += v - hi[k]
                hi[k] = v
        trace.append(total)
    return hit, trace, tuple(h - l + 1 for l, h in zip(lo, hi))


def collision(dev: Development) -> Optional[tuple[FacetLabel, FacetLabel]]:
    """First pair of facets landing on the same cell, in visiting order."""
    hit = _box_scan(dev.coords)[0]
    return hit and tuple(FacetLabel.from_index(dev.order[k], dev.n) for k in hit)


def is_net(dev: Development) -> bool:
    return dev.is_spanning and collision(dev) is None


def cube_partition_of(dev: Development) -> CubePartition:
    """Bounding-box extents of a spanning development as a partition."""
    if not dev.is_spanning:
        raise ValueError("development does not cover all facets")
    return CubePartition(_box_scan(dev.coords)[2])


def verify_development(dev: Development) -> tuple[list[str], Optional[CubePartition]]:
    """All the ways a development fails to be a well-behaved net, and the
    partition of its box extents when there are none (else None)."""
    hit, trace, extents = _box_scan(dev.coords)
    problems = []
    if hit is not None:
        a, b = (FacetLabel.from_index(dev.order[k], dev.n) for k in hit)
        problems.append(f"collision between {a} and {b}")
    if not dev.is_spanning:
        problems.append(f"covers {len(dev.order)} of {2 * dev.n} facets")
        return problems, None
    if trace != list(range(dev.n - 1, 3 * dev.n - 1)):
        problems.append(f"box sum trace {trace} is not unit growth")
    try:
        # cells that collide leave the extents unjudged
        partition = None if hit else CubePartition(extents)
    except ValueError as e:
        return problems + [str(e)], None
    return problems, (None if problems else partition)


def box_parts(extents) -> tuple[np.ndarray, np.ndarray]:
    """Judge B bounding boxes at once: a (B,) mask of the rows of the
    (B, n-1) `extents` that sum to 3n-2 with every extent at least 2, and
    every row sorted descending, which for a passing row is its partition.

    For a development built by unit rolls the box alone decides whether
    `verify_development` passes it: each cell after the first lies next to
    a placed one and grows the extent sum by at most one, from n-1, so the
    extents sum to 3n-2 only if every cell grows the box, which is the unit
    growth trace and leaves no cell to collide.  The block checks read their
    boxes that way, and call `verify_development` only to word a failure.
    """
    parts = np.sort(extents, 1)[:, ::-1]
    n = parts.shape[1] + 1
    passed = (parts.sum(1) == 3 * n - 2) & (parts[:, -1] >= 2)
    return passed, parts


def net_json(dev: Development) -> dict:
    """Development interchange form plus the bounding-box partition."""
    doc = development_json(dev)
    partition = verify_development(dev)[1]
    if partition is not None:
        doc["partition"] = list(partition.parts)
    return doc


_SVG_CELL = 100
_SVG_STROKE = 2


def render_svg(dev: Development) -> str:
    """Flat picture of a 3-cube net: one 100-unit square per facet."""
    if dev.n != 3:
        raise ValueError("SVG rendering is only for dimension 3")
    lox, loy = map(min, zip(*dev.coords))
    hix, hiy = map(max, zip(*dev.coords))
    width = (hix - lox + 1) * _SVG_CELL + 2 * _SVG_STROKE
    height = (hiy - loy + 1) * _SVG_CELL + 2 * _SVG_STROKE
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
    ]
    cells = sorted(zip(dev.order, dev.coords))
    for lab, (x, y) in cells:
        px = (x - lox) * _SVG_CELL + _SVG_STROKE
        py = (hiy - y) * _SVG_CELL + _SVG_STROKE
        name = str(FacetLabel.from_index(lab, dev.n))
        lines.append(
            f'  <rect x="{px}" y="{py}" width="{_SVG_CELL}" height="{_SVG_CELL}" '
            f'fill="white" stroke="black" stroke-width="{_SVG_STROKE}"/>'
        )
        lines.append(
            f'  <text x="{px + _SVG_CELL // 2}" y="{py + _SVG_CELL // 2}" '
            f'font-size="36" font-family="sans-serif" fill="black" '
            f'text-anchor="middle" dominant-baseline="central">{name}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
