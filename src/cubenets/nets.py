"""Geometry of developments: collision checks, bounding boxes, canonical shapes.

A spanning development with all 2n cells distinct is a net.  Its bounding
box always has n-1 extents that are at least 2 and sum to 3n-2, i.e. the
extents form an integer partition of 3n-2 into n-1 parts of size >= 2; the
box sum grows by exactly one with every facet placed after the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

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

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def collision(dev: Development) -> Optional[tuple[FacetLabel, FacetLabel]]:
    """First pair of facets landing on the same cell, in visiting order."""
    seen: dict[tuple[int, ...], int] = {}
    for lab, pos in zip(dev.order, dev.coords):
        if pos in seen:
            return (
                FacetLabel.from_index(seen[pos], dev.n),
                FacetLabel.from_index(lab, dev.n),
            )
        seen[pos] = lab
    return None


def is_net(dev: Development) -> bool:
    return dev.is_spanning and collision(dev) is None


def bounding_box(dev: Development) -> tuple[int, ...]:
    """Extent along each lattice axis, in axis order."""
    return tuple(max(c) - min(c) + 1 for c in zip(*dev.coords))


def cube_partition_of(dev: Development) -> CubePartition:
    """Bounding-box extents of a spanning development as a partition."""
    if not dev.is_spanning:
        raise ValueError("development does not cover all facets")
    return CubePartition(bounding_box(dev))


def box_growth_trace(dev: Development) -> list[int]:
    """Sum of box extents after each facet is placed.

    Starts at n-1 (a single cell) and, for any tree development, steps up by
    exactly one per facet, ending at 3n-2.
    """
    lo = list(dev.coords[0])
    hi = list(dev.coords[0])
    trace = [len(lo)]
    for pos in dev.coords[1:]:
        for k, v in enumerate(pos):
            if v < lo[k]:
                lo[k] = v
            elif v > hi[k]:
                hi[k] = v
        trace.append(sum(h - l + 1 for l, h in zip(lo, hi)))
    return trace


def canonical_points(points, dim: int) -> tuple[tuple[int, ...], ...]:
    """Least translate of a point set under coordinate permutation and sign
    flips, with the minimum corner at the origin; a shape fingerprint."""
    pts = list(points)
    best = None
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            moved = [
                tuple(signs[k] * p[perm[k]] for k in range(dim)) for p in pts
            ]
            lo = [min(p[k] for p in moved) for k in range(dim)]
            shape = tuple(
                sorted(tuple(p[k] - lo[k] for k in range(dim)) for p in moved)
            )
            if best is None or shape < best:
                best = shape
    return best


def canonical_net(dev: Development) -> tuple[tuple[int, ...], ...]:
    """Canonical form of the development's cell set; equal exactly for
    congruent nets.  Facet labels play no part."""
    return canonical_points(dev.coords, dev.n - 1)


def verify_development(dev: Development) -> list[str]:
    """All the ways a development fails to be a well-behaved net."""
    problems = []
    hit = collision(dev)
    if hit is not None:
        problems.append(f"collision between {hit[0]} and {hit[1]}")
    if not dev.is_spanning:
        problems.append(f"covers {len(dev.order)} of {2 * dev.n} facets")
        return problems
    trace = box_growth_trace(dev)
    n = dev.n
    if trace != list(range(n - 1, 3 * n - 1)):
        problems.append(f"box sum trace {trace} is not unit growth")
    if hit is None:
        try:
            CubePartition(bounding_box(dev))
        except ValueError as e:
            problems.append(str(e))
    return problems


def net_json(dev: Development) -> dict:
    """Development interchange form plus the bounding-box partition."""
    doc = development_json(dev)
    if is_net(dev):
        doc["partition"] = list(cube_partition_of(dev).parts)
    return doc


_SVG_CELL = 100
_SVG_STROKE = 2


def render_svg(dev: Development) -> str:
    """Flat picture of a 3-cube net: one 100-unit square per facet."""
    if dev.n != 3:
        raise ValueError("SVG rendering is only for dimension 3")
    xs = [p[0] for p in dev.coords]
    ys = [p[1] for p in dev.coords]
    lox, hix = min(xs), max(xs)
    loy, hiy = min(ys), max(ys)
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
