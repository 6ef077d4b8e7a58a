"""Facet labels, Roberts graphs, and spanning subgraphs up to signed-permutation symmetry.

The 2n facets of the n-cube are labelled 1..n and 1*..n*, where k and k* are
the antipodal pair perpendicular to axis k.  The Roberts graph joins every
pair of non-antipodal facets; its spanning trees are exactly the ridge
unfoldings of the cube.  Symmetry is the hyperoctahedral group acting by
signed permutation of the axes, and canonical forms are computed as the
lexicographically least image of an edge set under that action.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache

import numpy as np

Kind = str  # 'tree' | 'path' | 'cycle'

KINDS = ("tree", "path", "cycle")

_LABEL_RE = re.compile(r"^([1-9][0-9]*)(\*?)$")


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class FacetLabel:
    """One facet of the n-cube: axis k, optionally starred for the antipode."""

    axis: int
    starred: bool = False

    def __post_init__(self):
        if self.axis < 1:
            raise ValueError(f"axis must be positive, got {self.axis}")

    def antipode(self) -> "FacetLabel":
        return FacetLabel(self.axis, not self.starred)

    def index(self, n: int) -> int:
        """Position in the fixed label order 1..n, 1*..n*."""
        if self.axis > n:
            raise ValueError(f"label {self} out of range for dimension {n}")
        return self.axis - 1 + (n if self.starred else 0)

    @staticmethod
    def from_index(i: int, n: int) -> "FacetLabel":
        if not 0 <= i < 2 * n:
            raise ValueError(f"label index {i} out of range for dimension {n}")
        return FacetLabel(i % n + 1, i >= n)

    @staticmethod
    def parse(text: str) -> "FacetLabel":
        m = _LABEL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"bad facet label {text!r}")
        return FacetLabel(int(m.group(1)), m.group(2) == "*")

    def __str__(self) -> str:
        return f"{self.axis}*" if self.starred else f"{self.axis}"


def antipode_index(i: int, n: int) -> int:
    return (i + n) % (2 * n)


@cache
def roberts_edges(n: int) -> tuple[tuple[int, int], ...]:
    """All Roberts-graph edges as index pairs, in lexicographic (rank) order."""
    _check_dim(n)
    return tuple(
        (i, j)
        for i in range(2 * n)
        for j in range(i + 1, 2 * n)
        if j - i != n
    )


@cache
def _label_table(n: int) -> tuple[str, ...]:
    """The 2n label strings in index order: the one labelling that
    listings, `to_json` and `__str__` print."""
    return tuple(str(FacetLabel.from_index(i, n)) for i in range(2 * n))


@cache
def _edge_rank_grid(n: int) -> tuple[tuple[int, ...], ...]:
    """rank[i][j] of the edge {i, j}, or -1 where no edge exists."""
    grid = [[-1] * (2 * n) for _ in range(2 * n)]
    for r, (i, j) in enumerate(roberts_edges(n)):
        grid[i][j] = grid[j][i] = r
    return tuple(tuple(row) for row in grid)


def _check_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")


class ResourceLimitError(Exception):
    """A requested dimension is past what the chosen method can finish."""


def _check_budget(n: int, limit: int, name: str, what: str) -> None:
    """Refuse n past `limit`, naming the constant `name` that sets it."""
    if n > limit:
        raise ResourceLimitError(
            f"{what} are budgeted up to n={limit} ({name}), got n={n}"
        )


# ---------------------------------------------------------------------------
# spanning subgraphs


@dataclass(frozen=True)
class SpanningSubgraph:
    """An edge set over the 2n facet labels, declared as tree, path, or cycle.

    Edges are stored as sorted pairs of label indices, the whole tuple
    sorted, so equal subgraphs compare equal.
    """

    n: int
    kind: Kind
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_dim(self.n)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        norm = tuple(sorted({(i, j) if i < j else (j, i) for i, j in self.edges}))
        object.__setattr__(self, "edges", norm)
        two_n = 2 * self.n
        for i, j in norm:
            if not (0 <= i < two_n and 0 <= j < two_n):
                raise ValueError(f"edge ({i},{j}) out of range for dimension {self.n}")
            if i == j:
                raise ValueError(f"self-loop on label index {i}")

    @staticmethod
    def from_labels(n, pairs, kind="tree") -> "SpanningSubgraph":
        edges = tuple((a.index(n), b.index(n)) for a, b in pairs)
        return SpanningSubgraph(n, kind, edges)

    @staticmethod
    def from_text(n, text, kind="tree") -> "SpanningSubgraph":
        """Parse an edge list like '1-2,1-2*,2-1*'."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            ends = chunk.split("-")
            if len(ends) != 2:
                raise ValueError(f"bad edge {chunk!r}")
            pairs.append((FacetLabel.parse(ends[0]), FacetLabel.parse(ends[1])))
        return SpanningSubgraph.from_labels(n, pairs, kind)

    def to_json(self) -> list[list[str]]:
        labels = _label_table(self.n)
        return [[labels[i], labels[j]] for i, j in self.edges]

    def mask(self) -> int:
        """Edge set as a bitmask over edge ranks."""
        grid = _edge_rank_grid(self.n)
        m = 0
        for i, j in self.edges:
            r = grid[i][j]
            if r < 0:
                raise ValueError(f"antipodal pair ({i},{j}) has no edge")
            m |= 1 << r
        return m

    def __str__(self) -> str:
        labels = _label_table(self.n)
        return ",".join(f"{labels[i]}-{labels[j]}" for i, j in self.edges)


def subgraph_from_mask(n: int, mask: int, kind: Kind = "tree") -> SpanningSubgraph:
    edges = roberts_edges(n)
    return SpanningSubgraph(n, kind, tuple(edges[r] for r in _mask_ranks(mask)))


def validate(sub: SpanningSubgraph):
    """Return None if sub is a valid spanning subgraph of its kind, else the
    first violated condition as text."""
    n, two_n = sub.n, 2 * sub.n
    for i, j in sub.edges:
        if j - i == n:
            a = FacetLabel.from_index(i, n)
            return f"antipodal edge {a}-{a.antipode()}"
    expected = two_n - 1 if sub.kind in ("tree", "path") else two_n
    if len(sub.edges) != expected:
        return f"wrong edge count: expected {expected}, got {len(sub.edges)}"
    deg = [0] * two_n
    parent = list(range(two_n))
    components = two_n

    def find(x):
        # path halving: without union by rank the chains can grow long
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, j in sub.edges:
        deg[i] += 1
        deg[j] += 1
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            components -= 1
        elif sub.kind in ("tree", "path"):
            return "cycle present"
    if sub.kind == "cycle":
        bad = [k for k in range(two_n) if deg[k] != 2]
        if bad:
            lab = FacetLabel.from_index(bad[0], n)
            return f"wrong degrees: facet {lab} has degree {deg[bad[0]]}"
    if components != 1:
        return "disconnected"
    if sub.kind == "path":
        leaves = sum(1 for d in deg if d == 1)
        if leaves != 2:
            return f"wrong degrees: {leaves} endpoints, expected 2"
    return None


# ---------------------------------------------------------------------------
# the relabelling group: signed permutations, order 2^n * n!


# 2^6 * 6! = 46080 label maps: 2.8 MB of uint8 coset tables, and 22 MB of
# int64 edge maps in the full expansion
_FULL_EXPANSION_MAX = 6


def _group_label_maps(n: int) -> np.ndarray:
    """Image of every label index under every group element, one uint8 row
    each.  Rows run over the axis permutations in `itertools.permutations`
    order and, within each, over the star flips in `itertools.product`
    order; an element sends facet a to its permuted axis, starred when the
    axis is flipped, and a* to the antipode of that."""
    if n > _FULL_EXPANSION_MAX:
        raise ValueError(f"full group expansion capped at n={_FULL_EXPANSION_MAX}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    flips = np.array(list(itertools.product((0, n), repeat=n)), dtype=np.uint8)
    unstarred = perms[:, None, :] + flips
    starred = perms[:, None, :] + (n - flips)
    return np.concatenate((unstarred, starred), axis=2).reshape(-1, 2 * n)


def _edge_maps(n: int, label_maps: np.ndarray, dtype) -> np.ndarray:
    """Edge-rank permutation induced by each row of `label_maps`."""
    # -1 marks the grid's non-edges, which no label map reaches
    grid = np.array(_edge_rank_grid(n)).ravel().astype(dtype)
    i, j = np.array(roberts_edges(n)).T
    # one uint8 index into the flattened grid: it stays below 256 while
    # 4n^2 - 1 <= 255, i.e. n <= 8, and _FULL_EXPANSION_MAX is 6
    return grid[label_maps[:, i] * (2 * n) + label_maps[:, j]]


@cache
def _group_edge_maps(n: int) -> np.ndarray:
    """Edge-rank permutation induced by every group element, one int64 row
    each, in `_group_label_maps` order: the full expansion that
    `dedup_canonical_masks` and the tests read."""
    return _edge_maps(n, _group_label_maps(n), np.int64)


# ---------------------------------------------------------------------------
# canonical forms
#
# Edge sets are compared as sorted lists of edges under the label order, so
# the canonical form of a subgraph is the image whose sorted edge list is
# lexicographically least.  On bitmasks that order is "numeric max after
# reversing bit significance": the smallest edge rank is given the highest
# bit, so greedy-small edge lists win integer comparisons.
#
# The group moves any ordered pair of adjacent facets onto (1, 2), the ends
# of edge rank 0, so the canonical image holds rank 0.  The elements that
# send a given ordered pair (a, b) there form one coset of H, the stabilizer
# of facets 1 and 2 (|H| = 2^(n-2) (n-2)!), and the cosets of the 2n(2n-2)
# ordered pairs partition the group.  So the images of a mask that hold
# rank 0 are exactly its images under the cosets of its own 2|E| ordered
# edges, one per element, and only those cosets are expanded.


@cache
def _orbit_tables(n: int):
    """(coset blocks, pair rows, forward bit weights, reversed bit weights).

    blocks[k] is the coset of the k-th ordered pair (a, b) of adjacent
    facets, in (a, b) order: its elements' edge maps as a uint8 (rank,
    element) block, elements in group order.  pair_rows[r] names, as a
    (2, 1) column, the blocks of edge rank r's two ordered pairs, (i, j)
    and (j, i)."""
    two_n = 2 * n
    label_maps = _group_label_maps(n)
    # the ordered pair each element sends onto (0, 1), as a * 2n + b
    pairs = np.argmax(label_maps == 0, 1) * two_n + np.argmax(label_maps == 1, 1)
    order = np.argsort(pairs, kind="stable")
    emaps = _edge_maps(n, label_maps[order], np.uint8)
    count, m = two_n * (two_n - 2), emaps.shape[1]
    blocks = emaps.reshape(count, -1, m).transpose(0, 2, 1).copy()
    block_of = {key: k for k, key in enumerate(pairs[order[:: len(order) // count]].tolist())}
    pair_rows = np.array(
        [[block_of[i * two_n + j], block_of[j * two_n + i]] for i, j in roberts_edges(n)]
    )[..., None]
    fwd = (1 << np.arange(m, dtype=np.uint64)).astype(np.uint64)
    return blocks, pair_rows, fwd, fwd[::-1]


def _mask_ranks(mask: int) -> list[int]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def _orbit_arrays(n: int, mask: int):
    """The images of mask that hold edge rank 0, one per group element that
    maps an edge of mask onto it, and the best-keyed (canonical) image."""
    blocks, pair_rows, fwd, rev = _orbit_tables(n)
    if not mask:  # the empty edge set is its own image, and holds no rank
        return np.zeros(0, np.uint64), 0
    ranks = np.array(_mask_ranks(mask))
    # (edge of mask, direction, edge of mask, coset element) -> image rank;
    # an element maps distinct edges to distinct ranks, so summing their
    # bit weights ORs them
    mapped = blocks[pair_rows[ranks], ranks]
    masks = fwd.take(mapped).sum(2).ravel()
    keys = rev.take(mapped).sum(2)
    return masks, int(masks[keys.argmax()])


def canonical_mask(n: int, mask: int) -> int:
    """Canonical image of an edge mask, by expanding the cosets of its
    edges; past n = _FULL_EXPANSION_MAX this raises ValueError."""
    return _orbit_arrays(n, mask)[1]


def canonical_form(sub: SpanningSubgraph) -> SpanningSubgraph:
    """Lexicographically least relabelling of sub under the signed-permutation
    group; equal results exactly for equivalent subgraphs."""
    return subgraph_from_mask(sub.n, canonical_mask(sub.n, sub.mask()), sub.kind)


def dedup_canonical_masks(n: int, masks) -> list[int]:
    """Collapse an iterable of edge masks to sorted canonical orbit
    representatives.  Every orbit present in the input is emitted once; the
    input need not contain the representative itself.  This is the
    full-memory reference that tests compare the enumeration's restricted
    dedup against: it expands the whole group and remembers every image of
    every orbit it meets."""
    emaps = _group_edge_maps(n)
    seen = set()
    out = []
    for mask in masks:
        if mask in seen:
            continue
        mapped = emaps[:, _mask_ranks(mask)].astype(np.uint64)
        seen.update(np.bitwise_or.reduce(np.uint64(1) << mapped, axis=1).tolist())
        out.append(canonical_mask(n, mask))
    out.sort()
    return out
