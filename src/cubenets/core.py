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
def _edge_rank_grid(n: int) -> tuple[tuple[int, ...], ...]:
    """rank[i][j] of the edge {i, j}, or -1 where no edge exists."""
    grid = [[-1] * (2 * n) for _ in range(2 * n)]
    for r, (i, j) in enumerate(roberts_edges(n)):
        grid[i][j] = grid[j][i] = r
    return tuple(tuple(row) for row in grid)


def _check_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")


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
        norm = tuple(sorted(set(tuple(sorted(e)) for e in self.edges)))
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

    @property
    def label_edges(self) -> tuple[tuple[FacetLabel, FacetLabel], ...]:
        n = self.n
        return tuple(
            (FacetLabel.from_index(i, n), FacetLabel.from_index(j, n))
            for i, j in self.edges
        )

    def to_json(self) -> list[list[str]]:
        return [[str(a), str(b)] for a, b in self.label_edges]

    @staticmethod
    def from_json(n, data, kind="tree") -> "SpanningSubgraph":
        pairs = [(FacetLabel.parse(a), FacetLabel.parse(b)) for a, b in data]
        return SpanningSubgraph.from_labels(n, pairs, kind)

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
        return ",".join(f"{a}-{b}" for a, b in self.label_edges)


def subgraph_from_mask(n: int, mask: int, kind: Kind = "tree") -> SpanningSubgraph:
    edges = roberts_edges(n)
    picked = []
    while mask:
        bit = mask & -mask
        picked.append(edges[bit.bit_length() - 1])
        mask ^= bit
    return SpanningSubgraph(n, kind, tuple(picked))


class _UnionFind:
    """Tiny union-find; no path compression so unions can be undone in stack order."""

    def __init__(self, size):
        self.parent = list(range(size))
        self.rank = [0] * size
        self.count = size

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        """Join the sets of a and b; return the absorbed root, or -1 if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return -1
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.count -= 1
        return rb

    def undo(self, absorbed):
        """Reverse the most recent union that absorbed this root."""
        self.parent[absorbed] = absorbed
        self.count += 1


def validate(sub: SpanningSubgraph):
    """Return None if sub is a valid spanning subgraph of its kind, else the
    first violated condition as text."""
    n, two_n = sub.n, 2 * sub.n
    for i, j in sub.edges:
        if not (0 <= i < two_n and 0 <= j < two_n):
            return f"label index out of range in edge ({i},{j})"
        if j - i == n:
            a = FacetLabel.from_index(i, n)
            return f"antipodal edge {a}-{a.antipode()}"
    expected = two_n - 1 if sub.kind in ("tree", "path") else two_n
    if len(sub.edges) != expected:
        return f"wrong edge count: expected {expected}, got {len(sub.edges)}"
    deg = [0] * two_n
    uf = _UnionFind(two_n)
    for i, j in sub.edges:
        deg[i] += 1
        deg[j] += 1
        if uf.union(i, j) < 0 and sub.kind in ("tree", "path"):
            return "cycle present"
    if sub.kind == "cycle":
        bad = [k for k in range(two_n) if deg[k] != 2]
        if bad:
            lab = FacetLabel.from_index(bad[0], n)
            return f"wrong degrees: facet {lab} has degree {deg[bad[0]]}"
    if uf.count != 1:
        return "disconnected"
    if sub.kind == "path":
        leaves = sum(1 for d in deg if d == 1)
        if leaves != 2:
            return f"wrong degrees: {leaves} endpoints, expected 2"
    return None


def path_endpoints(sub: SpanningSubgraph) -> tuple[int, int]:
    """The two degree-1 label indices of a spanning path."""
    deg = [0] * (2 * sub.n)
    for i, j in sub.edges:
        deg[i] += 1
        deg[j] += 1
    ends = [k for k, d in enumerate(deg) if d == 1]
    if len(ends) != 2:
        raise ValueError("subgraph is not a path")
    return ends[0], ends[1]


# ---------------------------------------------------------------------------
# signed permutations (the hyperoctahedral group, order 2^n * n!)


@dataclass(frozen=True)
class SignedPermutation:
    """perm[k-1] is the image axis of axis k; flips[k-1] swaps the star."""

    perm: tuple[int, ...]
    flips: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)) or len(self.flips) != n:
            raise ValueError("not a signed permutation")

    @property
    def n(self) -> int:
        return len(self.perm)

    def label_map(self) -> tuple[int, ...]:
        """Image of every label index under this element."""
        n = self.n
        out = [0] * (2 * n)
        for a in range(n):
            t = self.perm[a] - 1
            if self.flips[a]:
                out[a], out[a + n] = t + n, t
            else:
                out[a], out[a + n] = t, t + n
        return tuple(out)

    def apply_subgraph(self, sub: SpanningSubgraph) -> SpanningSubgraph:
        lm = self.label_map()
        return SpanningSubgraph(
            sub.n, sub.kind, tuple((lm[i], lm[j]) for i, j in sub.edges)
        )


def signed_permutations(n: int):
    """Iterate the whole group."""
    for perm in itertools.permutations(range(1, n + 1)):
        for mask in itertools.product((False, True), repeat=n):
            yield SignedPermutation(perm, mask)


def random_signed_permutation(n, rng) -> SignedPermutation:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    flips = tuple(rng.random() < 0.5 for _ in range(n))
    return SignedPermutation(tuple(perm), flips)


@cache
def group_order(n: int) -> int:
    out = 2**n
    for k in range(2, n + 1):
        out *= k
    return out


_FULL_EXPANSION_MAX = 6  # 2^6 * 6! = 46080 label maps, about 22 MB of edge maps


@cache
def _group_label_maps(n: int) -> tuple[tuple[int, ...], ...]:
    if n > _FULL_EXPANSION_MAX:
        raise ValueError(f"full group expansion capped at n={_FULL_EXPANSION_MAX}")
    return tuple(g.label_map() for g in signed_permutations(n))


@cache
def _group_edge_maps(n: int) -> np.ndarray:
    """Edge-rank permutation induced by every group element, one row each."""
    grid = _edge_rank_grid(n)
    edges = roberts_edges(n)
    maps = np.empty((group_order(n), len(edges)), dtype=np.int64)
    for k, lm in enumerate(_group_label_maps(n)):
        maps[k] = [grid[lm[i]][lm[j]] for i, j in edges]
    return maps


# ---------------------------------------------------------------------------
# canonical forms
#
# Edge sets are compared as sorted lists of edges under the label order, so
# the canonical form of a subgraph is the image whose sorted edge list is
# lexicographically least.  On bitmasks that order is "numeric max after
# reversing bit significance": the smallest edge rank is given the highest
# bit, so greedy-small edge lists win integer comparisons.


def _rev_weights(n: int) -> np.ndarray:
    m = len(roberts_edges(n))
    return (1 << np.arange(m - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)


@cache
def _orbit_tables(n: int):
    """(edge maps, forward bit weights, reversed bit weights) as numpy arrays."""
    emaps = _group_edge_maps(n)
    m = emaps.shape[1]
    fwd = (1 << np.arange(m, dtype=np.uint64)).astype(np.uint64)
    return emaps, fwd, _rev_weights(n)


def _mask_ranks(mask: int) -> list[int]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def _orbit_arrays(n: int, mask: int):
    """Masks and reversed-order keys of every group image of mask."""
    emaps, fwd, rev = _orbit_tables(n)
    mapped = emaps[:, _mask_ranks(mask)]
    masks = np.bitwise_or.reduce(fwd[mapped], axis=1)
    keys = np.bitwise_or.reduce(rev[mapped], axis=1)
    return masks, keys


def canonical_mask(n: int, mask: int) -> int:
    """Canonical image of an edge mask, by expanding the whole group; past
    n = _FULL_EXPANSION_MAX this raises ValueError."""
    masks, keys = _orbit_arrays(n, mask)
    return int(masks[int(np.argmax(keys))])


def canonical_form(sub: SpanningSubgraph) -> SpanningSubgraph:
    """Lexicographically least relabelling of sub under the signed-permutation
    group; equal results exactly for equivalent subgraphs."""
    return subgraph_from_mask(sub.n, canonical_mask(sub.n, sub.mask()), sub.kind)


def orbit_masks(n: int, mask: int) -> set[int]:
    masks, _ = _orbit_arrays(n, mask)
    return set(masks.tolist())


def stabilizer_order(n: int, mask: int) -> int:
    masks, _ = _orbit_arrays(n, mask)
    return int(np.count_nonzero(masks == np.uint64(mask)))


def dedup_canonical_masks(n: int, masks) -> list[int]:
    """Collapse an iterable of edge masks to sorted canonical orbit
    representatives.  Every orbit present in the input is emitted once; the
    input need not contain the representative itself.  This is the
    full-memory reference that tests compare the enumeration's restricted
    dedup against: it remembers every image of every orbit it meets."""
    seen = set()
    out = []
    for mask in masks:
        if mask in seen:
            continue
        images, keys = _orbit_arrays(n, mask)
        seen.update(images.tolist())
        out.append(int(images[int(np.argmax(keys))]))
    out.sort()
    return out
