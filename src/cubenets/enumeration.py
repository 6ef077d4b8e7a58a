"""Exhaustive and sampled enumeration of unfoldings up to relabelling.

The direct route lists classes of spanning trees, paths and cycles of the
Roberts graph and certifies them; the diagram route counts symmetry
classes of chord diagrams by Burnside and never touches the graph.  Their
agreement on small dimensions is one of the package's main checks.

Trees are walked only in one shape: the relabelling group moves any
ordered non-antipodal pair of facets onto (1, 2), the ends of edge rank 0,
and every tree has a leaf, so every orbit has a member in which facet 1 is
a leaf hanging from facet 2.  The elements that fix facets 1 and 2 move
facet 3 onto any facet of axes 3..n, so the stream also keeps facet 2
joined to facet 3 or with no neighbour on axes 3..n.  A tree is walked as
its parent function toward facet 1, one facet's pick at a time, with that
rule as a pick rule.  An orbit dedup that remembers only the images of the
shape collapses the stream to classes.

Paths and cycles are read from the chord diagrams: a cycle class is a
loopless diagram on the 2n-gon, a path class a diagram on the (2n+2)-gon
with one loop, and `chords` generates each class once with its |Stab|.  So
the direct route for paths and cycles is the paper's diagram bijection, not
a method independent of the chords.  Two checks are independent of them.
Every listing and every direct count certifies its classes by
orbit-stabilizer: the orbit sizes |B_n| / |Stab| must sum to the
closed-form number of labelled trees, paths or cycles, or it raises
CountMismatchError; a cut that drops an orbit, or a dedup or generator
that loses or repeats a class, fails it.  And a listing prints each path
or cycle class as `canonical_mask` of its edge set, which expands the
group's cosets.  Direct counts of paths, cycles and ter (paths whose ends
are antipodal) read the diagram classes and certificate alone; only
listings label a diagram into its walk and compute canonical masks.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import islice
from math import comb, factorial

import numpy as np

from .chords import ChordDiagram, _diagram_classes_by_loops, count_diagram_classes
from .core import (
    FacetLabel,
    ResourceLimitError,
    SpanningSubgraph,
    _check_budget,
    _check_dim,
    _edge_rank_grid,
    _mask_ranks,
    _orbit_arrays,
    antipode_index,
    canonical_mask,
    roberts_edges,
    subgraph_from_mask,
)
from .nets import box_parts, verify_development
from .rolling import (
    _tree_walk,
    develop_parent_block,
    develop_tree,
    initial_state,
    tree_block_size,
)


class CountMismatchError(Exception):
    """Two counts that must agree do not: the two methods, or ter(n) against
    paths(n-1)."""


DIRECT_LIMITS = {"trees": 5, "paths": 5, "cycles": 6}
# diagram class counts are closed-form sums: the whole table to n=20 takes ms
CHORDS_COUNT_LIMIT = 20


def _check_direct(kind: str, n: int, what: str = "listings") -> None:
    if kind not in DIRECT_LIMITS:
        raise ValueError(f"unknown kind {kind!r}")
    _check_budget(n, DIRECT_LIMITS[kind], "DIRECT_LIMITS", f"direct {kind} {what}")


# ---------------------------------------------------------------------------
# raw generation, symmetry-restricted


@cache
def _neighbours(n: int) -> tuple[tuple[int, ...], ...]:
    """Row v lists facet v's Roberts-graph neighbours in ascending order."""
    return tuple(
        tuple(u for u in range(2 * n) if u != v and u != antipode_index(v, n))
        for v in range(2 * n)
    )


def _far_edges(n: int) -> int:
    """Mask of vertex 1's edges into axes 3..n; the lowest, rank 2n-2, is
    its edge to vertex 2 (facet 3).  Empty at n=2."""
    grid = _edge_rank_grid(n)
    return sum(1 << grid[1][u] for u in _neighbours(n)[1] if u % n > 1)


def _raw_tree_masks(n: int):
    """Masks of spanning trees in which vertex 0 is a leaf on vertex 1, and
    vertex 1 holds the edge to vertex 2 (facet 3) or has no neighbour on
    axes 3..n at all.  H, the stabilizer of facets 1 and 2, fixes facet 1*
    (vertex n) and moves facet 3 onto every facet of axes 3..n, so it moves
    any tree with vertex 0 a leaf on vertex 1 into that shape.

    A tree is walked as its parent function toward vertex 0.  Vertex 1
    hangs from vertex 0; then each vertex v = 2, ..., 2n-1 in turn picks a
    neighbour other than 0, which keeps vertex 0 a leaf.  Each component of
    the partial forest has one vertex without a parent, its root, and v has
    none yet, so a pick u closes a cycle exactly when u's root is v: one
    walk up the parents, and undoing a pick resets one entry.  Vertex 1's
    other edges are the picks that take it, so the facet-3 rule is a pick
    rule: a vertex of axes 3..n other than 2 may take vertex 1 only once
    vertex 2, which picks first, has."""
    two_n = 2 * n
    grid = _edge_rank_grid(n)
    # picks[v][k]: (u, bit of edge (v, u)) for each neighbour u != 0 that
    # v may take, where k says whether vertex 2 hangs from vertex 1
    picks = []
    for v in range(two_n):
        every = tuple((u, 1 << grid[v][u]) for u in _neighbours(n)[v] if u)
        far = v != 2 and v % n > 1
        picks.append((tuple(p for p in every if p[0] != 1) if far else every, every))
    parent = list(range(two_n))  # a vertex without a parent is its own
    parent[1] = 0
    before = [1] * two_n  # before[v]: the edges picked before v's turn
    todo = [()] * two_n  # todo[v]: v's picks not yet tried
    todo[2] = iter(picks[2][0])
    v = 2
    while True:
        for u, bit in todo[v]:
            root = u
            while parent[root] != root:
                root = parent[root]
            if root != v:
                break
        else:
            # v has no pick left: undo the pick of the vertex before it
            if v == 2:
                return
            v -= 1
            parent[v] = v
            continue
        if v == two_n - 1:
            yield before[v] | bit
        else:
            parent[v] = u
            before[v + 1] = before[v] | bit
            v += 1
            todo[v] = iter(picks[v][parent[2] == 1])


def _dedup_restricted(n: int, masks) -> list[tuple[int, int]]:
    """Orbit dedup for the tree stream, whose every member has facet 1 a
    leaf on facet 2 (`mask & star == 1`, star = vertex 0's edges) and
    facet 2 joined to facet 3 or to no facet of axes 3..n (`_far_edges`).
    Only orbit images of that shape are remembered, which is what keeps
    runs at the budget ceiling inside memory.  The representative is still
    the best key over the whole orbit.  A member of another shape would
    never be remembered, so its orbit could be emitted twice: it raises
    RuntimeError instead.

    Each class comes as (representative, |Stab|), sorted.  `_orbit_arrays`
    gives one image per group element that puts rank 0 in the image, and
    the representative holds rank 0, so the elements that fix the class's
    representative are counted exactly."""
    star = (1 << (2 * n - 2)) - 1  # vertex 0's edges are ranks 0 .. 2n-3
    far = _far_edges(n)
    to_three = 1 << (2 * n - 2)  # the lowest of vertex 1's far edges
    seen: set[int] = set()
    out = []
    one, zero = np.uint64(1), np.uint64(0)
    star_u, far_u, to_three_u = np.uint64(star), np.uint64(far), np.uint64(to_three)
    for mask in masks:
        if mask in seen:
            continue
        if mask & star != 1 or mask & far and not mask & to_three:
            raise RuntimeError(
                f"mask {mask:#x} lacks the stream shape mask & {star:#x} == 1 "
                f"with mask & {far:#x} empty or holding {to_three:#x}"
            )
        images, rep = _orbit_arrays(n, mask)
        shaped = ((images & star_u) == one) & (
            ((images & far_u) == zero) | ((images & to_three_u) != zero)
        )
        seen.update(images[shaped].tolist())
        out.append((rep, int(np.count_nonzero(images == np.uint64(rep)))))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# path and cycle classes, read from the chord diagrams

# (polygon vertices beyond 2n, loops) of the chord diagrams whose classes
# are each kind's classes; "ter" is the paths whose ends are antipodal facets
_DIAGRAMS = {"cycles": (0, 0), "ter": (0, 1), "paths": (2, 1)}


def _diagram_classes(kind: str, n: int) -> tuple[tuple[ChordDiagram, int], ...]:
    """(least mate table, |Stab|) of each class of spanning paths or cycles:
    the loopless 2n-gon diagrams for cycles, the one-loop (2n+2)-gon
    diagrams for paths, with the loop at (0, 1) and the path on positions
    2..2n+1.  B_n acts freely on directed walks, so a walk's stabilizer is
    its diagram's dihedral stabilizer.  Callers check the budget first."""
    extra, loops = _DIAGRAMS[kind]
    diagrams, stabs = _diagram_classes_by_loops(2 * n + extra, loops)
    return tuple(zip(diagrams, stabs))


def _walk_masks(kind: str, n: int):
    """(canonical mask, |Stab|) of each class of spanning paths or cycles.
    A diagram is labelled into its walk along the polygon: a chord's first
    end takes the next axis, its mate the antipode.  That walk's edge mask
    is put in canonical form by `canonical_mask`, which expands the group's
    cosets and knows nothing of the diagram."""
    grid = _edge_rank_grid(n)
    for d, stab in _diagram_classes(kind, n):
        start = d.m - 2 * n  # 2 for a path, past its loop; 0 for a cycle
        label = [0] * d.m
        axis = 0
        for p in range(start, d.m):
            if d.mate[p] > p:
                label[p], label[d.mate[p]] = axis, axis + n
                axis += 1
        seq = label[start:]
        ends = seq[1:] + seq[:1] if kind == "cycles" else seq[1:]
        mask = sum(1 << grid[a][b] for a, b in zip(seq, ends))
        yield canonical_mask(n, mask), stab


def _raw_path_masks(n: int):
    """(canonical mask, |Stab|) of each class of spanning paths."""
    return _walk_masks("paths", n)


def _raw_cycle_masks(n: int):
    """(canonical mask, |Stab|) of each class of spanning cycles."""
    return _walk_masks("cycles", n)


def _labelled_count(kind: str, n: int) -> int:
    """Labelled spanning trees, paths or cycles of the Roberts graph, the
    cocktail-party graph on 2n vertices: the matrix-tree count for trees,
    and inclusion-exclusion over the n antipodal pairs for the walks."""
    if kind == "trees":
        return 2 ** (2 * n - 2) * (n - 1) ** n * n ** (n - 2)
    # a path orders 2n vertices, a cycle fixes one of them first
    free = 2 * n if kind == "paths" else 2 * n - 1
    terms = ((-1) ** k * comb(n, k) * 2**k * factorial(free - k) for k in range(n + 1))
    return sum(terms) // 2


def _certify(kind: str, n: int, classes) -> None:
    """Orbit-stabilizer check of a listing: the orbits of its
    (representative, |Stab|) classes must cover every labelled object of
    its kind exactly once, else CountMismatchError."""
    order = 2**n * factorial(n)
    covered = sum(order // stab for _, stab in classes)
    want = _labelled_count(kind, n)
    if covered != want:
        raise CountMismatchError(
            f"orbit-stabilizer check at n={n} on {kind}: the listed classes "
            f"cover {covered} labelled {kind}, but there are {want}"
        )


# ---------------------------------------------------------------------------
# public enumeration, cached per kind and dimension


def _stream_classes(kind: str, n: int) -> list[tuple[int, int]]:
    # one listing's classes as (representative, |Stab|), sorted.  The
    # generators are looked up here, at call time, so that a wrapped module
    # attribute is the one that runs
    if kind == "trees":
        return _dedup_restricted(n, _raw_tree_masks(n))
    walk = _raw_path_masks if kind == "paths" else _raw_cycle_masks
    return sorted(walk(n))


def _class_masks(kind: str, n: int) -> tuple[int, ...]:
    # the kind, the dimension and the budget are checked before the cache,
    # so none of them depends on what an earlier call left
    _check_dim(n)
    _check_direct(kind, n)
    return _listing(kind, n)


@cache
def _listing(kind: str, n: int) -> tuple[int, ...]:
    # only listings reach here; counts of paths, cycles and ter read the
    # diagram classes.  The stream's classes come unique and sorted by
    # representative, and are certified before they are cached
    classes = _stream_classes(kind, n)
    _certify(kind, n, classes)
    return tuple(rep for rep, _ in classes)


def enumerate_classes(kind: str, n: int) -> tuple[SpanningSubgraph, ...]:
    """All spanning "trees", "paths" or "cycles" of the Roberts graph up to
    relabelling, one per class, sorted by edge mask."""
    masks = _class_masks(kind, n)
    return tuple(subgraph_from_mask(n, m, kind[:-1]) for m in masks)


def enumerate_trees(n: int) -> tuple[SpanningSubgraph, ...]:
    """All spanning trees of the Roberts graph up to relabelling, sorted."""
    return enumerate_classes("trees", n)


def classify_path(p: SpanningSubgraph) -> str:
    """"ter" when the endpoints are antipodal facets, else "ext" (one more
    edge then closes the path into a spanning cycle)."""
    return _classify_path_mask(p.n, p.mask())


def _classify_path_mask(n: int, mask: int) -> str:
    """`classify_path` of the path with edge mask `mask`.  A path's two
    ends are its only facets of odd degree, and they are antipodal, a and
    a + n, exactly when their set is {a} and its shift by n."""
    edges = roberts_edges(n)
    odd = 0
    for r in _mask_ranks(mask):
        i, j = edges[r]
        odd ^= 1 << i | 1 << j
    if odd.bit_count() != 2:
        raise ValueError("subgraph is not a path")
    low = odd & -odd
    return "ter" if odd == low | low << n else "ext"


def _random_parents(n: int, rng: random.Random) -> list[int]:
    """Uniform spanning tree of the Roberts graph by loop-erased walks, as
    each facet's parent toward facet 1 (-1 for facet 1 itself).  Each step
    draws its neighbour's rank by the rejection loop over `getrandbits` that
    `rng.randrange(2n-2)` runs, so the stream is that call's, draw for
    draw."""
    two_n = 2 * n
    k = two_n - 2
    bits = k.bit_length()
    getrandbits = rng.getrandbits
    neighbours = _neighbours(n)
    in_tree = [False] * two_n
    succ = [-1] * two_n
    in_tree[0] = True
    for v0 in range(1, two_n):
        u = v0
        while not in_tree[u]:
            r = getrandbits(bits)
            while r >= k:
                r = getrandbits(bits)
            succ[u] = u = neighbours[u][r]
        u = v0
        while not in_tree[u]:
            in_tree[u] = True
            u = succ[u]
    return succ


def _tree_from_parents(parents: list[int]) -> SpanningSubgraph:
    """The tree whose facet v > 0 hangs from parents[v]."""
    return SpanningSubgraph(
        len(parents) // 2, "tree", tuple(enumerate(parents))[1:]
    )


def random_spanning_tree(n: int, rng: random.Random) -> SpanningSubgraph:
    """Uniform spanning tree of the Roberts graph, drawing the stream
    `_random_parents` draws."""
    return _tree_from_parents(_random_parents(n, rng))


# ---------------------------------------------------------------------------
# headline table


METHODS = ("direct", "chords", "both")


def _chord_count(kind: str, n: int) -> int:
    _check_dim(n)
    _check_budget(n, CHORDS_COUNT_LIMIT, "CHORDS_COUNT_LIMIT", "chord counts")
    extra, loops = _DIAGRAMS[kind]
    return count_diagram_classes(2 * n + extra, loops)


def _direct_count(kind: str, n: int) -> int:
    # ter takes the path budget: a path's ends are antipodal when its first
    # and last positions, 2 and 2n+1, share a chord
    walk = "paths" if kind == "ter" else kind
    _check_dim(n)
    _check_direct(walk, n, "counts")
    if kind == "trees":
        return len(_class_masks(kind, n))
    # paths, cycles and ter are counted on the certified diagram classes,
    # with no listing
    classes = _diagram_classes(walk, n)
    _certify(walk, n, classes)
    if kind == "ter":
        return sum(d.mate[2] == 2 * n + 1 for d, _ in classes)
    return len(classes)


def count_classes(kind: str, n: int, method: str = "direct") -> int:
    """Classes of `kind` ("trees", "paths", "cycles" or "ter") in dimension n.

    method "direct" (DIRECT_LIMITS) lists tree classes on the Roberts graph
    and counts path and cycle classes on the generated chord diagrams,
    certified by orbit-stabilizer; "chords" counts diagram classes by
    Burnside (CHORDS_COUNT_LIMIT; trees have no diagram route), and "both"
    computes the two and raises CountMismatchError unless they agree.  The
    diagram route is refused before any generation.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if kind not in DIRECT_LIMITS and kind != "ter":
        raise ValueError(f"unknown kind {kind!r}")
    if method != "direct" and kind not in _DIAGRAMS:
        raise ValueError(f"{kind} have no diagram route; use --method direct")
    if method == "chords":
        return _chord_count(kind, n)
    direct = _direct_count(kind, n)
    if method == "both":
        chords = _chord_count(kind, n)
        if direct != chords:
            raise CountMismatchError(
                f"method disagreement at n={n} on {kind}: "
                f"direct {direct} vs chords {chords}"
            )
    return direct


@dataclass(frozen=True)
class TableRow:
    n: int
    cycles: int
    paths: int
    ter: int
    ext: int


@dataclass(frozen=True)
class EnumerationTable:
    method: str
    rows: tuple[TableRow, ...]

    def to_json(self) -> dict:
        return asdict(self)


def build_table(max_n: int, method: str = "chords") -> EnumerationTable:
    """Cycle/path class counts with the ter/ext split for n = 2..max_n.

    Each count goes through `count_classes`; under "both" the direct side
    runs as far as the path and cycle budgets both reach, and the rows past
    that are counted by chords alone.  Every row's ter must equal the
    previous row's paths (CountMismatchError otherwise).
    """
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    # count_classes checks each row too; these up-front checks make a run
    # past a budget fail before its first row
    if method == "direct":
        _check_direct("paths", max_n, "counts")
        _check_direct("cycles", max_n, "counts")
    else:
        _check_budget(max_n, CHORDS_COUNT_LIMIT, "CHORDS_COUNT_LIMIT", "chord counts")
    direct_max = min(DIRECT_LIMITS["paths"], DIRECT_LIMITS["cycles"])
    rows: list[TableRow] = []
    for n in range(2, max_n + 1):
        how = "chords" if method == "both" and n > direct_max else method
        cycles, paths, ter = (
            count_classes(kind, n, how) for kind in ("cycles", "paths", "ter")
        )
        if rows and ter != rows[-1].paths:
            raise CountMismatchError(
                f"ter({n}) = {ter} but the n={n - 1} path count is {rows[-1].paths}"
            )
        rows.append(TableRow(n, cycles, paths, ter, paths - ter))
    return EnumerationTable(method, tuple(rows))


# ---------------------------------------------------------------------------
# net verification harness


@dataclass
class VerifyReport:
    n: int
    mode: str
    seed: int | None = None
    trees_checked: int = 0
    failures: list = field(default_factory=list)
    partition_counts: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        doc = {"n": self.n, "mode": self.mode}
        if self.mode == "samples":
            doc["seed"] = self.seed
        doc["trees_checked"] = self.trees_checked
        doc["failures"] = self.failures
        doc["partitions"] = {
            str(tuple(parts)): count
            for parts, count in sorted(self.partition_counts.items())
        }
        return doc


def _check_tree(report: VerifyReport, tree: SpanningSubgraph) -> None:
    dev = develop_tree(tree, FacetLabel(1))
    problems, partition = verify_development(dev)
    if problems:
        report.failures.append({"tree": tree.to_json(), "problems": problems})
    else:
        report.partition_counts[partition.parts] += 1
    report.trees_checked += 1


def _check_trees(report: VerifyReport, parent_rows) -> None:
    """Check trees given as parent lists rooted at facet 1, in blocks of
    `tree_block_size(n)`, one block's arrays alive at a time.

    A block is rolled by `develop_parent_block` and its boxes judged by
    `nets.box_parts`, which decides `verify_development` for a rolled tree;
    the passing trees' partitions are counted.  Every other tree goes
    through `_check_tree`, in stream order, for its exact failure entry or
    error.
    """
    n = report.n
    start = initial_state(n, FacetLabel(1))
    rows = iter(parent_rows)
    while block := list(islice(rows, tree_block_size(n))):
        cells, rolled = develop_parent_block(start, block)
        passed, parts = box_parts(cells.max(1).astype(np.intp) - cells.min(1) + 1)
        passed &= rolled
        report.partition_counts.update(map(tuple, parts[passed].tolist()))
        report.trees_checked += int(passed.sum())
        for b in np.flatnonzero(~passed).tolist():
            _check_tree(report, _tree_from_parents(block[b]))


def verify_unfoldings(
    n: int,
    *,
    exhaustive: bool = False,
    samples: int = 0,
    seed: int | None = None,
) -> VerifyReport:
    """Develop spanning trees and confirm each yields a net with a legal
    box partition.  Exhaustive mode walks every tree class, so it reaches
    as far as the tree listing does (DIRECT_LIMITS["trees"]); otherwise
    `samples` random trees are drawn, one RNG stream, from the given seed
    or from a fresh one that the report names.  Exactly one of `exhaustive`
    and `samples > 0` must be asked for, and a seed only with samples."""
    if exhaustive == (samples > 0):
        raise ValueError("need exactly one of exhaustive or samples > 0")
    if exhaustive and seed is not None:
        raise ValueError("a seed only applies to samples, not to exhaustive mode")
    _check_dim(n)
    if exhaustive:
        report = VerifyReport(n, "exhaustive")
        # each class's parents toward facet 1, read off its mask: no
        # per-class object
        edges = roberts_edges(n)
        masks = _class_masks("trees", n)
        rows = (_tree_walk(n, [edges[r] for r in _mask_ranks(m)], 0)[0] for m in masks)
        _check_trees(report, rows)
        return report
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    # "{seed}:0" is the stream every pinned seed's output was printed from
    rng = random.Random(f"{seed}:0")
    report = VerifyReport(n, "samples", seed)
    _check_trees(report, (_random_parents(n, rng) for _ in range(samples)))
    return report
