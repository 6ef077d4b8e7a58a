"""Exhaustive and sampled enumeration of unfoldings up to relabelling.

Two independent routes produce the headline counts.  The direct route walks
the Roberts graph itself: backtracking over edge ranks for trees, and for
paths and cycles extending vertex sequences one step at a time in numpy
frontier blocks of bounded size, then collapsing to orbit representatives.
The diagram route counts symmetry classes of chord diagrams instead and
never touches the graph.  Their agreement on small dimensions is one of the
package's main checks.

The relabelling group moves any ordered non-antipodal pair of facets onto
(1, 2), the endpoints of edge rank 0.  Every tree has a leaf, and every path
an endpoint; taking that facet and its one neighbour as the pair shows that
every orbit of trees or paths has a member in which facet 1 is a leaf
hanging from facet 2.  The tree and path generators emit only members of
that shape: vertex 0's edges are ranks 0 .. 2n-3, so the shape is
`mask & ((1 << (2n-2)) - 1) == 1`.  A cycle has no leaf, but every orbit of
cycles still has a member through edge rank 0, and the cycle generator
emits those.  One step further, the elements that fix facets 1 and 2 fix
facet 1* and move facet 3 onto any facet of axes 3..n, so the walks take
only facet 3 or facet 1* as their second step, and the trees keep facet 2
either joined to facet 3 or with no neighbour on axes 3..n.  One orbit
dedup, told the shape of its stream, remembers only the images of that
shape and serves all three.

Each listing certifies itself by orbit-stabilizer: the dedup counts every
class's stabilizer, and the orbit sizes |B_n| / |Stab| must sum to the
closed-form number of labelled trees, paths or cycles, or the listing
raises CountMismatchError.  A cut that drops an orbit, or a dedup that
loses or repeats a class, fails it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import islice
from math import comb, factorial

import numpy as np

from .chords import count_diagram_classes
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
    path_endpoints,
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


def _check_direct(kind: str, n: int) -> None:
    if kind not in DIRECT_LIMITS:
        raise ValueError(f"unknown kind {kind!r}")
    _check_budget(n, DIRECT_LIMITS[kind], "DIRECT_LIMITS", f"direct {kind} listings")


# ---------------------------------------------------------------------------
# raw generation, symmetry-restricted


def _suffix_adjacency(n: int, skip: int) -> list[list[int]]:
    """suffix[r][v] = neighbour bitmask of v using edges of rank >= r that
    are not in the mask `skip`."""
    edges = roberts_edges(n)
    rows = [[0] * (2 * n)]
    for r in reversed(range(len(edges))):
        row = rows[-1][:]
        if not skip >> r & 1:
            i, j = edges[r]
            row[i] |= 1 << j
            row[j] |= 1 << i
        rows.append(row)
    rows.reverse()
    return rows


@cache
def _neighbours(n: int) -> tuple[tuple[int, ...], ...]:
    """Row v lists facet v's Roberts-graph neighbours in ascending order."""
    return tuple(
        tuple(u for u in range(2 * n) if u != v and u != antipode_index(v, n))
        for v in range(2 * n)
    )


def _reaches(adj_a: list[int], adj_b: list[int], start: int, goal: int) -> bool:
    """Whether every vertex in the bitmask `goal` is reachable from `start`
    over the union of two neighbour-bitmask adjacencies."""
    reach = frontier = 1 << start
    while frontier:
        nxt = 0
        v = frontier
        while v:
            bit = v & -v
            k = bit.bit_length() - 1
            v ^= bit
            nxt |= adj_a[k] | adj_b[k]
        frontier = nxt & ~reach
        reach |= frontier
        if reach & goal == goal:
            return True
    return False


def _raw_trees_second_edge(n: int, second: int, skip: int):
    """Spanning-tree masks containing edge rank 0 and edge rank `second` but
    no rank strictly between, nor any rank in the mask `skip`: the part of
    the tree stream whose second step is edge `second`.  With `second` >=
    2n-2 every rank of vertex 0 but rank 0 is skipped, so vertex 0 is a
    leaf on vertex 1 in each tree emitted.

    Edges are decided in rank order, linking before skipping, on an explicit
    stack with one frame per linked edge.  The walk keeps one invariant: the
    chosen forest plus every undecided edge spans all facets, so each branch
    it enters ends in at least one tree and nothing is walked in vain.
    Linking edge r leaves that union unchanged, and so does skipping an edge
    whose endpoints the forest already joins; only skipping a linked edge
    (i, j) can break it, and it does exactly when no other route joins i to
    j.  So connectivity is tested once per skip of a linked edge, as a
    search from i that stops on reaching j, and a bridge is never skipped.
    The walk's root skips ranks 1..second-1 at once and gets one full check.
    The ranks in `skip` are left out of the graph altogether: they never
    enter the suffix adjacency and are never linked, so the invariant holds
    on the smaller graph.
    """
    edges = list(roberts_edges(n))
    for r in _mask_ranks(skip):
        edges[r] = (1, 1)  # a loop, whose ends link() always finds joined
    two_n = 2 * n
    need = two_n - 1
    suffix = _suffix_adjacency(n, skip)
    chosen_adj = [0] * two_n
    parent = list(range(two_n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def link(r):
        """Add edge r to the forest; return the absorbed root, or -1 if its
        endpoints are already joined."""
        i, j = edges[r]
        ri, rj = find(i), find(j)
        if ri == rj:
            return -1
        parent[rj] = ri
        chosen_adj[i] |= 1 << j
        chosen_adj[j] |= 1 << i
        return rj

    if link(0) < 0:
        raise RuntimeError("edge rank 0 failed to link into an empty forest")
    if link(second) < 0:
        return
    r = second + 1
    if not _reaches(chosen_adj, suffix[r], 0, (1 << two_n) - 1):
        return
    count, mask = 2, 1 | (1 << second)
    stack = []
    while True:
        if count == need:
            yield mask
            # backtrack to the deepest linked edge whose skip keeps the
            # invariant, and take that skip
            while stack:
                r, count, mask, absorbed = stack.pop()
                parent[absorbed] = absorbed
                i, j = edges[r]
                chosen_adj[i] ^= 1 << j
                chosen_adj[j] ^= 1 << i
                r += 1
                if _reaches(chosen_adj, suffix[r], i, 1 << j):
                    break
            else:
                return
            continue
        absorbed = link(r)
        if absorbed >= 0:
            stack.append((r, count, mask, absorbed))
            count += 1
            mask |= 1 << r
        r += 1


def _second_steps(n: int) -> tuple[int, ...]:
    """The second steps a walk 0 -> 1 needs: vertex 2 (facet 3) and vertex
    n (facet 1*), one vertex at n=2.  H, the stabilizer of facets 1 and 2,
    fixes facet 1* and moves facet 3 onto every facet of axes 3..n, so
    every orbit of walks 0 -> 1 meets one of these second steps.  The
    tree stream takes them too (`_raw_tree_masks`)."""
    return tuple(sorted({2, n}))


def _far_edges(n: int) -> int:
    """Mask of vertex 1's edges into axes 3..n; the lowest, rank 2n-2, is
    its edge to vertex 2 (facet 3).  Empty at n=2."""
    grid = _edge_rank_grid(n)
    return sum(1 << grid[1][u] for u in _neighbours(n)[1] if u % n > 1)


def _raw_tree_masks(n: int):
    """Masks of spanning trees in which vertex 0 is a leaf on vertex 1, and
    vertex 1 holds the edge to vertex 2 (facet 3) or has no neighbour on
    axes 3..n at all.  Any tree with vertex 0 a leaf on vertex 1 is moved
    into that shape by H (`_second_steps`), which fixes vertices 0 and 1.

    Vertex 0 is a leaf on 1 when rank 0 is the lowest edge and the
    second-lowest lies past vertex 0's other edges.  That second edge is
    (1, v2) for a second step v2, walked in turn: with v2 = 2 nothing else
    is asked; with v2 = n vertex 1's edges into axes 3..n are left out of
    the graph, so (1, n) is its one other edge."""
    grid = _edge_rank_grid(n)
    far = _far_edges(n)
    for v2 in _second_steps(n):
        yield from _raw_trees_second_edge(n, grid[1][v2], far if v2 == n else 0)


# (walk, neighbour) pairs one frontier block may expand to: a larger block
# is split.  The walk's arrays then peak near 0.25 MB at n=5 and 0.45 MB at
# n=6; 1 << 16 pairs walked n=6 a few per cent faster but peaked at 1.4 MB
_WALK_PAIRS = 1 << 14


def _raw_walk_masks(n: int, close: bool):
    """Masks of spanning paths (or, with `close`, cycles) whose walk starts
    0 -> 1, so every mask holds edge rank 0.  A cycle closes back to 0, and
    starting 0 -> 1 fixes its orientation, so each undirected cycle is walked
    once.  Only the second steps of `_second_steps` are walked, facet 3's
    walks first.

    The walk runs as frontier blocks: arrays of (vertex, visited bits, edge
    mask), one row per partial walk, all of one length.  A block takes one
    step by listing its rows' unvisited neighbours with one `np.nonzero`
    over (row, neighbour) pairs, in row-major order, so the blocks keep the
    walks in lexicographic vertex-sequence order.  A block with more than
    `_WALK_PAIRS` pairs is split, and the pieces are finished depth-first,
    leftmost first, from a stack: the stream, order included, is that of a
    depth-first walk taking neighbours in ascending order.  A block of
    whole walks is yielded, for cycles only the rows whose last vertex is a
    neighbour of vertex 0, with that closing edge added.  Edge masks are
    uint64, so n past 6, whose 2n(n-1) edge ranks outgrow them, raises
    ValueError: the cap that `_FULL_EXPANSION_MAX` puts on the dedup too."""
    ranks = 2 * n * (n - 1)
    if ranks > 64:
        raise ValueError(f"walk edge masks hold 64 edge ranks; n={n} has {ranks}")
    grid = _edge_rank_grid(n)
    nbrs = np.array(_neighbours(n), dtype=np.uint8)
    nbr_bits = np.left_shift(1, nbrs, dtype=np.uint16)
    nbr_ranks = np.take_along_axis(np.array(grid), nbrs.astype(np.intp), axis=1)
    edge_bits = np.left_shift(np.uint64(1), nbr_ranks.astype(np.uint64))
    closing = np.zeros(2 * n, dtype=np.uint64)
    closing[nbrs[0]] = edge_bits[0]
    step = max(1, _WALK_PAIRS // nbrs.shape[1])
    seconds = _second_steps(n)
    first = (
        np.array(seconds, dtype=np.uint8),
        np.array([0b11 | (1 << v2) for v2 in seconds], dtype=np.uint16),
        np.array([1 | (1 << grid[1][v2]) for v2 in seconds], dtype=np.uint64),
    )
    stack = [(3, first)]
    while stack:
        depth, (v, visited, mask) = stack.pop()
        if depth == 2 * n:
            if close:
                shut = closing[v]  # 0 where the last vertex is antipodal to 0
                mask = (mask | shut)[shut != 0]
            yield from mask.tolist()
            continue
        if len(v) > step:
            stack.extend(
                (depth, (v[s : s + step], visited[s : s + step], mask[s : s + step]))
                for s in reversed(range(0, len(v), step))
            )
            continue
        bits = nbr_bits[v]
        rows, cols = np.nonzero((bits & visited[:, None]) == 0)
        last = v[rows]
        child = (
            nbrs[last, cols],
            visited[rows] | bits[rows, cols],
            mask[rows] | edge_bits[last, cols],
        )
        stack.append((depth + 1, child))


def _raw_path_masks(n: int):
    """Masks of spanning paths with one endpoint at vertex 0, next to 1."""
    return _raw_walk_masks(n, close=False)


def _raw_cycle_masks(n: int):
    """Masks of spanning cycles through edge rank 0, one per undirected cycle."""
    return _raw_walk_masks(n, close=True)


def _dedup_restricted(n: int, masks, star: int) -> list[tuple[int, int]]:
    """Orbit dedup for streams whose every member has the shape
    `mask & star == 1`, facet 1 a leaf on facet 2 for trees and paths
    (star = vertex 0's edges) and edge rank 0 held for cycles (star = 1),
    and in which facet 2 is joined to facet 3 or to no facet of axes 3..n
    (`_far_edges`).  Only orbit images of that shape are remembered, which
    is what keeps runs at the budget ceiling inside memory.  The
    representative is still the best key over the whole orbit.  A member of
    another shape would never be remembered, so its orbit could be emitted
    twice: it raises RuntimeError instead.

    Each class comes as (representative, |Stab|).  `_orbit_arrays` gives one
    image per group element that puts rank 0 in the image, and the
    representative holds rank 0, so the elements that fix the class's
    representative are counted exactly."""
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
    # one listing's raw stream, deduplicated.  The generators are looked up
    # here, at call time, so that a wrapped module attribute is the one
    # that runs
    raw = {
        "trees": _raw_tree_masks,
        "paths": _raw_path_masks,
        "cycles": _raw_cycle_masks,
    }[kind]
    # vertex 0's edges are ranks 0 .. 2n-3: trees and paths hold rank 0
    # alone of them, cycles hold rank 0
    star = 1 if kind == "cycles" else (1 << (2 * n - 2)) - 1
    return _dedup_restricted(n, raw(n), star)


def _class_masks(kind: str, n: int) -> tuple[int, ...]:
    # the kind, the dimension and the budget are checked before the cache,
    # so none of them depends on what an earlier call left
    _check_dim(n)
    _check_direct(kind, n)
    return _listing(kind, n)


@cache
def _listing(kind: str, n: int) -> tuple[int, ...]:
    # a table's ter count classifies the path listing its paths count takes:
    # the cache keeps it to one walk per kind.  The dedup returns its classes
    # unique and sorted by representative
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
    a, b = path_endpoints(p)
    return "ter" if antipode_index(a, p.n) == b else "ext"


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

# (polygon vertices beyond 2n, loops) of the chord diagrams whose classes
# are each kind's classes; "ter" is the paths whose ends are antipodal facets
_DIAGRAMS = {"cycles": (0, 0), "ter": (0, 1), "paths": (2, 1)}


def _chord_count(kind: str, n: int) -> int:
    _check_dim(n)
    _check_budget(n, CHORDS_COUNT_LIMIT, "CHORDS_COUNT_LIMIT", "chord counts")
    extra, loops = _DIAGRAMS[kind]
    return count_diagram_classes(2 * n + extra, loops)


def _direct_count(kind: str, n: int) -> int:
    if kind == "ter":
        paths = enumerate_classes("paths", n)
        return sum(1 for p in paths if classify_path(p) == "ter")
    return len(_class_masks(kind, n))


def count_classes(kind: str, n: int, method: str = "direct") -> int:
    """Classes of `kind` ("trees", "paths", "cycles" or "ter") in dimension n.

    method "direct" walks the Roberts graph (DIRECT_LIMITS), "chords" counts
    diagram classes (CHORDS_COUNT_LIMIT; trees have no diagram route), and
    "both" computes the two independently and raises CountMismatchError
    unless they agree.  The diagram route is refused before any walk.
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
        _check_direct("paths", max_n)
        _check_direct("cycles", max_n)
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
        trees = enumerate_classes("trees", n)
        _check_trees(report, (_tree_walk(tree, 0)[0] for tree in trees))
        return report
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    # "{seed}:0" is the stream every pinned seed's output was printed from
    rng = random.Random(f"{seed}:0")
    report = VerifyReport(n, "samples", seed)
    _check_trees(report, (_random_parents(n, rng) for _ in range(samples)))
    return report
