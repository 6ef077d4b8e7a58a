"""Exhaustive and sampled enumeration of unfoldings up to relabelling.

Two independent routes produce the headline counts.  The direct route walks
the Roberts graph itself: backtracking over edge ranks for trees, vertex
sequences for paths and cycles, then collapsing to orbit representatives.
The diagram route counts symmetry classes of chord diagrams instead and
never touches the graph.  Their agreement on small dimensions is one of the
package's main checks.

Every orbit of spanning trees, paths or cycles has a member using edge rank
0, the edge between facets 1 and 2, because the relabelling group moves any
ordered non-antipodal pair of facets onto (1, 2).  For a path that pair is
an endpoint and its neighbour, so its walk can start on that edge.  All
three generators therefore only emit members holding edge rank 0, which
shrinks the raw stream by an order of magnitude, and one orbit dedup that
remembers only the images holding edge rank 0 serves all three.
"""

from __future__ import annotations

import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .chords import _BULK_MAX_M, count_diagram_classes
from .core import (
    FacetLabel,
    SpanningSubgraph,
    _check_dim,
    _edge_rank_grid,
    _orbit_arrays,
    _UnionFind,
    antipode_index,
    path_endpoints,
    roberts_edges,
    subgraph_from_mask,
)
from .nets import cube_partition_of, verify_development
from .rolling import develop_tree


class ResourceLimitError(Exception):
    """A requested dimension is past what the chosen method can finish."""


class CountMismatchError(Exception):
    """Two counts that must agree do not: the two methods, or ter(n) against
    paths(n-1)."""


DIRECT_LIMITS = {"trees": 5, "paths": 5, "cycles": 6}
# diagram class counts are closed-form sums: the whole table to n=20 takes ms
CHORDS_COUNT_LIMIT = 20
# listing diagram classes holds every matching key in 4-bit packing
CHORDS_LIST_LIMIT = _BULK_MAX_M // 2
# in combined runs the direct side stays small so agreement checks finish fast
DUAL_CHECK_LIMIT = 5
# exhaustive verification develops every tree class; n=5 has 9694 of them
EXHAUSTIVE_VERIFY_LIMIT = 4


def _check_direct(kind: str, n: int) -> None:
    if n > DIRECT_LIMITS[kind]:
        raise ResourceLimitError(
            f"direct {kind} enumeration is budgeted up to n={DIRECT_LIMITS[kind]}, "
            f"got n={n}; the chord-diagram method reaches further"
        )


# ---------------------------------------------------------------------------
# raw generation, symmetry-restricted


def _suffix_adjacency(n: int) -> list[list[int]]:
    """suffix[r][v] = neighbour bitmask of v using edges of rank >= r."""
    edges = roberts_edges(n)
    rows = [[0] * (2 * n)]
    for i, j in reversed(edges):
        row = rows[-1][:]
        row[i] |= 1 << j
        row[j] |= 1 << i
        rows.append(row)
    rows.reverse()
    return rows


def _raw_trees_second_edge(n: int, second: int):
    """Spanning-tree masks containing edge rank 0 and edge rank `second` but
    no rank strictly between: the stream sharded by second-lowest edge."""
    edges = roberts_edges(n)
    m = len(edges)
    need = 2 * n - 1
    suffix = _suffix_adjacency(n)
    full = (1 << (2 * n)) - 1

    uf = _UnionFind(2 * n)
    chosen_adj = [0] * (2 * n)

    def link(r):
        i, j = edges[r]
        absorbed = uf.union(i, j)
        if absorbed >= 0:
            chosen_adj[i] |= 1 << j
            chosen_adj[j] |= 1 << i
        return absorbed

    def unlink(r, absorbed):
        i, j = edges[r]
        uf.undo(absorbed)
        chosen_adj[i] &= ~(1 << j)
        chosen_adj[j] &= ~(1 << i)

    def connected(r):
        reach = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = frontier
            while v:
                bit = v & -v
                idx = bit.bit_length() - 1
                v ^= bit
                nxt |= suffix[r][idx] | chosen_adj[idx]
            frontier = nxt & ~reach
            reach |= frontier
        return reach == full

    def rec(r, count, mask):
        if count == need:
            yield mask
            return
        if m - r < need - count or not connected(r):
            return
        a = link(r)
        if a >= 0:
            yield from rec(r + 1, count + 1, mask | (1 << r))
            unlink(r, a)
        yield from rec(r + 1, count, mask)

    if link(0) < 0:
        raise RuntimeError("edge rank 0 failed to link into an empty forest")
    a = link(second)
    if a >= 0:
        yield from rec(second + 1, 2, 1 | (1 << second))


def _raw_tree_masks(n: int, shard: tuple[int, int] = (0, 1)):
    which, of = shard
    m = len(roberts_edges(n))
    for second in range(1, m):
        if (second - 1) % of == which:
            yield from _raw_trees_second_edge(n, second)


def _raw_walk_masks(n: int, shard: tuple[int, int], close: bool):
    """Masks of spanning paths (or, with `close`, cycles) whose walk starts
    0 -> 1, so every mask holds edge rank 0.  A cycle closes back to 0, and
    starting 0 -> 1 fixes its orientation, so each undirected cycle is walked
    once.  Walks are sharded by their second step."""
    which, of = shard
    two_n = 2 * n
    grid = _edge_rank_grid(n)
    neighbours = [
        [u for u in range(two_n) if u != v and u != antipode_index(v, n)]
        for v in range(two_n)
    ]
    closers = set(neighbours[0])

    def rec(v, visited, depth, mask):
        if depth == two_n:
            if not close:
                yield mask
            elif v in closers:
                yield mask | (1 << grid[0][v])
            return
        row = grid[v]
        for u in neighbours[v]:
            bit = 1 << u
            if not visited & bit:
                yield from rec(u, visited | bit, depth + 1, mask | (1 << row[u]))

    seconds = [u for u in neighbours[1] if u != 0]
    for k, v2 in enumerate(seconds):
        if k % of == which:
            yield from rec(v2, 0b11 | (1 << v2), 3, 1 | (1 << grid[1][v2]))


def _raw_path_masks(n: int, shard: tuple[int, int] = (0, 1)):
    """Masks of spanning paths with one endpoint at vertex 0, next to 1."""
    return _raw_walk_masks(n, shard, close=False)


def _raw_cycle_masks(n: int, shard: tuple[int, int] = (0, 1)):
    """Masks of spanning cycles through edge rank 0, one per undirected cycle."""
    return _raw_walk_masks(n, shard, close=True)


def _dedup_restricted(n: int, masks) -> list[int]:
    """Orbit dedup for streams whose every member holds edge rank 0; only
    those orbit images are remembered, which is what keeps runs at the
    budget ceiling inside memory."""
    seen: set[int] = set()
    out = []
    one = np.uint64(1)
    for mask in masks:
        if mask in seen:
            continue
        images, keys = _orbit_arrays(n, mask)
        seen.update(images[(images & one).astype(bool)].tolist())
        out.append(int(images[int(np.argmax(keys))]))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# public enumeration, cached per dimension


_CLASS_CACHE: dict[tuple[str, int], tuple[int, ...]] = {}


def _shard_job(kind: str, n: int, which: int, of: int) -> list[int]:
    # the generators are looked up here, at call time, so that a wrapped
    # module attribute is the one that runs
    raw = {
        "trees": _raw_tree_masks,
        "paths": _raw_path_masks,
        "cycles": _raw_cycle_masks,
    }[kind]
    return _dedup_restricted(n, raw(n, (which, of)))


def _class_masks(kind: str, n: int, jobs: int = 1) -> tuple[int, ...]:
    key = (kind, n)
    hit = _CLASS_CACHE.get(key)
    if hit is not None:
        return hit
    _check_direct(kind, n)
    if jobs <= 1:
        masks = tuple(_shard_job(kind, n, 0, 1))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(
                _shard_job, repeat(kind), repeat(n), range(jobs), repeat(jobs)
            )
            merged: set[int] = set()
            for part in parts:
                merged.update(part)
        masks = tuple(sorted(merged))
    _CLASS_CACHE[key] = masks
    return masks


def enumerate_trees(n: int, jobs: int = 1) -> tuple[SpanningSubgraph, ...]:
    """All spanning trees of the Roberts graph up to relabelling, sorted."""
    return tuple(
        subgraph_from_mask(n, m, "tree") for m in _class_masks("trees", n, jobs)
    )


def enumerate_paths(n: int, jobs: int = 1) -> tuple[SpanningSubgraph, ...]:
    return tuple(
        subgraph_from_mask(n, m, "path") for m in _class_masks("paths", n, jobs)
    )


def enumerate_cycles(n: int, jobs: int = 1) -> tuple[SpanningSubgraph, ...]:
    return tuple(
        subgraph_from_mask(n, m, "cycle") for m in _class_masks("cycles", n, jobs)
    )


def classify_path(p: SpanningSubgraph) -> str:
    """"ter" when the endpoints are antipodal facets, else "ext" (one more
    edge then closes the path into a spanning cycle)."""
    a, b = path_endpoints(p)
    return "ter" if antipode_index(a, p.n) == b else "ext"


def random_spanning_tree(n: int, rng: random.Random) -> SpanningSubgraph:
    """Uniform spanning tree of the Roberts graph by loop-erased walks."""
    two_n = 2 * n
    in_tree = [False] * two_n
    succ = [-1] * two_n
    in_tree[0] = True

    def step(u):
        a, b = sorted((u, antipode_index(u, n)))
        v = rng.randrange(two_n - 2)
        if v >= a:
            v += 1
        if v >= b:
            v += 1
        return v

    edges = []
    for v0 in range(1, two_n):
        u = v0
        while not in_tree[u]:
            succ[u] = step(u)
            u = succ[u]
        u = v0
        while not in_tree[u]:
            in_tree[u] = True
            edges.append((u, succ[u]))
            u = succ[u]
    return SpanningSubgraph(n, "tree", tuple(edges))


# ---------------------------------------------------------------------------
# headline table


@dataclass(frozen=True)
class TableRow:
    n: int
    cycles: int
    paths: int
    ter: int
    ext: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cycles": self.cycles,
            "paths": self.paths,
            "ter": self.ter,
            "ext": self.ext,
        }


@dataclass(frozen=True)
class EnumerationTable:
    method: str
    rows: tuple[TableRow, ...]

    def row(self, n: int) -> TableRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)

    def to_json(self) -> dict:
        return {"method": self.method, "rows": [r.to_json() for r in self.rows]}


def _chord_counts(n: int) -> tuple[int, int, int, int]:
    """(cycles, paths, ter, ext) class counts from the diagram route."""
    _check_dim(n)
    if n > CHORDS_COUNT_LIMIT:
        raise ResourceLimitError(
            f"chord counts are budgeted up to n={CHORDS_COUNT_LIMIT} "
            f"(CHORDS_COUNT_LIMIT), got n={n}"
        )
    cycles = count_diagram_classes(2 * n, 0)
    ter = count_diagram_classes(2 * n, 1)
    paths = count_diagram_classes(2 * n + 2, 1)
    return cycles, paths, ter, paths - ter


def _direct_counts(n: int, jobs: int) -> tuple[int, int, int, int]:
    cycles = len(enumerate_cycles(n, jobs))
    paths = enumerate_paths(n, jobs)
    ter = sum(1 for p in paths if classify_path(p) == "ter")
    return cycles, len(paths), ter, len(paths) - ter


def build_table(max_n: int, method: str = "chords", jobs: int = 1) -> EnumerationTable:
    """Cycle/path class counts with the ter/ext split for n = 2..max_n.

    method "direct" walks the Roberts graph (small n only), "chords" counts
    diagram classes, "both" computes the two independently and refuses to
    return on any disagreement (CountMismatchError).
    """
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    if method not in ("direct", "chords", "both"):
        raise ValueError(f"unknown method {method!r}")
    if method != "direct" and max_n > CHORDS_COUNT_LIMIT:
        raise ResourceLimitError(
            f"chord-diagram table rows are budgeted up to n={CHORDS_COUNT_LIMIT} "
            f"(CHORDS_COUNT_LIMIT), got n={max_n}"
        )
    if method == "direct" and max_n > DUAL_CHECK_LIMIT:
        raise ResourceLimitError(
            f"direct table rows are budgeted up to n={DUAL_CHECK_LIMIT}"
        )
    rows = []
    prev_paths = None
    for n in range(2, max_n + 1):
        if method == "direct":
            cycles, paths, ter, ext = _direct_counts(n, jobs)
        else:
            cycles, paths, ter, ext = _chord_counts(n)
            if method == "both" and n <= DUAL_CHECK_LIMIT:
                direct = _direct_counts(n, jobs)
                if direct != (cycles, paths, ter, ext):
                    raise CountMismatchError(
                        f"method disagreement at n={n}: "
                        f"direct {direct} vs chords {(cycles, paths, ter, ext)}"
                    )
        if prev_paths is not None and ter != prev_paths:
            raise CountMismatchError(
                f"ter({n}) = {ter} but the n={n - 1} path count is {prev_paths}"
            )
        prev_paths = paths
        rows.append(TableRow(n, cycles, paths, ter, ext))
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

    def merge(self, other: "VerifyReport") -> None:
        self.trees_checked += other.trees_checked
        self.failures.extend(other.failures)
        self.partition_counts.update(other.partition_counts)

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
    problems = verify_development(dev)
    if problems:
        report.failures.append({"tree": tree.to_json(), "problems": problems})
    else:
        report.partition_counts[cube_partition_of(dev).parts] += 1
    report.trees_checked += 1


def _sample_shard_job(args):
    n, count, seed, shard = args
    rng = random.Random(f"{seed}:{shard}")
    report = VerifyReport(n, "samples", seed)
    for _ in range(count):
        _check_tree(report, random_spanning_tree(n, rng))
    return report


def verify_unfoldings(
    n: int,
    *,
    exhaustive: bool = False,
    samples: int = 0,
    seed: int | None = None,
    jobs: int = 1,
) -> VerifyReport:
    """Develop spanning trees and confirm each yields a net with a legal
    box partition.  Exhaustive mode walks every class, up to
    n = EXHAUSTIVE_VERIFY_LIMIT; otherwise `samples` random trees are drawn
    from the given seed, or from a fresh one that the report names."""
    _check_dim(n)
    if exhaustive:
        if n > EXHAUSTIVE_VERIFY_LIMIT:
            raise ResourceLimitError(
                f"exhaustive verification is budgeted up to n={EXHAUSTIVE_VERIFY_LIMIT} "
                f"(EXHAUSTIVE_VERIFY_LIMIT), got n={n}; sample above that"
            )
        report = VerifyReport(n, "exhaustive")
        for tree in enumerate_trees(n, jobs):
            _check_tree(report, tree)
        return report
    if samples <= 0:
        raise ValueError("need exhaustive=True or samples > 0")
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    if jobs <= 1:
        return _sample_shard_job((n, samples, seed, 0))
    base = samples // jobs
    counts = [base + (1 if w < samples % jobs else 0) for w in range(jobs)]
    report = VerifyReport(n, "samples", seed)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(
            _sample_shard_job,
            [(n, c, seed, w) for w, c in enumerate(counts) if c],
        )
        for part in parts:
            report.merge(part)
    return report
