"""Chord diagrams on an even polygon, mirroring spanning cycles and paths.

Visiting a spanning cycle of the Roberts graph names the vertices of a 2n-gon;
joining antipodal facets draws n chords, and no chord joins neighbouring
vertices because antipodes never share a ridge.  Loopless diagrams up to
rotation and reflection therefore count spanning cycles up to relabelling.
Spanning paths close up into cycles with one marked boundary edge, which makes
diagrams with exactly one loop (a chord across a single boundary edge) count
them the same way.

Class counts come from Burnside's lemma (`count_diagram_classes`) and never
list a matching; `enumerate_diagrams` lists the classes themselves, which
only small polygons allow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import ceil, comb, gcd

import numpy as np

from .core import SpanningSubgraph, antipode_index, path_endpoints, validate

_BULK_MAX_M = 16  # packed 4-bit keys; plenty for every table this tool builds


@dataclass(frozen=True)
class ChordDiagram:
    """Perfect matching on polygon vertices 0..m-1; mate[i] is i's partner."""

    m: int
    mate: tuple[int, ...]

    def __post_init__(self):
        m, mate = self.m, self.mate
        if m < 2 or m % 2:
            raise ValueError(f"vertex count must be even and positive, got {m}")
        if len(mate) != m or any(
            not 0 <= mate[i] < m or mate[i] == i or mate[mate[i]] != i
            for i in range(m)
        ):
            raise ValueError("mate table is not a fixed-point-free involution")

    def chords(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, self.mate[i]) for i in range(self.m) if i < self.mate[i])

    def loop_chords(self) -> tuple[tuple[int, int], ...]:
        m = self.m
        return tuple(
            (i, j) for i, j in self.chords() if j - i == 1 or (i == 0 and j == m - 1)
        )

    def loops(self) -> int:
        return len(self.loop_chords())

    def to_json(self) -> dict:
        return {"m": self.m, "matching": [list(c) for c in self.chords()]}

    @staticmethod
    def from_json(doc) -> "ChordDiagram":
        m = doc["m"]
        mate = [-1] * m
        for i, j in doc["matching"]:
            mate[i], mate[j] = j, i
        return ChordDiagram(m, tuple(mate))


@cache
def _dihedral_maps(m: int) -> tuple[tuple[int, ...], ...]:
    """All 2m symmetries of the m-gon as vertex maps."""
    rots = [tuple((i + k) % m for i in range(m)) for k in range(m)]
    refs = [tuple((k - i) % m for i in range(m)) for k in range(m)]
    return tuple(rots + refs)


def _apply_vertex_map(d: ChordDiagram, vm) -> tuple[int, ...]:
    out = [-1] * d.m
    for i in range(d.m):
        out[vm[i]] = vm[d.mate[i]]
    return tuple(out)


def canonical_diagram(d: ChordDiagram) -> ChordDiagram:
    """Least mate table over all rotations and reflections of the polygon."""
    best = min(_apply_vertex_map(d, vm) for vm in _dihedral_maps(d.m))
    return ChordDiagram(d.m, best)


def diagram_orbit_size(d: ChordDiagram) -> int:
    return len({_apply_vertex_map(d, vm) for vm in _dihedral_maps(d.m)})


# ---------------------------------------------------------------------------
# cycles and paths of the Roberts graph <-> diagrams


def _diagram_along(sub: SpanningSubgraph, start: int) -> ChordDiagram:
    """Walk sub from facet `start`, taking the smaller neighbour where the
    walk could go either way (a cycle's first step), and join the polygon
    positions of antipodal facets along the walk."""
    two_n = 2 * sub.n
    adj = [[] for _ in range(two_n)]
    for i, j in sub.edges:
        adj[i].append(j)
        adj[j].append(i)
    order = [start]
    while len(order) < two_n:
        prev = order[-2] if len(order) > 1 else -1
        order.append(min(v for v in adj[order[-1]] if v != prev))
    pos = [0] * two_n
    for k, lab in enumerate(order):
        pos[lab] = k
    mate = tuple(pos[antipode_index(lab, sub.n)] for lab in order)
    return ChordDiagram(two_n, mate)


def diagram_from_cycle(c: SpanningSubgraph) -> ChordDiagram:
    """Chords join the polygon positions of antipodal facets along the cycle."""
    problem = validate(c)
    if c.kind != "cycle" or problem is not None:
        raise ValueError(f"need a valid spanning cycle: {problem}")
    return _diagram_along(c, 0)


def diagram_from_path(p: SpanningSubgraph) -> tuple[ChordDiagram, int]:
    """Close a spanning path into a polygon and return its diagram plus the
    marked boundary edge (the one standing in for the closing step)."""
    problem = validate(p)
    if p.kind != "path" or problem is not None:
        raise ValueError(f"need a valid spanning path: {problem}")
    return _diagram_along(p, path_endpoints(p)[0]), 2 * p.n - 1


def _reassemble(d: ChordDiagram, n: int, kind: str, marked: int) -> SpanningSubgraph:
    """Label the polygon (a chord's first vertex gets the next axis, its mate
    the antipode) and join polygon neighbours, except across edge `marked`."""
    label = [-1] * d.m
    axis = 0
    for i in range(d.m):
        if label[i] < 0:
            label[i] = axis
            label[d.mate[i]] = axis + n
            axis += 1
    edges = tuple(
        (label[i], label[(i + 1) % d.m]) for i in range(d.m) if i != marked
    )
    sub = SpanningSubgraph(n, kind, edges)
    problem = validate(sub)
    if problem is not None:
        raise RuntimeError(f"diagram reassembly broke: {problem}")
    return sub


def cycle_from_diagram(d: ChordDiagram, n: int) -> SpanningSubgraph:
    """Rebuild a spanning cycle whose diagram this is: chords become antipodal
    label pairs, polygon neighbours become cycle edges."""
    if d.m != 2 * n:
        raise ValueError(f"diagram on {d.m} vertices does not fit dimension {n}")
    if d.loops():
        raise ValueError("diagram has a loop; no spanning cycle produces one")
    return _reassemble(d, n, "cycle", -1)


def path_from_diagram(d: ChordDiagram, marked: int, n: int) -> SpanningSubgraph:
    """Open a diagram back into a spanning path by deleting the marked
    boundary edge.  The diagram may have one loop only across that edge."""
    if d.m != 2 * n:
        raise ValueError(f"diagram on {d.m} vertices does not fit dimension {n}")
    if not 0 <= marked < d.m:
        raise ValueError(f"marked edge {marked} out of range")
    loops = d.loop_chords()
    if loops and set(loops) != {_edge_endpoints_chord(d.m, marked)}:
        raise ValueError("loop must sit across the marked edge")
    return _reassemble(d, n, "path", marked)


def _edge_endpoints_chord(m: int, e: int) -> tuple[int, int]:
    return (0, m - 1) if e == m - 1 else (e, e + 1)


def insert_loop(d: ChordDiagram, edge: int) -> ChordDiagram:
    """Grow the polygon by two vertices inside a boundary edge and join them.

    For a loopless diagram any edge works; a one-loop diagram only accepts
    the edge its loop spans, which turns the old loop into a regular chord.
    Either way the result has exactly one loop, the new chord.
    """
    m = d.m
    if not 0 <= edge < m:
        raise ValueError(f"edge {edge} out of range")
    loops = d.loop_chords()
    if len(loops) > 1:
        raise ValueError("diagram has several loops; nothing maps onto it")
    if len(loops) == 1 and loops[0] != _edge_endpoints_chord(m, edge):
        raise ValueError("loop must sit across the marked edge")
    shift = lambda v: v if v <= edge else v + 2
    mate = [-1] * (m + 2)
    for i, j in d.chords():
        a, b = shift(i), shift(j)
        mate[a], mate[b] = b, a
    mate[edge + 1], mate[edge + 2] = edge + 2, edge + 1
    out = ChordDiagram(m + 2, tuple(mate))
    if out.loops() != 1:
        raise RuntimeError(
            f"insertion left {out.loops()} loops; it must leave exactly the new one"
        )
    return out


# ---------------------------------------------------------------------------
# enumeration up to symmetry


def _pack_weights(m: int) -> np.ndarray:
    """Big-endian 4-bit place values; dot with a mate row packs it to one int."""
    return (np.uint64(1) << (4 * np.arange(m - 1, -1, -1, dtype=np.uint64))).astype(
        np.uint64
    )


@cache
def _diagram_classes_by_loops(m: int, cap: int) -> tuple[tuple[ChordDiagram, ...], ...]:
    """Canonical diagrams with 0..cap loops, one generation pass.

    Matchings are generated by always pairing the lowest free vertex,
    abandoning branches that exceed the loop budget; each new orbit is
    expanded through all 2m polygon symmetries at once so later members are
    skipped by key lookup.
    """
    if m % 2 or m < 2:
        raise ValueError(f"vertex count must be even and positive, got {m}")
    if m > _BULK_MAX_M:
        raise ValueError(f"bulk enumeration capped at {_BULK_MAX_M} vertices")
    sig = np.array(_dihedral_maps(m), dtype=np.int64)
    rows = np.arange(2 * m)[:, None]
    weights = _pack_weights(m)
    seen: set[int] = set()
    reps: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
    mate = [-1] * m
    full = (1 << m) - 1

    def emit(loops):
        key = 0
        for v in mate:
            key = (key << 4) | v
        if key in seen:
            return
        arr = np.array(mate, dtype=np.int64)
        imate_all = np.empty((2 * m, m), dtype=np.int64)
        imate_all[rows, sig] = sig[:, arr]
        keys = imate_all.astype(np.uint64) @ weights
        seen.update(keys.tolist())
        reps[loops].append(tuple(int(v) for v in imate_all[int(np.argmin(keys))]))

    def rec(free, loops):
        if free == 0:
            emit(loops)
            return
        ib = free & -free
        i = ib.bit_length() - 1
        rest = free ^ ib
        cand = rest
        while cand:
            jb = cand & -cand
            j = jb.bit_length() - 1
            cand ^= jb
            lp = loops + (1 if (j - i == 1 or (i == 0 and j == m - 1)) else 0)
            if lp > cap:
                continue
            mate[i], mate[j] = j, i
            rec(rest ^ jb, lp)
        mate[i] = -1

    rec(full, 0)
    return tuple(
        tuple(ChordDiagram(m, mt) for mt in sorted(bucket)) for bucket in reps
    )


def enumerate_diagrams(m: int, loop_count: int) -> tuple[ChordDiagram, ...]:
    """Canonical chord diagrams on m vertices with exactly loop_count loops,
    sorted.  Cached; asking for 0 or 1 loops shares one generation pass."""
    if loop_count < 0 or loop_count > m // 2:
        return ()
    cap = max(1, loop_count)
    return _diagram_classes_by_loops(m, cap)[loop_count]


# ---------------------------------------------------------------------------
# counting up to symmetry
#
# Burnside: the number of classes is the average, over the 2m polygon
# symmetries g, of the matchings g fixes.  Loops are handled by
# inclusion-exclusion over g-invariant sets of loop chords, i.e. unions of
# <g>-orbits of boundary edges; once those chords are placed, the rest of the
# fixed matching only depends on the vertex orbits left over.


def _comb(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _invariant_matchings(size: int, orbits: int) -> int:
    """Perfect matchings fixed by a cyclic group with `orbits` vertex orbits,
    all of `size` vertices.  The last orbit pairs with itself (vertex to its
    antipode in the orbit, so only for even size) or with one of the others,
    in `size` ways: A(c) = [size even]*A(c-1) + (c-1)*size*A(c-2)."""
    self_match = 1 - size % 2
    prev, cur = 0, 1  # A(-1), A(0)
    for c in range(1, orbits + 1):
        prev, cur = cur, self_match * cur + (c - 1) * size * prev
    return cur


def _cycle_independent_sets(d: int, s: int) -> int:
    """Sets of s pairwise non-adjacent vertices on the d-cycle."""
    if s == 0:
        return 1
    if s >= d:
        return 0
    return d * _comb(d - s, s) // (d - s)


def _rotation_fixed(m: int, k: int, loops: int) -> int:
    """Matchings with exactly `loops` loops fixed by rotation through k.

    The rotation splits the boundary edges into d = gcd(k, m) orbits lying
    around a d-cycle; placing s non-adjacent orbits as loop chords leaves
    d - 2s vertex orbits of size m/d.  No loop is fixed by a non-trivial
    rotation, so one-loop matchings only count for the identity.
    """
    d = gcd(k, m)
    size = m // d
    if loops == 0:
        return sum(
            (-1) ** s
            * _cycle_independent_sets(d, s)
            * _invariant_matchings(size, d - 2 * s)
            for s in range(d // 2 + 1)
        )
    if k:
        return 0
    return sum(
        (-1) ** (s - 1) * s * _cycle_independent_sets(m, s) * _invariant_matchings(1, m - 2 * s)
        for s in range(1, m // 2 + 1)
    )


def _reflection_fixed(m: int, loops: int) -> int:
    """Matchings with exactly `loops` loops summed over one reflection of
    each kind: the axis through two edge midpoints and the axis through two
    vertices.  Both leave vertex pairs {v, g(v)} strung along a path.

    Edge axis: m/2 pairs; each end pair is itself a fixed boundary edge (an
    end loop), and each orbit of two edges joining neighbouring pairs covers
    both.  Vertex axis: the two fixed vertices can only be matched together,
    m/2 - 1 pairs lie between them, and the edges at the fixed vertices can
    never be loops.  Choosing a end loops and b inner edge orbits leaves
    pairs - a - 2b pairs to match among themselves.
    """
    pairs = m // 2
    total = 0
    for a, ends in ((0, 1), (1, 2), (2, 1)):
        for b in range(pairs // 2 + 1):
            left = pairs - a - 2 * b
            if left < 0:
                continue
            fixed = ends * _comb(pairs - a - b, b) * _invariant_matchings(2, left)
            sign = (-1) ** (a + b)
            total += sign * fixed if loops == 0 else -sign * a * fixed
    if loops == 0:
        pairs -= 1
        total += sum(
            (-1) ** b * _comb(pairs - b, b) * _invariant_matchings(2, pairs - 2 * b)
            for b in range(pairs // 2 + 1)
        )
    return total


def count_diagram_classes(m: int, loops: int) -> int:
    """Number of chord diagrams on m vertices with exactly `loops` (0 or 1)
    loops, up to rotation and reflection, by Burnside's lemma.  Agrees with
    len(enumerate_diagrams(m, loops)) but lists no matching."""
    if m < 2 or m % 2:
        raise ValueError(f"vertex count must be even and positive, got {m}")
    if loops not in (0, 1):
        raise ValueError(f"can count diagrams with 0 or 1 loops, got {loops}")
    if m == 2:
        # both boundary edges of the 2-gon are the one chord, which is a loop
        return loops
    total = sum(_rotation_fixed(m, k, loops) for k in range(m))
    total += m // 2 * _reflection_fixed(m, loops)
    classes, rest = divmod(total, 2 * m)
    if rest:
        raise RuntimeError(
            f"Burnside sum {total} for m={m}, loops={loops} is not a multiple of {2 * m}"
        )
    return classes


# ---------------------------------------------------------------------------
# stabilizer orbits of boundary edges


def _edge_image(m: int, vm, e: int) -> int:
    a, b = vm[e], vm[(e + 1) % m]
    return a if (a + 1) % m == b else b


def diagram_stabilizer(d: ChordDiagram) -> tuple[tuple[int, ...], ...]:
    return tuple(
        vm for vm in _dihedral_maps(d.m) if _apply_vertex_map(d, vm) == d.mate
    )


def edge_orbit_count(d: ChordDiagram) -> int:
    """Number of boundary-edge orbits under the diagram's own symmetries;
    for a loopless diagram, the number of distinct path nets its spanning
    cycle yields by deleting one edge."""
    stab = diagram_stabilizer(d)
    m = d.m
    reps = {min(_edge_image(m, vm, e) for vm in stab) for e in range(m)}
    return len(reps)


def maxnet_profiles(n: int) -> Counter:
    """Histogram of edge-orbit counts over all loopless diagrams on 2n
    vertices.  From dimension 5 up the values 1, ceil(n/2), n, and 2n must
    all occur; their absence is reported as an error."""
    hist = Counter(edge_orbit_count(d) for d in enumerate_diagrams(2 * n, 0))
    if n >= 5:
        needed = {1, ceil(n / 2), n, 2 * n}
        missing = needed - set(hist)
        if missing:
            raise ValueError(f"expected orbit counts {sorted(missing)} absent at n={n}")
    return hist
