"""Chord diagrams on an even polygon, mirroring spanning cycles and paths.

Visiting a spanning cycle of the Roberts graph names the vertices of a 2n-gon;
joining antipodal facets draws n chords, and no chord joins neighbouring
vertices because antipodes never share a ridge.  Loopless diagrams up to
rotation and reflection therefore count spanning cycles up to relabelling.
Spanning paths close up into cycles with one marked boundary edge, which makes
diagrams with exactly one loop (a chord across a single boundary edge) count
them the same way.

Class counts come from Burnside's lemma (`count_diagram_classes`) and never
list a matching.  `_diagram_classes_by_loops` is the package's one
generator of matchings: it lists the classes of one loop count once each
with their stabilizer orders, generating only matchings whose chord at
vertex 0 is one of their shortest, in increasing order.  `enumerate_diagrams`
serves its classes up to the 16-gon (CHORDS_LIST_LIMIT), and `enumeration`
reads the spanning path and cycle classes from the same pass.  A class is
moved only by the maps `_zero_chord_maps` picks, under the one dihedral
action `_apply_vertex_map` that `diagram_stabilizer` uses too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, gcd

from .core import _check_budget

# the 16-gon's classes take about 0.3-0.4 s to list in process at either
# loop count, the 18-gon's about 6-8 s and 270-300 MB, past the whole n = 5
# tree listing's ~1.5 s
CHORDS_LIST_LIMIT = 8


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


@cache
def _dihedral_maps(m: int) -> tuple[tuple[int, ...], ...]:
    """All 2m symmetries of the m-gon as vertex maps."""
    rots = [tuple((i + k) % m for i in range(m)) for k in range(m)]
    refs = [tuple((k - i) % m for i in range(m)) for k in range(m)]
    return tuple(rots + refs)


def _apply_vertex_map(d: ChordDiagram, vm) -> tuple[int, ...]:
    out = [-1] * d.m
    for i, j in enumerate(d.mate):
        out[vm[i]] = vm[j]
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration up to symmetry


def _zero_chord_maps(mate: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The dihedral maps, in `_dihedral_maps` order, under which the image
    of the matching `mate` again mates vertex 0 to mate[0]: those that carry
    a chord onto (0, mate[0]).  A chord (a, b) with b = a + mate[0] (mod m)
    gives two, the rotation that sends a to 0 and the reflection that sends
    b to 0; no other map keeps vertex 0's mate, so a map fixes the matching
    only if it is one of these."""
    m, target = len(mate), mate[0]
    picks = []
    for a, b in enumerate(mate):
        if (b - a) % m == target:
            # map k < m is i -> i + k, map m + k is i -> k - i
            picks += (-a % m, m + b)
    maps = _dihedral_maps(m)
    return [maps[k] for k in sorted(picks)]


@cache
def _diagram_classes_by_loops(
    m: int, loops: int
) -> tuple[tuple[ChordDiagram, ...], tuple[int, ...]]:
    """Least mate tables of the diagram classes with exactly `loops` loops,
    and their stabilizer orders: (diagrams, |Stab|s).

    Matchings are generated by always pairing the lowest free vertex, so
    they come out in increasing mate-table order and the first member of an
    orbit met is its least.  Every orbit has members whose chord at vertex 0
    is one of its shortest chords (rotate one to start there), and the least
    member is one of them; so only matchings with mate[0] <= m/2 and no
    chord shorter than mate[0] are generated.  A loop is a chord of length
    1, so a class with loops starts from mate[0] = 1, where branches past
    the loop count are abandoned, and a loopless class from mate[0] >= 2.
    Each new orbit remembers only its images with the same mate[0], which
    `_zero_chord_maps` gives.  |Stab| counts those images equal to the
    class's table.
    """
    reps: list[ChordDiagram] = []
    stabs: list[int] = []
    mate = [-1] * m

    def rec(free, lps, short, seen):
        if not free:
            key = tuple(mate)
            # the walk abandons branches with too many loops; drop too few
            if lps < loops or key in seen:
                return
            d = ChordDiagram(m, key)
            images = [_apply_vertex_map(d, vm) for vm in _zero_chord_maps(key)]
            seen.update(images)
            reps.append(d)
            stabs.append(images.count(key))
            return
        ib = free & -free
        i = ib.bit_length() - 1
        rest = free ^ ib
        # chords from i no shorter than `short`: i + short <= j <= i + m - short
        cand = rest & (1 << i + m - short + 1) - (1 << i + short)
        while cand:
            jb = cand & -cand
            j = jb.bit_length() - 1
            cand ^= jb
            # vertex 0 is matched, so a chord here is a loop only if j = i + 1
            lp = lps + (j == i + 1)
            if lp > loops:
                continue
            mate[i], mate[j] = j, i
            rec(rest ^ jb, lp, short, seen)

    full = (1 << m) - 1
    for short in range(1, 2) if loops else range(2, m // 2 + 1):
        mate[0], mate[short] = short, 0
        rec(full ^ 1 ^ (1 << short), int(short == 1), short, set())
    return tuple(reps), tuple(stabs)


def enumerate_diagrams(m: int, loop_count: int) -> tuple[ChordDiagram, ...]:
    """Canonical chord diagrams on m vertices with exactly loop_count loops,
    sorted.  Cached per (m, loop_count).  Polygons past 2 * CHORDS_LIST_LIMIT
    vertices raise ResourceLimitError."""
    if m % 2 or m < 2:
        raise ValueError(f"vertex count must be even and positive, got {m}")
    if loop_count < 0 or loop_count > m // 2:
        return ()
    _check_budget(m // 2, CHORDS_LIST_LIMIT, "CHORDS_LIST_LIMIT", "diagram listings")
    return _diagram_classes_by_loops(m, loop_count)[0]


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
        vm for vm in _zero_chord_maps(d.mate) if _apply_vertex_map(d, vm) == d.mate
    )


def edge_orbit_count(d: ChordDiagram) -> int:
    """Number of boundary-edge orbits under the diagram's own symmetries;
    for a loopless diagram, the number of distinct path nets its spanning
    cycle yields by deleting one edge."""
    stab = diagram_stabilizer(d)
    m = d.m
    reps = {min(_edge_image(m, vm, e) for vm in stab) for e in range(m)}
    return len(reps)
