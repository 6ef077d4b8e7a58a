"""Oracles and converters that only the tests read.

The library holds what the CLI, the README and the benchmark run
(`tests/test_reachable.py` checks that).  What follows checks the library
from the side: the immutable roll engine, the tree block on a full slot
table, the token board played one partition and one slide at a time,
brute-force shape and diagram canonicalisation, the cycle/path <->
chord-diagram bijections, the group element by element and orbits and
stabilizers over its full expansion, the recursive Hamiltonian walk, the
loop-erased walk and cycle popping one tree at a time, and the JSON
readers.
Each keeps the checks it raises on, so a test can still drive it into
them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import ceil

import numpy as np

from cubenets import rolling
from cubenets.chords import (
    ChordDiagram,
    _apply_vertex_map,
    _dihedral_maps,
    edge_orbit_count,
    enumerate_diagrams,
)
from cubenets.core import (
    FacetLabel,
    SpanningSubgraph,
    _edge_rank_grid,
    _group_edge_maps,
    antipode_index,
    validate,
)
from cubenets.enumeration import _neighbours
from cubenets.nets import CubePartition, _box_scan
from cubenets.partitions import IllegalSlideError
from cubenets.rolling import Development, RollState

# ---------------------------------------------------------------------------
# JSON readers


def subgraph_from_json(n, data, kind="tree") -> SpanningSubgraph:
    """Inverse of `SpanningSubgraph.to_json`."""
    pairs = [(FacetLabel.parse(a), FacetLabel.parse(b)) for a, b in data]
    return SpanningSubgraph.from_labels(n, pairs, kind)


def diagram_from_json(doc) -> ChordDiagram:
    """The diagram of one row of a `cubenets chords` listing."""
    m = doc["m"]
    mate = [-1] * m
    for i, j in doc["matching"]:
        mate[i], mate[j] = j, i
    return ChordDiagram(m, tuple(mate))


# ---------------------------------------------------------------------------
# the relabelling group


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


def signed_permutations(n: int):
    """Iterate the whole group, in the row order of `core._group_label_maps`."""
    for perm in itertools.permutations(range(1, n + 1)):
        for mask in itertools.product((False, True), repeat=n):
            yield SignedPermutation(perm, mask)


def label_map(g: SignedPermutation) -> tuple[int, ...]:
    """Image of every label index under g."""
    n = g.n
    out = [0] * (2 * n)
    for a in range(n):
        t = g.perm[a] - 1
        if g.flips[a]:
            out[a], out[a + n] = t + n, t
        else:
            out[a], out[a + n] = t, t + n
    return tuple(out)


def apply_subgraph(g: SignedPermutation, sub: SpanningSubgraph) -> SpanningSubgraph:
    lm = label_map(g)
    return SpanningSubgraph(
        sub.n, sub.kind, tuple((lm[i], lm[j]) for i, j in sub.edges)
    )


def random_signed_permutation(n, rng) -> SignedPermutation:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    flips = tuple(rng.random() < 0.5 for _ in range(n))
    return SignedPermutation(tuple(perm), flips)


def full_orbit(n: int, mask: int) -> tuple[np.ndarray, int]:
    """Every group element's image of mask, one per row of the full
    expansion `_group_edge_maps`, and the canonical one: the image whose
    sorted rank list is least, i.e. whose bit-reversed mask is largest."""
    ranks = [r for r in range(mask.bit_length()) if mask >> r & 1]
    mapped = _group_edge_maps(n)[:, ranks].astype(np.uint64)
    one = np.uint64(1)
    images = np.bitwise_or.reduce(one << mapped, axis=1)
    top = np.uint64(_group_edge_maps(n).shape[1] - 1)
    keys = np.bitwise_or.reduce(one << (top - mapped), axis=1)
    return images, int(images[int(np.argmax(keys))])


def orbit_masks(n: int, mask: int) -> set[int]:
    return set(full_orbit(n, mask)[0].tolist())


def stabilizer_order(n: int, mask: int) -> int:
    return int(np.count_nonzero(full_orbit(n, mask)[0] == np.uint64(mask)))


# ---------------------------------------------------------------------------
# the recursive Hamiltonian walk


def recursive_walk_masks(n: int, close: bool):
    """The masks of every spanning path (or, with `close`, cycle) whose
    walk starts 0 -> 1, walked by nested generators with no symmetry cut:
    every class of either kind has such a member."""
    two_n = 2 * n
    grid = _edge_rank_grid(n)
    neighbours = _neighbours(n)
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

    return rec(1, 0b11, 2, 1)


# ---------------------------------------------------------------------------
# the loop-erased walk and cycle popping, one tree at a time


def loop_erased_parents(n: int, next_rank) -> list[int]:
    """Wilson's loop-erased walks toward facet 1, one tree at a time: each
    facet's parent (-1 for facet 1).  Every step out of facet u goes to
    u's neighbour of rank `next_rank(u)`, and a walk that comes back to a
    facet overwrites the step it took there, which erases the loop.  With
    `next_rank` reading each facet's own stack of ranks, the walks pop the
    cycles that any order of cycle popping pops from those stacks, and
    leave the same tree (Propp and Wilson, J. Algorithms 27, 1998)."""
    two_n = 2 * n
    neighbours = _neighbours(n)
    in_tree = [False] * two_n
    succ = [-1] * two_n
    in_tree[0] = True
    for v0 in range(1, two_n):
        u = v0
        while not in_tree[u]:
            succ[u] = u = neighbours[u][next_rank(u)]
        u = v0
        while not in_tree[u]:
            in_tree[u] = True
            u = succ[u]
    return succ


def cycle_facets(parents) -> list[int]:
    """The facets on cycles of the successor function `parents`, whose
    facet 0 is its own successor, in ascending order."""
    on = set()
    for v in range(1, len(parents)):
        walk = []
        u = v
        while u and u not in walk:
            walk.append(u)
            u = parents[u]
        if u:
            on.update(walk[walk.index(u):])
    return sorted(on)


def popped_stacks(n: int, count: int, draws) -> tuple[list[list[int]], list[dict]]:
    """Replay cycle popping by rounds over `count` trees from the rank
    arrays `draws`, in the order a block sampler reads them: the first
    array points facets 1..2n-1 of every row, row by row, and each later
    one redraws the facets on cycles of the rows that have any, row by row
    and facet by facet.  Returns the trees as parent lists (-1 for facet
    1) and, per tree, each facet's stack of the ranks it drew."""
    two_n = 2 * n
    neighbours = _neighbours(n)
    draws = iter(draws)
    parents = [[0] * two_n for _ in range(count)]
    stacks = [{v: [] for v in range(1, two_n)} for _ in range(count)]
    redraw = [(b, v) for b in range(count) for v in range(1, two_n)]
    ranks = iter(next(draws).tolist())
    while redraw:
        for b, v in redraw:
            r = next(ranks)
            stacks[b][v].append(r)
            parents[b][v] = neighbours[v][r]
        if next(ranks, None) is not None:
            raise AssertionError("a draw was left over")
        redraw = [(b, v) for b in range(count) for v in cycle_facets(parents[b])]
        if redraw:
            ranks = iter(next(draws).tolist())
    if next(draws, None) is not None:
        raise AssertionError("a round of draws was left over")
    for row in parents:
        row[0] = -1
    return parents, stacks


# ---------------------------------------------------------------------------
# the immutable roll engine
#
# `rolling._check_direction` and `rolling._slot_index` are read through the
# module, so a test that patches them there reaches these functions too.


def slot(state: RollState, d: int) -> FacetLabel:
    """Label currently in directional slot d (signed)."""
    rolling._check_direction(state.n, d)
    return FacetLabel.from_index(state.slots[rolling._slot_index(d)], state.n)


def is_coherent(state: RollState) -> bool:
    """Slots hold each label once, antipodal labels in opposite slots."""
    n = state.n
    if sorted(state.slots) != list(range(2 * n)):
        return False
    return all(
        state.slots[2 * k + 1] == antipode_index(state.slots[2 * k], n)
        for k in range(n)
    )


def roll(state: RollState, d: int) -> RollState:
    """Tip the cube one cell in direction d.

    The facet toward d becomes the base; the old base swings up opposite d,
    so walking back with roll(-d) undoes the move exactly.
    """
    rolling._check_direction(state.n, d)
    s = list(state.slots)
    p, m = rolling._slot_index(d), rolling._slot_index(-d)
    s[0], s[p], s[1], s[m] = s[p], s[1], s[m], s[0]
    if s[1] != antipode_index(s[0], state.n):
        raise RuntimeError(f"roll {d} broke antipodality: slots {s}")
    return RollState(state.n, tuple(s))


def slot_table_parent_block(parents) -> tuple[np.ndarray, np.ndarray]:
    """`rolling.develop_parent_block` on a (B, 2n, 2n) slot table: the same
    cells and mask, with each facet's whole slot list kept.

    Each round places, in all B trees at once, every facet whose parent is
    placed.  Its slot is looked up in the parent's row of the table, and
    the row is rolled toward it with `rolling._roll_rows`.
    """
    n = len(parents[0]) // 2
    parents = np.asarray(parents, rolling._index_dtype(n))
    B, two_n = parents.shape
    steps = rolling._slot_steps(n)
    rows = np.arange(B)[:, None]
    # a last column that is never placed stands for parent -1
    placed = np.zeros((B, two_n + 1), bool)
    placed[:, 0] = True
    ok = np.ones(B, bool)
    slots = np.empty((B, two_n, two_n), parents.dtype)
    slots[:, 0] = rolling.initial_state(n, FacetLabel(1)).slots
    cells = np.zeros((B, two_n, n - 1), parents.dtype)
    while True:
        b, v = np.nonzero(placed[rows, parents] > placed[:, :two_n])
        if not len(b):
            break
        p = parents[b, v]
        table = slots[b, p]
        s = (table == v[:, None]).argmax(1)
        ok[b[s < 2]] = False
        rolling._roll_rows(table, s)
        slots[b, v] = table
        cells[b, v] = cells[b, p] + steps[s]
        placed[b, v] = True
    ok &= placed[:, :two_n].all(1)
    return cells, ok


# ---------------------------------------------------------------------------
# the token board, one partition on Python lists
#
# `schedule` and `slide` are read through this module, so a test that
# patches either here reaches `realization_slides`.


def schedule(p: CubePartition) -> tuple[list[int], range]:
    """The three-phase slide word of one partition, and the index range of
    its middle phase, built as `partitions._schedules` builds a block of
    them: towers 1..k first and last, k the number of parts above 2, and
    between them each tower's part - 3 middles, tower by tower, alternating
    with the singletons k+1..n-1."""
    k = sum(part > 2 for part in p.parts)
    towers = range(1, k + 1)
    singletons = range(k + 1, len(p.parts) + 1)
    middles = [d for d, part in zip(towers, p.parts) for _ in range(part - 3)]
    # there is one middle more than there are singletons: m s m ... s m
    step2 = middles[:1]
    for s, m in zip(singletons, middles[1:]):
        step2 += [s, m]
    return [*towers, *step2, *towers], range(k, k + len(step2))


def slide(res: list, near: list, far: list, transfer: bool, d: int) -> bool:
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
    """Slide word realizing the partition, by the three-phase schedule,
    played one slide at a time before it is returned: an illegal slide
    raises IllegalSlideError, and a broken phase or a board left unfilled
    raises RuntimeError (`slide` conserves tokens itself).  A word of
    another length than 2n-1 is played as it is, so it fails one of these
    checks, where `partitions.realization_block` refuses it unplayed."""
    word, middle = schedule(p)
    res = [part - 1 for part in p.parts]
    near = [False] * len(res)
    far = [False] * len(res)
    transfer = False
    # the first phase slides each tower once
    towers = set(word[: middle.start])
    for idx, d in enumerate(word):
        if idx in middle and transfer == (d in towers):
            raise RuntimeError(
                f"phase discipline broken at slide {idx}: transfer must be "
                f"{'empty' if d in towers else 'occupied'}"
            )
        transfer = slide(res, near, far, transfer, d)
    if any(res) or not (all(near) and all(far) and transfer):
        raise RuntimeError(f"board not full after realizing {p.parts}")
    return tuple(word)


# ---------------------------------------------------------------------------
# root paths of a development


def entry_dir(dev: Development, k: int, pos: dict) -> int:
    """Signed direction of the roll that placed dev.order[k], 0 for the base:
    the one axis on which its cell differs from its parent's.  `pos` maps a
    label to its place in dev.order."""
    par = dev.parents[k]
    if par < 0:
        return 0
    here, there = dev.coords[k], dev.coords[pos[par]]
    (d,) = [
        a + 1 if h > t else -(a + 1)
        for a, (h, t) in enumerate(zip(here, there))
        if h != t
    ]
    return d


def root_path(dev: Development, label: FacetLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Labels and entry directions from the base to the given facet."""
    pos = {lab: k for k, lab in enumerate(dev.order)}
    k = pos[label.index(dev.n)]
    labels, dirs = [], []
    while k >= 0:
        labels.append(dev.order[k])
        par = dev.parents[k]
        if par < 0:
            break
        dirs.append(entry_dir(dev, k, pos))
        k = pos[par]
    labels.reverse()
    dirs.reverse()
    return tuple(labels), tuple(dirs)


def uturn_audit(dev: Development):
    """Check that no root-to-facet path uses both +d and -d.

    Returns None when clean, otherwise (labels, dirs) for the first offending
    path from the base to the facet whose entry direction doubles back.
    """
    used: dict[int, frozenset] = {}
    pos = {lab: k for k, lab in enumerate(dev.order)}
    for k, lab in enumerate(dev.order):
        if dev.parents[k] < 0:
            used[lab] = frozenset()
            continue
        d = entry_dir(dev, k, pos)
        along = used[dev.parents[k]]
        if -d in along:
            return root_path(dev, FacetLabel.from_index(lab, dev.n))
        used[lab] = along | {d}
    return None


# ---------------------------------------------------------------------------
# shapes of nets


def bounding_box(dev: Development) -> tuple[int, ...]:
    """Extent along each lattice axis, in axis order, taken axis by axis
    rather than in `nets._box_scan`'s one pass over the cells."""
    return tuple(max(c) - min(c) + 1 for c in zip(*dev.coords))


def box_growth_trace(dev: Development) -> list[int]:
    """Sum of box extents after each facet is placed.

    Starts at n-1 (a single cell) and, for any tree development, steps up by
    exactly one per facet, ending at 3n-2.
    """
    return _box_scan(dev.coords)[1]


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


# ---------------------------------------------------------------------------
# chord diagrams: canonical forms, orbits, and the cycle/path bijections


def loop_chords(d: ChordDiagram) -> tuple[tuple[int, int], ...]:
    """The chords across a single boundary edge of the polygon."""
    return tuple(
        (i, j) for i, j in d.chords() if j - i == 1 or (i == 0 and j == d.m - 1)
    )


def loops(d: ChordDiagram) -> int:
    return len(loop_chords(d))


def perfect_matchings(m: int):
    """Every perfect matching of vertices 0..m-1 as a mate table, by pairing
    the lowest free vertex with each other free vertex in turn."""
    mate = [-1] * m

    def rec(free):
        if not free:
            yield tuple(mate)
            return
        i, rest = free[0], free[1:]
        for j in rest:
            mate[i], mate[j] = j, i
            yield from rec(tuple(v for v in rest if v != j))

    yield from rec(tuple(range(m)))


def canonical_diagram(d: ChordDiagram) -> ChordDiagram:
    """Least mate table over all rotations and reflections of the polygon."""
    best = min(_apply_vertex_map(d, vm) for vm in _dihedral_maps(d.m))
    return ChordDiagram(d.m, best)


def diagram_orbit_size(d: ChordDiagram) -> int:
    return len({_apply_vertex_map(d, vm) for vm in _dihedral_maps(d.m)})


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
    degree = Counter(itertools.chain.from_iterable(p.edges))
    start = min(v for v, d in degree.items() if d == 1)
    return _diagram_along(p, start), 2 * p.n - 1


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
    if loops(d):
        raise ValueError("diagram has a loop; no spanning cycle produces one")
    return _reassemble(d, n, "cycle", -1)


def path_from_diagram(d: ChordDiagram, marked: int, n: int) -> SpanningSubgraph:
    """Open a diagram back into a spanning path by deleting the marked
    boundary edge.  The diagram may have one loop only across that edge."""
    if d.m != 2 * n:
        raise ValueError(f"diagram on {d.m} vertices does not fit dimension {n}")
    if not 0 <= marked < d.m:
        raise ValueError(f"marked edge {marked} out of range")
    found = loop_chords(d)
    if found and set(found) != {_edge_endpoints_chord(d.m, marked)}:
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
    found = loop_chords(d)
    if len(found) > 1:
        raise ValueError("diagram has several loops; nothing maps onto it")
    if len(found) == 1 and found[0] != _edge_endpoints_chord(m, edge):
        raise ValueError("loop must sit across the marked edge")
    shift = lambda v: v if v <= edge else v + 2
    mate = [-1] * (m + 2)
    for i, j in d.chords():
        a, b = shift(i), shift(j)
        mate[a], mate[b] = b, a
    mate[edge + 1], mate[edge + 2] = edge + 2, edge + 1
    out = ChordDiagram(m + 2, tuple(mate))
    if loops(out) != 1:
        raise RuntimeError(
            f"insertion left {loops(out)} loops; it must leave exactly the new one"
        )
    return out


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
