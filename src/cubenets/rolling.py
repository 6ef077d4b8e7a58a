"""Rolling the n-cube across the floor of lattice cells.

The cube's orientation records which facet label sits in each of its 2n
slots: the base (floor) facet, its antipode, and one slot per signed lattice
direction +-1..+-(n-1).  Rolling in direction d is a 4-cycle on the slots
{base, +d, base*, -d}; every other slot keeps its label.  Developing a roll
word or a spanning tree repeats that move, dropping each facet onto the
lattice cell where it first becomes the base.

Every roll word goes through one routine, `develop_word_block`: it rolls a
block of equal-length words from one start orientation at once, as fancy
indexing on numpy slot arrays (`_roll_rows`), keeps the labels placed at
each step and each word's running box, and raises the error of the first
word it refuses.  `develop_path` and `RollSequence.develop` are blocks of
one; `initial_state` fixes every development's start orientation as an
immutable `RollState`.

Trees are developed one at a time: `_tree_walk` gives each facet's parent
and the preorder, and `develop_tree` places each facet by rolling a copy of
its parent's slot list toward the slot where it finds the facet
(`_roll_in_place`) and stepping along that slot's axis.  A tree block of
one costs about five times as much per tree, and the tests develop tens of
thousands of single trees.  `develop_parent_block` rolls a block of
trees given as parent arrays, one depth level of all of them per step, and
marks the rows that are trees, so that `develop_tree` names the fault of
any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (
    FacetLabel,
    SpanningSubgraph,
    _check_dim,
    antipode_index,
    validate,
)


class RevisitError(ValueError):
    """A roll word tried to put an already-placed facet back on the floor."""

    def __init__(self, facet: FacetLabel, step: int):
        self.facet = facet
        self.step = step
        super().__init__(f"facet {facet} revisited at step {step}")


def _check_direction(n: int, d: int) -> int:
    if d == 0 or abs(d) > n - 1:
        raise ValueError(f"direction {d} out of range for dimension {n}")
    return d


# slot layout: 0 = base, 1 = base antipode, 2d = +d, 2d+1 = -d
def _slot_index(d: int) -> int:
    return 2 * d if d > 0 else -2 * d + 1


@dataclass(frozen=True)
class RollState:
    """Immutable orientation of the cube: label index occupying every slot."""

    n: int
    slots: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.n)
        if len(self.slots) != 2 * self.n:
            raise ValueError("state needs one slot per facet")

    @property
    def base(self) -> FacetLabel:
        return FacetLabel.from_index(self.slots[0], self.n)


def initial_state(n: int, base: FacetLabel) -> RollState:
    """Start orientation: the remaining axes fill slots +1..+(n-1) in
    ascending order, unstarred, with antipodes opposite."""
    _check_dim(n)
    b = base.index(n)
    slots = [b, antipode_index(b, n)]
    for axis in range(1, n + 1):
        if axis == base.axis:
            continue
        slots.append(axis - 1)
        slots.append(axis - 1 + n)
    return RollState(n, tuple(slots))


def _roll_in_place(slots: list[int], p: int) -> None:
    """Tip the cube toward directional slot p = _slot_index(d) by permuting
    the slot list in place: base <- +d <- base* <- -d <- base.  The
    opposite slot is p ^ 1, and rolling toward it undoes the move."""
    m = p ^ 1
    slots[0], slots[p], slots[1], slots[m] = slots[p], slots[1], slots[m], slots[0]


@dataclass(frozen=True)
class RollSequence:
    """A start orientation plus a word of signed directions."""

    n: int
    start: RollState
    moves: tuple[int, ...]

    def develop(self) -> "Development":
        return _word_development(self.start, self.moves)


@dataclass(frozen=True)
class Development:
    """Facets dropped onto lattice cells, in visiting order.

    order[k] is the k-th facet placed (label index), coords[k] its cell and
    parents[k] the label it unfolded from (-1 for the base).
    """

    n: int
    order: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]
    parents: tuple[int, ...]

    @property
    def base(self) -> FacetLabel:
        return FacetLabel.from_index(self.order[0], self.n)

    @property
    def is_spanning(self) -> bool:
        return len(self.order) == 2 * self.n

    def placement(self) -> dict[FacetLabel, tuple[int, ...]]:
        n = self.n
        return {
            FacetLabel.from_index(lab, n): pos
            for lab, pos in zip(self.order, self.coords)
        }

    def tree_edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for lab, par in zip(self.order, self.parents):
            if par >= 0:
                out.append((min(lab, par), max(lab, par)))
        return tuple(sorted(out))


def development_json(dev: Development) -> dict:
    """Interchange form: facets sorted by label, tree edges sorted."""
    n = dev.n
    by_label = sorted(zip(dev.order, dev.coords))
    doc = {
        "n": n,
        "base": str(dev.base),
        "facets": [
            {"label": str(FacetLabel.from_index(lab, n)), "coord": list(pos)}
            for lab, pos in by_label
        ],
        "tree": [
            [str(FacetLabel.from_index(i, n)), str(FacetLabel.from_index(j, n))]
            for i, j in dev.tree_edges()
        ],
    }
    if not dev.is_spanning:
        doc["spanning"] = False
    return doc


def _word_development(start: RollState, dirs) -> Development:
    """The development of one word from `start`: a block of one.  Each
    facet unfolds from the one placed before it, one unit step away."""
    n = start.n
    order = tuple(develop_word_block(start, [dirs])[1][0].tolist())
    w = np.asarray(dirs, np.intp).reshape(-1, 1)
    unit = np.sign(w) * (np.abs(w) == np.arange(1, n))
    coords = np.cumsum(np.vstack([np.zeros((1, n - 1), np.intp), unit]), 0)
    return Development(n, order, tuple(map(tuple, coords.tolist())), (-1, *order[:-1]))


def develop_path(n: int, base: FacetLabel, dirs) -> Development:
    """Roll from the start orientation through a word of directions, placing
    each facet as it lands.  Words shorter than 2n-1 leave the development
    partial; a direction out of range raises ValueError and a revisit
    RevisitError."""
    return _word_development(initial_state(n, base), dirs)


def _tree_walk(tree: SpanningSubgraph, root: int) -> tuple[list[int], list[int]]:
    """Each facet's parent toward `root` in the tree (-1 for the root and for
    any facet the tree does not reach), and the facets reached, in preorder
    with children in label order."""
    # tree.edges is a sorted tuple of sorted pairs, so every row comes out sorted
    adj = [[] for _ in range(2 * tree.n)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = [-1] * (2 * tree.n)
    preorder, stack = [], [root]
    while stack:
        u = stack.pop()
        preorder.append(u)
        for w in reversed(adj[u]):
            if w != root and parents[w] < 0:
                parents[w] = u
                stack.append(w)
    return parents, preorder


def develop_tree(tree: SpanningSubgraph, base: FacetLabel) -> Development:
    """Unfold a validated spanning tree by rolling from base.

    Each tree child of a facet sits in some directional slot of the
    orientation that facet was placed in; rolling that way places the child.
    Facets are placed in `_tree_walk`'s preorder, each from its own copy of
    its parent's slots, so nothing is rolled back and no tree is too deep.
    The placement does not depend on the order of children: any other
    order would put every facet on the same cell.  A cycle raises
    ValueError, and so does a tree or path `validate` refuses: "not a
    spanning <kind>: <problem>".
    """
    if tree.kind == "cycle":
        raise ValueError("cannot develop a cycle; delete an edge first")
    problem = validate(tree)
    if problem is not None:
        raise ValueError(f"not a spanning {tree.kind}: {problem}")
    n = tree.n
    b = base.index(n)
    parents, order = _tree_walk(tree, b)
    # each facet's orientation when placed, and its cell
    slots, cells = [None] * (2 * n), [None] * (2 * n)
    slots[b], cells[b] = list(initial_state(n, base).slots), (0,) * (n - 1)
    for lab in order[1:]:
        par = parents[lab]
        p = slots[par].index(lab)
        if p < 2:
            raise RuntimeError(f"tree child {lab} of {par} sits at the base antipode")
        slots[lab] = rolled = slots[par][:]
        _roll_in_place(rolled, p)
        pos = list(cells[par])
        pos[(p >> 1) - 1] += -1 if p & 1 else 1
        cells[lab] = tuple(pos)
    coords = tuple(cells[lab] for lab in order)
    return Development(n, tuple(order), coords, tuple(parents[lab] for lab in order))


# ---------------------------------------------------------------------------
# block kernel: many developments rolled at once


def _index_dtype(n: int):
    """The smallest signed integer type for the kernel's labels, parents
    and cells: all lie within -2n..2n."""
    return np.int8 if 2 * n <= 127 else np.int16 if 2 * n <= 32767 else np.int32


def tree_block_size(n: int) -> int:
    """Trees per `develop_parent_block` call whose slot table fills about
    64 KB, so a block's memory does not grow with the number of trees.
    (With 128 KB blocks, 40000 trees at n=12 peaked about 1 MB above 4000;
    with 64 KB, 0.1 MB, for a few percent more time.)"""
    row = (2 * n) ** 2 * np.dtype(_index_dtype(n)).itemsize
    return max(1, (64 << 10) // row)


@cache
def _slot_steps(n: int) -> np.ndarray:
    """Row p is the cell step of rolling toward slot p: a unit vector along
    a directional slot's axis, zero for the base and its antipode."""
    steps = np.zeros((2 * n, n - 1), _index_dtype(n))
    for p in range(2, 2 * n):
        steps[p, (p >> 1) - 1] = -1 if p & 1 else 1
    return steps


def _roll_rows(slots: np.ndarray, p: np.ndarray) -> None:
    """`_roll_in_place` on every row of a (K, 2n) slot array at once, row k
    toward its own slot p[k]."""
    k = np.arange(len(p))
    m = p ^ 1
    slots[k, 0], slots[k, p], slots[k, 1], slots[k, m] = (
        slots[k, p], slots[k, 1], slots[k, m], slots[k, 0],
    )


def develop_parent_block(parents) -> tuple[np.ndarray, np.ndarray]:
    """Develop B trees from facet 1 at once.

    `parents` holds B rows of 2n entries; row b gives each facet's tree
    parent as a label index, or -1, and its entry 0, facet 1's own, is not
    read.  Returns the
    (B, 2n, n-1) cells by facet label, equal to `develop_tree`'s placement
    from facet 1, and a (B,) mask of the rows that are such a tree: every
    facet reaches facet 1 by stepping to parents, and every child sits in a
    directional slot of its parent's orientation (so no facet hangs from
    itself or its antipode).  The cells of a row outside the mask are
    meaningless.

    Each round places, in all B trees at once, every facet whose parent is
    placed: the facets of one depth.  Its slot is looked up in the parent's
    row of a (B, 2n, 2n) slot table, and the row is rolled toward it.
    """
    n = len(parents[0]) // 2
    parents = np.asarray(parents, _index_dtype(n))
    B, two_n = parents.shape
    steps = _slot_steps(n)
    rows = np.arange(B)[:, None]
    # a last column that is never placed stands for parent -1
    placed = np.zeros((B, two_n + 1), bool)
    placed[:, 0] = True
    ok = np.ones(B, bool)
    slots = np.empty((B, two_n, two_n), parents.dtype)
    slots[:, 0] = initial_state(n, FacetLabel(1)).slots
    cells = np.zeros((B, two_n, n - 1), parents.dtype)
    while True:
        b, v = np.nonzero(placed[rows, parents] > placed[:, :two_n])
        if not len(b):
            break
        p = parents[b, v]
        table = slots[b, p]
        s = (table == v[:, None]).argmax(1)
        ok[b[s < 2]] = False
        _roll_rows(table, s)
        slots[b, v] = table
        cells[b, v] = cells[b, p] + steps[s]
        placed[b, v] = True
    ok &= placed[:, :two_n].all(1)
    return cells, ok


def develop_word_block(start: RollState, words) -> tuple[np.ndarray, np.ndarray]:
    """Roll B words of one length L at once from the orientation `start`.

    Returns the (B, n-1) bounding-box extents of the developments in axis
    order, and the (B, L+1) labels placed at each step, base first.  Only
    the running box is kept, never the cells.  The first word in row order
    that breaks a rule raises at its first broken step, checking the
    direction before the facet it lands: a direction out of range raises
    ValueError, and a facet placed twice RevisitError.
    """
    n = start.n
    words = np.asarray(words)
    B, L = words.shape
    valid = (words != 0) & (np.abs(words) < n)
    # direction d's slot sits at d + n - 1; a direction out of range rolls as +1
    slot_of = np.array([_slot_index(d) if d else 2 for d in range(1 - n, n)])
    steps = _slot_steps(n)
    slots = np.tile(np.array(start.slots, _index_dtype(n)), (B, 1))
    placed = np.empty((B, L + 1), slots.dtype)
    placed[:, 0] = start.slots[0]
    pos = np.zeros((B, n - 1), np.int32)
    lo, hi = pos.copy(), pos.copy()
    rolls = slot_of[np.where(valid, words, 1).astype(np.intp, copy=False) + n - 1]
    for t, p in enumerate(rolls.T):
        _roll_rows(slots, p)
        placed[:, t + 1] = slots[:, 0]
        pos += steps[p]
        np.minimum(lo, pos, out=lo)
        np.maximum(hi, pos, out=hi)
    # a row revisits a facet exactly when its sorted labels repeat one
    refused = ~valid.all(1) | (np.diff(np.sort(placed, 1), axis=1) == 0).any(1)
    if refused.any():
        b = int(refused.argmax())
        fresh = np.zeros(L + 1, bool)
        fresh[np.unique(placed[b], return_index=True)[1]] = True
        t = int((~valid[b] | ~fresh[1:]).argmax())
        _check_direction(n, int(words[b, t]))
        raise RevisitError(FacetLabel.from_index(int(placed[b, t + 1]), n), t)
    return hi - lo + 1, placed
