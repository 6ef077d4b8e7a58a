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

Every tree goes through one routine too, `develop_parent_block`: it rolls
a block of trees given as parent arrays from one start orientation, one
depth level of all of them per step, and marks the rows that are trees.
`develop_tree` is a block of one, with `_tree_walk` giving its parents and
the preorder.  The kernel keeps no slot list: each placed facet's
orientation is the slot of every axis's unstarred label, one entry per
axis, since a label and its antipode always sit in a pair of slots 2k and
2k+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (
    FacetLabel,
    SpanningSubgraph,
    _check_dim,
    _label_table,
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
    labels = _label_table(n)[0]
    by_label = sorted(zip(dev.order, dev.coords))
    doc = {
        "n": n,
        "base": str(dev.base),
        "facets": [{"label": labels[lab], "coord": list(pos)} for lab, pos in by_label],
        "tree": [[labels[i], labels[j]] for i, j in dev.tree_edges()],
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


def _tree_walk(n: int, edges, root: int) -> tuple[list[int], list[int]]:
    """Each facet's parent toward `root` in the tree on the 2n facets with
    index pairs `edges` (-1 for the root and for any facet the tree does
    not reach), and the facets reached, in preorder with children in label
    order."""
    # edges come as sorted pairs in sorted order (a subgraph's edges, or a
    # mask's in rank order), so every row comes out sorted
    adj = [[] for _ in range(2 * n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = [-1] * (2 * n)
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
    """Unfold a validated spanning tree by rolling from base: a block of one.

    Each tree child of a facet sits in some directional slot of the
    orientation that facet was placed in; rolling that way places the child
    (`develop_parent_block`).  Facets come in `_tree_walk`'s preorder.  The
    placement does not depend on the order of children: any other order
    would put every facet on the same cell.  A cycle raises ValueError, and
    so does a tree or path `validate` refuses: "not a spanning <kind>:
    <problem>".
    """
    if tree.kind == "cycle":
        raise ValueError("cannot develop a cycle; delete an edge first")
    problem = validate(tree)
    if problem is not None:
        raise ValueError(f"not a spanning {tree.kind}: {problem}")
    n = tree.n
    parents, order = _tree_walk(n, tree.edges, base.index(n))
    cells, ok = develop_parent_block(initial_state(n, base), [parents])
    if not ok[0]:
        raise RuntimeError("a tree child sits at its parent's base antipode")
    coords = tuple(map(tuple, cells[0, order].tolist()))
    return Development(n, tuple(order), coords, tuple(parents[lab] for lab in order))


# ---------------------------------------------------------------------------
# block kernel: many developments rolled at once


def _index_dtype(n: int):
    """The smallest signed integer type for the kernel's labels, parents
    and cells: all lie within -2n..2n."""
    return np.int8 if 2 * n <= 127 else np.int16 if 2 * n <= 32767 else np.int32


def _tree_bytes(n: int) -> int:
    """Bytes `develop_parent_block` holds per tree: each of its 2n facet
    rows keeps five intp row indices, 2n+3 entries of the index type (its
    parent, orientation, cell, slot and two flags) and a placed flag."""
    entry = np.dtype(_index_dtype(n)).itemsize
    return 2 * n * (5 * np.dtype(np.intp).itemsize + (2 * n + 3) * entry + 1)


def tree_block_size(n: int) -> int:
    """Trees per `develop_parent_block` call whose rows fill about 192 KB,
    so a block's memory does not grow with the number of trees.  (At n=12,
    `verify` with blocks of 120 trees peaked within 0.1 MB at 4000 and at
    200000 samples; with blocks of 160, 0.4 MB apart, for a few percent
    less time.)"""
    return max(1, (192 << 10) // _tree_bytes(n))


@cache
def _slot_steps(n: int) -> np.ndarray:
    """Row p is the cell step of rolling toward slot p: a unit vector along
    a directional slot's axis, zero for the base and its antipode."""
    steps = np.zeros((2 * n, n - 1), _index_dtype(n))
    for p in range(2, 2 * n):
        steps[p, (p >> 1) - 1] = -1 if p & 1 else 1
    return steps


def _roll_rows(slots: np.ndarray, p: np.ndarray) -> None:
    """Tip the cube of every row of a (K, 2n) slot array at once, row k
    toward its own directional slot p[k] = _slot_index(d): base <- +d <-
    base* <- -d <- base.  The opposite slot is p ^ 1, and rolling toward it
    undoes the move."""
    k = np.arange(len(p))
    m = p ^ 1
    slots[k, 0], slots[k, p], slots[k, 1], slots[k, m] = (
        slots[k, p], slots[k, 1], slots[k, m], slots[k, 0],
    )


def develop_parent_block(start: RollState, parents) -> tuple[np.ndarray, np.ndarray]:
    """Develop B trees at once from the orientation `start`.

    `parents` holds B rows of 2n entries; row b gives each facet's tree
    parent as a label index, or -1.  Every tree is rooted at the base of
    `start`, whose own entry is not read.  Returns the (B, 2n, n-1) cells
    by facet label, the root's at the origin, and a (B,) mask of the rows
    that are such a tree: every facet reaches the root by stepping to
    parents, and every child sits in a directional slot of its parent's
    orientation (so no facet hangs from itself or its antipode).  The cells
    of a row outside the mask are meaningless.  `start` must keep each
    label and its antipode in a pair of slots 2k and 2k+1, as every
    orientation rolled from `initial_state` does.

    Facet v of tree b is flat row v*B + b, so the cells come back as a view
    whose reductions over facets run along whole rows.  Each round places,
    in all B trees at once, every facet whose parent is placed: the facets
    of one depth.  A facet's orientation is kept per axis, as the slot of
    the axis's unstarred label; the starred label sits in that slot xor 1.
    A child's slot s in its parent's orientation is then one gather, and
    rolling toward it (`_roll_rows`) moves two axes: the child's to the
    base and the parent's to slot s xor 1.  Every other axis keeps its slot.
    """
    n = start.n
    parents = np.asarray(parents, _index_dtype(n))
    B, two_n = parents.shape
    rows = B * two_n
    p = parents.T
    star = (np.arange(two_n) >= n).astype(p.dtype)
    axis = np.arange(two_n)[:, None] % n
    own = np.arange(rows).reshape(two_n, B)
    # the parent's row; a last row that is never placed stands for parent -1
    up = p.astype(np.intp) * B + np.arange(B)
    up[p < 0] = rows
    # flat indices into the orientations: the child's axis in its parent's
    # and in its own, and its parent's axis in its own
    look = (up * n + axis).ravel()
    child_axis = (own * n + axis).ravel()
    parent_axis = (own * n + p % n).ravel()
    up = up.ravel()
    # the roll puts the child's unstarred label in slot star and the
    # parent's in slot s xor 1 xor star
    child_star = np.repeat(star, B)
    parent_flip = 1 ^ star[p].ravel()
    root = own[start.slots[0]]
    placed = np.zeros(rows + 1, bool)
    placed[root] = True
    orient = np.empty((rows, n), p.dtype)
    orient[root] = [start.slots.index(a) for a in range(n)]
    cells = np.zeros((rows, n - 1), p.dtype)
    steps = _slot_steps(n)
    # each facet's slot in its parent's orientation; the root's rows keep 2
    slot = np.full(rows, 2, p.dtype)
    flat_orient = orient.reshape(-1)
    # whole rows move as single void items, which numpy copies faster than
    # rows of small integers
    orient_rows = orient.view(np.dtype((np.void, orient.itemsize * n))).ravel()
    cell_rows = cells.view(np.dtype((np.void, cells.itemsize * (n - 1)))).ravel()
    while True:
        i = np.flatnonzero(placed[up] > placed[:-1])
        if not len(i):
            break
        u = up[i]
        v_star = child_star[i]
        s = flat_orient[look[i]] ^ v_star
        orient_rows[i] = orient_rows[u]
        flat_orient[child_axis[i]] = v_star
        flat_orient[parent_axis[i]] = s ^ parent_flip[i]
        step = cells.take(u, 0)
        step += steps.take(s, 0)
        cell_rows[i] = step.view(cell_rows.dtype).ravel()
        slot[i] = s
        placed[i] = True
    ok = placed[:-1].reshape(two_n, B).all(0) & (slot.reshape(two_n, B) >= 2).all(0)
    return cells.reshape(two_n, B, n - 1).transpose(1, 0, 2), ok


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
