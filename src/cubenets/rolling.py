"""Rolling the n-cube across the floor of lattice cells.

The cube's orientation records which facet label sits in each of its 2n
slots: the base (floor) facet, its antipode, and one slot per signed lattice
direction +-1..+-(n-1).  Rolling in direction d is a 4-cycle on the slots
{base, +d, base*, -d}; every other slot keeps its label.  Developing a roll
word or a spanning tree repeats that move, dropping each facet onto the
lattice cell where it first becomes the base.

One engine does the developing: `_roll_in_place` turns a mutable slot list,
and `develop_path`, `RollSequence.develop` and `develop_tree` all call it.
The immutable `RollState` with `roll` and `initial_state` is the reference
that the tests check the engine against; `initial_state` also fixes every
development's start orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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


def _slot_direction(slot: int) -> int:
    # inverse of _slot_index for slot >= 2
    return slot // 2 if slot % 2 == 0 else -(slot // 2)


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

    def slot(self, d: int) -> FacetLabel:
        """Label currently in directional slot d (signed)."""
        _check_direction(self.n, d)
        return FacetLabel.from_index(self.slots[_slot_index(d)], self.n)

    def find(self, label: FacetLabel) -> int:
        """Slot index holding the given label."""
        return self.slots.index(label.index(self.n))

    def is_coherent(self) -> bool:
        """Slots hold each label once, antipodal labels in opposite slots."""
        n = self.n
        if sorted(self.slots) != list(range(2 * n)):
            return False
        return all(
            self.slots[2 * k + 1] == antipode_index(self.slots[2 * k], n)
            for k in range(n)
        )


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


def roll(state: RollState, d: int) -> RollState:
    """Tip the cube one cell in direction d.

    The facet toward d becomes the base; the old base swings up opposite d,
    so walking back with roll(-d) undoes the move exactly.
    """
    _check_direction(state.n, d)
    s = list(state.slots)
    p, m = _slot_index(d), _slot_index(-d)
    s[0], s[p], s[1], s[m] = s[p], s[1], s[m], s[0]
    if s[1] != antipode_index(s[0], state.n):
        raise RuntimeError(f"roll {d} broke antipodality: slots {s}")
    return RollState(state.n, tuple(s))


def _roll_in_place(slots: list[int], d: int) -> None:
    """Tip the cube in direction d by permuting the slot list in place:
    base <- +d <- base* <- -d <- base, the same 4-cycle as `roll`."""
    p = _slot_index(d)
    m = p ^ 1
    slots[0], slots[p], slots[1], slots[m] = slots[p], slots[1], slots[m], slots[0]


@dataclass(frozen=True)
class RollSequence:
    """A start orientation plus a word of signed directions."""

    n: int
    start: RollState
    moves: tuple[int, ...]

    def develop(self) -> "Development":
        return _develop_word(self.n, self.start.slots, self.moves)


@dataclass(frozen=True)
class Development:
    """Facets dropped onto lattice cells, in visiting order.

    order[k] is the k-th facet placed (label index), coords[k] its cell,
    parents[k] the label it unfolded from (-1 for the base), and
    entry_dirs[k] the signed direction of that unfolding (0 for the base).
    """

    n: int
    order: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]
    parents: tuple[int, ...]
    entry_dirs: tuple[int, ...]

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

    def coord_of(self, label: FacetLabel) -> tuple[int, ...]:
        i = self.order.index(label.index(self.n))
        return self.coords[i]

    def tree_edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for lab, par in zip(self.order, self.parents):
            if par >= 0:
                out.append((min(lab, par), max(lab, par)))
        return tuple(sorted(out))

    def subgraph(self, kind: str = "tree") -> SpanningSubgraph:
        return SpanningSubgraph(self.n, kind, self.tree_edges())

    def root_path(self, label: FacetLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Labels and entry directions from the base to the given facet."""
        pos = {lab: k for k, lab in enumerate(self.order)}
        k = pos[label.index(self.n)]
        labels, dirs = [], []
        while k >= 0:
            labels.append(self.order[k])
            d = self.entry_dirs[k]
            par = self.parents[k]
            if par < 0:
                break
            dirs.append(d)
            k = pos[par]
        labels.reverse()
        dirs.reverse()
        return tuple(labels), tuple(dirs)


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


def _develop_word(n: int, start_slots, dirs) -> Development:
    two_n = 2 * n
    slots = list(start_slots)
    base = slots[0]
    order = [base]
    coords = [(0,) * (n - 1)]
    parents = [-1]
    entry = [0]
    placed = [False] * two_n
    placed[base] = True
    pos = [0] * (n - 1)
    for step, d in enumerate(dirs):
        _check_direction(n, d)
        _roll_in_place(slots, d)
        new_base = slots[0]
        if slots[1] != antipode_index(new_base, n):
            raise RuntimeError(f"roll {d} at step {step} broke antipodality")
        if placed[new_base]:
            raise RevisitError(FacetLabel.from_index(new_base, n), step)
        placed[new_base] = True
        if d > 0:
            pos[d - 1] += 1
        else:
            pos[-d - 1] -= 1
        order.append(new_base)
        coords.append(tuple(pos))
        parents.append(base)
        entry.append(d)
        base = new_base
    return Development(n, tuple(order), tuple(coords), tuple(parents), tuple(entry))


def develop_path(n: int, base: FacetLabel, dirs) -> Development:
    """Roll from the start orientation through a word of directions, placing
    each facet as it lands.  Words shorter than 2n-1 leave the development
    partial; revisits raise RevisitError."""
    return _develop_word(n, initial_state(n, base).slots, dirs)


def develop_tree(
    tree: SpanningSubgraph,
    base: FacetLabel,
    *,
    child_order: Optional[Callable] = None,
) -> Development:
    """Unfold a validated spanning tree by depth-first rolling from base.

    Each tree child of the current facet sits in some directional slot; the
    cube rolls that way to place the child, then rolls back.  The resulting
    placement does not depend on the order children are visited, so
    child_order (a callable mapping (parent label index, children tuple) to
    an ordering) only reshuffles the traversal, never the cells.
    """
    if tree.kind == "cycle":
        raise ValueError("cannot develop a cycle; delete an edge first")
    problem = validate(tree)
    if problem is not None:
        raise ValueError(f"invalid {tree.kind}: {problem}")
    n = tree.n
    two_n = 2 * n
    b = base.index(n)

    adj = [[] for _ in range(two_n)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    for row in adj:
        row.sort()

    slots = list(initial_state(n, base).slots)
    order = [b]
    coords = [(0,) * (n - 1)]
    parents = [-1]
    entry = [0]
    placed = [False] * two_n
    placed[b] = True
    pos = [0] * (n - 1)

    def visit(lab):
        children = [c for c in adj[lab] if not placed[c]]
        if child_order is not None:
            children = list(child_order(lab, tuple(children)))
        for c in children:
            if placed[c]:
                continue
            slot = slots.index(c)
            if slot < 2:
                raise RuntimeError(
                    f"tree child {c} of {lab} sits at the base antipode"
                )
            d = _slot_direction(slot)
            axis = abs(d) - 1
            step = 1 if d > 0 else -1
            pos[axis] += step
            placed[c] = True
            order.append(c)
            coords.append(tuple(pos))
            parents.append(lab)
            entry.append(d)
            _roll_in_place(slots, d)
            visit(c)
            _roll_in_place(slots, -d)
            pos[axis] -= step

    visit(b)
    return Development(
        n, tuple(order), tuple(coords), tuple(parents), tuple(entry)
    )


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
        d = dev.entry_dirs[k]
        along = used[dev.parents[k]]
        if -d in along:
            return dev.root_path(FacetLabel.from_index(lab, dev.n))
        used[lab] = along | {d}
    return None
