"""Set systems with the symmetric exchange property.

A set system is a finite ground set with a nonempty family of subsets.
It satisfies symmetric exchange when for all members X, Y and any x in
their symmetric difference there is a y in that difference (y = x is
allowed) with X delta {x, y} again a member.  Families are stored as int
bitmasks over the sorted ground set, which keeps the axiom check, twists,
summands, and the sortability search cheap at desk scale.

Two constructions tie these systems back to the graph machinery: from a
looped graph, membership means the induced adjacency submatrix is
invertible over GF(2); from a supplementary pair of circuit partitions,
membership means switching the first partition's routes exactly on the
subset yields an Euler system.  The two constructions agree on a circle
graph and its source partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fourreg import CircuitPartition, FourRegularGraph, is_euler_system, supplementary
from .graphs import LoopedGraph, adjacency_matrix, gf2_rank

GROUND_CAP = 16


@dataclass(frozen=True)
class SetSystem:
    """Ground elements with a family of subsets, held as bitmasks."""

    ground: tuple[int, ...]
    masks: frozenset[int]

    def __post_init__(self):
        if tuple(sorted(set(self.ground))) != self.ground:
            raise ValueError("ground must be sorted and distinct")
        if not self.masks:
            raise ValueError("the family must be nonempty")
        full = (1 << len(self.ground)) - 1
        for m in self.masks:
            if m & ~full:
                raise ValueError("family member leaves the ground set")

    def size(self) -> int:
        return len(self.ground)

    def sets(self) -> frozenset[frozenset[int]]:
        return frozenset(self._unmask(m) for m in self.masks)

    def _unmask(self, mask: int) -> frozenset[int]:
        return frozenset(
            self.ground[i] for i in range(len(self.ground)) if mask >> i & 1
        )

    def _mask(self, subset) -> int:
        pos = {e: i for i, e in enumerate(self.ground)}
        mask = 0
        for e in subset:
            if e not in pos:
                raise ValueError("element %r outside the ground set" % (e,))
            mask |= 1 << pos[e]
        return mask

    def contains(self, subset) -> bool:
        return self._mask(subset) in self.masks

    def to_json(self) -> dict:
        return {
            "ground": list(self.ground),
            "family": sorted(sorted(s) for s in self.sets()),
        }


def set_system(ground, family) -> SetSystem:
    """Build a SetSystem from element iterables."""
    ground = tuple(sorted(set(ground)))
    pos = {e: i for i, e in enumerate(ground)}
    masks = set()
    for s in family:
        mask = 0
        for e in s:
            if e not in pos:
                raise ValueError("element %r outside the ground set" % (e,))
            mask |= 1 << pos[e]
        masks.add(mask)
    return SetSystem(ground, frozenset(masks))


def is_delta_matroid(d: SetSystem) -> bool:
    """Exhaustive symmetric exchange check; refuses grounds above GROUND_CAP."""
    if d.size() > GROUND_CAP:
        raise ValueError("ground too large for the exhaustive check")
    masks = d.masks
    for x_set in masks:
        for y_set in masks:
            diff = x_set ^ y_set
            rest = diff
            while rest:
                bit = rest & -rest
                rest ^= bit
                if x_set ^ bit in masks:
                    continue
                probe = diff ^ bit
                ok = False
                while probe:
                    other = probe & -probe
                    probe ^= other
                    if x_set ^ bit ^ other in masks:
                        ok = True
                        break
                if not ok:
                    return False
    return True


def twist(d: SetSystem, subset) -> SetSystem:
    """Symmetric difference of every member with the given subset."""
    t = d._mask(subset)
    return SetSystem(d.ground, frozenset(m ^ t for m in d.masks))


def from_graph(h: LoopedGraph) -> SetSystem:
    """Members are the vertex sets whose induced submatrix is invertible.

    The empty set is always a member (an empty matrix is invertible), so
    the result is in normal form.
    """
    if len(h.vertices) > GROUND_CAP:
        raise ValueError("graph too large for subset enumeration")
    full = adjacency_matrix(h)
    n = full.size()
    members = set()
    for mask in range(1 << n):
        rows = []
        for i in range(n):
            if mask >> i & 1:
                rows.append(full.rows[i] & mask)
        # invertible iff full rank after restricting columns to the subset
        if gf2_rank(rows) == mask.bit_count():
            members.add(mask)
    return SetSystem(h.vertices, frozenset(members))


def from_partitions(
    g: FourRegularGraph, p1: CircuitPartition, p2: CircuitPartition
) -> SetSystem:
    """Members are the vertex sets where switching p1 to p2 stays Eulerian."""
    if g.n_vertices > GROUND_CAP:
        raise ValueError("graph too large for subset enumeration")
    if not supplementary(p1, p2):
        raise ValueError("partitions are not supplementary")
    members = set()
    for mask in range(1 << g.n_vertices):
        routes = tuple(
            p2.routes[v] if mask >> v & 1 else p1.routes[v]
            for v in range(g.n_vertices)
        )
        if is_euler_system(g, CircuitPartition(routes)):
            members.add(mask)
    return SetSystem(tuple(range(g.n_vertices)), frozenset(members))


def is_even(d: SetSystem) -> bool:
    """All members share the parity of their size."""
    parities = {m.bit_count() & 1 for m in d.masks}
    return len(parities) <= 1


def _restrict(d: SetSystem, keep_mask: int) -> SetSystem:
    """Project the family onto the kept positions, renumbering bits."""
    kept = [i for i in range(len(d.ground)) if keep_mask >> i & 1]
    ground = tuple(d.ground[i] for i in kept)
    remap = {}
    for new, old in enumerate(kept):
        remap[old] = new
    members = set()
    for m in d.masks:
        out = 0
        for old, new in remap.items():
            if m >> old & 1:
                out |= 1 << new
        members.add(out)
    return SetSystem(ground, frozenset(members))


def summands(d: SetSystem) -> tuple[SetSystem, ...]:
    """Finest direct-sum decomposition; connected iff one summand."""
    if not d.ground:
        return ()
    pieces = []
    ground_mask = (1 << len(d.ground)) - 1
    masks = d.masks
    while ground_mask:
        anchor = ground_mask & -ground_mask
        block = _minimal_factor(masks, ground_mask, anchor)
        pieces.append(block)
        ground_mask ^= block
        masks = frozenset(m & ground_mask for m in masks)
    return tuple(_restrict(d, block) for block in pieces)


def _minimal_factor(masks: frozenset[int], ground_mask: int, anchor: int) -> int:
    """Smallest anchor-containing block whose projection factors the family.

    The family always sits inside the product of its two projections, so
    the product equals the family exactly when the sizes match.
    """
    bits = [1 << i for i in range(ground_mask.bit_length()) if ground_mask >> i & 1]
    others = [b for b in bits if b != anchor]
    total = len(masks)
    for size in range(len(others) + 1):
        for block in _combination_masks(others, size):
            block |= anchor
            rest = ground_mask ^ block
            if rest == 0:
                return block
            proj_a = {m & block for m in masks}
            proj_b = {m & rest for m in masks}
            if len(proj_a) * len(proj_b) == total:
                return block
    return ground_mask


def _combination_masks(bits: list[int], size: int):
    from itertools import combinations

    for combo in combinations(bits, size):
        out = 0
        for b in combo:
            out |= b
        yield out


def max_sets(d: SetSystem) -> frozenset[int]:
    """Masks of members maximal under inclusion."""
    out = set()
    for m in d.masks:
        if not any(other != m and other & m == m for other in d.masks):
            out.add(m)
    return frozenset(out)


def find_full_lc_sequence_for(d: SetSystem) -> tuple[int, ...] | None:
    """Search for an elementwise chain from the empty set to a maximal one."""
    if 0 not in d.masks:
        return None
    maxima = max_sets(d)
    n = len(d.ground)
    parent: dict[int, tuple[int, int]] = {0: (-1, -1)}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            if mask in maxima:
                return _chain_elements(d, parent, mask)
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                grown = mask | bit
                if grown in d.masks and grown not in parent:
                    parent[grown] = (mask, i)
                    nxt.append(grown)
        frontier = nxt
    return None


def _chain_elements(d, parent, mask) -> tuple[int, ...]:
    order = []
    while mask:
        mask, i = parent[mask]
        order.append(d.ground[i])
    return tuple(reversed(order))


def has_full_lc_sequence_for(d: SetSystem) -> bool:
    """True iff a chain from the empty member to a maximal member exists."""
    return find_full_lc_sequence_for(d) is not None
