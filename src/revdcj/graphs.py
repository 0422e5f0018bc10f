"""Looped simple graphs as their GF(2) adjacency rows.

A looped graph is its adjacency matrix over GF(2): row i is an int
bitmask, bit j of it joins vertices i and j, and the diagonal bit is the
loop.  The circle graph of an Euler system records which vertex pairs
interleave along the Eulerian circuits; a vertex carries a loop when
switching its route to the supplementary partition's yields another Euler
system.  Rank and nullity of the rows drive the distance bounds, local
complementation is a row XOR (see ``localcomp``), and components come
from flood-filling row masks, so every layer reads the same rows.

``circle_graph`` reads both from one walk of each circuit.  Interleaved
vertices are those seen an odd number of times between a vertex's two
visits, so a prefix XOR of visit bits gives every adjacency row.  Whether
a vertex is looped depends only on the routes there: of the two routes
other than the walk's own, the one pairing the two arrival slots keeps a
single circuit and the other splits it in two.  The walk is O(L) steps for
L edges, and the rows cost O(L) XORs of n-bit integers, about n*L/64 word
operations, instead of one full circuit decomposition per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import verify
from .fourreg import (  # noqa: F401  circuits stays importable from this module
    CircuitPartition,
    FourRegularGraph,
    circuits,
    supplementary,
    _slot_walk,
)


def _bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class LoopedGraph:
    """An undirected graph on sorted integer vertices, held as GF(2) rows.

    Bit j of rows[i] joins vertices[i] and vertices[j]; bit i of rows[i]
    is the loop at vertices[i].  The rows must be symmetric.
    """

    vertices: tuple[int, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(set(self.vertices))) != self.vertices:
            raise ValueError("vertices must be sorted and distinct")
        if len(self.rows) != len(self.vertices):
            raise ValueError("one row per vertex")
        rows = self.rows
        outside = -1 << len(rows)
        # symmetric in O(n + |E|): every bit above the diagonal has its
        # mirror, and no more bits lie below the diagonal than above it
        upper = lower = 0
        for i, row in enumerate(rows):
            if row & outside:
                raise ValueError("row %d has a bit outside the vertex set" % i)
            above = row >> (i + 1)
            upper += above.bit_count()
            lower += (row & ((1 << i) - 1)).bit_count()
            while above:
                low = above & -above  # bit k of above is column i + 1 + k
                if not rows[i + low.bit_length()] >> i & 1:
                    raise ValueError("rows are not symmetric")
                above ^= low
        if upper != lower:
            raise ValueError("rows are not symmetric")

    @cached_property
    def edges(self) -> frozenset[frozenset[int]]:
        """Edges as vertex sets, derived from the rows; loops have size 1."""
        vs = self.vertices
        return frozenset(
            frozenset({vs[i], vs[i + k]})
            for i, row in enumerate(self.rows)
            for k in _bits(row >> i)
        )

    @property
    def loop_mask(self) -> int:
        """Bit i set iff vertices[i] carries a loop."""
        return sum(row & (1 << i) for i, row in enumerate(self.rows))

    def neighbors(self, v: int) -> frozenset[int]:
        i = self.vertices.index(v)
        return frozenset(self.vertices[j] for j in _bits(self.rows[i] & ~(1 << i)))

    def looped_vertices(self) -> frozenset[int]:
        return frozenset(self.vertices[i] for i in _bits(self.loop_mask))

    def has_any_edge(self) -> bool:
        return any(self.rows)


def looped_graph(vertices, edges) -> LoopedGraph:
    """Build a LoopedGraph from vertex and edge iterables (duplicates merge)."""
    vertices = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(vertices)}
    rows = [0] * len(vertices)
    for e in map(frozenset, edges):
        if len(e) not in (1, 2):
            raise ValueError("edges join one or two vertices")
        if not e <= pos.keys():
            raise ValueError("edge %r leaves the vertex set" % (set(e),))
        ends = [pos[v] for v in e]
        a, b = ends[0], ends[-1]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return LoopedGraph(vertices, tuple(rows))


def component_masks(h: LoopedGraph):
    """Row-position masks of the components under non-loop edges, in
    order of their lowest position; each is flood-filled by OR-ing rows."""
    rest = (1 << len(h.rows)) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= h.rows[i]
            frontier = reach & ~comp
            comp |= frontier
        rest ^= comp
        yield comp


@dataclass(frozen=True)
class Gf2Matrix:
    """A symmetric 0/1 matrix indexed by vertex ids; rows are int bitmasks."""

    index: tuple[int, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.index) != len(self.rows):
            raise ValueError("one row per index entry")

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def size(self) -> int:
        return len(self.index)

    def rank(self) -> int:
        return gf2_rank(self.rows)

    def nullity(self) -> int:
        return len(self.rows) - self.rank()


def gf2_rank(rows) -> int:
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def adjacency_matrix(h: LoopedGraph) -> Gf2Matrix:
    """Adjacency over GF(2): the graph's own rows, loops on the diagonal."""
    return Gf2Matrix(h.vertices, h.rows)


def matrix_pretty(m: Gf2Matrix) -> str:
    """Bordered 0/1 layout with rows and columns labelled v<id>."""
    labels = ["v%d" % v for v in m.index]
    width = max((len(s) for s in labels), default=1)
    header = " " * (width + 1) + " ".join(s.rjust(width) for s in labels)
    lines = [header]
    for i, lab in enumerate(labels):
        cells = " ".join(str(m.entry(i, j)).rjust(width) for j in range(m.size()))
        lines.append(lab.rjust(width) + " " + cells)
    return "\n".join(lines)


def circle_graph(
    g: FourRegularGraph, p1: CircuitPartition, p2: CircuitPartition
) -> LoopedGraph:
    """Interleavement graph of the Euler system p1, with loops from p2.

    Vertices u, w are adjacent when their visits interleave along p1's
    circuit through them (u w u w cyclically); u is looped when switching
    its route to p2's leaves an Euler system.

    One walk of each p1 circuit decides both.  With prefix[t] the XOR of
    1 << v over the first t visits, u's row is prefix[b] ^ prefix[a + 1]
    for its visits a < b: exactly the vertices seen once in between.  u is
    looped iff p2's route at u pairs the slots the walk arrives through on
    its two visits, the one switch that keeps u's circuit whole.  p1 is an
    Euler system iff every circuit visits each of its vertices twice.
    Cost: O(L) steps and XORs of n-bit rows for L edges and n vertices.
    """
    if not supplementary(p1, p2):
        raise ValueError("partitions are not supplementary")
    rows = [0] * g.n_vertices
    for steps in _slot_walk(g, p1):
        # vertex -> (arrival slot, prefix just after) of its first visit
        first: dict[int, tuple[int, int]] = {}
        prefix = 0
        for arrive, _ in steps:
            v = arrive // 4
            if v in first:
                arrive_a, prefix_a = first.pop(v)
                rows[v] = prefix ^ prefix_a
                if arrive_a ^ arrive == p2.routes[v]:
                    rows[v] |= 1 << v
            else:
                first[v] = (arrive, prefix ^ (1 << v))
            prefix ^= 1 << v
        if first:
            # a vertex left for another circuit of its component
            raise ValueError("p1 is not an Euler system")
    return verify.trusted(
        LoopedGraph, vertices=tuple(range(g.n_vertices)), rows=tuple(rows)
    )


def looped_graph_to_dot(h: LoopedGraph) -> str:
    looped = h.looped_vertices()
    lines = ["graph circle {"]
    for v in h.vertices:
        shape = "doublecircle" if v in looped else "circle"
        lines.append('  n%d [label="v%d", shape=%s];' % (v, v, shape))
    for e in sorted(h.edges, key=sorted):
        if len(e) == 2:
            a, b = sorted(e)
            lines.append("  n%d -- n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(h: LoopedGraph) -> dict:
    return {
        "vertices": list(h.vertices),
        "edges": sorted(sorted(e) for e in h.edges if len(e) == 2),
        "loops": sorted(h.looped_vertices()),
    }
