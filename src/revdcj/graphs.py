"""Looped simple graphs and their GF(2) adjacency matrices.

The circle graph of an Euler system records which vertex pairs interleave
along the Eulerian circuits; a vertex carries a loop when switching its
route to the supplementary partition's yields another Euler system.  Rank
and nullity of the adjacency matrix over GF(2) drive the distance bounds,
so the matrix type keeps rows as int bitmasks and does Gaussian
elimination directly on them.

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

from .fourreg import (  # noqa: F401  circuits stays importable from this module
    CircuitPartition,
    FourRegularGraph,
    circuits,
    supplementary,
    _ROUTE_MATE,
    _slot_walk,
)


@dataclass(frozen=True)
class LoopedGraph:
    """An undirected graph on integer vertices; size-1 edges are loops."""

    vertices: tuple[int, ...]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        if tuple(sorted(set(self.vertices))) != self.vertices:
            raise ValueError("vertices must be sorted and distinct")
        if not set(map(len, self.edges)) <= {1, 2}:
            raise ValueError("edges join one or two vertices")
        vs = frozenset(self.vertices)
        if not vs.issuperset(frozenset().union(*self.edges)):
            bad = next(e for e in self.edges if not e <= vs)
            raise ValueError("edge %r leaves the vertex set" % (set(bad),))

    @cached_property
    def _lookup(self) -> tuple[dict[int, frozenset[int]], frozenset[int]]:
        # neighbor sets and looped vertices, built once per graph
        hood: dict[int, set[int]] = {v: set() for v in self.vertices}
        loops = set()
        for e in self.edges:
            if len(e) == 1:
                loops.update(e)
            else:
                a, b = e
                hood[a].add(b)
                hood[b].add(a)
        return {v: frozenset(s) for v, s in hood.items()}, frozenset(loops)

    def has_loop(self, v: int) -> bool:
        return v in self._lookup[1]

    def neighbors(self, v: int) -> frozenset[int]:
        return self._lookup[0].get(v, frozenset())

    def looped_vertices(self) -> frozenset[int]:
        return self._lookup[1]

    def has_any_edge(self) -> bool:
        return bool(self.edges)


def looped_graph(vertices, edges) -> LoopedGraph:
    """Normalize arbitrary vertex/edge iterables into a LoopedGraph."""
    return LoopedGraph(
        tuple(sorted(set(vertices))), frozenset(frozenset(e) for e in edges)
    )


def induced_subgraph(h: LoopedGraph, keep) -> LoopedGraph:
    keep = frozenset(keep)
    if not keep <= set(h.vertices):
        raise ValueError("subgraph vertices must come from the graph")
    return LoopedGraph(
        tuple(sorted(keep)), frozenset(e for e in h.edges if e <= keep)
    )


def connected_components(h: LoopedGraph) -> tuple[frozenset[int], ...]:
    """Components under non-loop edges, sorted by least vertex."""
    root = {v: v for v in h.vertices}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for e in h.edges:
        if len(e) == 2:
            a, b = sorted(e)
            ra, rb = find(a), find(b)
            if ra != rb:
                root[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in h.vertices:
        groups.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


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
    """Adjacency over GF(2); loops put a 1 on the diagonal."""
    pos = {v: i for i, v in enumerate(h.vertices)}
    rows = [0] * len(h.vertices)
    for e in h.edges:
        if len(e) == 1:
            (v,) = e
            rows[pos[v]] |= 1 << pos[v]
        else:
            a, b = e
            rows[pos[a]] |= 1 << pos[b]
            rows[pos[b]] |= 1 << pos[a]
    return Gf2Matrix(h.vertices, tuple(rows))


def matrix_pretty(m: Gf2Matrix, labels=None) -> str:
    """Bordered 0/1 layout with row and column labels."""
    if labels is None:
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
    looped = []
    for steps in _slot_walk(g, p1):
        # vertex -> (arrival slot, prefix just after) of its first visit
        first: dict[int, tuple[int, int]] = {}
        prefix = 0
        for arrive, _ in steps:
            v = arrive // 4
            if v in first:
                arrive_a, prefix_a = first.pop(v)
                rows[v] = prefix ^ prefix_a
                if _ROUTE_MATE[p2.routes[v]][arrive_a % 4] == arrive % 4:
                    looped.append(v)
            else:
                first[v] = (arrive, prefix ^ (1 << v))
            prefix ^= 1 << v
        if first:
            # a vertex left for another circuit of its component
            raise ValueError("p1 is not an Euler system")

    edges = {frozenset({v}) for v in looped}
    for u, row in enumerate(rows):
        row >>= u + 1
        w = u + 1
        while row:
            skip = (row & -row).bit_length() - 1
            w += skip
            edges.add(frozenset({u, w}))
            row >>= skip + 1
            w += 1
    return LoopedGraph(tuple(range(g.n_vertices)), frozenset(edges))


def looped_graph_to_dot(h: LoopedGraph, labels=None) -> str:
    if labels is None:
        labels = {v: "v%d" % v for v in h.vertices}
    lines = ["graph circle {"]
    for v in h.vertices:
        shape = "doublecircle" if h.has_loop(v) else "circle"
        lines.append('  n%d [label="%s", shape=%s];' % (v, labels[v], shape))
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
        "loops": sorted(v for v in h.vertices if h.has_loop(v)),
    }


def graph_from_json(data: dict) -> LoopedGraph:
    edges = [frozenset(e) for e in data["edges"]]
    edges += [frozenset({v}) for v in data["loops"]]
    return looped_graph(data["vertices"], edges)
