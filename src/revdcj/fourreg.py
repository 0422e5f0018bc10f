"""4-regular multigraphs with half-edge structure and circuit partitions.

Every vertex owns four half-edge slots, numbered 0..3; globally slot
``4*v + s`` is slot s of vertex v.  An edge is an unordered pair of slots
(a loop pairs two slots of the same vertex), and the edge set is a perfect
matching on all slots.  A circuit partition assigns each vertex a route,
one of the three perfect matchings on its four slots; following edges and
routes alternately decomposes the edge set into closed circuits.
``circuits`` gives each one as its edge ids in least form over rotation
and reflection (``perm.least_rotation`` on both directions).

A route is an XOR mask: route r in {1, 2, 3} pairs slot s with slot
``s ^ r`` (1: 0-1 and 2-3, 2: 0-2 and 1-3, 3: 0-3 and 1-2), so the route
that pairs slots a and b of one vertex is ``a ^ b``, and r is also the
slot paired with slot 0.

The two encodings at the end turn a signed permutation (circularize with
an anchor, insert intermediate segments) or a pair of all-circular genomes
(insert intermediates only) into such a graph together with the circuit
partition of the source chromosome(s) and the supplementary partition
whose real-segment circuits spell the target.  Both lay out slots and
target routes the same way, from closed junction sequences (``_expand``);
a genome's junctions are read with ``perm.Chromosome.junctions``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .perm import CIRCULAR, Genome, SignedPermutation, least_rotation

ANCHOR = "anchor"
REAL = "real"
INTERMEDIATE = "intermediate"

@dataclass(frozen=True)
class FourRegularGraph:
    """A 4-regular multigraph as a perfect matching on half-edge slots."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    edge_labels: tuple[str, ...] = ()
    vertex_labels: tuple[str, ...] = ()
    edge_kinds: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.edges) * 2 != 4 * self.n_vertices:
            raise ValueError("edge count must be 2 * vertex count")
        seen = set()
        for a, b in self.edges:
            for s in (a, b):
                if not 0 <= s < 4 * self.n_vertices:
                    raise ValueError("slot %d out of range" % s)
                if s in seen:
                    raise ValueError("slot %d matched twice" % s)
                seen.add(s)
        if not self.edge_labels:
            object.__setattr__(
                self, "edge_labels", tuple("e%d" % i for i in range(len(self.edges)))
            )
        if not self.vertex_labels:
            object.__setattr__(
                self, "vertex_labels", tuple("u%d" % v for v in range(self.n_vertices))
            )
        if not self.edge_kinds:
            object.__setattr__(self, "edge_kinds", (REAL,) * len(self.edges))

    @property
    def n_slots(self) -> int:
        return 4 * self.n_vertices

    def slot_partner(self) -> tuple[int, ...]:
        """The slot each slot is matched to; computed once per graph."""
        return self._slot_partner

    @cached_property
    def _slot_partner(self) -> tuple[int, ...]:
        partner = [0] * self.n_slots
        for a, b in self.edges:
            partner[a], partner[b] = b, a
        return tuple(partner)

    def edge_of_slot(self) -> list[int]:
        owner = [0] * self.n_slots
        for i, (a, b) in enumerate(self.edges):
            owner[a] = owner[b] = i
        return owner

    def n_components(self) -> int:
        """Connected components; counted once per graph."""
        return self._n_components

    @cached_property
    def _n_components(self) -> int:
        roots = union_find(self.n_vertices, ((a // 4, b // 4) for a, b in self.edges))
        return len(set(roots))


def union_find(n: int, pairs) -> list[int]:
    """The root of each of 0..n-1 once every given pair is joined."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
    return [find(x) for x in range(n)]


@dataclass(frozen=True)
class CircuitPartition:
    """Per-vertex routes as XOR masks: route r pairs slot s with s ^ r.

    The code of the route pairing slots a and b of a vertex is a ^ b; it is
    also the slot that the route pairs with slot 0.
    """

    routes: tuple[int, ...]

    def __post_init__(self):
        for r in self.routes:
            if r not in (1, 2, 3):
                raise ValueError("route code must be 1, 2, or 3")


def _slot_walk(g: FourRegularGraph, p: CircuitPartition):
    """Yield each circuit once, as the list of (arrive_slot, depart_slot) steps."""
    if len(p.routes) != g.n_vertices:
        raise ValueError("partition does not match graph")
    partner = g.slot_partner()
    routes = p.routes
    route_partner = [s ^ routes[s >> 2] for s in range(g.n_slots)]
    visited = [False] * g.n_slots
    for start in range(g.n_slots):
        if visited[start]:
            continue
        steps = []
        cur = start
        while not visited[cur]:
            visited[cur] = True
            dep = route_partner[cur]
            visited[dep] = True
            steps.append((cur, dep))
            cur = partner[dep]
        yield steps


def circuits(g: FourRegularGraph, p: CircuitPartition) -> tuple[tuple[int, ...], ...]:
    """Decompose the edges into circuits by alternating edges with routes.

    Each circuit is the least of its edge-id sequences over rotation and
    reflection, and the circuits come sorted.
    """
    owner = g.edge_of_slot()
    forms = []
    for steps in _slot_walk(g, p):
        ids = tuple(owner[dep] for _, dep in steps)
        forms.append(min(least_rotation(ids), least_rotation(ids[::-1])))
    return tuple(sorted(forms))


def is_euler_system(g: FourRegularGraph, p: CircuitPartition) -> bool:
    """True iff the partition has exactly one circuit per connected component."""
    return sum(1 for _ in _slot_walk(g, p)) == g.n_components()


def supplementary(p1: CircuitPartition, p2: CircuitPartition) -> bool:
    """True iff the two partitions take a different route at every vertex."""
    if len(p1.routes) != len(p2.routes):
        raise ValueError("partitions live on different graphs")
    return all(a != b for a, b in zip(p1.routes, p2.routes))


def switch_route(
    p: CircuitPartition, v: int, target: CircuitPartition
) -> CircuitPartition:
    """Replace the route at v with target's route there."""
    if not 0 <= v < len(p.routes):
        raise ValueError("unknown vertex %r" % (v,))
    routes = list(p.routes)
    routes[v] = target.routes[v]
    return CircuitPartition(tuple(routes))


@dataclass(frozen=True)
class PermEncoding:
    """A 4-regular multigraph with the source and target circuit partitions.

    pa follows the source traversal, one circuit per source chromosome
    (an Euler system for permutation encodings, whose graph is connected
    with a single circularized chromosome); pb is the supplementary
    partition whose real-segment circuits spell the target.  For
    permutation encodings, junction_sequence[t] is the vertex label index
    of the junction after traversal segment t, so each vertex appears at
    exactly two positions.
    """

    graph: FourRegularGraph
    pa: CircuitPartition
    pb: CircuitPartition
    n: int
    junction_sequence: tuple[int, ...] = field(default=(), compare=False)


def target_circuit_count(g: FourRegularGraph, pb: CircuitPartition) -> int:
    """The number of pb circuits made of intermediate segments only."""
    kinds = g.edge_kinds
    owner = g.edge_of_slot()
    return sum(
        all(kinds[owner[dep]] == INTERMEDIATE for _, dep in steps)
        for steps in _slot_walk(g, pb)
    )


def _expand(cycles, n_vertices: int):
    """Edges and target (pb) routes for closed junction sequences.

    Each cycle lists the vertex at the junction after each of its
    segments; even segments are real (or the anchor), odd ones
    intermediate.  A junction's incoming slot is 4v on v's first visit and
    4v + 2 on its second, and its outgoing slot is the next one up, so
    segment t joins the outgoing slot of junction t - 1 to the incoming
    slot of junction t.  pb pairs the two real ends at every vertex: the
    incoming slot after a real segment, the outgoing slot after an
    intermediate one.
    """
    second = [False] * n_vertices
    pb_routes = [0] * n_vertices
    edges = []
    for cycle in cycles:
        base = []
        for t, v in enumerate(cycle):
            slot = 4 * v + 2 * second[v]
            second[v] = True
            base.append(slot)
            pb_routes[v] ^= slot + (t & 1)
        edges += ((base[t - 1] + 1, base[t]) for t in range(len(cycle)))
    return tuple(edges), CircuitPartition(tuple(pb_routes))


def encode_permutation(p: SignedPermutation) -> PermEncoding:
    """Build the 4-regular multigraph of a signed permutation.

    The chromosome is circularized with an anchor segment and an
    intermediate segment is inserted at every junction, so the traversal
    reads anchor, I1, s1, I2, s2, ..., sn, I(n+1) cyclically.  Junctions
    between segments are labeled v0..vn (the junction where the head of
    segment i will meet the tail of segment i+1 is vi, with the anchor
    standing in for segment 0 and segment n+1), and same-labeled junctions
    merge into one vertex of degree 4.
    """
    n = len(p)
    edge_labels = ["$"]
    edge_kinds = [ANCHOR]
    junction = [0]
    for i, k in enumerate(p.values, start=1):
        edge_labels += ("I%d" % i, str(abs(k)))
        edge_kinds += (INTERMEDIATE, REAL)
        # tail side of real segment i, then its head side
        junction += (k - 1, k) if k > 0 else (-k, -k - 1)
    edge_labels.append("I%d" % (n + 1))
    edge_kinds.append(INTERMEDIATE)
    junction.append(n)

    edges, pb = _expand([junction], n + 1)
    graph = FourRegularGraph(
        n_vertices=n + 1,
        edges=edges,
        edge_labels=tuple(edge_labels),
        vertex_labels=tuple("v%d" % v for v in range(n + 1)),
        edge_kinds=tuple(edge_kinds),
    )
    pa = CircuitPartition((1,) * (n + 1))
    return PermEncoding(graph, pa, pb, n, tuple(junction))


def encode_circular_genomes(ga: Genome, gb: Genome) -> PermEncoding:
    """Encode two all-circular genomes over the same markers.

    Expansion inserts an intermediate segment at every junction of ga; the
    merged vertices are the adjacencies of gb, each holding two marker
    extremities.  pb pairs the marker ends at every vertex, so its real
    circuits spell gb's chromosomes and every other circuit is a cycle of
    intermediates; their count c gives the DCJ distance as n - c.
    """
    for g in (ga, gb):
        for chrom in g.chromosomes:
            if chrom.shape != CIRCULAR:
                raise ValueError("encoding requires all-circular chromosomes")
    if ga.marker_names() != gb.marker_names():
        raise ValueError("marker sets differ")

    vertices = sorted(
        {tuple(sorted(adj)) for c in gb.chromosomes for adj in c.junctions()}
    )
    vertex_of = {ext: v for v, adj in enumerate(vertices) for ext in adj}

    # junction after marker i, then after the intermediate that follows it
    cycles = [
        [vertex_of[ext] for adj in chrom.junctions() for ext in adj]
        for chrom in ga.chromosomes
    ]
    edges, pb = _expand(cycles, len(vertices))

    edge_labels = []
    for chrom in ga.chromosomes:
        for name, _ in chrom.markers:
            edge_labels += (name, "I%d" % (len(edge_labels) // 2 + 1))
    graph = FourRegularGraph(
        n_vertices=len(vertices),
        edges=edges,
        edge_labels=tuple(edge_labels),
        vertex_labels=tuple(
            ",".join("%s.%s" % (m, side[0]) for m, side in adj) for adj in vertices
        ),
        edge_kinds=(REAL, INTERMEDIATE) * (len(edges) // 2),
    )
    pa = CircuitPartition((1,) * len(vertices))
    return PermEncoding(graph, pa, pb, len(ga.marker_names()))


# ---------------------------------------------------------------------------
# seeded random generators for the property-test harness


def random_four_regular(n_vertices: int, seed: int) -> FourRegularGraph:
    """Configuration-model pairing of all slots; loops and multi-edges allowed."""
    if n_vertices < 0:
        raise ValueError("vertex count %d is negative" % n_vertices)
    rng = random.Random(seed)
    slots = list(range(4 * n_vertices))
    rng.shuffle(slots)
    edges = tuple(
        (slots[2 * i], slots[2 * i + 1]) for i in range(2 * n_vertices)
    )
    return FourRegularGraph(n_vertices=n_vertices, edges=edges)


def random_euler_system(g: FourRegularGraph, seed: int) -> CircuitPartition:
    """A seeded Euler system, one random Eulerian circuit per component."""
    rng = random.Random(seed)
    partner = g.slot_partner()
    avail = [set(range(4 * v, 4 * v + 4)) for v in range(g.n_vertices)]
    routes = [0] * g.n_vertices

    def subtour(v: int) -> list[tuple[int, int]]:
        path = []
        cur = v
        while avail[cur]:
            dep = rng.choice(sorted(avail[cur]))
            avail[cur].remove(dep)
            arr = partner[dep]
            avail[arr // 4].remove(arr)
            path.append((dep, arr))
            cur = arr // 4
        if cur != v:
            raise AssertionError("open trail in an even-degree multigraph")
        return path

    for start in range(g.n_vertices):
        if not avail[start]:
            continue
        tour = subtour(start)
        i = 0
        while i < len(tour):
            at = tour[i][1] // 4
            if avail[at]:
                tour[i + 1 : i + 1] = subtour(at)
            else:
                i += 1
        # each arrival is paired with the next departure; a vertex's two
        # visits pair its four slots, and either pair gives the route
        for i in range(len(tour)):
            arr = tour[i][1]
            routes[arr >> 2] = arr ^ tour[(i + 1) % len(tour)][0]

    p = CircuitPartition(tuple(routes))
    if not is_euler_system(g, p):
        raise AssertionError("generated partition is not an Euler system")
    return p


def random_supplementary(
    g: FourRegularGraph, p: CircuitPartition, seed: int
) -> CircuitPartition:
    """A seeded partition taking one of the two other routes at every vertex."""
    rng = random.Random(seed)
    routes = tuple(
        rng.choice([r for r in (1, 2, 3) if r != p.routes[v]])
        for v in range(g.n_vertices)
    )
    return CircuitPartition(routes)


# ---------------------------------------------------------------------------
# exports


def graph_to_dot(g: FourRegularGraph, partition: CircuitPartition) -> str:
    """DOT rendering with edges colored by their circuit in the partition."""
    palette = (
        "black red blue darkgreen orange purple brown cadetblue "
        "deeppink gray goldenrod"
    ).split()
    color = {}
    for ci, c in enumerate(circuits(g, partition)):
        for e in c:
            color[e] = palette[ci % len(palette)]
    lines = ["graph fourreg {"]
    for v in range(g.n_vertices):
        lines.append('  n%d [label="%s"];' % (v, g.vertex_labels[v]))
    for i, (a, b) in enumerate(g.edges):
        lines.append(
            '  n%d -- n%d [label="%s", color=%s];'
            % (a // 4, b // 4, g.edge_labels[i], color[i])
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
