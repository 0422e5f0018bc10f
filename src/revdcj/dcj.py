"""Double cut and join distance between multichromosomal genomes.

A genome over a marker set is captured exactly by its adjacencies (pairs
of marker extremities that sit together) and telomeres (extremities at
linear chromosome ends).  A move cuts one or two breakpoints and rejoins
the loose ends one of two ways; cutting one adjacency and leaving both
ends loose is the fission case.  The distance is n - (c + i/2) where c
counts the cycles and i the odd-length paths of the bipartite graph whose
sides are the breakpoints of the two genomes and whose edges join the two
homes of each extremity.

For pairs of all-circular genomes the same number falls out of the
4-regular encoding as n minus the count of intermediate-only circuits;
that route is kept as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .fourreg import encode_circular_genomes, target_circuit_count, union_find
from .perm import CIRCULAR, LINEAR, Chromosome, Genome

HEAD = "head"
TAIL = "tail"


class Extremity(NamedTuple):
    marker: str
    side: str


def head(marker: str) -> Extremity:
    return Extremity(marker, HEAD)


def tail(marker: str) -> Extremity:
    return Extremity(marker, TAIL)


def _left_extremity(marker: str, sign: int) -> Extremity:
    return tail(marker) if sign > 0 else head(marker)


def _right_extremity(marker: str, sign: int) -> Extremity:
    return head(marker) if sign > 0 else tail(marker)


@dataclass(frozen=True)
class AdjacencySet:
    """Adjacencies and telomeres; a complete, order-free genome image."""

    adjacencies: frozenset[frozenset[Extremity]]
    telomeres: frozenset[Extremity]

    def __post_init__(self):
        seen: set[Extremity] = set()
        for adj in self.adjacencies:
            if len(adj) != 2:
                raise ValueError("an adjacency joins two extremities")
            for e in adj:
                if e in seen:
                    raise ValueError("extremity %r appears twice" % (e,))
                seen.add(e)
        for e in self.telomeres:
            if e in seen:
                raise ValueError("extremity %r appears twice" % (e,))
            seen.add(e)
        by_marker: dict[str, set[str]] = {}
        for e in seen:
            by_marker.setdefault(e.marker, set()).add(e.side)
        for marker, sides in by_marker.items():
            if sides != {HEAD, TAIL}:
                raise ValueError("marker %r is missing an extremity" % (marker,))

    def marker_names(self) -> frozenset[str]:
        names = {e.marker for adj in self.adjacencies for e in adj}
        names.update(e.marker for e in self.telomeres)
        return frozenset(names)

    def breakpoints(self) -> tuple[frozenset[Extremity], ...]:
        """All cut sites: adjacencies first, then telomeres, sorted."""
        adjs = sorted(self.adjacencies, key=lambda a: tuple(sorted(a)))
        tels = sorted(self.telomeres)
        return tuple(adjs) + tuple(frozenset({t}) for t in tels)


def adjacency_set(g: Genome) -> AdjacencySet:
    adjacencies = set()
    telomeres = set()
    for chrom in g.chromosomes:
        markers = chrom.markers
        k = len(markers)
        for i in range(k - 1):
            name, sign = markers[i]
            nxt_name, nxt_sign = markers[i + 1]
            adjacencies.add(
                frozenset(
                    {_right_extremity(name, sign), _left_extremity(nxt_name, nxt_sign)}
                )
            )
        if chrom.shape == CIRCULAR:
            name, sign = markers[-1]
            nxt_name, nxt_sign = markers[0]
            adjacencies.add(
                frozenset(
                    {_right_extremity(name, sign), _left_extremity(nxt_name, nxt_sign)}
                )
            )
        else:
            first_name, first_sign = markers[0]
            last_name, last_sign = markers[-1]
            telomeres.add(_left_extremity(first_name, first_sign))
            telomeres.add(_right_extremity(last_name, last_sign))
    return AdjacencySet(frozenset(adjacencies), frozenset(telomeres))


def genome_from_adjacency_set(adj: AdjacencySet) -> Genome:
    """Rebuild the genome; inverse of adjacency_set up to chromosome order."""
    neighbor: dict[Extremity, Extremity | None] = {}
    for pair in adj.adjacencies:
        a, b = pair
        neighbor[a], neighbor[b] = b, a
    for t in adj.telomeres:
        neighbor[t] = None

    def other_end(e: Extremity) -> Extremity:
        return Extremity(e.marker, TAIL if e.side == HEAD else HEAD)

    visited: set[str] = set()
    chromosomes = []
    for start in sorted(adj.telomeres):
        if start.marker in visited:
            continue
        markers = []
        cur = start
        while True:
            sign = 1 if cur.side == TAIL else -1
            markers.append((cur.marker, sign))
            visited.add(cur.marker)
            nxt = neighbor[other_end(cur)]
            if nxt is None:
                break
            cur = nxt
        chromosomes.append(Chromosome(LINEAR, tuple(markers)))

    for name in sorted(adj.marker_names()):
        if name in visited:
            continue
        start = tail(name)
        markers = []
        cur = start
        while True:
            sign = 1 if cur.side == TAIL else -1
            markers.append((cur.marker, sign))
            visited.add(cur.marker)
            cur = neighbor[other_end(cur)]
            if cur == start:
                break
        chromosomes.append(Chromosome(CIRCULAR, tuple(markers)))

    return Genome(tuple(chromosomes))


@dataclass(frozen=True)
class GraphComponent:
    kind: str  # "cycle" or "path"
    n_edges: int
    a_members: tuple[int, ...]
    b_members: tuple[int, ...]

    @property
    def odd(self) -> bool:
        return self.kind == "path" and self.n_edges % 2 == 1


@dataclass(frozen=True)
class AdjacencyGraph:
    """Bipartite graph joining the breakpoints of two genomes.

    Every extremity contributes one edge, between its breakpoint in each
    genome; adjacency nodes have degree two and telomere nodes degree one,
    so components are plain cycles and paths.
    """

    a_nodes: tuple[frozenset[Extremity], ...]
    b_nodes: tuple[frozenset[Extremity], ...]
    edges: tuple[tuple[int, int, Extremity], ...]
    components: tuple[GraphComponent, ...]

    @property
    def cycles(self) -> int:
        return sum(1 for c in self.components if c.kind == "cycle")

    @property
    def odd_paths(self) -> int:
        return sum(1 for c in self.components if c.odd)


def adjacency_graph(ga: Genome, gb: Genome) -> AdjacencyGraph:
    if ga.marker_names() != gb.marker_names():
        raise ValueError("marker sets differ")
    sa, sb = adjacency_set(ga), adjacency_set(gb)
    a_nodes = sa.breakpoints()
    b_nodes = sb.breakpoints()
    a_home = {e: i for i, node in enumerate(a_nodes) for e in node}
    b_home = {e: i for i, node in enumerate(b_nodes) for e in node}
    extremities = sorted(a_home)
    edges = tuple((a_home[e], b_home[e], e) for e in extremities)

    n_nodes = len(a_nodes) + len(b_nodes)
    roots = union_find(n_nodes, ((ai, len(a_nodes) + bi) for ai, bi, _ in edges))
    members: dict[int, list[int]] = {}
    for node, rep in enumerate(roots):
        members.setdefault(rep, []).append(node)
    edge_count: dict[int, int] = {}
    for ai, _, _ in edges:
        edge_count[roots[ai]] = edge_count.get(roots[ai], 0) + 1

    components = []
    for rep in sorted(members, key=lambda r: min(members[r])):
        nodes = members[rep]
        a_members = tuple(i for i in nodes if i < len(a_nodes))
        b_members = tuple(i - len(a_nodes) for i in nodes if i >= len(a_nodes))
        has_telomere = any(len(a_nodes[i]) == 1 for i in a_members) or any(
            len(b_nodes[i]) == 1 for i in b_members
        )
        components.append(
            GraphComponent(
                kind="path" if has_telomere else "cycle",
                n_edges=edge_count.get(rep, 0),
                a_members=a_members,
                b_members=b_members,
            )
        )
    return AdjacencyGraph(a_nodes, b_nodes, edges, tuple(components))


def dcj_distance(ga: Genome, gb: Genome) -> int:
    """n - (c + i/2) over the adjacency graph; zero iff the genomes match."""
    graph = adjacency_graph(ga, gb)
    n = len(ga.marker_names())
    i = graph.odd_paths
    if i % 2:
        raise AssertionError("odd paths come in pairs")
    return n - (graph.cycles + i // 2)


def circular_dcj_distance(ga: Genome, gb: Genome) -> int:
    """Distance for all-circular genomes via the 4-regular encoding.

    Independent of the adjacency graph: n minus the number of
    intermediate-only circuits of the target partition.
    """
    enc = encode_circular_genomes(ga, gb)
    return enc.n - target_circuit_count(enc.graph, enc.pb)


def apply_dcj(
    g: Genome,
    cut1,
    cut2=None,
    rejoin: int = 0,
) -> Genome:
    """Cut one or two breakpoints of g and rejoin the loose ends.

    Breakpoints are given as extremity collections: two extremities name
    an adjacency, one names a telomere.  With two cuts whose loose-end
    lists (sorted, telomeres padded with a blank) are (w, x) and (y, z),
    rejoin 0 glues w with y and x with z, rejoin 1 glues w with z and x
    with y; gluing a loose end with a blank makes it a telomere.  With a
    single cut, the breakpoint must be an adjacency: rejoin 0 restores it
    and rejoin 1 splits it into two telomeres.
    """
    state = adjacency_set(g)
    bp1 = _normalize_breakpoint(state, cut1)
    bp2 = _normalize_breakpoint(state, cut2) if cut2 is not None else None
    if rejoin not in (0, 1):
        raise ValueError("rejoin picks pattern 0 or 1")
    if bp2 is not None and bp1 == bp2:
        raise ValueError("the two cuts name the same breakpoint")
    if bp2 is None and len(bp1) != 2:
        raise ValueError("a single cut needs an adjacency")

    adjacencies = set(state.adjacencies)
    telomeres = set(state.telomeres)

    def remove(bp):
        if len(bp) == 2:
            adjacencies.remove(bp)
        else:
            telomeres.remove(next(iter(bp)))

    def add_pair(a, b):
        if a is None and b is None:
            return
        if a is None or b is None:
            telomeres.add(a if b is None else b)
        else:
            adjacencies.add(frozenset({a, b}))

    remove(bp1)
    if bp2 is None:
        w, x = sorted(bp1)
        if rejoin == 0:
            add_pair(w, x)
        else:
            add_pair(w, None)
            add_pair(x, None)
    else:
        remove(bp2)
        w, x = _loose_ends(bp1)
        y, z = _loose_ends(bp2)
        if rejoin == 0:
            add_pair(w, y)
            add_pair(x, z)
        else:
            add_pair(w, z)
            add_pair(x, y)

    return genome_from_adjacency_set(
        AdjacencySet(frozenset(adjacencies), frozenset(telomeres))
    )


def _normalize_breakpoint(state: AdjacencySet, cut) -> frozenset[Extremity]:
    if isinstance(cut, Extremity):
        cut = (cut,)
    bp = frozenset(
        e if isinstance(e, Extremity) else Extremity(*e) for e in cut
    )
    if len(bp) == 2:
        if bp not in state.adjacencies:
            raise ValueError("no adjacency %r" % (sorted(bp),))
    elif len(bp) == 1:
        (e,) = bp
        if e not in state.telomeres:
            raise ValueError("no telomere %r" % (e,))
    else:
        raise ValueError("a breakpoint holds one or two extremities")
    return bp


def _loose_ends(bp) -> tuple[Extremity | None, Extremity | None]:
    if len(bp) == 2:
        w, x = sorted(bp)
        return w, x
    (e,) = bp
    return e, None


def enumerate_dcj_moves(g: Genome) -> tuple[Genome, ...]:
    """All genomes one move away, deduplicated, excluding g itself."""
    state = adjacency_set(g)
    breakpoints = state.breakpoints()
    own_key = g.canonical()
    seen: dict[tuple, Genome] = {}

    def record(genome: Genome):
        key = genome.canonical()
        if key != own_key and key not in seen:
            seen[key] = genome

    for i, bp1 in enumerate(breakpoints):
        if len(bp1) == 2:
            record(apply_dcj(g, bp1, None, 1))
        for bp2 in breakpoints[i + 1 :]:
            for pattern in (0, 1):
                record(apply_dcj(g, bp1, bp2, pattern))

    return tuple(seen[k] for k in sorted(seen))


def adjacency_graph_to_dot(graph: AdjacencyGraph) -> str:
    """Bipartite DOT layout; components are colored by class."""

    def node_label(node: frozenset[Extremity]) -> str:
        parts = ["%s.%s" % (e.marker, e.side[0]) for e in sorted(node)]
        return ",".join(parts)

    color_of: dict[tuple[str, int], str] = {}
    palette = {"cycle": "blue", "path_even": "darkgreen", "path_odd": "red"}
    for comp in graph.components:
        if comp.kind == "cycle":
            color = palette["cycle"]
        elif comp.odd:
            color = palette["path_odd"]
        else:
            color = palette["path_even"]
        for i in comp.a_members:
            color_of[("a", i)] = color
        for i in comp.b_members:
            color_of[("b", i)] = color

    lines = ["graph adjacency {", "  rankdir=TB;"]
    for i, node in enumerate(graph.a_nodes):
        lines.append(
            '  a%d [label="%s", color=%s];' % (i, node_label(node), color_of[("a", i)])
        )
    for i, node in enumerate(graph.b_nodes):
        lines.append(
            '  b%d [label="%s", color=%s];' % (i, node_label(node), color_of[("b", i)])
        )
    for ai, bi, e in graph.edges:
        lines.append('  a%d -- b%d [label="%s.%s"];' % (ai, bi, e.marker, e.side[0]))
    lines.append("}")
    return "\n".join(lines) + "\n"
