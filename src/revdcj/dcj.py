"""Double cut and join distance between multichromosomal genomes.

A genome over a marker set is captured exactly by its adjacencies (pairs
of marker extremities that sit together) and telomeres (extremities at
linear chromosome ends).  Number the markers 0..n-1: marker i has
extremities 2i (tail) and 2i + 1 (head).  A genome is then one mate array,
where ``mate[x]`` is the extremity across x's junction, or -1 when x is a
telomere; which extremities meet is ``perm.Chromosome.junction_ids``
(``perm.Genome.mates``).  A count does not depend on the numbering, so
``dcj_distance`` numbers the markers in ga's reading order
(``perm.pair_numbers``, which also checks that both genomes hold the same
markers).  Outputs that show names keep the order of the sorted names
(``perm.marker_numbers``): ``adjacency_graph``, ``adjacency_set`` and the
moves.

The adjacency graph of two genomes has the breakpoints (adjacencies and
telomeres) of each genome as nodes and one edge per extremity, joining its
breakpoint in the one genome to its breakpoint in the other.  Adjacencies
have degree two and telomeres degree one, so the components are cycles and
paths, and crossing the two mate arrays in turn walks each of them: the
paths from each telomere of either genome, then the cycles from whatever is
left (``_walk``).  The distance is n - (c + i/2) for n markers, c cycles
and i odd-length paths (Bergeron, Mixtacki & Stoye, "A unifying view of
genome rearrangements", WABI 2006).  ``adjacency_graph`` lays the same walk
out with named breakpoints for the CLI and its DOT export.

A move cuts one or two breakpoints and rejoins the loose ends one of two
ways; cutting one adjacency and leaving both ends loose is the fission
case.  ``apply_dcj`` and ``enumerate_dcj_moves`` make the moves on a copy
of the mate array and read the result back with ``perm.genome_from_mates``;
``adjacency_set`` lists a genome's breakpoints with named extremities.

For pairs of all-circular genomes the same number falls out of the
4-regular encoding as n minus the count of intermediate-only circuits;
that route is kept as an independent cross-check, which shares no code
with ``_walk``.  It builds the name-free encoding, numbering the markers
in ga's reading order too (``fourreg.encode_circular_genomes``), and
counts its circuits with ``fourreg.target_circuit_count``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fourreg import encode_circular_genomes, target_circuit_count
from .perm import (
    SIDES,
    Extremity,
    Genome,
    breakpoint_ids,
    genome_from_mates,
    in_named_order,
    marker_numbers,
    pair_numbers,
)


def _named_extremities(number: dict[str, int]) -> list[Extremity]:
    """The named form of each extremity id under number."""
    return [Extremity(name, side) for name in number for side in SIDES]


def _named_nodes(named: list[Extremity], ids: list[tuple[int, ...]]):
    return tuple(frozenset(named[x] for x in node) for node in ids)


def adjacency_set(g: Genome) -> tuple[frozenset[Extremity], ...]:
    """g's breakpoints with named extremities: the adjacencies, then the
    telomeres, in the order of ``perm.breakpoint_ids``."""
    number = marker_numbers(g.marker_names())
    return _named_nodes(_named_extremities(number), breakpoint_ids(g.mates(number)))


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

    @property
    def distance(self) -> int:
        """n - (c + i/2) for n markers, each of which gives two edges."""
        return _distance(len(self.edges) // 2, self.cycles, self.odd_paths)


def _walk(ma: list[int], mb: list[int]):
    """Yield each component of the adjacency graph once, as whether it is
    a cycle and its extremities in walk order.  The paths come first, each
    walked from a telomere of either genome, then the cycles."""
    seen = bytearray(len(ma))

    def trail(x, across, back):
        found = []
        while x >= 0 and not seen[x]:
            seen[x] = 1
            found.append(x)
            x = across[x]
            across, back = back, across
        return found

    for ends, across in ((ma, mb), (mb, ma)):
        for x, mate in enumerate(ends):
            if mate < 0 and not seen[x]:
                yield False, trail(x, across, ends)
    x = seen.find(0)
    while x >= 0:
        yield True, trail(x, mb, ma)
        x = seen.find(0, x)


def _distance(n: int, cycles: int, odd_paths: int) -> int:
    if odd_paths % 2:
        raise AssertionError("odd paths come in pairs")
    return n - (cycles + odd_paths // 2)


def _homes(nodes: list[tuple[int, ...]]) -> list[int]:
    """The index of each extremity's node."""
    home = [0] * sum(map(len, nodes))
    for i, node in enumerate(nodes):
        for x in node:
            home[x] = i
    return home


def adjacency_graph(ga: Genome, gb: Genome) -> AdjacencyGraph:
    """The adjacency graph with named nodes and edges, from ``_walk``.

    Edges come in the order of their extremities (marker, then head before
    tail) and components in the order of their least node of ga.
    """
    number = marker_numbers(pair_numbers(ga, gb))
    ma, mb = ga.mates(number), gb.mates(number)
    named = _named_extremities(number)
    a_ids, b_ids = breakpoint_ids(ma), breakpoint_ids(mb)
    a_home, b_home = _homes(a_ids), _homes(b_ids)
    edges = tuple((a_home[x], b_home[x], named[x]) for x in in_named_order(len(ma)))
    components = sorted(
        (
            GraphComponent(
                kind="cycle" if closed else "path",
                n_edges=len(members),
                a_members=tuple(sorted({a_home[x] for x in members})),
                b_members=tuple(sorted({b_home[x] for x in members})),
            )
            for closed, members in _walk(ma, mb)
        ),
        key=lambda c: c.a_members[0],
    )
    return AdjacencyGraph(
        _named_nodes(named, a_ids), _named_nodes(named, b_ids), edges, tuple(components)
    )


def dcj_distance(ga: Genome, gb: Genome) -> int:
    """n - (c + i/2) over the adjacency graph; zero iff the genomes match.

    The count needs no names, so the markers are numbered in ga's reading
    order (``perm.pair_numbers``) rather than sorted.
    """
    number = pair_numbers(ga, gb)
    ma, mb = ga.mates(number), gb.mates(number)
    cycles = odd_paths = 0
    for closed, members in _walk(ma, mb):
        if closed:
            cycles += 1
        else:
            odd_paths += len(members) & 1
    return _distance(len(ma) // 2, cycles, odd_paths)


def circular_dcj_distance(ga: Genome, gb: Genome) -> int:
    """Distance for all-circular genomes via the 4-regular encoding.

    Independent of the adjacency graph: n minus the number of
    intermediate-only circuits of the target partition.
    """
    enc = encode_circular_genomes(ga, gb)
    return enc.n - target_circuit_count(enc)


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
    number = marker_numbers(g.marker_names())
    mate = g.mates(number)
    id_of = {e: x for x, e in enumerate(_named_extremities(number))}
    bp1 = _breakpoint(id_of, mate, cut1)
    bp2 = _breakpoint(id_of, mate, cut2) if cut2 is not None else None
    if rejoin not in (0, 1):
        raise ValueError("rejoin picks pattern 0 or 1")
    if bp2 is not None and bp1 == bp2:
        raise ValueError("the two cuts name the same breakpoint")
    if bp2 is None and len(bp1) != 2:
        raise ValueError("a single cut needs an adjacency")
    return genome_from_mates(tuple(number), _rejoined(mate, bp1, bp2, rejoin))


def _breakpoint(id_of: dict[Extremity, int], mate: list[int], cut) -> tuple[int, ...]:
    """The ids of the breakpoint of mate that cut names, in named order."""
    bp = frozenset(e if isinstance(e, Extremity) else Extremity(*e) for e in cut)
    ids = tuple(sorted((id_of.get(e, -1) for e in bp), key=lambda x: x ^ 1))
    if len(bp) == 2:
        a, b = ids
        if a < 0 or b < 0 or mate[a] != b:
            raise ValueError("no adjacency %r" % (sorted(bp),))
    elif len(bp) == 1:
        if ids[0] < 0 or mate[ids[0]] >= 0:
            (e,) = bp
            raise ValueError("no telomere %r" % (e,))
    else:
        raise ValueError("a breakpoint holds one or two extremities")
    return ids


def _rejoined(mate: list[int], bp1, bp2, rejoin: int) -> list[int]:
    """A copy of mate with the move of ``apply_dcj`` made, the breakpoints
    given as ids in named order and bp2 None for a single cut."""
    mate = mate.copy()
    if bp2 is None:
        if rejoin:
            for x in bp1:
                mate[x] = -1
        return mate
    w, x = bp1 if len(bp1) == 2 else (bp1[0], None)
    y, z = bp2 if len(bp2) == 2 else (bp2[0], None)
    if rejoin:
        y, z = z, y
    for a, b in ((w, y), (x, z)):
        if a is not None:
            mate[a] = -1 if b is None else b
        if b is not None:
            mate[b] = -1 if a is None else a
    return mate


def enumerate_dcj_moves(g: Genome) -> tuple[Genome, ...]:
    """All genomes one move away, deduplicated, excluding g itself."""
    number = marker_numbers(g.marker_names())
    names = tuple(number)
    mate = g.mates(number)
    breakpoints = breakpoint_ids(mate)
    own_key = g.canonical()
    seen: dict[tuple, Genome] = {}

    def record(bp1, bp2, rejoin):
        genome = genome_from_mates(names, _rejoined(mate, bp1, bp2, rejoin))
        key = genome.canonical()
        if key != own_key and key not in seen:
            seen[key] = genome

    for i, bp1 in enumerate(breakpoints):
        if len(bp1) == 2:
            record(bp1, None, 1)
        for bp2 in breakpoints[i + 1 :]:
            for pattern in (0, 1):
                record(bp1, bp2, pattern)

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
