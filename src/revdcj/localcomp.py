"""Local complementation on looped graphs and lc-sequences.

Complementing at a looped vertex v toggles every pair (and every loop)
inside the open neighborhood N(v); on the graph's GF(2) rows that is
rows[j] ^= N(v) for each neighbor j.  The strip variant then deletes the
edges and loop at v, which models one sorting step.  Its step law is one
row XOR per neighbor: rows[j] ^= rows[v] (N(v) plus v's own loop bit,
which clears the edge to v), then rows[v] = 0.  The contract variant also
removes v from the vertex set.  An lc-sequence applies strips in order,
requiring a loop at each turn; it is full when the final graph has no
edges and no loops left.

The greedy lc-sequence strips, at each turn, the lowest looped vertex
whose looped neighbors all score no higher, the score of v being
|N^ul(v)| - |N^l(v)|.  That pick is a mask rule on the rows: score each
looped vertex by two popcounts, OR into above[s] the looped vertices
scoring above s, and v is a candidate iff its row misses above[score(v)].
The loop mask it reads is summed once per run and carried across strips
(the strip's step law on the diagonal is one XOR with v's row); the verify
switch compares it with the rows after every strip.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import verify
from .graphs import LoopedGraph, _bits, component_masks, gf2_rank


def _looped_row(h: LoopedGraph, v: int) -> tuple[int, int]:
    """v's position and row, refusing an unknown or loopless v."""
    if v not in h.vertices:
        raise ValueError("unknown vertex %r" % (v,))
    i = h.vertices.index(v)
    if not h.rows[i] >> i & 1:
        raise ValueError("local complementation requires a loop at %r" % (v,))
    return i, h.rows[i]


def local_complement(h: LoopedGraph, v: int) -> LoopedGraph:
    """Toggle all pairs and loops within the open neighborhood of v."""
    i, row = _looped_row(h, v)
    hood = row ^ (1 << i)
    rows = list(h.rows)
    for j in _bits(hood):
        rows[j] ^= hood
    return verify.trusted(LoopedGraph, vertices=h.vertices, rows=tuple(rows))


def lc_strip(h: LoopedGraph, v: int) -> LoopedGraph:
    """Locally complement at v, then delete v's loop and incident edges."""
    i, row = _looped_row(h, v)
    rows = list(h.rows)
    for j in _bits(row ^ (1 << i)):
        rows[j] ^= row
    rows[i] = 0
    return verify.trusted(LoopedGraph, vertices=h.vertices, rows=tuple(rows))


def lc_contract(h: LoopedGraph, v: int) -> LoopedGraph:
    """Locally complement at v, then remove v entirely."""
    stripped = lc_strip(h, v)
    i = h.vertices.index(v)
    low = (1 << i) - 1
    return verify.trusted(
        LoopedGraph,
        vertices=h.vertices[:i] + h.vertices[i + 1 :],
        rows=tuple(
            row & low | row >> (i + 1) << i
            for j, row in enumerate(stripped.rows)
            if j != i
        ),
    )


@dataclass(frozen=True)
class LcSequence:
    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("lc-sequence repeats a vertex")

    def __len__(self) -> int:
        return len(self.vertices)


def _candidates(rows, loops: int):
    """Row positions of the ``ms_set`` candidates, lowest first.

    The mask rule of the module docstring: a few integer operations per
    looped vertex, whatever its degree.  Unlooped minus looped neighbors
    is the open neighborhood's size minus twice its looped part.  Every
    score is computed before the first candidate is yielded.
    """
    scored = []
    level: dict[int, int] = {}  # score -> mask of the looped vertices with it
    rest = loops
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        hood = rows[i] ^ low
        s = hood.bit_count() - 2 * (hood & loops).bit_count()
        scored.append((i, s))
        level[s] = level.get(s, 0) | low
    above = {}
    higher = 0
    for s in sorted(level, reverse=True):
        above[s] = higher
        higher |= level[s]
    for i, s in scored:
        if not rows[i] & above[s]:
            yield i


def ms_set(h: LoopedGraph) -> frozenset[int]:
    """Looped vertices whose looped neighbors all score no higher.

    The score of v is |N^ul(v)| - |N^l(v)|, its unlooped neighbors minus
    its looped ones.  v is a candidate iff its row misses the mask of the
    looped vertices that score above it (see ``_candidates``).
    """
    return frozenset(h.vertices[i] for i in _candidates(h.rows, h.loop_mask))


def has_full_lc_sequence(h: LoopedGraph) -> bool:
    """True iff every component without a loop is a single isolated vertex."""
    loops = h.loop_mask
    return all(
        comp & loops or not comp & (comp - 1) for comp in component_masks(h)
    )


def greedy_strips(h: LoopedGraph):
    """The greedy lc-sequence as it goes: yield (v, graph after the strip).

    At each step the lowest-id vertex among the minimal-score candidates
    (the least of ``ms_set``) is stripped, until no loop is left; a looped
    vertex of top score is always a candidate, so every turn has a pick.
    Edges left over without a loop raise.  The scan stops at the first
    candidate.  The loop mask is summed once and then carried: a strip at
    v toggles the loop of v and of each neighbor, so the mask after it is
    the mask before XOR v's row before it.  Under the verify switch each
    carried mask is compared with the strip's own.  Callers check
    ``has_full_lc_sequence`` first; the sorter reads one reversal off each
    pick.
    """
    loops = h.loop_mask
    checking = verify.enabled()
    while loops:
        i = next(_candidates(h.rows, loops))
        v = h.vertices[i]
        loops ^= h.rows[i]
        h = lc_strip(h, v)
        if checking and loops != h.loop_mask:
            raise AssertionError(
                "carried loop mask differs from the strip at %r" % (v,)
            )
        yield v, h
    if h.has_any_edge():
        raise AssertionError("sortable graph with edges but no candidates")


def find_full_lc_sequence(h: LoopedGraph) -> LcSequence | None:
    """Greedy full lc-sequence, or None when none exists.

    Its length equals the GF(2) rank of the adjacency matrix, which is
    checked while the verify switch is on.
    """
    if not has_full_lc_sequence(h):
        return None
    seq = LcSequence(tuple(v for v, _ in greedy_strips(h)))
    if verify.enabled() and len(seq) != gf2_rank(h.rows):
        raise AssertionError("greedy sequence length differs from matrix rank")
    return seq
