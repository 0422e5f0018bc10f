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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import verify
from .graphs import LoopedGraph, _bits, adjacency_matrix, component_masks


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
    return LoopedGraph._trusted(h.vertices, tuple(rows))


def lc_strip(h: LoopedGraph, v: int) -> LoopedGraph:
    """Locally complement at v, then delete v's loop and incident edges."""
    i, row = _looped_row(h, v)
    rows = list(h.rows)
    for j in _bits(row ^ (1 << i)):
        rows[j] ^= row
    rows[i] = 0
    return LoopedGraph._trusted(h.vertices, tuple(rows))


def lc_contract(h: LoopedGraph, v: int) -> LoopedGraph:
    """Locally complement at v, then remove v entirely."""
    stripped = lc_strip(h, v)
    i = h.vertices.index(v)
    low = (1 << i) - 1
    return LoopedGraph._trusted(
        h.vertices[:i] + h.vertices[i + 1 :],
        tuple(
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


def _strip_along(h: LoopedGraph, seq: LcSequence) -> LoopedGraph | None:
    """The graph left after stripping at each vertex of seq in turn, or
    None when some vertex is missing or loopless when its turn comes."""
    for v in seq.vertices:
        if v not in h.vertices or not h.has_loop(v):
            return None
        h = lc_strip(h, v)
    return h


def is_lc_sequence(h: LoopedGraph, seq: LcSequence) -> bool:
    return _strip_along(h, seq) is not None


def is_full_lc_sequence(h: LoopedGraph, seq: LcSequence) -> bool:
    """An lc-sequence that leaves no edges and no loops behind."""
    end = _strip_along(h, seq)
    return end is not None and not end.has_any_edge()


def ms_set(h: LoopedGraph) -> frozenset[int]:
    """Looped vertices whose looped neighbors all score no higher.

    The score of v is |N^ul(v)| - |N^l(v)|, its unlooped neighbors minus
    its looped ones, read off v's row by two popcounts.
    """
    loops = h.loop_mask
    score = {}
    for i in _bits(loops):
        hood = h.rows[i] ^ (1 << i)
        score[i] = (hood & ~loops).bit_count() - (hood & loops).bit_count()
    return frozenset(
        h.vertices[i]
        for i, s in score.items()
        if all(score[j] <= s for j in _bits((h.rows[i] ^ (1 << i)) & loops))
    )


def has_full_lc_sequence(h: LoopedGraph) -> bool:
    """True iff every component without a loop is a single isolated vertex."""
    loops = h.loop_mask
    return all(
        comp & loops or not comp & (comp - 1) for comp in component_masks(h)
    )


def greedy_strips(h: LoopedGraph):
    """The greedy lc-sequence as it goes: yield (v, graph after the strip).

    At each step the lowest-id vertex among the minimal-score candidates
    (``ms_set``) is stripped, until no edge or loop is left.  Callers check
    ``has_full_lc_sequence`` first; the sorter reads one reversal off each
    pick.
    """
    while h.has_any_edge():
        candidates = ms_set(h)
        if not candidates:
            raise AssertionError("sortable graph with edges but no candidates")
        v = min(candidates)
        h = lc_strip(h, v)
        yield v, h


def find_full_lc_sequence(h: LoopedGraph) -> LcSequence | None:
    """Greedy full lc-sequence, or None when none exists.

    Its length equals the GF(2) rank of the adjacency matrix, which is
    checked while the verify switch is on.
    """
    if not has_full_lc_sequence(h):
        return None
    seq = LcSequence(tuple(v for v, _ in greedy_strips(h)))
    if verify.enabled() and len(seq) != adjacency_matrix(h).rank():
        raise AssertionError("greedy sequence length differs from matrix rank")
    return seq
