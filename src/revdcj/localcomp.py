"""Local complementation on looped graphs and lc-sequences.

Complementing at a looped vertex v toggles every pair (and every loop)
inside the open neighborhood of v.  The strip variant then deletes the
edges and loop at v, which models one sorting step; the contract variant
also removes v from the vertex set.  An lc-sequence applies strips in
order, requiring a loop at each turn; it is full when the final graph has
no edges and no loops left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import LoopedGraph, adjacency_matrix, connected_components


def local_complement(h: LoopedGraph, v: int) -> LoopedGraph:
    """Toggle all pairs and loops within the open neighborhood of v."""
    if v not in h.vertices:
        raise ValueError("unknown vertex %r" % (v,))
    if not h.has_loop(v):
        raise ValueError("local complementation requires a loop at %r" % (v,))
    hood = sorted(h.neighbors(v))
    edges = set(h.edges)
    for a, b in combinations(hood, 2):
        edges ^= {frozenset({a, b})}
    for a in hood:
        edges ^= {frozenset({a})}
    return LoopedGraph(h.vertices, frozenset(edges))


def lc_strip(h: LoopedGraph, v: int) -> LoopedGraph:
    """Locally complement at v, then delete v's loop and incident edges."""
    flipped = local_complement(h, v)
    return LoopedGraph(
        flipped.vertices, frozenset(e for e in flipped.edges if v not in e)
    )


def lc_contract(h: LoopedGraph, v: int) -> LoopedGraph:
    """Locally complement at v, then remove v entirely."""
    stripped = lc_strip(h, v)
    return LoopedGraph(
        tuple(u for u in stripped.vertices if u != v), stripped.edges
    )


def delete_vertex(h: LoopedGraph, v: int) -> LoopedGraph:
    if v not in h.vertices:
        raise ValueError("unknown vertex %r" % (v,))
    return LoopedGraph(
        tuple(u for u in h.vertices if u != v),
        frozenset(e for e in h.edges if v not in e),
    )


@dataclass(frozen=True)
class LcSequence:
    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("lc-sequence repeats a vertex")

    def __len__(self) -> int:
        return len(self.vertices)


def apply_lc_sequence(h: LoopedGraph, seq: LcSequence) -> LoopedGraph:
    """Strip at each vertex in turn; raises if some vertex lacks its loop."""
    cur = h
    for v in seq.vertices:
        cur = lc_strip(cur, v)
    return cur


def is_lc_sequence(h: LoopedGraph, seq: LcSequence) -> bool:
    cur = h
    for v in seq.vertices:
        if v not in cur.vertices or not cur.has_loop(v):
            return False
        cur = lc_strip(cur, v)
    return True


def is_full_lc_sequence(h: LoopedGraph, seq: LcSequence) -> bool:
    """An lc-sequence that leaves no edges and no loops behind."""
    cur = h
    for v in seq.vertices:
        if v not in cur.vertices or not cur.has_loop(v):
            return False
        cur = lc_strip(cur, v)
    return not cur.edges


@dataclass(frozen=True)
class NeighborhoodSplit:
    looped: frozenset[int]
    unlooped: frozenset[int]

    @property
    def score(self) -> int:
        return len(self.unlooped) - len(self.looped)


def split_neighborhood(h: LoopedGraph, v: int) -> NeighborhoodSplit:
    hood = h.neighbors(v)
    looped = hood & h.looped_vertices()
    return NeighborhoodSplit(looped, hood - looped)


def vertex_score(h: LoopedGraph, v: int) -> int:
    return split_neighborhood(h, v).score


def ms_set(h: LoopedGraph) -> frozenset[int]:
    """Looped vertices whose looped neighbors all score no higher."""
    looped = h.looped_vertices()
    score = {v: vertex_score(h, v) for v in looped}
    return frozenset(
        v
        for v in looped
        if all(score[w] <= score[v] for w in h.neighbors(v) & looped)
    )


def has_full_lc_sequence(h: LoopedGraph) -> bool:
    """True iff every component without a loop is a single isolated vertex."""
    for comp in connected_components(h):
        if any(h.has_loop(v) for v in comp):
            continue
        if len(comp) > 1:
            return False
        (v,) = comp
        if h.neighbors(v):
            return False
    return True


def find_full_lc_sequence(h: LoopedGraph) -> LcSequence | None:
    """Greedy full lc-sequence, or None when none exists.

    At each step the lowest-id vertex among the minimal-score candidates
    is stripped; the length of the result equals the GF(2) rank of the
    adjacency matrix.
    """
    if not has_full_lc_sequence(h):
        return None
    cur = h
    picks = []
    while cur.has_any_edge():
        candidates = ms_set(cur)
        if not candidates:
            raise AssertionError("sortable graph with edges but no candidates")
        v = min(candidates)
        picks.append(v)
        cur = lc_strip(cur, v)
    seq = LcSequence(tuple(picks))
    if len(seq) != adjacency_matrix(h).rank():
        raise AssertionError("greedy sequence length differs from matrix rank")
    return seq


def rank_drop_check(h: LoopedGraph, v: int) -> bool:
    """Stripping at a looped v lowers the GF(2) rank by exactly one."""
    before = adjacency_matrix(h).rank()
    after = adjacency_matrix(lc_strip(h, v)).rank()
    return after == before - 1


def nullity_preserved_on_delete(h: LoopedGraph, v: int) -> bool:
    """Deleting a looped v after complementation keeps the nullity."""
    before = adjacency_matrix(h).nullity()
    after = adjacency_matrix(lc_contract(h, v)).nullity()
    return after == before
