"""Brute-force distance oracles.

These compute distances by breadth-first search over the full state
space, sharing no machinery with the formula-based paths, so agreement
between the two is meaningful evidence.  State counts explode quickly
(signed permutations: 2^n * n!, genome states even faster), so every
entry point refuses instances above a hard cap.

Witnesses are replayed through the public apply functions before being
returned; the search is never trusted to have recorded them correctly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dcj import adjacency_set, genome_from_adjacency_set, AdjacencySet, Extremity
from .dcj import HEAD, TAIL
from .perm import (
    Genome,
    ReversalInterval,
    SignedPermutation,
    apply_reversal,
    identity,
    is_identity,
)

REVERSAL_CAP = 9
DCJ_CAP = 6


@dataclass(frozen=True)
class OracleResult:
    distance: int
    witness: tuple
    states_explored: int


def enumerate_signed_permutations(n: int):
    """Yield all 2^n * n! signed permutations of a given length, n <= 7."""
    if n > 7:
        raise ValueError("too many signed permutations to enumerate")
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in range(1 << n):
            yield SignedPermutation(
                tuple(-v if signs >> i & 1 else v for i, v in enumerate(perm))
            )


def all_reversals(n: int) -> tuple[ReversalInterval, ...]:
    return tuple(
        ReversalInterval(i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    )


def brute_reversal_distance(
    p: SignedPermutation, cap: int = REVERSAL_CAP
) -> OracleResult:
    """BFS from p to the identity over all reversals, with a witness."""
    n = len(p)
    if n > cap:
        raise ValueError("refusing brute force beyond %d elements" % cap)
    moves = all_reversals(n)
    target = identity(n).values
    start = p.values
    parent: dict[tuple, tuple | None] = {start: None}
    step: dict[tuple, ReversalInterval] = {}
    frontier = [start]
    while target not in parent:
        nxt = []
        for state in frontier:
            sp = SignedPermutation(state)
            for r in moves:
                child = apply_reversal(sp, r).values
                if child not in parent:
                    parent[child] = state
                    step[child] = r
                    nxt.append(child)
        if not nxt and target not in parent:
            raise AssertionError("reversal state space is connected")
        frontier = nxt

    intervals = []
    cur = target
    while parent[cur] is not None:
        intervals.append(step[cur])
        cur = parent[cur]
    intervals.reverse()

    replay = p
    for r in intervals:
        replay = apply_reversal(replay, r)
    if not is_identity(replay):
        raise AssertionError("oracle witness does not replay")
    return OracleResult(len(intervals), tuple(intervals), len(parent))


def reversal_distance_table(n: int, cap: int = REVERSAL_CAP) -> dict[tuple, int]:
    """Distance to the identity for every signed permutation of length n.

    One BFS from the identity; reversals are involutions, so distance from
    the identity equals distance to it.
    """
    if n > cap:
        raise ValueError("refusing brute force beyond %d elements" % cap)
    moves = all_reversals(n)
    start = identity(n).values
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for state in frontier:
            sp = SignedPermutation(state)
            for r in moves:
                child = apply_reversal(sp, r).values
                if child not in dist:
                    dist[child] = d
                    nxt.append(child)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# genome states for the DCJ oracle, integer-encoded for speed

State = frozenset  # of tuples: (a, b) with a < b for adjacencies, (a,) telomeres


def _marker_order(names) -> tuple[str, ...]:
    return tuple(sorted(names))


def _ext_id(order: tuple[str, ...], e: Extremity) -> int:
    return 2 * order.index(e.marker) + (e.side == HEAD)


def _ext_back(order: tuple[str, ...], i: int) -> Extremity:
    return Extremity(order[i // 2], HEAD if i % 2 else TAIL)


def _encode_state(order: tuple[str, ...], adj: AdjacencySet) -> State:
    items = []
    for pair in adj.adjacencies:
        a, b = sorted(_ext_id(order, e) for e in pair)
        items.append((a, b))
    for t in adj.telomeres:
        items.append((_ext_id(order, t),))
    return frozenset(items)


def _decode_state(order: tuple[str, ...], state: State) -> Genome:
    adjacencies = set()
    telomeres = set()
    for item in state:
        if len(item) == 2:
            adjacencies.add(frozenset(_ext_back(order, i) for i in item))
        else:
            telomeres.add(_ext_back(order, item[0]))
    return genome_from_adjacency_set(
        AdjacencySet(frozenset(adjacencies), frozenset(telomeres))
    )


def _state_successors(state: State) -> set[State]:
    """All states one move away, identity excluded."""
    items = sorted(state)
    out = set()

    def ends(item):
        return item if len(item) == 2 else (item[0], None)

    def rebuilt(removed, added):
        new = set(state)
        new.difference_update(removed)
        for a, b in added:
            if a is None and b is None:
                continue
            if a is None or b is None:
                new.add((a if b is None else b,))
            else:
                new.add((min(a, b), max(a, b)))
        return frozenset(new)

    for i, bp1 in enumerate(items):
        if len(bp1) == 2:
            a, b = bp1
            out.add(rebuilt([bp1], [(a, None), (b, None)]))
        for bp2 in items[i + 1 :]:
            w, x = ends(bp1)
            y, z = ends(bp2)
            out.add(rebuilt([bp1, bp2], [(w, y), (x, z)]))
            out.add(rebuilt([bp1, bp2], [(w, z), (x, y)]))
    out.discard(state)
    return out


def brute_dcj_distance(ga: Genome, gb: Genome, cap: int = DCJ_CAP) -> OracleResult:
    """BFS between genome states; witness is the genome path.

    Moves are self-inverse as a set (every move can be undone by one
    move), so the search runs from both ends.
    """
    names = ga.marker_names()
    if names != gb.marker_names():
        raise ValueError("marker sets differ")
    if len(names) > cap:
        raise ValueError("refusing brute force beyond %d markers" % cap)
    order = _marker_order(names)
    start = _encode_state(order, adjacency_set(ga))
    goal = _encode_state(order, adjacency_set(gb))
    path, explored = _bidirectional_bfs(start, goal)
    genomes = tuple(_decode_state(order, s) for s in path)
    _validate_genome_path(genomes)
    return OracleResult(len(path) - 1, genomes, explored)


def _bidirectional_bfs(start: State, goal: State):
    """Level-synchronized search from both ends.

    Levels are always completed in full, and the search only stops once
    the best meeting sum can no longer be beaten: any shorter path would
    contain a node already fully expanded from both sides.
    """
    if start == goal:
        return [start], 1
    parent_f: dict[State, State | None] = {start: None}
    parent_b: dict[State, State | None] = {goal: None}
    dist_f, dist_b = {start: 0}, {goal: 0}
    frontier_f, frontier_b = [start], [goal]
    depth_f = depth_b = 0
    best = None  # (total length, meeting state)

    while best is None or best[0] > depth_f + depth_b:
        forward = bool(frontier_f) and (
            not frontier_b or len(frontier_f) <= len(frontier_b)
        )
        if not frontier_f and not frontier_b:
            break
        if forward:
            grow_p, grow_d, other_d, frontier = parent_f, dist_f, dist_b, frontier_f
        else:
            grow_p, grow_d, other_d, frontier = parent_b, dist_b, dist_f, frontier_b
        depth = (depth_f if forward else depth_b) + 1
        nxt = []
        for state in frontier:
            for child in _state_successors(state):
                if child in grow_d:
                    continue
                grow_p[child] = state
                grow_d[child] = depth
                nxt.append(child)
                if child in other_d:
                    total = dist_f[child] + dist_b[child]
                    if best is None or total < best[0]:
                        best = (total, child)
        if forward:
            frontier_f, depth_f = nxt, depth
        else:
            frontier_b, depth_b = nxt, depth

    if best is None:
        raise AssertionError("genome state space is connected")
    meet = best[1]
    back = [meet]
    while parent_f[back[-1]] is not None:
        back.append(parent_f[back[-1]])
    path = list(reversed(back))
    cur = parent_b[meet]
    while cur is not None:
        path.append(cur)
        cur = parent_b[cur]
    return path, len(parent_f) + len(parent_b)


def _validate_genome_path(genomes: tuple[Genome, ...]):
    from .dcj import enumerate_dcj_moves

    for a, b in zip(genomes, genomes[1:]):
        options = {g.canonical() for g in enumerate_dcj_moves(a)}
        if b.canonical() not in options:
            raise AssertionError("oracle witness step is not a legal move")
