"""Brute-force distance oracles.

These compute distances by breadth-first search from both ends at once,
sharing no machinery with the formula-based paths, so agreement between
the two is meaningful evidence.  Both oracles run the same search, each
with its own move generator, and ``states_explored`` counts the states
reached from either end.  State counts explode quickly (signed
permutations: 2^n * n!, genome states even faster), so every entry point
refuses instances above a hard cap: ``REVERSAL_CAP`` elements for a single
reversal search, ``TABLE_CAP`` elements for a whole-space table or
enumeration, and ``DCJ_CAP`` markers for the DCJ search.  No parameter or
option raises them.

Witnesses are replayed through the public apply functions before being
returned; the search is never trusted to have recorded them correctly.
A DCJ state is a frozenset of integer breakpoints, encoded straight from
``perm.Genome.mates`` and decoded with ``perm.genome_from_mates``.  Its
move generator, ``_state_successors``, is the oracle's own, so checking a
witness against ``dcj.enumerate_dcj_moves`` compares two independent ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import neg

from .dcj import enumerate_dcj_moves
from .perm import (
    Genome,
    ReversalInterval,
    SignedPermutation,
    apply_reversal,
    genome_from_mates,
    identity,
    is_identity,
    marker_numbers,
    pair_numbers,
)

REVERSAL_CAP = 9
TABLE_CAP = 7
DCJ_CAP = 6


@dataclass(frozen=True)
class OracleResult:
    distance: int
    witness: tuple
    states_explored: int


def enumerate_signed_permutations(n: int):
    """Yield all 2^n * n! signed permutations of a given length, n <= TABLE_CAP."""
    if n > TABLE_CAP:
        raise ValueError("too many signed permutations to enumerate")
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in range(1 << n):
            yield SignedPermutation(
                tuple(-v if signs >> i & 1 else v for i, v in enumerate(perm))
            )


def _reversal_successors(state: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every signed permutation one reversal away, as value tuples.

    Written out on tuples rather than through ``apply_reversal``, so the
    witness replay checks the two against each other.
    """
    n = len(state)
    return [
        state[:i] + tuple(map(neg, state[i:j][::-1])) + state[j:]
        for i in range(n)
        for j in range(i + 1, n + 1)
    ]


def _reversal_between(a: tuple[int, ...], b: tuple[int, ...]) -> ReversalInterval:
    """The reversal taking a to b: it changes every position it covers."""
    moved = [i for i in range(len(a)) if a[i] != b[i]]
    return ReversalInterval(moved[0] + 1, moved[-1] + 1)


def brute_reversal_distance(p: SignedPermutation) -> OracleResult:
    """BFS from p and the identity at once over all reversals, with a witness."""
    n = len(p)
    if n > REVERSAL_CAP:
        raise ValueError("refusing brute force beyond %d elements" % REVERSAL_CAP)
    path, explored = _bidirectional_bfs(
        p.values, identity(n).values, _reversal_successors
    )
    intervals = tuple(_reversal_between(a, b) for a, b in zip(path, path[1:]))

    replay = p
    for r in intervals:
        replay = apply_reversal(replay, r)
    if not is_identity(replay):
        raise AssertionError("oracle witness does not replay")
    return OracleResult(len(intervals), intervals, explored)


def reversal_distance_table(n: int) -> dict[tuple, int]:
    """Distance to the identity for every signed permutation of length n.

    One BFS from the identity; reversals are involutions, so distance from
    the identity equals distance to it.
    """
    if n > TABLE_CAP:
        raise ValueError("refusing brute force beyond %d elements" % TABLE_CAP)
    start = identity(n).values
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for state in frontier:
            for child in _reversal_successors(state):
                if child not in dist:
                    dist[child] = d
                    nxt.append(child)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# genome states for the DCJ oracle, integer-encoded for speed

State = frozenset  # of tuples: (a, b) with a < b for adjacencies, (a,) telomeres


def _encode_state(mate: list[int]) -> State:
    """The state of a genome's mate array (``perm.Genome.mates``)."""
    adjacencies = [(x, y) for x, y in enumerate(mate) if x < y]
    telomeres = [(x,) for x, y in enumerate(mate) if y < 0]
    return frozenset(adjacencies + telomeres)


def _decode_state(order: tuple[str, ...], state: State) -> Genome:
    mate = [-1] * (2 * len(order))
    for item in state:
        if len(item) == 2:
            a, b = item
            mate[a], mate[b] = b, a
    return genome_from_mates(order, mate)


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


def brute_dcj_distance(ga: Genome, gb: Genome) -> OracleResult:
    """BFS between genome states; witness is the genome path.

    Moves are self-inverse as a set (every move can be undone by one
    move), so the search runs from both ends.
    """
    number = marker_numbers(pair_numbers(ga, gb))
    if len(number) > DCJ_CAP:
        raise ValueError("refusing brute force beyond %d markers" % DCJ_CAP)
    order = tuple(number)
    start = _encode_state(ga.mates(number))
    goal = _encode_state(gb.mates(number))
    path, explored = _bidirectional_bfs(start, goal, _state_successors)
    genomes = tuple(_decode_state(order, s) for s in path)
    _validate_genome_path(genomes)
    return OracleResult(len(path) - 1, genomes, explored)


def _bidirectional_bfs(start, goal, successors):
    """Level-synchronized search from both ends over a move set that is
    its own inverse; successors(state) lists the states one move away.

    Levels are always completed in full, and the search only stops once
    the best meeting sum can no longer be beaten: any shorter path would
    contain a node already fully expanded from both sides.
    """
    if start == goal:
        return [start], 1
    parent_f = {start: None}
    parent_b = {goal: None}
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
            for child in successors(state):
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
        raise AssertionError("the state space is connected")
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
    for a, b in zip(genomes, genomes[1:]):
        options = {g.canonical() for g in enumerate_dcj_moves(a)}
        if b.canonical() not in options:
            raise AssertionError("oracle witness step is not a legal move")
