"""Shared fixtures: the verify switch, on for the whole session, the
exhaustive small-permutation sweep, random generators, the
route-switching reference circle graph and the paper's sequence laws
used across the suite, plus a terminal summary that prints one pass/fail
line per acceptance criterion."""

import random
import re
import string
import time
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from revdcj import localcomp
from revdcj.dcj import AdjacencySet, Extremity, HEAD, TAIL, genome_from_adjacency_set
from revdcj.dm import SetSystem, set_system
from revdcj.fourreg import (
    CircuitPartition,
    FourRegularGraph,
    circuits,
    encode_permutation,
    is_euler_system,
    supplementary,
    switch_route,
    _slot_walk,
)
from revdcj.graphs import LoopedGraph, adjacency_matrix, looped_graph
from revdcj.localcomp import LcSequence, has_full_lc_sequence, lc_strip
from revdcj.oracle import enumerate_signed_permutations, reversal_distance_table
from revdcj.perm import Genome, SignedPermutation
from revdcj.sorter import circuit_count, permutation_circle_graph, sort_by_reversals
from revdcj.verify import verifying

SWEEP_MAX_N = 5


@pytest.fixture(scope="session", autouse=True)
def verify_switch():
    """Every test, and every session fixture built after this one, runs
    the super-linear cross-checks (see ``revdcj.verify``)."""
    with verifying():
        yield


def _interleaved(occ_u: tuple[int, int], occ_w: tuple[int, int]) -> bool:
    inside = sum(1 for t in occ_w if occ_u[0] < t < occ_u[1])
    return inside == 1


def circle_graph_via_routes(
    g: FourRegularGraph, p1: CircuitPartition, p2: CircuitPartition
) -> LoopedGraph:
    """Reference circle graph, built the long way round.

    Edges come from comparing the visit positions of every vertex pair
    along p1's circuits; v is looped when switching its route to p2's and
    decomposing the whole graph into circuits again leaves one circuit per
    component.  Independent of the one-walk construction in
    ``revdcj.graphs.circle_graph``, which the suite checks against it.
    """
    if not supplementary(p1, p2):
        raise ValueError("partitions are not supplementary")
    if not is_euler_system(g, p1):
        raise ValueError("p1 is not an Euler system")

    edges: set[frozenset[int]] = set()
    for steps in _slot_walk(g, p1):
        word = [dep // 4 for _, dep in steps]
        occ: dict[int, list[int]] = {}
        for t, v in enumerate(word):
            occ.setdefault(v, []).append(t)
        verts = sorted(occ)
        for i, u in enumerate(verts):
            for w in verts[i + 1 :]:
                if _interleaved(tuple(occ[u]), tuple(occ[w])):
                    edges.add(frozenset({u, w}))

    n_components = g.n_components()
    for v in range(g.n_vertices):
        switched = switch_route(p1, v, p2)
        if len(circuits(g, switched)) == n_components:
            edges.add(frozenset({v}))

    return looped_graph(range(g.n_vertices), edges)


def permutation_circle_graph_via_routes(p: SignedPermutation) -> LoopedGraph:
    enc = encode_permutation(p)
    return circle_graph_via_routes(enc.graph, enc.pa, enc.pb)


def breakpoint_positions(enc, v: int) -> tuple[int, int]:
    """The two positions of vertex v in a permutation encoding's junction
    sequence."""
    occ = [t for t, lab in enumerate(enc.junction_sequence) if lab == v]
    if len(occ) != 2:
        raise ValueError("vertex %r has no junction positions" % (v,))
    return (occ[0], occ[1])


def least_cycle_by_brute_force(seq: tuple, reflect) -> tuple:
    """The least of every rotation of seq and of reflect(seq): the referee
    for the linear-time canonical forms of circuits and circular
    chromosomes."""
    return min(s[i:] + s[:i] for s in (seq, reflect(seq)) for i in range(len(s)))


def induced_subgraph(h: LoopedGraph, keep) -> LoopedGraph:
    keep = frozenset(keep)
    if not keep <= set(h.vertices):
        raise ValueError("subgraph vertices must come from the graph")
    kept = [i for i, v in enumerate(h.vertices) if v in keep]
    return LoopedGraph(
        tuple(h.vertices[i] for i in kept),
        tuple(
            sum(1 << k for k, j in enumerate(kept) if h.rows[i] >> j & 1)
            for i in kept
        ),
    )


def graph_from_json(data: dict) -> LoopedGraph:
    edges = [frozenset(e) for e in data["edges"]]
    edges += [frozenset({v}) for v in data["loops"]]
    return looped_graph(data["vertices"], edges)


def set_system_from_json(data: dict) -> SetSystem:
    return set_system(data["ground"], data["family"])


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


@dataclass(frozen=True)
class SweepRow:
    perm: SignedPermutation
    graph: LoopedGraph
    c: int
    rank: int
    sortable: bool
    script_length: int | None
    oracle_distance: int


@dataclass(frozen=True)
class SweepData:
    rows: dict[int, list[SweepRow]]
    build_seconds: float


@pytest.fixture(scope="session")
def small_sweep() -> SweepData:
    """Every signed permutation with n <= 5, annotated with its circle
    graph, circuit count, matrix rank, the sortability criterion, the
    greedy script length (the sorter itself asserts the step law at every
    step), and the exact BFS distance."""
    started = time.monotonic()
    rows: dict[int, list[SweepRow]] = {}
    for n in range(SWEEP_MAX_N + 1):
        table = reversal_distance_table(n)
        out = []
        for p in enumerate_signed_permutations(n):
            h = permutation_circle_graph(p)
            rank = adjacency_matrix(h).rank()
            c = circuit_count(p)
            sortable = has_full_lc_sequence(h)
            script = sort_by_reversals(p) if sortable else None
            out.append(
                SweepRow(
                    perm=p,
                    graph=h,
                    c=c,
                    rank=rank,
                    sortable=sortable,
                    script_length=None if script is None else script.claimed_distance,
                    oracle_distance=table[p.values],
                )
            )
        rows[n] = out
    return SweepData(rows, time.monotonic() - started)


def signed_permutations(max_n: int):
    """Hypothesis strategy: uniform signed permutations with n <= max_n."""
    return (
        st.integers(min_value=0, max_value=max_n)
        .flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(1, n + 1))),
                st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
            )
        )
        .map(lambda t: SignedPermutation(tuple(v * s for v, s in zip(*t))))
    )


def sabotage_lc_strip(monkeypatch):
    """Make every strip drop one edge of its result, if it has one."""
    real_strip = localcomp.lc_strip

    def strip_dropping_an_edge(h, v):
        rows = list(real_strip(h, v).rows)
        for i, row in enumerate(rows):
            others = row & ~(1 << i)
            if others:
                j = (others & -others).bit_length() - 1
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
                break
        return LoopedGraph(h.vertices, tuple(rows))

    monkeypatch.setattr(localcomp, "lc_strip", strip_dropping_an_edge)


def random_looped_graph(n: int, seed: int, edge_p: float = 0.4, loop_p: float = 0.5):
    rng = random.Random(seed)
    edges = set()
    for a in range(n):
        if rng.random() < loop_p:
            edges.add(frozenset({a}))
        for b in range(a + 1, n):
            if rng.random() < edge_p:
                edges.add(frozenset({a, b}))
    return looped_graph(range(n), edges)


def random_genome(names, rng) -> Genome:
    """Uniformly scrambled pairing of all marker extremities."""
    exts = [Extremity(m, s) for m in names for s in (HEAD, TAIL)]
    rng.shuffle(exts)
    adjacencies, telomeres = set(), set()
    while exts:
        e = exts.pop()
        if exts and rng.random() < 0.75:
            adjacencies.add(frozenset({e, exts.pop()}))
        else:
            telomeres.add(e)
    return genome_from_adjacency_set(
        AdjacencySet(frozenset(adjacencies), frozenset(telomeres))
    )


def marker_names(n: int) -> list[str]:
    return list(string.ascii_lowercase[:n])


# ---------------------------------------------------------------------------
# acceptance summary

_ACCEPTANCE: dict[int, tuple[str, str]] = {}
_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.fixture
def criterion_note(request):
    """Lets an acceptance test attach a short result note to its line."""

    def set_note(text: str):
        request.node._criterion_note = text

    return set_note


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    match = _CRITERION.search(item.name)
    if match and "test_acceptance" in item.nodeid:
        _ACCEPTANCE[int(match.group(1))] = (
            report.outcome,
            getattr(item, "_criterion_note", ""),
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        outcome, note = _ACCEPTANCE[num]
        word = "PASS" if outcome == "passed" else "FAIL"
        line = "criterion %d: %s" % (num, word)
        if note:
            line += " -- %s" % note
        terminalreporter.write_line(line)
