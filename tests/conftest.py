"""Shared fixtures: the verify switch, on for the whole session, the
exhaustive small-permutation sweep, random generators, the
route-switching reference circle graph, the breakpoint reference adjacency
graph and the paper's sequence laws used across the suite, the small
readers that only the tests need (a loop, the components, every reversal,
a permutation's JSON form, set membership), plus a terminal summary that
prints one pass/fail line per acceptance criterion."""

import random
import re
import string
import time
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from revdcj import localcomp
from revdcj.dcj import AdjacencyGraph, GraphComponent
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
from revdcj.graphs import LoopedGraph, adjacency_matrix, component_masks, looped_graph
from revdcj.localcomp import LcSequence, has_full_lc_sequence, lc_strip
from revdcj.oracle import enumerate_signed_permutations, reversal_distance_table
from revdcj.perm import (
    CIRCULAR,
    HEAD,
    LINEAR,
    TAIL,
    Chromosome,
    Extremity,
    Genome,
    ReversalInterval,
    SignedPermutation,
    genome_from_mates,
    marker_numbers,
)
from revdcj.sorter import circuit_count, permutation_circle_graph, sort_by_reversals
from revdcj.verify import verifying

SWEEP_MAX_N = 5


@pytest.fixture(scope="session", autouse=True)
def verify_switch():
    """Every test, and every session fixture built after this one, runs
    the super-linear cross-checks (see ``revdcj.verify``)."""
    with verifying():
        yield


def has_loop(h: LoopedGraph, v: int) -> bool:
    i = h.vertices.index(v)
    return bool(h.rows[i] >> i & 1)


def connected_components(h: LoopedGraph) -> tuple[frozenset[int], ...]:
    """Components under non-loop edges, sorted by least vertex."""
    return tuple(
        frozenset(v for i, v in enumerate(h.vertices) if comp >> i & 1)
        for comp in component_masks(h)
    )


def all_reversals(n: int) -> tuple[ReversalInterval, ...]:
    return tuple(
        ReversalInterval(i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    )


def permutation_from_json(data: dict) -> SignedPermutation:
    return SignedPermutation(tuple(data["values"]))


def contains(d: SetSystem, subset) -> bool:
    """True iff subset, given by its elements, is a member of d."""
    return d._mask(subset) in d.masks


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
        if v not in h.vertices or not has_loop(h, v):
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


def sabotage_lc_strip_loop(monkeypatch):
    """Make every strip toggle the loop at the graph's first vertex."""
    real_strip = localcomp.lc_strip

    def strip_toggling_a_loop(h, v):
        rows = list(real_strip(h, v).rows)
        rows[0] ^= 1
        return LoopedGraph(h.vertices, tuple(rows))

    monkeypatch.setattr(localcomp, "lc_strip", strip_toggling_a_loop)


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
    number = marker_numbers(names)
    exts = [2 * number[m] + side for m in names for side in (1, 0)]  # head, tail
    rng.shuffle(exts)
    mate = [-1] * len(exts)
    while exts:
        e = exts.pop()
        if exts and rng.random() < 0.75:
            f = exts.pop()
            mate[e], mate[f] = f, e
    return genome_from_mates(tuple(number), mate)


def marker_names(n: int) -> list[str]:
    return list(string.ascii_lowercase[:n])


def random_chromosomes(n: int, rng, circular_share: float) -> Genome:
    """Markers m1..mn shuffled, signed at random and cut into one to
    n // 10 + 1 chromosomes, each circular with the given chance."""
    names = ["m%d" % i for i in range(1, n + 1)]
    rng.shuffle(names)
    k = rng.randint(1, n // 10 + 1)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return Genome(
        tuple(
            Chromosome(
                CIRCULAR if rng.random() < circular_share else LINEAR,
                tuple((m, rng.choice((1, -1))) for m in names[a:b]),
            )
            for a, b in zip([0] + cuts, cuts + [n])
        )
    )


def _reference_breakpoints(g: Genome) -> tuple[frozenset, ...]:
    """Adjacencies, then telomeres, each run sorted as its extremities
    sort.  A marker reads tail then head when it points forward, head then
    tail when reversed; each marker meets the next across an adjacency,
    a circular chromosome's last meets its first, and a linear one has a
    telomere at each end."""
    adjacencies, telomeres = [], []
    for chrom in g.chromosomes:
        ends = []
        for name, sign in chrom.markers:
            t, h = Extremity(name, TAIL), Extremity(name, HEAD)
            ends.append((t, h) if sign > 0 else (h, t))
        if chrom.shape == CIRCULAR:
            ends.append(ends[0])
        else:
            telomeres += (ends[0][0], ends[-1][1])
        adjacencies += (frozenset({a[1], b[0]}) for a, b in zip(ends, ends[1:]))
    adjacencies.sort(key=lambda a: tuple(sorted(a)))
    return tuple(adjacencies) + tuple(frozenset({t}) for t in sorted(telomeres))


def reference_adjacency_graph(ga: Genome, gb: Genome) -> AdjacencyGraph:
    """The adjacency graph built from named breakpoints, with home tables
    and a union-find over the nodes: the referee for ``dcj.adjacency_graph``
    and ``dcj.dcj_distance``, sharing no code with their walk."""
    a_nodes = _reference_breakpoints(ga)
    b_nodes = _reference_breakpoints(gb)
    a_home = {e: i for i, node in enumerate(a_nodes) for e in node}
    b_home = {e: i for i, node in enumerate(b_nodes) for e in node}
    if set(a_home) != set(b_home):
        raise ValueError("marker sets differ")
    edges = tuple((a_home[e], b_home[e], e) for e in sorted(a_home))

    root = list(range(len(a_nodes) + len(b_nodes)))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for ai, bi, _ in edges:
        ra, rb = find(ai), find(len(a_nodes) + bi)
        if ra != rb:
            root[ra] = rb
    members: dict[int, list[int]] = {}
    for node in range(len(root)):
        members.setdefault(find(node), []).append(node)
    edge_count: dict[int, int] = {}
    for ai, _, _ in edges:
        edge_count[find(ai)] = edge_count.get(find(ai), 0) + 1

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
