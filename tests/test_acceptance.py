"""Acceptance gate: nine end-to-end checks over the whole library.

Each test prints one PASS/FAIL line in the terminal summary (see conftest).
Budgets are asserted with wall-clock timing where a criterion carries one.
"""

import random
import time

from revdcj.dcj import circular_dcj_distance, dcj_distance
from revdcj.dm import (
    from_graph,
    from_partitions,
    is_delta_matroid,
    is_even,
    max_sets,
    set_system,
    summands,
    twist,
    has_full_lc_sequence_for,
    find_full_lc_sequence_for,
)
from revdcj.fourreg import (
    CircuitPartition,
    circuits,
    encode_permutation,
    random_euler_system,
    random_four_regular,
    random_supplementary,
)
from revdcj.graphs import (
    adjacency_matrix,
    circle_graph,
    matrix_pretty,
)
from revdcj.localcomp import lc_contract, lc_strip, local_complement, ms_set
from revdcj.oracle import brute_dcj_distance
from revdcj.perm import (
    CIRCULAR,
    SignedPermutation,
    apply_reversal,
    is_identity,
    parse_genome,
)
from revdcj.sorter import (
    circuit_count,
    permutation_circle_graph,
    reversal_distance,
    reversal_for_vertex,
    sort_by_reversals,
)

from conftest import (
    SWEEP_MAX_N,
    all_reversals,
    circle_graph_via_routes,
    connected_components,
    marker_names,
    random_genome,
    random_looped_graph,
)

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))

PI7_MATRIX = """\
   v0 v1 v2 v3 v4 v5 v6 v7
v0  0  0  0  0  0  0  0  0
v1  0  1  1  1  1  1  0  1
v2  0  1  1  0  1  1  0  0
v3  0  1  0  0  0  1  0  0
v4  0  1  1  0  1  1  0  0
v5  0  1  1  1  1  0  1  1
v6  0  0  0  0  0  1  1  0
v7  0  1  0  0  0  1  0  0"""


def test_criterion_1_running_example_end_to_end(criterion_note):
    started = time.monotonic()

    enc = encode_permutation(PI7)
    c = circuit_count(PI7)
    assert c == 4
    assert len(circuits(enc.graph, enc.pb)) == 5

    h = permutation_circle_graph(PI7)
    assert set(h.looped_vertices()) == {1, 2, 4, 6}
    m = adjacency_matrix(h)
    assert matrix_pretty(m) == PI7_MATRIX
    assert m.rank() == 4 and m.nullity() == 4

    report = reversal_distance(PI7)
    assert report.lower_bound == 4
    assert report.exact == 4
    assert report.method == "hp_criterion"

    script = sort_by_reversals(PI7)
    assert script is not None and script.claimed_distance == 4
    p = PI7
    for interval, expected in script.steps:
        p = apply_reversal(p, interval)
        assert p == expected
    assert is_identity(p)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    criterion_note("c=4, |target partition|=5, rank=nullity=4, 4-step script, %.2fs" % elapsed)


def test_criterion_2_exhaustive_distance_formula(criterion_note, small_sweep):
    started = time.monotonic()
    checked = sortable = 0
    for n, rows in small_sweep.rows.items():
        for row in rows:
            checked += 1
            if row.sortable:
                sortable += 1
                assert row.oracle_distance == n + 1 - row.c
                assert row.script_length == row.oracle_distance
            else:
                assert row.script_length is None
    elapsed = small_sweep.build_seconds + (time.monotonic() - started)
    assert elapsed < 120.0
    criterion_note(
        "%d permutations (n<=%d), %d sortable, %.1fs" % (checked, SWEEP_MAX_N, sortable, elapsed)
    )


def test_criterion_3_nullity_counts_target_circuits(criterion_note):
    started = time.monotonic()
    rng = random.Random(1003)
    for _ in range(500):
        g = random_four_regular(rng.randint(1, 8), rng.randrange(1 << 30))
        p1 = random_euler_system(g, rng.randrange(1 << 30))
        p2 = random_supplementary(g, p1, rng.randrange(1 << 30))
        h = circle_graph(g, p1, p2)
        assert h == circle_graph_via_routes(g, p1, p2)
        expected = len(circuits(g, p2)) - g.n_components()
        assert adjacency_matrix(h).nullity() == expected
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    criterion_note("500 seeded instances (<=8 vertices), %.1fs" % elapsed)


def test_criterion_4_scripts_commute_with_graph_reduction(criterion_note, small_sweep):
    scripts = 0
    for rows in small_sweep.rows.values():
        for row in rows:
            if not row.sortable:
                continue
            scripts += 1
            p = row.perm
            h = permutation_circle_graph(p)
            step = 0
            script = sort_by_reversals(p)
            while h.edges:
                v = min(ms_set(h))
                interval = reversal_for_vertex(p, v)
                assert script.steps[step][0] == interval
                p = apply_reversal(p, interval)
                h_next = permutation_circle_graph(p)
                assert h_next == lc_strip(h, v)
                h = h_next
                step += 1
            assert is_identity(p) and step == len(script.steps)
    criterion_note("graph recomputed after every step of %d scripts (n<=%d)" % (scripts, SWEEP_MAX_N))


def test_criterion_5_rank_laws_at_looped_vertices(criterion_note):
    rng = random.Random(1005)
    graphs = pairs = 0
    for _ in range(500):
        graphs += 1
        h = random_looped_graph(rng.randint(1, 10), rng.randrange(1 << 30))
        rank = adjacency_matrix(h).rank()
        nullity = adjacency_matrix(h).nullity()
        for v in h.looped_vertices():
            pairs += 1
            assert adjacency_matrix(lc_strip(h, v)).rank() == rank - 1
            assert adjacency_matrix(lc_contract(h, v)).nullity() == nullity
    criterion_note("%d looped vertices across %d random graphs (n<=10)" % (pairs, graphs))


def test_criterion_6_delta_matroid_suite(criterion_note):
    started = time.monotonic()
    rng = random.Random(1006)

    for _ in range(100):
        h = random_looped_graph(rng.randint(1, 8), rng.randrange(1 << 30))
        d = from_graph(h)
        assert is_delta_matroid(d)
        assert is_even(d) == (not h.looped_vertices())
        rank = adjacency_matrix(h).rank()
        assert {m.bit_count() for m in max_sets(d)} == {rank}
        grounds = {s.ground for s in summands(d)}
        assert grounds == {tuple(sorted(c)) for c in connected_components(h)}
        loops = sorted(h.looped_vertices())
        if loops:
            v = rng.choice(loops)
            assert from_graph(local_complement(h, v)) == twist(d, [v])

    for _ in range(40):
        g = random_four_regular(rng.randint(1, 8), rng.randrange(1 << 30))
        p1 = random_euler_system(g, rng.randrange(1 << 30))
        p2 = random_supplementary(g, p1, rng.randrange(1 << 30))
        d = from_partitions(g, p1, p2)
        assert is_delta_matroid(d)
        h = circle_graph(g, p1, p2)
        assert h == circle_graph_via_routes(g, p1, p2)
        assert d == from_graph(h)

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    criterion_note("100 graph + 40 partition instances (<=8 elements), %.1fs" % elapsed)


def test_criterion_7_counterexample_regression(criterion_note):
    s = set_system(range(3), [[], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
    assert is_delta_matroid(s)
    assert len(summands(s)) == 1
    assert not is_even(s)
    assert not has_full_lc_sequence_for(s)
    assert find_full_lc_sequence_for(s) is None
    criterion_note("3-element family without singletons: connected, not even, unsortable")


def test_criterion_8_dcj_formula_matches_search(criterion_note):
    started = time.monotonic()
    rng = random.Random(1008)

    ga = parse_genome("L: b -d c\nC: a -e f")
    gb = parse_genome("L: a b c\nC: d e\nL: f")
    assert dcj_distance(ga, gb) == 5
    assert brute_dcj_distance(ga, gb).distance == 5

    circular = 0
    for _ in range(200):
        names = marker_names(rng.randint(1, 5))
        pair = random_genome(names, rng), random_genome(names, rng)
        assert dcj_distance(*pair) == brute_dcj_distance(*pair).distance
        if all(ch.shape == CIRCULAR for g in pair for ch in g.chromosomes):
            circular += 1
            assert circular_dcj_distance(*pair) == dcj_distance(*pair)

    while circular < 25:
        names = marker_names(rng.randint(1, 5))
        pair = random_genome(names, rng), random_genome(names, rng)
        if not all(ch.shape == CIRCULAR for g in pair for ch in g.chromosomes):
            continue
        circular += 1
        assert circular_dcj_distance(*pair) == dcj_distance(*pair)
        assert circular_dcj_distance(*pair) == brute_dcj_distance(*pair).distance

    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    criterion_note(
        "200 seeded pairs (<=5 markers) + worked example; %d circular pairs via the encoding, %.1fs"
        % (circular, elapsed)
    )


def test_criterion_9_route_switch_law_and_reversal_delta(criterion_note):
    rng = random.Random(1009)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_four_regular(n, rng.randrange(1 << 30))
        routes = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        v = rng.randrange(n)
        sizes = sorted(
            len(circuits(g, CircuitPartition(routes[:v] + (r,) + routes[v + 1 :])))
            for r in (1, 2, 3)
        )
        assert sizes[0] == sizes[1] == sizes[2] - 1

    from revdcj.oracle import enumerate_signed_permutations

    checked = 0
    for n in range(SWEEP_MAX_N + 1):
        for p in enumerate_signed_permutations(n):
            c = circuit_count(p)
            for interval in all_reversals(n):
                checked += 1
                assert circuit_count(apply_reversal(p, interval)) - c in (-1, 0, 1)
    criterion_note("route law on 200 random instances; %d reversal deltas (n<=%d)" % (checked, SWEEP_MAX_N))
