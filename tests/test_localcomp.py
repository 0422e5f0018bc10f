"""Local complementation, strips, contractions, and lc-sequences."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from revdcj.graphs import adjacency_matrix, looped_graph
from revdcj.localcomp import (
    LcSequence,
    _candidates,
    find_full_lc_sequence,
    greedy_strips,
    has_full_lc_sequence,
    lc_contract,
    lc_strip,
    local_complement,
    ms_set,
)
from revdcj.perm import SignedPermutation
from revdcj.sorter import permutation_circle_graph
from revdcj.verify import verifying

from conftest import (
    connected_components,
    has_loop,
    induced_subgraph,
    is_full_lc_sequence,
    is_lc_sequence,
    random_looped_graph,
)

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))


def looped_samples(count, max_n=8, seed=0):
    """Seeded random graphs paired with one of their looped vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = random_looped_graph(rng.randint(1, max_n), rng.randrange(1 << 30))
        loops = sorted(h.looped_vertices())
        if loops:
            out.append((h, rng.choice(loops)))
    return out


def split_neighborhood(h, v):
    """N^l(v) and N^ul(v): the looped and the unlooped neighbors of v."""
    hood = h.neighbors(v)
    return hood & h.looped_vertices(), hood - h.looped_vertices()


def score(h, v):
    looped, unlooped = split_neighborhood(h, v)
    return len(unlooped) - len(looped)


def ms_set_by_definition(h):
    """Looped vertices none of whose looped neighbors scores higher."""
    looped = h.looped_vertices()
    return {
        v
        for v in looped
        if all(score(h, w) <= score(h, v) for w in h.neighbors(v) & looped)
    }


@st.composite
def looped_graphs(draw, max_n):
    """Seeded random looped graphs of varied size, density and loop share."""
    return random_looped_graph(
        draw(st.integers(1, max_n)),
        draw(st.integers(0, 1 << 30)),
        edge_p=draw(st.floats(0.02, 0.6)),
        loop_p=draw(st.floats(0.1, 0.9)),
    )


def greedy_strips_rescanning(h):
    """The greedy loop that sums the loop mask afresh before every pick:
    the referee for the mask that ``greedy_strips`` carries."""
    while h.has_any_edge():
        i = next(_candidates(h.rows, h.loop_mask), None)
        if i is None:
            raise AssertionError("sortable graph with edges but no candidates")
        v = h.vertices[i]
        h = lc_strip(h, v)
        yield v, h


def matrix_entries(h):
    m = adjacency_matrix(h)
    return {(a, b): m.entry(i, j) for i, a in enumerate(h.vertices) for j, b in enumerate(h.vertices)}


def pivot_at(h, v):
    """Principal pivot transform of A(h) at the 1x1 block {v}, computed
    directly from the matrix: rows and columns of v stay, every other
    entry gains a[i][v] * a[v][j] over GF(2)."""
    a = matrix_entries(h)
    out = {}
    for i in h.vertices:
        for j in h.vertices:
            if i == v or j == v:
                out[(i, j)] = a[(i, j)]
            else:
                out[(i, j)] = a[(i, j)] ^ (a[(i, v)] & a[(v, j)])
    return out


def schur_at(h, v):
    """Schur complement of A(h) at {v}: drop v, add a[i][v] * a[v][j]."""
    a = matrix_entries(h)
    rest = [u for u in h.vertices if u != v]
    return {
        (i, j): a[(i, j)] ^ (a[(i, v)] & a[(v, j)]) for i in rest for j in rest
    }


class TestLocalComplement:
    def test_requires_a_loop(self):
        h = looped_graph([0, 1], [(0, 1)])
        with pytest.raises(ValueError):
            local_complement(h, 0)

    def test_unknown_vertex_rejected(self):
        h = looped_graph([0], [(0,)])
        with pytest.raises(ValueError):
            local_complement(h, 1)

    def test_loop_spreads_to_the_neighborhood(self):
        # one looped vertex with one plain neighbor: the neighbor gains a
        # loop, everything else stays
        h = looped_graph([0, 1], [(0,), (0, 1)])
        got = local_complement(h, 0)
        assert got == looped_graph([0, 1], [(0,), (1,), (0, 1)])

    def test_involution(self):
        for h, v in looped_samples(40, seed=1):
            assert local_complement(local_complement(h, v), v) == h

    def test_matches_principal_pivot_transform(self):
        # the running example at its first sorting vertex, then random
        h = permutation_circle_graph(PI7)
        assert matrix_entries(local_complement(h, 1)) == pivot_at(h, 1)
        for g, v in looped_samples(30, seed=2):
            assert matrix_entries(local_complement(g, v)) == pivot_at(g, v)


class TestStrip:
    def test_lone_loop_strips_to_isolated_vertex(self):
        got = lc_strip(looped_graph([3], [(3,)]), 3)
        assert got == looped_graph([3], [])

    def test_rank_drops_by_exactly_one(self):
        for h, v in looped_samples(60, seed=3):
            rank = adjacency_matrix(h).rank()
            assert adjacency_matrix(lc_strip(h, v)).rank() == rank - 1

    def test_running_example_strips_to_edgeless(self):
        h = permutation_circle_graph(PI7)
        for v in (1, 3, 2, 5):
            h = lc_strip(h, v)
        assert not h.has_any_edge()


class TestContract:
    def test_lone_loop_contracts_to_empty_graph(self):
        got = lc_contract(looped_graph([3], [(3,)]), 3)
        assert got.vertices == ()

    def test_nullity_is_preserved(self):
        for h, v in looped_samples(60, seed=4):
            nullity = adjacency_matrix(h).nullity()
            assert adjacency_matrix(lc_contract(h, v)).nullity() == nullity

    def test_matches_schur_complement(self):
        for h, v in looped_samples(30, seed=5):
            assert matrix_entries(lc_contract(h, v)) == schur_at(h, v)

    def test_delete_vertex_drops_incident_edges(self):
        h = looped_graph([0, 1, 2], [(0, 1), (1, 2), (1,)])
        assert induced_subgraph(h, {0, 2}) == looped_graph([0, 2], [])
        with pytest.raises(ValueError):
            induced_subgraph(h, {0, 2, 9})


class TestContractionLemmas:
    def test_loopless_components_touch_the_looped_neighborhood(self):
        # for connected h and looped v: every loopless component of h|v
        # meets N^l(v), and each such meeting vertex w has
        # N^ul(v) <= N^ul(w) and N^l(w) - {v} <= N^l(v); the exclusion is
        # forced because v sits in N^l(w) but open neighborhoods never
        # contain their own vertex
        checked = 0
        for h, v in looped_samples(300, max_n=7, seed=6):
            if len(connected_components(h)) != 1:
                continue
            looped_v, unlooped_v = split_neighborhood(h, v)
            contracted = lc_contract(h, v)
            for comp in connected_components(contracted):
                if any(has_loop(contracted, u) for u in comp):
                    continue
                meet = comp & looped_v
                assert meet, (h, v, comp)
                for w in meet:
                    looped_w, unlooped_w = split_neighborhood(h, w)
                    assert unlooped_v <= unlooped_w
                    assert looped_w - {v} <= looped_v
                checked += 1
        assert checked >= 10

    def test_ms_vertices_contract_to_isolated_loopless_leftovers(self):
        checked = 0
        for h, _ in looped_samples(300, max_n=7, seed=7):
            if len(connected_components(h)) != 1:
                continue
            for v in ms_set(h):
                contracted = lc_contract(h, v)
                for comp in connected_components(contracted):
                    if any(has_loop(contracted, u) for u in comp):
                        continue
                    assert len(comp) == 1
                    (u,) = comp
                    assert not contracted.neighbors(u)
                    checked += 1
        assert checked >= 10


class TestSequences:
    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            LcSequence((1, 1))

    def test_empty_sequence_on_edgeless_graph_is_full(self):
        h = looped_graph(range(3), [])
        assert is_full_lc_sequence(h, LcSequence(()))

    def test_sequence_must_start_at_a_looped_vertex(self):
        h = permutation_circle_graph(PI7)
        assert not is_lc_sequence(h, LcSequence((3,)))  # no loop at v3
        assert is_lc_sequence(h, LcSequence((1,)))

    def test_every_full_sequence_on_the_example_has_length_four(self):
        from itertools import permutations

        h = permutation_circle_graph(PI7)
        lengths = set()
        for size in range(6):
            for order in permutations(h.vertices, size):
                if is_full_lc_sequence(h, LcSequence(order)):
                    lengths.add(size)
        assert lengths == {4}
        assert is_full_lc_sequence(h, LcSequence((1, 3, 2, 6)))

    def test_apply_raises_where_is_reports_false(self):
        h = permutation_circle_graph(PI7)
        with pytest.raises(ValueError):
            lc_strip(h, 3)
        for v in find_full_lc_sequence(h).vertices:
            h = lc_strip(h, v)
        assert not h.has_any_edge()


class TestScoresAndCandidates:
    def test_score_counts_unlooped_minus_looped_neighbors(self):
        h = looped_graph(
            [0, 1, 2, 3, 4, 5],
            [(0,), (1,), (0, 1), (0, 2), (0, 3), (0, 4), (1, 5)],
        )
        assert score(h, 0) == 3 - 1
        assert score(h, 1) == 1 - 1
        assert split_neighborhood(h, 0) == ({1}, {2, 3, 4})

    def test_adjacent_loops_keep_only_the_higher_score(self):
        h = looped_graph(
            [0, 1, 2, 3, 4, 5],
            [(0,), (1,), (0, 1), (0, 2), (0, 3), (0, 4), (1, 5)],
        )
        assert ms_set(h) == {0}

    def test_ms_set_matches_the_score_definition(self, small_sweep):
        for h, _ in looped_samples(200, max_n=10, seed=10):
            assert ms_set(h) == ms_set_by_definition(h)
        # every graph the greedy loop passes through on the n <= 5 sweep,
        # and its pick is the least candidate
        walked = 0
        for rows in small_sweep.rows.values():
            for row in rows:
                if not row.sortable:
                    continue
                h = row.graph
                for v, after in greedy_strips(h):
                    expected = ms_set_by_definition(h)
                    assert ms_set(h) == expected
                    assert v == min(expected)
                    h = after
                    walked += 1
                assert ms_set(h) == ms_set_by_definition(h) == set()
        assert walked > 10000

    @settings(max_examples=60, deadline=None)
    @given(looped_graphs(max_n=80))
    def test_ms_set_matches_the_score_definition_up_to_80_vertices(self, h):
        assert ms_set(h) == ms_set_by_definition(h)

    def test_single_looped_vertex_is_the_candidate(self):
        assert ms_set(looped_graph([4], [(4,)])) == {4}

    def test_running_example_candidates(self):
        h = permutation_circle_graph(PI7)
        assert ms_set(h) == {1, 6}
        assert ms_set(h) <= h.looped_vertices()


class TestFullSequenceCriterion:
    def test_running_example_is_sortable(self):
        h = permutation_circle_graph(PI7)
        assert has_full_lc_sequence(h)
        assert find_full_lc_sequence(h) == LcSequence((1, 3, 2, 5))

    def test_loopless_path_is_not(self):
        h = looped_graph([0, 1], [(0, 1)])
        assert not has_full_lc_sequence(h)
        assert find_full_lc_sequence(h) is None

    def test_isolated_unlooped_vertex_is_fine(self):
        assert has_full_lc_sequence(looped_graph([0], []))

    def test_edgeless_graph_needs_no_steps(self):
        seq = find_full_lc_sequence(looped_graph(range(4), []))
        assert seq == LcSequence(())

    def test_found_length_equals_rank(self):
        rng = random.Random(8)
        for _ in range(60):
            h = random_looped_graph(rng.randint(0, 8), rng.randrange(1 << 30))
            seq = find_full_lc_sequence(h)
            if seq is not None:
                assert len(seq) == adjacency_matrix(h).rank()
                assert is_full_lc_sequence(h, seq)

    def test_criterion_matches_brute_force_exhaustively(self):
        # all graphs on up to 3 vertices, against a direct search over
        # every strip order
        def brute(h):
            if not h.has_any_edge():
                return True
            return any(brute(lc_strip(h, v)) for v in h.looped_vertices())

        from itertools import combinations

        for n in range(4):
            vertices = list(range(n))
            pairs = list(combinations(vertices, 2))
            singles = [(v,) for v in vertices]
            candidates = pairs + singles
            for mask in range(1 << len(candidates)):
                edges = [candidates[i] for i in range(len(candidates)) if mask >> i & 1]
                h = looped_graph(vertices, edges)
                expected = brute(h)
                assert has_full_lc_sequence(h) == expected
                assert (find_full_lc_sequence(h) is not None) == expected

    def test_find_agrees_with_criterion_on_larger_graphs(self):
        rng = random.Random(9)
        for _ in range(25):
            h = random_looped_graph(rng.randint(10, 14), rng.randrange(1 << 30))
            seq = find_full_lc_sequence(h)
            assert (seq is not None) == has_full_lc_sequence(h)
            if seq is not None:
                assert is_full_lc_sequence(h, seq)

    def test_strip_preserves_untouched_components(self):
        # stripping inside one component never unlocks or blocks another
        h = looped_graph([0, 1, 2, 3], [(0,), (0, 1), (2, 3)])
        assert not has_full_lc_sequence(h)  # the 2-3 path has no loop
        sub = induced_subgraph(h, {0, 1})
        assert has_full_lc_sequence(sub)


class TestCarriedLoopMask:
    def test_same_strips_as_rescanning_on_the_sweep(self, small_sweep):
        walked = 0
        with verifying(False):
            for rows in small_sweep.rows.values():
                for row in rows:
                    if row.sortable:
                        got = list(greedy_strips(row.graph))
                        assert got == list(greedy_strips_rescanning(row.graph))
                        walked += len(got)
        assert walked > 10000

    @settings(max_examples=60, deadline=None)
    @given(looped_graphs(max_n=80))
    def test_same_strips_as_rescanning_up_to_80_vertices(self, h):
        assume(has_full_lc_sequence(h))
        with verifying(False):
            assert list(greedy_strips(h)) == list(greedy_strips_rescanning(h))

    def test_edges_without_loops_raise(self):
        with verifying(False), pytest.raises(AssertionError, match="no candidates"):
            list(greedy_strips(looped_graph([0, 1], [(0, 1)])))
