"""Circle graphs and GF(2) adjacency matrices."""

import random

import pytest
from hypothesis import given, settings

from revdcj.fourreg import (
    CircuitPartition,
    encode_permutation,
    circuits,
    random_euler_system,
    random_four_regular,
    random_supplementary,
)
from revdcj.graphs import (
    Gf2Matrix,
    LoopedGraph,
    adjacency_matrix,
    circle_graph,
    gf2_rank,
    graph_to_json,
    looped_graph,
    looped_graph_to_dot,
    matrix_pretty,
)
from revdcj.oracle import enumerate_signed_permutations
from revdcj.perm import SignedPermutation, identity
from revdcj.sorter import permutation_circle_graph

from conftest import (
    circle_graph_via_routes,
    connected_components,
    graph_from_json,
    has_loop,
    induced_subgraph,
    permutation_circle_graph_via_routes,
    random_looped_graph,
    signed_permutations,
)

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))

# adjacency rows of the seven-element example's circle graph, row i as a
# bitmask over columns; cross-checked by hand from the chord diagram of
# the junction word v0 v0 v1 v6 v5 v6 v7 v3 v4 v2 v1 v5 v4 v2 v3 v7
PI7_ROWS = (0, 190, 54, 34, 54, 222, 96, 34)

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


class TestLoopedGraph:
    def test_vertices_must_be_sorted_and_distinct(self):
        with pytest.raises(ValueError):
            LoopedGraph((1, 0), (0, 0))
        with pytest.raises(ValueError):
            LoopedGraph((0, 0), (0, 0))

    def test_edges_join_one_or_two_vertices(self):
        with pytest.raises(ValueError):
            looped_graph((0, 1, 2), [frozenset({0, 1, 2})])

    def test_edges_stay_inside_the_vertex_set(self):
        with pytest.raises(ValueError):
            looped_graph((0,), [frozenset({0, 1})])

    def test_rows_must_be_symmetric(self):
        with pytest.raises(ValueError):
            LoopedGraph((0, 1), (0b10, 0))  # 0-1 above the diagonal only
        with pytest.raises(ValueError):
            LoopedGraph((0, 1), (0, 0b01))  # 1-0 below the diagonal only
        with pytest.raises(ValueError):
            LoopedGraph((0, 1, 2), (0b110, 0b001, 0b010))  # 0-2 vs 2-1
        assert LoopedGraph((0, 1), (0b11, 0b01)).edges == {
            frozenset({0}),
            frozenset({0, 1}),
        }

    def test_rows_stay_inside_the_vertex_set(self):
        with pytest.raises(ValueError):
            LoopedGraph((0, 1), (0b100, 0))
        with pytest.raises(ValueError):
            LoopedGraph((0,), (-1,))

    def test_one_row_per_vertex(self):
        with pytest.raises(ValueError):
            LoopedGraph((0, 1), (0,))
        with pytest.raises(ValueError):
            LoopedGraph((0,), (0, 0))

    def test_normalizer_deduplicates(self):
        h = looped_graph([2, 0, 1, 1], [(0, 1), (1, 0), (2,)])
        assert h.vertices == (0, 1, 2)
        assert len(h.edges) == 2
        assert has_loop(h, 2) and not has_loop(h, 0)

    def test_neighbors_ignore_loops(self):
        h = looped_graph([0, 1], [(0,), (0, 1)])
        assert h.neighbors(0) == {1}
        assert h.looped_vertices() == {0}


class TestCircleGraph:
    def test_seven_element_example_matrix(self):
        h = permutation_circle_graph(PI7)
        m = adjacency_matrix(h)
        assert m.rows == PI7_ROWS
        assert matrix_pretty(m) == PI7_MATRIX

    def test_seven_element_example_loops(self):
        h = permutation_circle_graph(PI7)
        assert sorted(h.looped_vertices()) == [1, 2, 4, 6]

    def test_anchor_vertex_is_isolated(self):
        h = permutation_circle_graph(PI7)
        assert not h.neighbors(0) and not has_loop(h, 0)

    def test_identity_gives_edgeless_graph(self):
        for n in range(7):
            h = permutation_circle_graph(identity(n))
            assert len(h.vertices) == n + 1
            assert not h.has_any_edge()

    def test_non_supplementary_partitions_rejected(self):
        enc = encode_permutation(PI7)
        with pytest.raises(ValueError):
            circle_graph(enc.graph, enc.pa, enc.pa)

    def test_non_euler_first_partition_rejected(self):
        enc = encode_permutation(PI7)
        with pytest.raises(ValueError):
            circle_graph(enc.graph, enc.pb, enc.pa)


class TestDirectMatchesRouteReference:
    """The one-walk circle graph against the route-switching construction."""

    def test_every_permutation_of_the_sweep(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                direct = permutation_circle_graph(row.perm)
                assert direct == permutation_circle_graph_via_routes(row.perm)

    def test_every_permutation_with_n_6(self):
        for p in enumerate_signed_permutations(6):
            assert permutation_circle_graph(p) == permutation_circle_graph_via_routes(p)

    def test_random_four_regular_including_several_components(self):
        rng = random.Random(11)
        split = 0
        for _ in range(400):
            g = random_four_regular(rng.randint(1, 12), rng.randrange(1 << 30))
            p1 = random_euler_system(g, rng.randrange(1 << 30))
            p2 = random_supplementary(g, p1, rng.randrange(1 << 30))
            split += g.n_components() > 1
            assert circle_graph(g, p1, p2) == circle_graph_via_routes(g, p1, p2)
        assert split > 0

    def test_rejects_exactly_the_non_euler_sources(self):
        rng = random.Random(12)
        rejected = 0
        for _ in range(300):
            g = random_four_regular(rng.randint(1, 8), rng.randrange(1 << 30))
            p1 = CircuitPartition(
                tuple(rng.choice((1, 2, 3)) for _ in range(g.n_vertices))
            )
            p2 = random_supplementary(g, p1, rng.randrange(1 << 30))
            try:
                expected = circle_graph_via_routes(g, p1, p2)
            except ValueError:
                rejected += 1
                with pytest.raises(ValueError):
                    circle_graph(g, p1, p2)
            else:
                assert circle_graph(g, p1, p2) == expected
        assert 0 < rejected < 300

    def test_partition_of_the_wrong_size_rejected(self):
        enc = encode_permutation(PI7)
        short = CircuitPartition(enc.pa.routes[:-1])
        with pytest.raises(ValueError):
            circle_graph(enc.graph, short, CircuitPartition(enc.pb.routes[:-1]))

    @settings(max_examples=30, deadline=None)
    @given(signed_permutations(max_n=40))
    def test_larger_permutations(self, p):
        assert permutation_circle_graph(p) == permutation_circle_graph_via_routes(p)


class TestMatrix:
    def test_edgeless_graph_gives_zero_matrix(self):
        h = looped_graph(range(4), [])
        m = adjacency_matrix(h)
        assert m.rows == (0, 0, 0, 0)
        assert m.rank() == 0 and m.nullity() == 4

    def test_single_looped_vertex(self):
        m = adjacency_matrix(looped_graph([5], [(5,)]))
        assert m.rows == (1,)
        assert m.rank() == 1

    def test_seven_element_example_rank_and_nullity(self):
        m = adjacency_matrix(permutation_circle_graph(PI7))
        assert m.rank() == 4
        assert m.nullity() == 4

    def test_identity_matrix_has_full_rank(self):
        rows = tuple(1 << i for i in range(6))
        assert gf2_rank(rows) == 6
        m = Gf2Matrix(tuple(range(6)), rows)
        assert m.nullity() == 0

    def test_rank_is_over_gf2(self):
        # rows 011, 101, 110 sum to zero mod 2
        assert gf2_rank((0b011, 0b101, 0b110)) == 2

    def test_row_count_must_match_index(self):
        with pytest.raises(ValueError):
            Gf2Matrix((0, 1), (0,))

    def test_rank_even_for_loopless_graphs(self):
        for seed in range(30):
            h = random_looped_graph(2 + seed % 7, seed, loop_p=0.0)
            assert adjacency_matrix(h).rank() % 2 == 0


class TestSubgraphsAndComponents:
    def test_induced_single_oriented_vertex(self):
        h = permutation_circle_graph(PI7)
        sub = induced_subgraph(h, {1})
        assert sub.vertices == (1,)
        assert sub.edges == frozenset({frozenset({1})})

    def test_induced_empty_and_full(self):
        h = permutation_circle_graph(PI7)
        assert induced_subgraph(h, set()).vertices == ()
        assert induced_subgraph(h, h.vertices) == h

    def test_induced_rejects_foreign_vertices(self):
        h = permutation_circle_graph(PI7)
        with pytest.raises(ValueError):
            induced_subgraph(h, {0, 99})

    def test_seven_element_example_components(self):
        h = permutation_circle_graph(PI7)
        comps = connected_components(h)
        assert comps == (frozenset({0}), frozenset(range(1, 8)))

    def test_edgeless_components_are_singletons(self):
        h = looped_graph(range(5), [(2,)])  # loops do not connect anything
        assert len(connected_components(h)) == 5

    def test_complete_graph_is_one_component(self):
        h = looped_graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert len(connected_components(h)) == 1


class TestNullityTheorem:
    def test_nullity_counts_extra_circuits(self):
        # nullity(A(H)) = |P2| - (components of G) on seeded instances
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_four_regular(n, rng.randrange(1 << 30))
            p1 = random_euler_system(g, rng.randrange(1 << 30))
            p2 = random_supplementary(g, p1, rng.randrange(1 << 30))
            h = circle_graph(g, p1, p2)
            assert h == circle_graph_via_routes(g, p1, p2)
            expected = len(circuits(g, p2)) - g.n_components()
            assert adjacency_matrix(h).nullity() == expected

    def test_nullity_equals_circuit_count_exhaustive(self, small_sweep):
        for n, rows in small_sweep.rows.items():
            for row in rows:
                assert (n + 1) - row.rank == row.c

    def test_nullity_equals_circuit_count_sampled_larger(self):
        from revdcj.fourreg import target_circuit_count

        rng = random.Random(17)
        values = list(range(1, 7))
        for _ in range(200):
            rng.shuffle(values)
            p = SignedPermutation(tuple(v * rng.choice((1, -1)) for v in values))
            enc = encode_permutation(p)
            h = circle_graph(enc.graph, enc.pa, enc.pb)
            assert h == circle_graph_via_routes(enc.graph, enc.pa, enc.pb)
            c = target_circuit_count(enc)
            assert adjacency_matrix(h).nullity() == c

    @settings(max_examples=40, deadline=None)
    @given(signed_permutations(max_n=300))
    def test_direct_rank_is_n_plus_one_minus_c(self, p):
        from revdcj.sorter import circuit_count

        rank = adjacency_matrix(permutation_circle_graph(p)).rank()
        assert rank == len(p) + 1 - circuit_count(p)

    def test_rank_zero_exactly_for_the_identity(self, small_sweep):
        from revdcj.perm import is_identity

        for rows in small_sweep.rows.values():
            for row in rows:
                assert (row.rank == 0) == is_identity(row.perm)


class TestSerialization:
    def test_json_roundtrip(self):
        h = permutation_circle_graph(PI7)
        assert graph_from_json(graph_to_json(h)) == h

    def test_edges_and_json_roundtrip_on_random_graphs(self):
        # induced subgraphs give vertex ids that differ from row positions
        rng = random.Random(21)
        for _ in range(200):
            h = random_looped_graph(rng.randint(0, 12), rng.randrange(1 << 30))
            h = induced_subgraph(h, [v for v in h.vertices if rng.random() < 0.7])
            assert looped_graph(h.vertices, h.edges) == h
            assert graph_from_json(graph_to_json(h)) == h

    @settings(max_examples=30, deadline=None)
    @given(signed_permutations(max_n=40))
    def test_edges_and_json_roundtrip_on_circle_graphs(self, p):
        h = permutation_circle_graph(p)
        assert looped_graph(h.vertices, h.edges) == h
        assert graph_from_json(graph_to_json(h)) == h

    def test_json_shape(self):
        data = graph_to_json(looped_graph([0, 1], [(0, 1), (1,)]))
        assert data == {"vertices": [0, 1], "edges": [[0, 1]], "loops": [1]}

    def test_dot_marks_loops_with_double_circles(self):
        dot = looped_graph_to_dot(looped_graph([0, 1], [(0, 1), (1,)]))
        assert "doublecircle" in dot and "n0 -- n1" in dot
