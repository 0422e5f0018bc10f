"""The 4-regular multigraph encoding and its circuit partitions."""

import random
from dataclasses import fields

import pytest

from revdcj.fourreg import (
    ANCHOR,
    CircuitPartition,
    FourRegularGraph,
    INTERMEDIATE,
    REAL,
    circuits,
    encode_circular_genomes,
    encode_permutation,
    graph_to_dot,
    is_euler_system,
    permutation_names,
    random_euler_system,
    random_four_regular,
    random_supplementary,
    supplementary,
    switch_route,
    target_circuit_count,
    _slot_walk,
)
from revdcj.oracle import enumerate_signed_permutations
from revdcj.perm import (
    SignedPermutation,
    apply_reversal,
    identity,
    least_rotation,
    parse_genome,
)

from conftest import (
    all_reversals,
    breakpoint_positions,
    least_cycle_by_brute_force,
    random_chromosomes,
)

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))


def pairing_to_json(enc) -> dict:
    """Half-edge dump of a permutation encoding."""
    vertices, labels, kinds = permutation_names(enc)
    return {
        "n": enc.n,
        "vertices": list(vertices),
        "edges": [
            {"slots": list(e), "label": labels[i], "kind": kinds[i]}
            for i, e in enumerate(enc.graph.edges)
        ],
        "pa_routes": list(enc.pa.routes),
        "pb_routes": list(enc.pb.routes),
    }


def circuit_label_sets(labels, g, p):
    return sorted(sorted(labels[i] for i in c) for c in circuits(g, p))


def genome_edge_labels(ga):
    """Each marker of ga in reading order, then an intermediate: the edge
    order of ``encode_circular_genomes``."""
    return [
        label
        for chrom in ga.chromosomes
        for name, _ in chrom.markers
        for label in (name, "I")
    ]


def odd_edge_slots(enc) -> bytes:
    """1 on both slots of every odd-numbered edge, 0 elsewhere."""
    flags = bytearray(enc.graph.n_slots)
    for a, b in enc.graph.edges[1::2]:
        flags[a] = flags[b] = 1
    return bytes(flags)


class TestGraphValidation:
    def test_edge_count_must_match_degree_four(self):
        with pytest.raises(ValueError):
            FourRegularGraph(1, ((0, 1),))

    def test_slot_matched_twice_rejected(self):
        with pytest.raises(ValueError):
            FourRegularGraph(1, ((0, 1), (1, 3)))

    def test_slot_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FourRegularGraph(1, ((0, 1), (2, 4)))

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (1, ((0, 1), (-1, 3)), "slot -1 out of range"),
            (1, ((0, 1), (2, 4)), "slot 4 out of range"),
            (2, ((0, 1), (2, 3), (4, 5), (6, 8)), "slot 8 out of range"),
            (1, ((0, 1), (1, 3)), "slot 1 matched twice"),
            (1, ((2, 2), (0, 1)), "slot 2 matched twice"),
            # several faults: the first slot in edge order is named
            (2, ((0, 1), (3, 9), (1, -2), (4, 5)), "slot 9 out of range"),
            (2, ((0, 1), (2, 1), (9, 3), (4, 4)), "slot 1 matched twice"),
            (2, ((7, 6), (5, 4), (3, 7), (8, 0)), "slot 7 matched twice"),
        ],
    )
    def test_slot_messages_name_the_first_bad_slot(self, n, edges, message):
        with pytest.raises(ValueError) as caught:
            FourRegularGraph(n, edges)
        assert str(caught.value) == message

    def test_every_edge_is_a_slot_pair(self):
        with pytest.raises(ValueError):
            FourRegularGraph(1, ((0, 1, 2), (3,)))

    def test_a_graph_is_its_slot_matching(self):
        assert [f.name for f in fields(FourRegularGraph)] == ["n_vertices", "edges"]

    def test_route_codes_validated(self):
        with pytest.raises(ValueError):
            CircuitPartition((0,))
        with pytest.raises(ValueError):
            CircuitPartition((4,))

    def test_partition_must_match_graph(self):
        g = FourRegularGraph(1, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            circuits(g, CircuitPartition((1, 1)))


class TestSmallestGraphs:
    def test_single_vertex_split_loops_make_two_circuits(self):
        # two loops at one vertex; the route keeping each loop to itself
        g = FourRegularGraph(1, ((0, 1), (2, 3)))
        assert len(circuits(g, CircuitPartition((1,)))) == 2

    def test_single_vertex_crossing_routes_make_one_circuit(self):
        g = FourRegularGraph(1, ((0, 1), (2, 3)))
        assert len(circuits(g, CircuitPartition((2,)))) == 1
        assert len(circuits(g, CircuitPartition((3,)))) == 1

    def test_route_pairs_each_slot_with_its_xor(self):
        # two loops (a, b) at one vertex stay two circuits only under the
        # route that follows them, the one pairing a with a ^ r == b
        for loops in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            g = FourRegularGraph(1, loops)
            for r in (1, 2, 3):
                split = all(a ^ r == b for a, b in loops)
                assert len(circuits(g, CircuitPartition((r,)))) == (2 if split else 1)

    def test_circuit_canonical_under_rotation_and_reflection(self):
        def form(ids):
            return min(least_rotation(ids), least_rotation(ids[::-1]))

        for ids in ((1, 2, 0), (2, 1, 0), (0, 2, 1)):
            assert form(ids) == (0, 1, 2)

    def test_circuits_are_the_least_forms_of_the_walks(self):
        # every circuit of up to 5 vertices (10 edges), against the least
        # of all rotations and reflections of the walk that found it
        rng = random.Random(17)
        for trial in range(400):
            n = rng.randint(1, 5)
            g = random_four_regular(n, rng.randrange(1 << 30))
            p = CircuitPartition(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
            owner = g.edge_of_slot()
            walks = [tuple(owner[dep] for _, dep in s) for s in _slot_walk(g, p)]
            expected = sorted(
                least_cycle_by_brute_force(w, lambda s: s[::-1]) for w in walks
            )
            assert list(circuits(g, p)) == expected, trial


class TestEncodePermutation:
    def test_seven_element_example_shape(self):
        enc = encode_permutation(PI7)
        assert enc.graph.n_vertices == 8
        assert len(enc.graph.edges) == 16
        assert permutation_names(enc)[0] == tuple("v%d" % v for v in range(8))
        assert len(circuits(enc.graph, enc.pa)) == 1
        assert len(circuits(enc.graph, enc.pb)) == 5

    def test_seven_element_example_junctions(self):
        # traversal order of merged junction labels, derived by hand from
        # the head/tail meeting rule
        enc = encode_permutation(PI7)
        assert enc.junction_sequence == (
            0, 0, 1, 6, 5, 6, 7, 3, 4, 2, 1, 5, 4, 2, 3, 7,
        )

    def test_seven_element_example_target_circuits(self):
        enc = encode_permutation(PI7)
        labels = circuit_label_sets(permutation_names(enc)[1], enc.graph, enc.pb)
        assert ["$", "1", "2", "3", "4", "5", "6", "7"] in labels
        intermediates = [ls for ls in labels if all(l.startswith("I") for l in ls)]
        assert intermediates == [
            ["I1"],
            ["I2", "I3", "I6"],
            ["I4", "I8"],
            ["I5", "I7"],
        ]
        assert target_circuit_count(enc) == 4

    def test_single_element(self):
        enc = encode_permutation(SignedPermutation((1,)))
        assert enc.graph.n_vertices == 2
        assert sorted(permutation_names(enc)[1]) == ["$", "1", "I1", "I2"]
        assert len(circuits(enc.graph, enc.pb)) == 3
        assert target_circuit_count(enc) == 2

    def test_empty_permutation(self):
        enc = encode_permutation(SignedPermutation(()))
        assert enc.graph.n_vertices == 1
        assert sorted(permutation_names(enc)[1]) == ["$", "I1"]
        assert len(circuits(enc.graph, enc.pb)) == 2
        assert target_circuit_count(enc) == 1

    def test_edge_kinds_partition_the_traversal(self):
        enc = encode_permutation(PI7)
        kinds = permutation_names(enc)[2]
        assert kinds.count(ANCHOR) == 1
        assert kinds.count(REAL) == 7
        assert kinds.count(INTERMEDIATE) == 8

    def test_source_partition_is_euler_system(self):
        for p in ((), (1,), (-2, 1), (1, -6, 7, 4, -2, -5, 3)):
            enc = encode_permutation(SignedPermutation(p))
            assert is_euler_system(enc.graph, enc.pa)
            assert supplementary(enc.pa, enc.pb)

    def test_identity_intermediates_are_length_one_circuits(self):
        for n in range(7):
            enc = encode_permutation(identity(n))
            assert target_circuit_count(enc) == n + 1

    def test_breakpoint_positions(self):
        enc = encode_permutation(PI7)
        assert breakpoint_positions(enc, 0) == (0, 1)
        assert breakpoint_positions(enc, 1) == (2, 10)
        with pytest.raises(ValueError):
            breakpoint_positions(enc, 9)


class TestExactLayout:
    """Slot numbers, flags and routes of both encoders, and the names of a
    permutation encoding, pinned."""

    def test_permutation_encoding(self):
        enc = encode_permutation(PI7)
        g = enc.graph
        assert g.edges == (
            (31, 0), (1, 2), (3, 4), (5, 24), (25, 20), (21, 26), (27, 28), (29, 12),
            (13, 16), (17, 8), (9, 6), (7, 22), (23, 18), (19, 10), (11, 14), (15, 30),
        )
        assert enc.pa.routes == (1,) * 8
        assert enc.pb.routes == (3, 2, 2, 3, 2, 3, 2, 3)
        assert enc.intermediate == bytes((
            0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1,
            0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0,
        ))
        vertices, labels, kinds = permutation_names(enc)
        assert labels == (
            "$", "I1", "1", "I2", "6", "I3", "7", "I4",
            "4", "I5", "2", "I6", "5", "I7", "3", "I8",
        )
        assert kinds == (ANCHOR,) + (INTERMEDIATE, REAL) * 7 + (INTERMEDIATE,)
        assert vertices == tuple("v%d" % v for v in range(8))
        assert enc.junction_sequence == (0, 0, 1, 6, 5, 6, 7, 3, 4, 2, 1, 5, 4, 2, 3, 7)

    def test_circular_genome_encoding(self):
        enc = encode_circular_genomes(
            parse_genome("C: a -b c\nC: d e"), parse_genome("C: a c e\nC: b -d")
        )
        g = enc.graph
        assert g.edges == (
            (1, 4), (5, 12), (13, 8), (9, 6), (7, 16),
            (17, 0), (11, 14), (15, 18), (19, 2), (3, 10),
        )
        assert enc.pa.routes == (1,) * 5
        assert enc.pb.routes == (3,) * 5
        assert enc.intermediate == bytes((
            1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0,
        ))
        assert enc.n == 5 and enc.junction_sequence == ()


class TestIntermediateFlags:
    """Both encodings flag exactly the two slots of every odd-numbered edge,
    and the names of a permutation encoding follow the flags."""

    def test_permutation_flags_and_names_over_the_sweep(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                p = row.perm
                enc = encode_permutation(p)
                assert enc.intermediate == odd_edge_slots(enc), p
                vertices, labels, kinds = permutation_names(enc)
                n = len(p)
                assert vertices == tuple("v%d" % v for v in range(n + 1))
                assert labels == ("$",) + tuple(
                    label
                    for i, k in enumerate(p.values, start=1)
                    for label in ("I%d" % i, str(abs(k)))
                ) + ("I%d" % (n + 1),)
                assert kinds == (ANCHOR,) + (INTERMEDIATE, REAL) * n + (INTERMEDIATE,)
                for (a, b), kind in zip(enc.graph.edges, kinds):
                    flagged = enc.intermediate[a] + enc.intermediate[b]
                    assert flagged == (2 if kind == INTERMEDIATE else 0), p

    def test_circular_genome_flags_on_seeded_pairs(self):
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(1, 300)
            ga, gb = (random_chromosomes(n, rng, 1.0) for _ in range(2))
            enc = encode_circular_genomes(ga, gb)
            assert enc.intermediate == odd_edge_slots(enc)
            assert sum(enc.intermediate) == 2 * n


class TestEulerAndSupplementary:
    def test_source_is_euler_target_is_not(self):
        enc = encode_permutation(PI7)
        assert is_euler_system(enc.graph, enc.pa)
        assert not is_euler_system(enc.graph, enc.pb)

    def test_empty_graph_is_euler(self):
        g = FourRegularGraph(0, ())
        assert is_euler_system(g, CircuitPartition(()))

    def test_supplementary_needs_difference_everywhere(self):
        enc = encode_permutation(PI7)
        assert supplementary(enc.pa, enc.pb)
        assert not supplementary(enc.pa, enc.pa)
        # agree at exactly one vertex: still not supplementary
        routes = list(enc.pb.routes)
        routes[3] = enc.pa.routes[3]
        assert not supplementary(enc.pa, CircuitPartition(tuple(routes)))

    def test_supplementary_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            supplementary(CircuitPartition((1,)), CircuitPartition((1, 2)))


class TestSwitchRoute:
    def test_switch_at_oriented_vertex_gives_euler_system(self):
        enc = encode_permutation(PI7)
        for v in (1, 2, 4, 6):
            switched = switch_route(enc.pa, v, enc.pb)
            assert is_euler_system(enc.graph, switched), v

    def test_switch_at_unoriented_vertex_does_not(self):
        enc = encode_permutation(PI7)
        for v in (0, 3, 5, 7):
            switched = switch_route(enc.pa, v, enc.pb)
            assert not is_euler_system(enc.graph, switched), v

    def test_switch_is_idempotent(self):
        enc = encode_permutation(PI7)
        once = switch_route(enc.pa, 1, enc.pb)
        assert switch_route(once, 1, enc.pb) == once

    def test_unknown_vertex_rejected(self):
        enc = encode_permutation(PI7)
        with pytest.raises(ValueError):
            switch_route(enc.pa, 8, enc.pb)


class TestEncodeCircularGenomes:
    def test_equal_genomes_have_n_intermediate_circuits(self):
        g = parse_genome("C: a b")
        enc = encode_circular_genomes(g, parse_genome("C: a b"))
        assert enc.n == 2
        assert target_circuit_count(enc) == 2

    def test_real_circuits_spell_the_target(self):
        ga = parse_genome("C: a -b c\nC: d e")
        gb = parse_genome("C: a c e\nC: b -d")
        enc = encode_circular_genomes(ga, gb)
        labels = circuit_label_sets(genome_edge_labels(ga), enc.graph, enc.pb)
        real = [ls for ls in labels if "I" not in ls]
        assert sorted(real) == [["a", "c", "e"], ["b", "d"]]
        # the source partition walks one circuit per source chromosome
        assert len(circuits(enc.graph, enc.pa)) == 2
        assert supplementary(enc.pa, enc.pb)

    def test_single_chromosome_source_gives_euler_system(self):
        ga = parse_genome("C: a -b c d e")
        gb = parse_genome("C: a c e\nC: b -d")
        enc = encode_circular_genomes(ga, gb)
        assert is_euler_system(enc.graph, enc.pa)

    def test_linear_chromosome_rejected(self):
        with pytest.raises(ValueError):
            encode_circular_genomes(parse_genome("L: a"), parse_genome("C: a"))

    def test_marker_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_circular_genomes(parse_genome("C: a"), parse_genome("C: b"))


class TestRandomGenerators:
    def test_zero_vertices(self):
        g = random_four_regular(0, 7)
        assert g.n_vertices == 0 and g.edges == ()

    def test_negative_vertex_count_is_named(self):
        with pytest.raises(ValueError, match="vertex count -1 is negative"):
            random_four_regular(-1, 7)

    def test_deterministic_for_a_seed(self):
        assert random_four_regular(5, 42) == random_four_regular(5, 42)
        assert random_four_regular(5, 42) != random_four_regular(5, 43)

    def test_every_vertex_has_degree_four(self):
        g = random_four_regular(5, 42)
        degree = [0] * g.n_vertices
        for a, b in g.edges:
            degree[a // 4] += 1
            degree[b // 4] += 1
        assert degree == [4] * 5

    def test_random_euler_system_is_euler(self):
        for seed in range(20):
            g = random_four_regular(1 + seed % 7, seed)
            p1 = random_euler_system(g, seed + 100)
            assert is_euler_system(g, p1)

    def test_random_supplementary_is_supplementary(self):
        for seed in range(20):
            g = random_four_regular(1 + seed % 7, seed)
            p1 = random_euler_system(g, seed + 100)
            p2 = random_supplementary(g, p1, seed + 200)
            assert supplementary(p1, p2)


class TestRouteSwitchLaw:
    def test_two_counts_equal_third_one_more(self):
        # resolving a vertex three ways: two variants tie at k circuits
        # and the remaining one has k + 1
        rng = random.Random(11)
        for trial in range(40):
            n = rng.randint(1, 8)
            g = random_four_regular(n, rng.randrange(1 << 30))
            p = CircuitPartition(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
            for v in range(n):
                sizes = sorted(
                    len(circuits(g, CircuitPartition(
                        p.routes[:v] + (r,) + p.routes[v + 1:]
                    )))
                    for r in (1, 2, 3)
                )
                assert sizes[0] == sizes[1] == sizes[2] - 1, (trial, v, sizes)


class TestReversalCircuitDelta:
    @staticmethod
    def c(p):
        enc = encode_permutation(p)
        return target_circuit_count(enc)

    def test_single_reversal_moves_c_by_at_most_one_small(self):
        for n in range(5):
            for p in enumerate_signed_permutations(n):
                base = self.c(p)
                for r in all_reversals(n):
                    assert self.c(apply_reversal(p, r)) - base in (-1, 0, 1)

    def test_single_reversal_moves_c_by_at_most_one_sampled(self):
        rng = random.Random(5)
        for n in (5, 6):
            values = list(range(1, n + 1))
            intervals = all_reversals(n)
            for _ in range(300):
                rng.shuffle(values)
                p = SignedPermutation(
                    tuple(v * rng.choice((1, -1)) for v in values)
                )
                delta = self.c(apply_reversal(p, rng.choice(intervals))) - self.c(p)
                assert delta in (-1, 0, 1)


class TestLowerBoundAgainstOracle:
    def test_formula_never_exceeds_true_distance(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                lb = len(row.perm) + 1 - row.c
                assert lb <= row.oracle_distance


class TestExports:
    def test_dot_lists_every_edge_and_vertex(self):
        enc = encode_permutation(PI7)
        vertices, labels, _ = permutation_names(enc)
        dot = graph_to_dot(enc.graph, enc.pb, vertices, labels)
        assert dot.count(" -- ") == 16
        for lab in vertices + labels:
            assert '"%s"' % lab in dot
        assert "color=" in dot

    def test_pairing_json_shape(self):
        enc = encode_permutation(SignedPermutation((1,)))
        data = pairing_to_json(enc)
        assert data["n"] == 1
        assert len(data["edges"]) == 4
        assert len(data["pa_routes"]) == len(data["pb_routes"]) == 2
        kinds = {e["kind"] for e in data["edges"]}
        assert kinds == {ANCHOR, REAL, INTERMEDIATE}
