"""Genome adjacencies, the adjacency graph, and double-cut-and-join moves."""

import random

import pytest
from hypothesis import given, settings

from revdcj import cli, dcj, fourreg
from revdcj.dcj import (
    adjacency_graph,
    adjacency_graph_to_dot,
    adjacency_set,
    apply_dcj,
    circular_dcj_distance,
    dcj_distance,
    enumerate_dcj_moves,
)
from revdcj.fourreg import (
    CircuitPartition,
    encode_circular_genomes,
    target_circuit_count,
)
from revdcj.oracle import brute_dcj_distance
from revdcj.perm import (
    CIRCULAR,
    HEAD,
    LINEAR,
    TAIL,
    Chromosome,
    Extremity,
    Genome,
    SignedPermutation,
    apply_reversal,
    genome_from_mates,
    marker_numbers,
    parse_genome,
)
from revdcj.sorter import distance_lower_bound
from revdcj.verify import verifying

from conftest import (
    all_reversals,
    marker_names,
    random_chromosomes,
    random_genome,
    reference_adjacency_graph,
    signed_permutations,
)

# a linear+circular genome pair that exercises every component kind
GA = parse_genome("L: b -d c\nC: a -e f")
GB = parse_genome("L: a b c\nC: d e\nL: f")

# marker counts for the random pairs checked against the referees
REFEREE_SIZES = (1, 2, 3, 4, 5, 8, 13, 30, 100, 300, 1000)


def head(marker: str) -> Extremity:
    return Extremity(marker, HEAD)


def tail(marker: str) -> Extremity:
    return Extremity(marker, TAIL)


def genome_of_perm(p: SignedPermutation) -> Genome:
    markers = tuple((str(abs(v)), 1 if v > 0 else -1) for v in p.values)
    return Genome((Chromosome(LINEAR, markers),))


class TestExtremities:
    def test_head_and_tail_helpers(self):
        assert head("x") == Extremity("x", HEAD)
        assert tail("x") == Extremity("x", TAIL)

    def test_breakpoints_list_adjacencies_then_telomeres(self):
        bps = adjacency_set(parse_genome("L: 1 2"))
        assert bps[:1] == (frozenset({head("1"), tail("2")}),)
        assert set(bps[1:]) == {
            frozenset({tail("1")}),
            frozenset({head("2")}),
        }


def mates_roundtrip(g: Genome) -> Genome:
    number = marker_numbers(g.marker_names())
    return genome_from_mates(tuple(number), g.mates(number))


class TestAdjacencySet:
    def test_roundtrip_through_breakpoints(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_genome(marker_names(rng.randint(1, 8)), rng)
            assert mates_roundtrip(g) == g

    def test_roundtrip_the_worked_example(self):
        for g in (GA, GB):
            assert mates_roundtrip(g) == g


class TestAdjacencyGraph:
    def test_equal_circular_genomes_give_short_cycles(self):
        g = parse_genome("C: 1 2")
        graph = adjacency_graph(g, g)
        assert sorted((c.kind, c.n_edges) for c in graph.components) == [
            ("cycle", 2),
            ("cycle", 2),
        ]
        assert graph.cycles == 2 and graph.odd_paths == 0

    def test_equal_linear_genomes_give_one_edge_paths(self):
        g = parse_genome("L: 1")
        graph = adjacency_graph(g, g)
        assert [(c.kind, c.n_edges) for c in graph.components] == [
            ("path", 1),
            ("path", 1),
        ]
        assert graph.cycles == 0 and graph.odd_paths == 2

    def test_worked_example_components(self):
        graph = adjacency_graph(GA, GB)
        assert sorted((c.kind, c.n_edges) for c in graph.components) == [
            ("path", 1),
            ("path", 2),
            ("path", 9),
        ]
        assert graph.cycles == 0 and graph.odd_paths == 2

    def test_components_partition_the_breakpoint_indices(self):
        graph = adjacency_graph(GA, GB)
        n_a = len(adjacency_set(GA))
        n_b = len(adjacency_set(GB))
        seen_a = [i for comp in graph.components for i in comp.a_members]
        seen_b = [i for comp in graph.components for i in comp.b_members]
        assert sorted(seen_a) == list(range(n_a))
        assert sorted(seen_b) == list(range(n_b))

    def test_marker_sets_must_match(self):
        with pytest.raises(ValueError):
            adjacency_graph(parse_genome("L: 1"), parse_genome("L: 2"))

    def test_odd_path_count_is_always_even(self):
        rng = random.Random(14)
        for _ in range(60):
            names = marker_names(rng.randint(1, 7))
            graph = adjacency_graph(
                random_genome(names, rng), random_genome(names, rng)
            )
            assert graph.odd_paths % 2 == 0

    def test_walk_matches_the_breakpoint_referee(self):
        rng = random.Random(22)
        pairs = []
        for _ in range(60):
            names = marker_names(rng.randint(1, 8))
            pairs.append((random_genome(names, rng), random_genome(names, rng)))
        for n in REFEREE_SIZES:
            for _ in range(10):
                pairs.append(
                    (
                        random_chromosomes(n, rng, rng.choice((0.0, 0.5, 1.0))),
                        random_chromosomes(n, rng, rng.random()),
                    )
                )
        for ga, gb in pairs:
            ref = reference_adjacency_graph(ga, gb)
            graph = adjacency_graph(ga, gb)
            assert graph.a_nodes == ref.a_nodes
            assert graph.b_nodes == ref.b_nodes
            assert graph.edges == ref.edges
            assert graph.components == ref.components
            assert dcj_distance(ga, gb) == ref.distance

    def test_dot_export_mentions_both_sides(self):
        dot = adjacency_graph_to_dot(adjacency_graph(GA, GB))
        assert dot.startswith("graph")
        assert "a0 [" in dot and "b0 [" in dot and " -- " in dot


class TestDistance:
    def test_identical_genomes_are_at_distance_zero(self):
        rng = random.Random(15)
        for _ in range(20):
            g = random_genome(marker_names(rng.randint(1, 6)), rng)
            assert dcj_distance(g, g) == 0

    def test_worked_example_distance(self):
        assert dcj_distance(GA, GB) == 5

    def test_marker_sets_must_match(self):
        for a, b in (("L: 1", "L: 2"), ("L: 1 2", "C: 1"), ("C: 1", "C: 1 2")):
            with pytest.raises(ValueError, match="marker sets differ"):
                dcj_distance(parse_genome(a), parse_genome(b))

    def test_worked_example_matches_exhaustive_search(self):
        assert brute_dcj_distance(GA, GB).distance == 5

    def test_formula_matches_exhaustive_search_on_random_pairs(self):
        rng = random.Random(16)
        for _ in range(40):
            names = marker_names(rng.randint(1, 4))
            ga, gb = random_genome(names, rng), random_genome(names, rng)
            assert dcj_distance(ga, gb) == brute_dcj_distance(ga, gb).distance

    def test_distance_is_symmetric(self):
        rng = random.Random(17)
        for _ in range(40):
            names = marker_names(rng.randint(1, 6))
            ga, gb = random_genome(names, rng), random_genome(names, rng)
            assert dcj_distance(ga, gb) == dcj_distance(gb, ga)

    def test_zero_distance_means_equality(self):
        rng = random.Random(18)
        for _ in range(60):
            names = marker_names(rng.randint(1, 5))
            ga, gb = random_genome(names, rng), random_genome(names, rng)
            assert (dcj_distance(ga, gb) == 0) == (ga == gb)


class TestCircularDistance:
    CASES = (
        ("C: 1 -2", "C: 1 2"),
        ("C: 1 2 3", "C: 1 3 2"),
        ("C: 1 2", "C: 1 2"),
        ("C: 1 2 3\nC: 4", "C: 1 2\nC: 3 4"),
    )

    def test_agrees_with_the_general_formula(self):
        for a, b in self.CASES:
            ga, gb = parse_genome(a), parse_genome(b)
            assert circular_dcj_distance(ga, gb) == dcj_distance(ga, gb)
            assert circular_dcj_distance(ga, gb) == brute_dcj_distance(ga, gb).distance

    def test_agrees_on_random_circular_pairs(self):
        rng = random.Random(19)
        count = 0
        while count < 25:
            names = marker_names(rng.randint(1, 5))
            ga, gb = random_genome(names, rng), random_genome(names, rng)
            if any(
                ch.shape != CIRCULAR for g in (ga, gb) for ch in g.chromosomes
            ):
                continue
            count += 1
            assert circular_dcj_distance(ga, gb) == dcj_distance(ga, gb)

    def test_agrees_on_all_circular_pairs_up_to_1000_markers(self):
        rng = random.Random(23)
        for n in REFEREE_SIZES:
            for _ in range(5):
                ga = random_chromosomes(n, rng, 1.0)
                gb = random_chromosomes(n, rng, 1.0)
                assert circular_dcj_distance(ga, gb) == dcj_distance(ga, gb)

    def test_rejects_linear_chromosomes(self):
        with pytest.raises(ValueError):
            circular_dcj_distance(parse_genome("L: 1"), parse_genome("C: 1"))


class TestApplyDcj:
    def test_two_cuts_realize_a_reversal(self):
        g = parse_genome("L: 1 2 3")
        out = apply_dcj(g, [head("1"), tail("2")], [head("3")], rejoin=0)
        assert out == parse_genome("L: 1 -3 -2")

    def test_alternate_rejoin_splits_instead(self):
        g = parse_genome("L: 1 2 3")
        out = apply_dcj(g, [head("1"), tail("2")], [head("3")], rejoin=1)
        assert out == parse_genome("L: 1\nC: 2 3")

    def test_single_cut_with_rejoin_zero_restores_the_genome(self):
        g = parse_genome("C: 1 2")
        assert apply_dcj(g, [head("1"), tail("2")], rejoin=0) == g

    def test_single_cut_with_rejoin_one_linearizes(self):
        g = parse_genome("C: 1")
        out = apply_dcj(g, [head("1"), tail("1")], rejoin=1)
        assert out == parse_genome("L: 1")

    def test_excision_of_a_middle_marker(self):
        g = parse_genome("L: 1 2 3")
        out = apply_dcj(g, [head("1"), tail("2")], [head("2"), tail("3")], rejoin=1)
        assert out == parse_genome("L: 1 3\nC: 2")

    def test_cuts_accept_extremity_pairs_as_tuples(self):
        g = parse_genome("L: 1 2 3")
        out = apply_dcj(g, [("1", HEAD), ("2", TAIL)], [("3", HEAD)], rejoin=0)
        assert out == parse_genome("L: 1 -3 -2")

    def test_error_cases(self):
        g = parse_genome("L: 1 2 3")
        cut = [head("1"), tail("2")]
        with pytest.raises(ValueError):
            apply_dcj(g, cut, cut)
        with pytest.raises(ValueError):
            apply_dcj(g, [tail("1")], rejoin=0)  # single cut needs an adjacency
        with pytest.raises(ValueError):
            apply_dcj(g, [head("1"), head("2")])  # not a breakpoint here
        with pytest.raises(ValueError):
            apply_dcj(g, [head("9")])  # unknown telomere
        with pytest.raises(ValueError):
            apply_dcj(g, cut, [head("3")], rejoin=2)


class TestEnumerateMoves:
    def test_two_marker_circle(self):
        moves = enumerate_dcj_moves(parse_genome("C: 1 2"))
        assert parse_genome("C: 1\nC: 2") in moves
        assert parse_genome("C: 1 -2") in moves
        assert parse_genome("L: 1 2") in moves
        assert parse_genome("C: 1 2") not in moves

    def test_single_linear_marker_can_circularize(self):
        moves = enumerate_dcj_moves(parse_genome("L: 1"))
        assert moves == (parse_genome("C: 1"),)

    def test_empty_genome_has_no_moves(self):
        assert enumerate_dcj_moves(Genome(())) == ()

    def test_moves_are_distinct_and_sorted(self):
        moves = enumerate_dcj_moves(GA)
        assert len(set(moves)) == len(moves)
        assert list(moves) == sorted(moves, key=lambda g: g.canonical())

    def test_every_move_is_at_distance_one(self):
        rng = random.Random(20)
        for _ in range(8):
            g = random_genome(marker_names(rng.randint(1, 3)), rng)
            for m in enumerate_dcj_moves(g):
                assert dcj_distance(g, m) == 1

    def test_reversals_are_among_the_moves(self):
        from revdcj.oracle import enumerate_signed_permutations

        rng = random.Random(21)
        perms = list(enumerate_signed_permutations(3))
        for n in (4, 5):
            pool = list(enumerate_signed_permutations(n))
            perms.extend(rng.sample(pool, 5))
        for p in perms:
            g = genome_of_perm(p)
            moves = set(enumerate_dcj_moves(g))
            for interval in all_reversals(len(p)):
                q = genome_of_perm(apply_reversal(p, interval))
                if q != g:
                    assert q in moves


class TestReversalAsDcjDistance:
    def test_dcj_distance_never_exceeds_reversal_distance(self):
        from revdcj.oracle import reversal_distance_table

        table = reversal_distance_table(3)
        identity = genome_of_perm(SignedPermutation((1, 2, 3)))
        for values, d in table.items():
            g = genome_of_perm(SignedPermutation(values))
            assert dcj_distance(g, identity) <= d


def framed(p: SignedPermutation) -> Genome:
    """p as one linear chromosome 0, p1, ..., pn, n+1."""
    inner = [(str(abs(v)), 1 if v > 0 else -1) for v in p.values]
    markers = [("0", 1)] + inner + [(str(len(p) + 1), 1)]
    return Genome((Chromosome(LINEAR, tuple(markers)),))


class TestFramedReversalBound:
    """Framed by caps 0 and n+1, p and the identity are n+1-c DCJ moves
    apart: the caps give two one-edge telomere paths.  The names "0" ...
    "n+1" sort as strings ("10" < "2"), so reading order and sorted order
    number the markers differently."""

    def test_every_permutation_of_the_sweep(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                p = row.perm
                pair = framed(p), framed(SignedPermutation(tuple(range(1, len(p) + 1))))
                assert dcj_distance(*pair) == distance_lower_bound(p) == len(p) + 1 - row.c
                assert adjacency_graph(*pair).distance == len(p) + 1 - row.c

    @settings(max_examples=25, deadline=None)
    @given(signed_permutations(max_n=1000))
    def test_hypothesis_permutations(self, p):
        identity = SignedPermutation(tuple(range(1, len(p) + 1)))
        assert dcj_distance(framed(p), framed(identity)) == distance_lower_bound(p)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_at_n_10_000(self, seed):
        """Seeded uniform permutations, and for seed None the identity
        read backwards, (n, n-1, ..., 1)."""
        n = 10_000
        values = list(range(n, 0, -1))
        if seed is not None:
            rng = random.Random(seed)
            rng.shuffle(values)
            values = [v * rng.choice((1, -1)) for v in values]
        p = SignedPermutation(tuple(values))
        identity = SignedPermutation(tuple(range(1, n + 1)))
        assert dcj_distance(framed(p), framed(identity)) == distance_lower_bound(p)


def seeded_pairs(count: int, seed: int):
    """Pairs of 1-2000 markers, log-uniform in size: both genomes linear,
    both circular, or both mixed."""
    rng = random.Random(seed)
    for _ in range(count):
        n = round(2000 ** rng.random())
        share = rng.choice((0.0, 1.0, None))
        yield tuple(
            random_chromosomes(n, rng, rng.random() if share is None else share)
            for _ in range(2)
        )


def all_circular(*genomes: Genome) -> bool:
    return all(ch.shape == CIRCULAR for g in genomes for ch in g.chromosomes)


class TestCountsAgainstTheReferee:
    def test_seeded_pairs_with_the_switch_on_and_off(self):
        circular = 0
        for ga, gb in seeded_pairs(300, 24):
            expected = reference_adjacency_graph(ga, gb).distance
            closed = all_circular(ga, gb)
            circular += closed
            for on in (True, False):
                with verifying(on):
                    assert dcj_distance(ga, gb) == expected
                    if closed:
                        assert circular_dcj_distance(ga, gb) == expected
        assert circular >= 60


# (genome a, genome b, the error of dcj_distance, that of the cross-check);
# the cross-check names a linear chromosome before a marker-set mismatch
MARKER_SET_ERRORS = [
    ("C: a b c", "C: a -b", "marker sets differ", "marker sets differ"),
    ("C: a b", "C: a b\nC: c", "marker sets differ", "marker sets differ"),
    ("C: a b c", "C: a b d", "marker sets differ", "marker sets differ"),
    ("L: a b c\nC: d", "C: a c b d", None, "encoding requires all-circular chromosomes"),
    ("L: a b c", "C: a b", "marker sets differ",
     "encoding requires all-circular chromosomes"),
    ("C: a b c", "L: c\nL: d a", "marker sets differ",
     "encoding requires all-circular chromosomes"),
    ("C: a", "L: b", "marker sets differ", "encoding requires all-circular chromosomes"),
]


@pytest.mark.parametrize("on", [True, False], ids=["verify", "fast"])
@pytest.mark.parametrize(
    "a, b, plain, circular",
    MARKER_SET_ERRORS,
    ids=[str(i) for i in range(len(MARKER_SET_ERRORS))],
)
def test_marker_set_errors(a, b, plain, circular, on):
    ga, gb = parse_genome(a), parse_genome(b)
    with verifying(on):
        if plain is None:
            dcj_distance(ga, gb)
        else:
            with pytest.raises(ValueError) as caught:
                dcj_distance(ga, gb)
            assert str(caught.value) == plain
        for check in (circular_dcj_distance, encode_circular_genomes):
            with pytest.raises(ValueError) as caught:
                check(ga, gb)
            assert str(caught.value) == circular


class TestCrossCheckKeepsItsChecks:
    """With the switch off, as the CLI and the bench run it."""

    PAIR = ("C: a -b c\nC: d e", "C: a c e\nC: b -d")

    def test_counts_on_the_expanded_slot_layout(self, monkeypatch):
        ga, gb = map(parse_genome, self.PAIR)
        with verifying(False):
            assert circular_dcj_distance(ga, gb) == dcj_distance(ga, gb) == 4

        def source_routes(cycles, n_vertices):
            # pa follows ga's chromosomes, so none of its circuits is
            # intermediate-only and the count reads n
            edges, _, intermediate = real(cycles, n_vertices)
            return edges, CircuitPartition((1,) * n_vertices), intermediate

        real = fourreg._expand
        monkeypatch.setattr(fourreg, "_expand", source_routes)
        with verifying(False):
            assert circular_dcj_distance(ga, gb) == 5

    def test_the_slot_matching_check_runs(self, monkeypatch):
        ga, gb = map(parse_genome, self.PAIR)

        def doubled(cycles, n_vertices):
            edges, pb, intermediate = real(cycles, n_vertices)
            return ((edges[1][0], edges[0][1]),) + edges[1:], pb, intermediate

        real = fourreg._expand
        monkeypatch.setattr(fourreg, "_expand", doubled)
        with verifying(False):
            with pytest.raises(ValueError, match="slot 5 matched twice"):
                circular_dcj_distance(ga, gb)

    def test_a_disagreement_raises(self, capsys, monkeypatch):
        def one_off(*args):
            return target_circuit_count(*args) + 1

        monkeypatch.setattr(dcj, "target_circuit_count", one_off)
        with verifying(False):
            code = cli.main(["dcj", "C: 1 2 3 4 5 6 7", "C: 1 -2 3 4 5 6 7"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "internal error: encoding route disagrees with the adjacency graph\n"
