"""Exhaustive-search baselines used to cross-check the closed-form distances."""

import random

import pytest

from revdcj.dcj import dcj_distance, enumerate_dcj_moves
from revdcj.oracle import (
    DCJ_CAP,
    REVERSAL_CAP,
    TABLE_CAP,
    _decode_state,
    _encode_state,
    _state_successors,
    brute_dcj_distance,
    brute_reversal_distance,
    enumerate_signed_permutations,
    reversal_distance_table,
)
from revdcj.perm import (
    ReversalInterval,
    SignedPermutation,
    apply_reversal,
    identity,
    is_identity,
    marker_numbers,
    parse_genome,
)

from conftest import all_reversals, marker_names, random_genome

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))


def plain_bfs_dcj_distance(ga, gb) -> int:
    """Reference for brute_dcj_distance: a one-sided BFS over the same
    genome states and moves."""
    number = marker_numbers(ga.marker_names())
    start = _encode_state(ga.mates(number))
    goal = _encode_state(gb.mates(number))
    seen = {start}
    frontier = [start]
    distance = 0
    while goal not in seen:
        nxt = []
        for state in frontier:
            for child in _state_successors(state):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if not nxt:
            raise AssertionError("genome state space is connected")
        frontier = nxt
        distance += 1
    return distance


class TestEnumerate:
    def test_zero_and_one_element(self):
        assert list(enumerate_signed_permutations(0)) == [SignedPermutation(())]
        values = {p.values for p in enumerate_signed_permutations(1)}
        assert values == {(1,), (-1,)}

    def test_counts(self):
        perms = list(enumerate_signed_permutations(3))
        assert len(perms) == len(set(perms)) == 48  # 3! * 2**3

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_signed_permutations(8))

    def test_all_reversals_count(self):
        assert len(all_reversals(4)) == 10  # n*(n+1)/2 intervals
        assert ReversalInterval(1, 4) in all_reversals(4)


class TestBruteReversalDistance:
    def test_identity_needs_nothing(self):
        res = brute_reversal_distance(identity(5))
        assert res.distance == 0 and res.witness == ()

    def test_single_negative_marker(self):
        res = brute_reversal_distance(SignedPermutation((-1,)))
        assert res.distance == 1
        assert res.witness == (ReversalInterval(1, 1),)

    def test_seven_element_example(self):
        res = brute_reversal_distance(PI7)
        assert res.distance == 4
        assert len(res.witness) == 4
        assert res.states_explored > 0

    def test_witness_replays_to_the_identity(self):
        rng = random.Random(22)
        pool = list(enumerate_signed_permutations(4))
        for p in rng.sample(pool, 15):
            res = brute_reversal_distance(p)
            for interval in res.witness:
                p = apply_reversal(p, interval)
            assert is_identity(p)

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_reversal_distance(identity(REVERSAL_CAP + 1))

    def test_agrees_with_the_table(self):
        rng = random.Random(27)
        tables = {n: reversal_distance_table(n) for n in range(6)}
        cases = [p for n in range(5) for p in enumerate_signed_permutations(n)]
        cases += rng.sample(list(enumerate_signed_permutations(5)), 100)
        for p in cases:
            res = brute_reversal_distance(p)
            assert res.distance == tables[len(p)][p.values]
            assert len(res.witness) == res.distance

    def test_reversed_seven_searches_from_both_ends(self):
        # a search from this end alone reaches 645,056 of the 645,120 states
        res = brute_reversal_distance(SignedPermutation((7, 6, 5, 4, 3, 2, 1)))
        assert res.distance == 7
        assert res.states_explored < 64_512


class TestDistanceTable:
    def test_covers_every_permutation(self):
        table = reversal_distance_table(3)
        assert len(table) == 48
        assert table[(1, 2, 3)] == 0

    def test_agrees_with_single_searches(self):
        table = reversal_distance_table(3)
        for values, d in table.items():
            assert brute_reversal_distance(SignedPermutation(values)).distance == d

    def test_cap(self):
        with pytest.raises(ValueError):
            reversal_distance_table(REVERSAL_CAP + 1)

    def test_refuses_the_eight_element_table(self):
        # 10,321,920 entries; the largest table in use is n = 7 (645,120)
        assert TABLE_CAP == 7
        with pytest.raises(ValueError, match="beyond 7 elements"):
            reversal_distance_table(8)


class TestBruteDcjDistance:
    def test_identical_genomes(self):
        g = parse_genome("L: 1 2\nC: 3")
        res = brute_dcj_distance(g, g)
        assert res.distance == 0
        assert res.witness == (g,)

    def test_circularization_is_one_move(self):
        res = brute_dcj_distance(parse_genome("L: 1"), parse_genome("C: 1"))
        assert res.distance == 1

    def test_worked_example(self):
        ga = parse_genome("L: b -d c\nC: a -e f")
        gb = parse_genome("L: a b c\nC: d e\nL: f")
        res = brute_dcj_distance(ga, gb)
        assert res.distance == 5
        assert res.witness[0] == ga and res.witness[-1] == gb
        assert len(res.witness) == 6

    def test_witness_steps_are_legal_moves(self):
        rng = random.Random(23)
        for _ in range(10):
            names = marker_names(rng.randint(1, 4))
            ga, gb = random_genome(names, rng), random_genome(names, rng)
            res = brute_dcj_distance(ga, gb)
            assert len(res.witness) == res.distance + 1
            for before, after in zip(res.witness, res.witness[1:]):
                assert after in enumerate_dcj_moves(before)

    def test_move_generators_agree(self):
        rng = random.Random(27)
        for _ in range(300):
            names = marker_names(rng.randint(1, 5))
            g = random_genome(names, rng)
            number = marker_numbers(names)
            successors = _state_successors(_encode_state(g.mates(number)))
            decoded = {_decode_state(tuple(number), s).canonical() for s in successors}
            assert {m.canonical() for m in enumerate_dcj_moves(g)} == decoded

    def test_strategies_agree(self):
        rng = random.Random(24)
        for _ in range(30):
            names = marker_names(rng.randint(1, 4))
            ga, gb = random_genome(names, rng), random_genome(names, rng)
            found = brute_dcj_distance(ga, gb).distance
            assert found == plain_bfs_dcj_distance(ga, gb) == dcj_distance(ga, gb)

    def test_triangle_inequality(self):
        rng = random.Random(25)
        names = marker_names(3)
        for _ in range(10):
            ga = random_genome(names, rng)
            gb = random_genome(names, rng)
            gc = random_genome(names, rng)
            dab = brute_dcj_distance(ga, gb).distance
            dbc = brute_dcj_distance(gb, gc).distance
            dac = brute_dcj_distance(ga, gc).distance
            assert dac <= dab + dbc

    def test_error_cases(self):
        with pytest.raises(ValueError):
            brute_dcj_distance(parse_genome("L: 1"), parse_genome("L: 2"))
        big = marker_names(DCJ_CAP + 1)
        rng = random.Random(26)
        with pytest.raises(ValueError):
            brute_dcj_distance(
                random_genome(big, rng), random_genome(big, rng)
            )
