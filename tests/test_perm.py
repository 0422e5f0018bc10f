"""Signed permutations, reversals, and genome parsing."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from revdcj.perm import (
    CIRCULAR,
    Chromosome,
    Extremity,
    Genome,
    HEAD,
    LINEAR,
    TAIL,
    ReversalInterval,
    SignedPermutation,
    apply_reversal,
    genome_from_json,
    identity,
    is_identity,
    least_rotation,
    parse_genome,
    parse_permutation,
    permutation_from_json,
    reverse_complement,
)

from conftest import least_cycle_by_brute_force, marker_names, signed_permutations

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))


class TestParsing:
    def test_seven_element_example(self):
        assert parse_permutation("1,-6,7,4,-2,-5,3") == PI7

    def test_whitespace_separated(self):
        assert parse_permutation("1 -6  7\t4 -2 -5 3") == PI7

    def test_empty_input_is_the_empty_permutation(self):
        assert parse_permutation("") == SignedPermutation(())
        assert len(parse_permutation("   ")) == 0

    def test_duplicate_absolute_value_rejected(self):
        with pytest.raises(ValueError):
            parse_permutation("1,1")
        with pytest.raises(ValueError):
            parse_permutation("2,-2")

    def test_gap_in_absolute_values_rejected(self):
        with pytest.raises(ValueError):
            parse_permutation("1,3")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            parse_permutation("0,1")

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError):
            parse_permutation("1,x")

    @given(signed_permutations(max_n=6))
    def test_str_roundtrips_through_parse(self, p):
        assert parse_permutation(str(p).strip("()")) == p

    @given(signed_permutations(max_n=6))
    def test_json_roundtrip(self, p):
        assert permutation_from_json(p.to_json()) == p

    def test_json_is_a_plain_dict(self):
        assert SignedPermutation((2, -1)).to_json() == {"values": [2, -1]}


class TestApplyReversal:
    def test_full_reversal_is_reverse_and_negate(self):
        got = apply_reversal(SignedPermutation((1, 2, 3)), ReversalInterval(1, 3))
        assert got.values == (-3, -2, -1)

    def test_interior_interval(self):
        # hand-applied: flip positions 3..7 of (1,2,-4,-7,6,-5,3)
        got = apply_reversal(
            SignedPermutation((1, 2, -4, -7, 6, -5, 3)), ReversalInterval(3, 7)
        )
        assert got.values == (1, 2, -3, 5, -6, 7, 4)

    def test_four_step_replay_reaches_identity(self):
        # the optimal script for PI7, hand-checked step by step
        cur = PI7
        steps = [
            ((2, 5), (1, 2, -4, -7, 6, -5, 3)),
            ((4, 7), (1, 2, -4, -3, 5, -6, 7)),
            ((3, 4), (1, 2, 3, 4, 5, -6, 7)),
            ((6, 6), (1, 2, 3, 4, 5, 6, 7)),
        ]
        for (a, b), expected in steps:
            cur = apply_reversal(cur, ReversalInterval(a, b))
            assert cur.values == expected
        assert is_identity(cur)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            apply_reversal(SignedPermutation((1, 2)), ReversalInterval(1, 3))

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError):
            ReversalInterval(3, 2)
        with pytest.raises(ValueError):
            ReversalInterval(0, 1)

    @given(signed_permutations(max_n=6), st.data())
    def test_reversals_are_involutions(self, p, data):
        if len(p) == 0:
            return
        i = data.draw(st.integers(1, len(p)))
        j = data.draw(st.integers(i, len(p)))
        r = ReversalInterval(i, j)
        assert apply_reversal(apply_reversal(p, r), r) == p


class TestIdentity:
    def test_sorted_seven(self):
        assert is_identity(SignedPermutation((1, 2, 3, 4, 5, 6, 7)))

    def test_empty(self):
        assert is_identity(SignedPermutation(()))

    def test_unsorted_seven(self):
        assert not is_identity(PI7)

    def test_negated_entry_is_not_identity(self):
        assert not is_identity(SignedPermutation((1, -2, 3)))

    def test_identity_constructor(self):
        assert identity(4).values == (1, 2, 3, 4)


class TestReverseComplement:
    def test_seven_element_example(self):
        assert reverse_complement(PI7).values == (-3, 5, 2, -4, -7, 6, -1)

    def test_empty(self):
        assert reverse_complement(SignedPermutation(())).values == ()

    def test_single(self):
        assert reverse_complement(SignedPermutation((1,))).values == (-1,)

    @given(signed_permutations(max_n=6))
    def test_involution(self, p):
        assert reverse_complement(reverse_complement(p)) == p


class TestGenomes:
    def test_mixed_genome_parses(self):
        g = parse_genome("L: b -d c\nC: a -e f")
        shapes = sorted(c.shape for c in g.chromosomes)
        assert shapes == [CIRCULAR, LINEAR]
        assert g.marker_names() == {"a", "b", "c", "d", "e", "f"}

    def test_three_chromosome_genome(self):
        g = parse_genome("L: a b c\nC: d e\nL: f")
        assert len(g.chromosomes) == 3

    def test_duplicate_marker_rejected(self):
        with pytest.raises(ValueError):
            parse_genome("L: a a")
        with pytest.raises(ValueError):
            parse_genome("L: a\nC: a")

    def test_missing_prefix_rejected(self):
        with pytest.raises(ValueError):
            parse_genome("a b c")
        with pytest.raises(ValueError):
            parse_genome("X: a b")

    def test_empty_chromosome_rejected(self):
        with pytest.raises(ValueError):
            parse_genome("L:")

    def test_circular_equality_up_to_rotation(self):
        assert parse_genome("C: a b c") == parse_genome("C: b c a")

    def test_equality_up_to_strand(self):
        assert parse_genome("L: a -b c") == parse_genome("L: -c b -a")
        assert parse_genome("C: a b") == parse_genome("C: -b -a")

    def test_shape_distinguishes(self):
        assert parse_genome("L: a b") != parse_genome("C: a b")

    def test_chromosome_order_is_free(self):
        assert parse_genome("L: a\nC: b c") == parse_genome("C: c b\nL: a")

    def test_marker_sign_validation(self):
        with pytest.raises(ValueError):
            Chromosome(LINEAR, (("a", 2),))
        with pytest.raises(ValueError):
            Chromosome(LINEAR, (("", 1),))

    def test_json_roundtrip(self):
        g = parse_genome("L: b -d c\nC: a -e f")
        data = g.to_json()
        assert genome_from_json(data) == g
        assert json.loads(json.dumps(data)) == data
        assert {c["shape"] for c in data["chromosomes"]} == {LINEAR, CIRCULAR}

    def test_genome_str_parses_back(self):
        g = parse_genome("L: b -d c\nC: a -e f")
        assert parse_genome(str(g)) == g

    def test_genome_is_hashable_on_canonical_form(self):
        assert len({parse_genome("C: a b"), parse_genome("C: b a")}) == 1
        assert Genome(()) == Genome(())


def flip(markers):
    return tuple((name, -sign) for name, sign in reversed(markers))


class TestChromosomeForms:
    def test_least_rotation_starts_at_the_least_item(self):
        assert least_rotation((3, 1, 2)) == (1, 2, 3)
        assert least_rotation((5,)) == (5,)
        assert least_rotation(()) == ()

    def test_canonical_forms_match_brute_force(self):
        # every chromosome of up to 9 markers, against the least of all its
        # rotations (circular only) and of its reverse complement's
        rng = random.Random(23)
        for _ in range(3000):
            names = marker_names(rng.randint(1, 9))
            rng.shuffle(names)
            ms = tuple((name, rng.choice((1, -1))) for name in names)
            assert Chromosome(LINEAR, ms).canonical() == (LINEAR, min(ms, flip(ms)))
            expected = least_cycle_by_brute_force(ms, flip)
            assert Chromosome(CIRCULAR, ms).canonical() == (CIRCULAR, expected)

    def test_equality_and_hash_up_to_rotation_and_strand(self):
        ms = (("a", 1), ("b", -1), ("c", 1), ("d", 1))
        circular = Chromosome(CIRCULAR, ms)
        same = [
            Chromosome(CIRCULAR, ms[2:] + ms[:2]),
            Chromosome(CIRCULAR, flip(ms)),
            Chromosome(CIRCULAR, flip(ms[1:] + ms[:1])),
        ]
        for other in same:
            assert other == circular and hash(other) == hash(circular)
        linear = Chromosome(LINEAR, ms)
        assert Chromosome(LINEAR, flip(ms)) == linear
        assert hash(Chromosome(LINEAR, flip(ms))) == hash(linear)
        assert Chromosome(LINEAR, ms[1:] + ms[:1]) != linear
        assert linear != circular
        assert Chromosome(CIRCULAR, (("a", 1), ("b", 1), ("c", 1))) != Chromosome(
            CIRCULAR, (("a", 1), ("c", 1), ("b", 1))
        )
        assert circular.__eq__("C: a -b c d") is NotImplemented

    def test_duplicate_marker_in_one_chromosome_rejected(self):
        with pytest.raises(ValueError, match="duplicate marker 'a'"):
            Chromosome(CIRCULAR, (("a", 1), ("b", 1), ("a", -1)))

    def test_junctions_and_telomeres(self):
        def ext(text):
            name, side = text.split(".")
            return Extremity(name, HEAD if side == "h" else TAIL)

        linear = Chromosome(LINEAR, (("a", 1), ("b", -1), ("c", 1)))
        assert linear.junctions() == [
            (ext("a.h"), ext("b.h")),
            (ext("b.t"), ext("c.t")),
        ]
        assert linear.telomeres() == (ext("a.t"), ext("c.h"))
        circular = Chromosome(CIRCULAR, (("a", -1), ("b", 1)))
        assert circular.junctions() == [
            (ext("a.t"), ext("b.t")),
            (ext("b.h"), ext("a.h")),
        ]
        assert circular.telomeres() == ()
        single = Chromosome(CIRCULAR, (("a", 1),))
        assert single.junctions() == [(ext("a.h"), ext("a.t"))]
