"""Set systems with symmetric exchange and their graph constructions."""

import random
from itertools import combinations, permutations

import pytest

from revdcj.dm import (
    GROUND_CAP,
    SetSystem,
    find_full_lc_sequence_for,
    from_graph,
    from_partitions,
    has_full_lc_sequence_for,
    is_delta_matroid,
    is_even,
    max_sets,
    set_system,
    summands,
    twist,
)
from revdcj.fourreg import (
    encode_permutation,
    random_euler_system,
    random_four_regular,
    random_supplementary,
)
from revdcj.graphs import circle_graph, looped_graph
from revdcj.localcomp import (
    LcSequence,
    has_full_lc_sequence,
    lc_strip,
    local_complement,
)
from revdcj.perm import SignedPermutation
from revdcj.sorter import permutation_circle_graph

from conftest import (
    circle_graph_via_routes,
    connected_components,
    contains,
    is_full_lc_sequence,
    is_lc_sequence,
    random_looped_graph,
    set_system_from_json,
)

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))

# members of size <= 2 of the seven-element example's system, derived by
# both constructions independently (invertible submatrices of the frozen
# adjacency matrix, and route switches that stay Eulerian)
PI7_SMALL_MEMBERS = [
    [],
    [1], [2], [4], [6],
    [1, 3], [1, 5], [1, 6], [1, 7],
    [2, 5], [2, 6],
    [3, 5],
    [4, 5], [4, 6],
    [5, 6], [5, 7],
]

# three elements, every subset except the singletons: connected and not
# even, yet no chain of single-element growths leaves the empty set
COUNTEREXAMPLE = set_system(range(3), [[], [0, 1], [0, 2], [1, 2], [0, 1, 2]])


def direct_sum(d1: SetSystem, d2: SetSystem) -> SetSystem:
    """Disjoint union of grounds; members are unions of members."""
    if set(d1.ground) & set(d2.ground):
        raise ValueError("grounds overlap")
    ground = tuple(sorted(d1.ground + d2.ground))
    pos = {e: i for i, e in enumerate(ground)}

    def lift(d: SetSystem, mask: int) -> int:
        out = 0
        for i, e in enumerate(d.ground):
            if mask >> i & 1:
                out |= 1 << pos[e]
        return out

    return SetSystem(
        ground, frozenset(lift(d1, a) | lift(d2, b) for a in d1.masks for b in d2.masks)
    )


def is_lc_sequence_for(d: SetSystem, order) -> bool:
    """Every prefix of the order is a member (the empty prefix included)."""
    order = list(order)
    if len(set(order)) != len(order):
        return False
    if 0 not in d.masks:
        return False
    mask = 0
    for e in order:
        mask |= d._mask([e])
        if mask not in d.masks:
            return False
    return True


def is_full_lc_sequence_for(d: SetSystem, order) -> bool:
    """An lc-sequence whose final prefix is a maximal member."""
    order = list(order)
    if not is_lc_sequence_for(d, order):
        return False
    final = 0
    for e in order:
        final |= d._mask([e])
    return final in max_sets(d)


def summand_criterion(d: SetSystem) -> bool:
    """Brijder & Hoogeboom (EJC 2011): a binary delta-matroid in normal
    form has a full lc-sequence iff every even connected summand on a
    nonempty ground is the one-element system whose only member is the
    empty set."""
    return all(
        not piece.ground
        or not is_even(piece)
        or (len(piece.ground) == 1 and piece.masks == frozenset({0}))
        for piece in summands(d)
    )


def subset_search_summands(d: SetSystem) -> tuple[tuple[int, ...], ...]:
    """Reference for summands: the grounds of the finest split, each block
    found as the smallest set, containing the lowest element left, whose
    projection factors what is left of the family."""
    ground_mask = (1 << len(d.ground)) - 1
    masks = d.masks
    grounds = []
    while ground_mask:
        anchor = ground_mask & -ground_mask
        others = [
            1 << i for i in range(ground_mask.bit_length())
            if ground_mask >> i & 1 and 1 << i != anchor
        ]
        candidates = (
            anchor | sum(combo)
            for size in range(len(others))
            for combo in combinations(others, size)
        )
        factors = (
            b for b in candidates
            if len({m & b for m in masks}) * len({m & ground_mask & ~b for m in masks})
            == len(masks)
        )
        block = next(factors, ground_mask)
        grounds.append(tuple(e for i, e in enumerate(d.ground) if block >> i & 1))
        ground_mask ^= block
        masks = frozenset(m & ground_mask for m in masks)
    return tuple(grounds)


def random_family(rng, max_n=7) -> SetSystem:
    n = rng.randint(0, max_n)
    return SetSystem(
        tuple(range(n)),
        frozenset(rng.randrange(1 << n) for _ in range(rng.randint(1, 1 << n))),
    )


def shuffled_product(rng) -> SetSystem:
    """A product of small random families on a random split of the ground."""
    ground = list(range(rng.randint(1, 8)))
    rng.shuffle(ground)
    cuts = sorted(rng.sample(range(1, len(ground)), rng.randint(0, len(ground) - 1)))
    family = {0}
    for lo, hi in zip([0, *cuts], [*cuts, len(ground)]):
        part = ground[lo:hi]
        factor = {
            sum(1 << e for e in part if rng.random() < 0.5)
            for _ in range(rng.randint(1, 4))
        }
        family = {a | b for a in family for b in factor}
    return SetSystem(tuple(range(len(ground))), frozenset(family))


def random_looped_with_loop(rng, max_n=6):
    while True:
        h = random_looped_graph(rng.randint(1, max_n), rng.randrange(1 << 30))
        loops = sorted(h.looped_vertices())
        if loops:
            return h, rng.choice(loops)


class TestSetSystem:
    def test_family_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SetSystem((0, 1), frozenset())

    def test_members_stay_inside_the_ground(self):
        with pytest.raises(ValueError):
            SetSystem((0,), frozenset({0b10}))
        with pytest.raises(ValueError):
            set_system([0], [[1]])

    def test_ground_must_be_sorted_and_distinct(self):
        with pytest.raises(ValueError):
            SetSystem((1, 0), frozenset({0}))

    def test_builder_and_contains(self):
        d = set_system("ba", [["a"], ["a", "b"]])
        assert d.ground == ("a", "b")
        assert contains(d, ["a"]) and contains(d, ("b", "a"))
        assert not contains(d, [])
        assert d.sets() == {frozenset({"a"}), frozenset({"a", "b"})}

    def test_json_roundtrip(self):
        d = from_graph(permutation_circle_graph(PI7))
        again = set_system_from_json(d.to_json())
        assert again == d


class TestDeltaMatroidAxiom:
    def test_empty_set_family_satisfies_exchange(self):
        assert is_delta_matroid(set_system([0, 1, 2], [[]]))

    def test_known_failure(self):
        # from the empty member, no single element of {1,2,3} can move
        # toward the big member
        d = set_system([1, 2, 3], [[], [1], [1, 2, 3]])
        assert not is_delta_matroid(d)

    def test_both_constructions_satisfy_exchange_on_the_example(self):
        enc = encode_permutation(PI7)
        assert is_delta_matroid(from_partitions(enc.graph, enc.pa, enc.pb))
        assert is_delta_matroid(from_graph(permutation_circle_graph(PI7)))

    def test_cap_is_enforced(self):
        d = set_system(range(GROUND_CAP + 1), [[]])
        with pytest.raises(ValueError):
            is_delta_matroid(d)

    def test_random_graph_systems_satisfy_exchange(self):
        rng = random.Random(21)
        for _ in range(40):
            h = random_looped_graph(rng.randint(0, 7), rng.randrange(1 << 30))
            assert is_delta_matroid(from_graph(h))


class TestTwist:
    def test_double_twist_is_identity(self):
        d = from_graph(permutation_circle_graph(PI7))
        rng = random.Random(2)
        for _ in range(10):
            x = [v for v in d.ground if rng.random() < 0.5]
            assert twist(twist(d, x), x) == d

    def test_empty_twist_changes_nothing_and_keeps_the_flag(self):
        d = from_graph(permutation_circle_graph(PI7))
        assert 0 in d.masks
        t = twist(d, [])
        assert t == d and 0 in t.masks

    def test_twist_by_the_ground_complements_members(self):
        d = set_system([0, 1], [[]])
        assert twist(d, [0, 1]).sets() == {frozenset({0, 1})}

    def test_twist_preserves_the_exchange_axiom(self):
        rng = random.Random(3)
        for _ in range(25):
            h = random_looped_graph(rng.randint(1, 6), rng.randrange(1 << 30))
            d = from_graph(h)
            x = [v for v in d.ground if rng.random() < 0.5]
            assert is_delta_matroid(twist(d, x))


class TestFromGraph:
    def test_seven_element_example_family(self):
        d = from_graph(permutation_circle_graph(PI7))
        assert len(d.masks) == 42
        small = sorted(sorted(s) for s in d.sets() if len(s) <= 2)
        assert small == sorted(PI7_SMALL_MEMBERS)
        assert contains(d, [1, 2, 3])
        assert not contains(d, [2, 4])  # identical rows make this singular

    def test_edgeless_graph_yields_only_the_empty_set(self):
        d = from_graph(looped_graph(range(3), []))
        assert d.masks == frozenset({0})

    def test_single_looped_vertex(self):
        d = from_graph(looped_graph([7], [(7,)]))
        assert d.sets() == {frozenset(), frozenset({7})}

    def test_flag_and_cap(self):
        assert 0 in from_graph(looped_graph([0], [])).masks
        with pytest.raises(ValueError):
            from_graph(looped_graph(range(GROUND_CAP + 1), []))


class TestFromPartitions:
    def test_equals_the_matrix_construction_on_the_example(self):
        enc = encode_permutation(PI7)
        via_switches = from_partitions(enc.graph, enc.pa, enc.pb)
        via_matrix = from_graph(permutation_circle_graph(PI7))
        assert via_switches == via_matrix
        assert 0 in via_switches.masks

    def test_equals_the_matrix_construction_on_small_permutations(self):
        from revdcj.oracle import enumerate_signed_permutations

        for n in range(4):
            for p in enumerate_signed_permutations(n):
                enc = encode_permutation(p)
                h = circle_graph(enc.graph, enc.pa, enc.pb)
                assert h == circle_graph_via_routes(enc.graph, enc.pa, enc.pb)
                assert from_partitions(enc.graph, enc.pa, enc.pb) == from_graph(h)

    def test_equals_the_matrix_construction_on_random_encodings(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_four_regular(rng.randint(1, 8), rng.randrange(1 << 30))
            p1 = random_euler_system(g, rng.randrange(1 << 30))
            p2 = random_supplementary(g, p1, rng.randrange(1 << 30))
            d = from_partitions(g, p1, p2)
            h = circle_graph(g, p1, p2)
            assert h == circle_graph_via_routes(g, p1, p2)
            assert d == from_graph(h)
            assert 0 in d.masks

    def test_empty_set_is_a_member_for_euler_sources(self):
        enc = encode_permutation(PI7)
        assert contains(from_partitions(enc.graph, enc.pa, enc.pb), [])

    def test_singletons_are_the_looped_vertices(self):
        enc = encode_permutation(PI7)
        d = from_partitions(enc.graph, enc.pa, enc.pb)
        singles = {next(iter(s)) for s in d.sets() if len(s) == 1}
        assert singles == set(permutation_circle_graph(PI7).looped_vertices())

    def test_non_supplementary_rejected(self):
        enc = encode_permutation(PI7)
        with pytest.raises(ValueError):
            from_partitions(enc.graph, enc.pa, enc.pa)


class TestEvenness:
    def test_even_iff_loopless(self):
        rng = random.Random(5)
        for _ in range(40):
            h = random_looped_graph(rng.randint(0, 8), rng.randrange(1 << 30))
            assert is_even(from_graph(h)) == (not h.looped_vertices())

    def test_example_system_is_not_even(self):
        assert not is_even(from_graph(permutation_circle_graph(PI7)))


class TestDirectSumAndSummands:
    def test_sum_of_empty_only_and_full_only(self):
        a = set_system([0, 1], [[]])
        b = set_system([2, 3], [[2, 3]])
        assert direct_sum(a, b) == set_system(range(4), [[2, 3]])

    def test_overlapping_grounds_rejected(self):
        with pytest.raises(ValueError):
            direct_sum(set_system([0], [[]]), set_system([0], [[]]))

    def test_example_splits_at_the_isolated_vertex(self):
        d = from_graph(permutation_circle_graph(PI7))
        assert [s.ground for s in summands(d)] == [(0,), tuple(range(1, 8))]

    def test_summand_grounds_are_the_graph_components(self):
        rng = random.Random(6)
        for _ in range(30):
            h = random_looped_graph(rng.randint(1, 7), rng.randrange(1 << 30), edge_p=0.25)
            grounds = {s.ground for s in summands(from_graph(h))}
            comps = {tuple(sorted(c)) for c in connected_components(h)}
            assert grounds == comps

    def test_summands_recompose_to_the_original(self):
        rng = random.Random(7)
        for _ in range(20):
            h = random_looped_graph(rng.randint(1, 6), rng.randrange(1 << 30), edge_p=0.3)
            d = from_graph(h)
            pieces = summands(d)
            total = pieces[0]
            for piece in pieces[1:]:
                total = direct_sum(total, piece)
            assert total == d

    def test_empty_ground_has_no_summands(self):
        assert summands(set_system([], [[]])) == ()


class TestSummandsAgainstSubsetSearch:
    """The one-element-at-a-time split equals the subset search it replaced."""

    @staticmethod
    def grounds(d):
        return tuple(piece.ground for piece in summands(d))

    def test_random_families(self):
        rng = random.Random(31)
        for _ in range(2000):
            d = random_family(rng)
            assert self.grounds(d) == subset_search_summands(d)

    def test_shuffled_products(self):
        rng = random.Random(32)
        split = 0
        for _ in range(300):
            d = shuffled_product(rng)
            assert self.grounds(d) == subset_search_summands(d)
            split += len(summands(d)) > 1
        assert split > 100

    def test_the_systems_of_the_sweep(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                d = from_graph(row.graph)
                assert self.grounds(d) == subset_search_summands(d)


class TestMaxSets:
    def test_example_maxima_all_have_rank_cardinality(self):
        d = from_graph(permutation_circle_graph(PI7))
        assert {m.bit_count() for m in max_sets(d)} == {4}

    def test_max_of_the_empty_only_family(self):
        assert max_sets(set_system([0, 1], [[]])) == frozenset({0})

    def test_max_of_a_single_looped_vertex(self):
        d = from_graph(looped_graph([3], [(3,)]))
        assert max_sets(d) == frozenset({1})

    def test_equals_the_pairwise_definition(self):
        rng = random.Random(34)
        for _ in range(500):
            d = random_family(rng)
            assert max_sets(d) == {
                m for m in d.masks
                if not any(o != m and o & m == m for o in d.masks)
            }

    def test_maxima_cardinality_equals_rank_on_random_graphs(self):
        from revdcj.graphs import adjacency_matrix

        rng = random.Random(8)
        for _ in range(30):
            h = random_looped_graph(rng.randint(0, 7), rng.randrange(1 << 30))
            rank = adjacency_matrix(h).rank()
            assert {m.bit_count() for m in max_sets(from_graph(h))} == {rank}


class TestSequenceCorrespondence:
    def test_orders_agree_with_graph_sequences(self):
        # an order is an lc-sequence for the system exactly when it is
        # one for the graph, and full exactly when full
        rng = random.Random(9)
        for _ in range(15):
            h = random_looped_graph(rng.randint(1, 5), rng.randrange(1 << 30))
            d = from_graph(h)
            n = len(h.vertices)
            for size in range(n + 1):
                for order in permutations(h.vertices, size):
                    seq = LcSequence(order)
                    assert is_lc_sequence(h, seq) == is_lc_sequence_for(d, order)
                    assert is_full_lc_sequence(h, seq) == is_full_lc_sequence_for(
                        d, order
                    )

    def test_repeating_orders_are_never_sequences(self):
        d = from_graph(looped_graph([0], [(0,)]))
        assert not is_lc_sequence_for(d, [0, 0])

    def test_empty_order_is_full_for_the_empty_only_family(self):
        d = set_system([0, 1], [[]])
        assert is_full_lc_sequence_for(d, [])

    def test_search_agrees_with_the_criterion(self):
        rng = random.Random(10)
        for _ in range(40):
            h = random_looped_graph(rng.randint(0, 8), rng.randrange(1 << 30))
            d = from_graph(h)
            found = find_full_lc_sequence_for(d)
            assert (found is not None) == has_full_lc_sequence_for(d)
            assert has_full_lc_sequence_for(d) == has_full_lc_sequence(h)
            if found is not None:
                assert is_full_lc_sequence_for(d, found)

    def test_twist_law_at_a_looped_vertex(self):
        rng = random.Random(11)
        for _ in range(30):
            h, v = random_looped_with_loop(rng)
            d = from_graph(h)
            assert from_graph(local_complement(h, v)) == twist(d, [v])

    def test_strip_keeps_the_v_free_members_of_the_twist(self):
        rng = random.Random(12)
        for _ in range(30):
            h, v = random_looped_with_loop(rng)
            stripped = from_graph(lc_strip(h, v))
            twisted = twist(from_graph(h), [v])
            bit = 1 << twisted.ground.index(v)
            assert stripped.masks == frozenset(
                m for m in twisted.masks if not m & bit
            )


class TestSummandLaw:
    """Sortability read off the summands agrees with the chain search and
    with the graph criterion on binary systems in normal form."""

    def test_on_the_circle_graphs_of_the_sweep(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                d = from_graph(row.graph)
                found = find_full_lc_sequence_for(d) is not None
                assert summand_criterion(d) == found == has_full_lc_sequence(row.graph)

    def test_on_partition_systems(self):
        rng = random.Random(14)
        for _ in range(30):
            g = random_four_regular(rng.randint(1, 8), rng.randrange(1 << 30))
            p1 = random_euler_system(g, rng.randrange(1 << 30))
            p2 = random_supplementary(g, p1, rng.randrange(1 << 30))
            d = from_partitions(g, p1, p2)
            found = find_full_lc_sequence_for(d) is not None
            assert summand_criterion(d) == found == has_full_lc_sequence(circle_graph(g, p1, p2))

    def test_needs_a_binary_system(self):
        # the counterexample is in normal form but is no graph's system
        assert summand_criterion(COUNTEREXAMPLE)
        assert find_full_lc_sequence_for(COUNTEREXAMPLE) is None


class TestCounterexample:
    def test_it_is_a_delta_matroid(self):
        assert is_delta_matroid(COUNTEREXAMPLE)

    def test_it_is_connected_but_not_even(self):
        assert len(summands(COUNTEREXAMPLE)) == 1
        assert not is_even(COUNTEREXAMPLE)

    def test_it_has_no_full_sequence(self):
        assert find_full_lc_sequence_for(COUNTEREXAMPLE) is None
        assert not has_full_lc_sequence_for(COUNTEREXAMPLE)
        for v in COUNTEREXAMPLE.ground:
            assert not is_lc_sequence_for(COUNTEREXAMPLE, [v])

    def test_the_empty_set_is_a_member_but_never_grows(self):
        assert contains(COUNTEREXAMPLE, [])
        assert max_sets(COUNTEREXAMPLE) == frozenset({0b111})
