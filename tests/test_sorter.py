"""The reversal-distance pipeline: bounds, scripts, and reports."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from revdcj import graphs, localcomp, oracle, sorter
from revdcj.fourreg import encode_permutation
from revdcj.graphs import LoopedGraph
from revdcj.localcomp import greedy_strips, has_full_lc_sequence, lc_strip, ms_set
from revdcj.perm import ReversalInterval, SignedPermutation, apply_reversal, identity
from revdcj.sorter import (
    OrientationPair,
    POLICIES,
    ReversalScript,
    both_orientation_distance,
    circuit_count,
    distance_lower_bound,
    permutation_circle_graph,
    reversal_distance,
    reversal_for_vertex,
    sort_by_reversals,
)
from revdcj.verify import enabled, verifying

from conftest import breakpoint_positions, sabotage_lc_strip, signed_permutations

PI7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))


def interval_via_junctions(enc, v):
    """Reference for reversal_for_vertex: the interval between v's two
    positions in the junction sequence, or None when they differ in
    parity (v is not oriented)."""
    ta, tb = breakpoint_positions(enc, v)
    if (tb - ta) % 2:
        return None
    return ReversalInterval(ta // 2 + 1, tb // 2)


def scrambled(n, reversals, seed):
    """The identity after seeded random reversals."""
    rng = random.Random(seed)
    p = identity(n)
    for _ in range(reversals):
        start = rng.randint(1, n)
        p = apply_reversal(p, ReversalInterval(start, rng.randint(start, n)))
    return p


@st.composite
def scrambled_identities(draw, max_n, max_reversals):
    """The identity after a few random reversals, as for related genomes."""
    n = draw(st.integers(1, max_n))
    p = identity(n)
    for _ in range(draw(st.integers(0, max_reversals))):
        start = draw(st.integers(1, n))
        p = apply_reversal(p, ReversalInterval(start, draw(st.integers(start, n))))
    return p


def framed_pairs(p):
    """The neighbouring values of p framed as 0, p, n + 1."""
    q = (0, *p.values, len(p) + 1)
    return set(zip(q, q[1:]))


def assert_steps_resolve_their_vertices(script, vertices):
    """Each step joins the values v, v + 1 (read either way) of the vertex
    v that the greedy lc-sequence strips there, which were apart before
    it; so every ``sort`` caption names a fresh adjacency."""
    assert len(vertices) == script.claimed_distance
    pairs = [framed_pairs(script.source)] + [framed_pairs(q) for _, q in script.steps]
    for k, v in enumerate(vertices):
        joined = [(v, v + 1) in at or (-v - 1, -v) in at for at in pairs[k : k + 2]]
        assert joined == [False, True], (script.source, script.steps[k][0], v)


def assert_script_replays(p):
    """Check p's script, if any, and return it."""
    h = permutation_circle_graph(p)
    script = sort_by_reversals(p)
    if script is None:
        assert not has_full_lc_sequence(h)
        return None
    cur = p
    for interval, expected in script.steps:
        cur = apply_reversal(cur, interval)
        assert cur == expected
    assert cur == identity(len(p))
    assert script.claimed_distance == distance_lower_bound(p)
    assert_steps_resolve_their_vertices(script, [v for v, _ in greedy_strips(h)])
    return script


class TestCircuitCount:
    def test_seven_element_example(self):
        assert circuit_count(PI7) == 4
        assert distance_lower_bound(PI7) == 4

    def test_identity_reaches_the_maximum(self):
        for n in range(6):
            assert circuit_count(identity(n)) == n + 1
            assert distance_lower_bound(identity(n)) == 0

    def test_lower_bound_is_tight_exactly_when_sortable(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                if row.sortable:
                    assert row.oracle_distance == len(row.perm) + 1 - row.c


class TestReversalForVertex:
    def test_first_step_of_the_example(self):
        assert reversal_for_vertex(PI7, 1) == ReversalInterval(2, 5)

    def test_remaining_oriented_vertices(self):
        # intervals read off the junction positions by hand; one reversal
        # can serve two vertices (5, 6 joins 2 with 3 and 4 with 5 at once)
        assert reversal_for_vertex(PI7, 2) == ReversalInterval(5, 6)
        assert reversal_for_vertex(PI7, 4) == ReversalInterval(5, 6)
        assert reversal_for_vertex(PI7, 6) == ReversalInterval(2, 2)

    def test_identity_has_no_oriented_vertices(self):
        for v in range(4):
            with pytest.raises(ValueError):
                reversal_for_vertex(identity(3), v)

    def test_unoriented_vertex_rejected(self):
        with pytest.raises(ValueError):
            reversal_for_vertex(PI7, 3)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            reversal_for_vertex(PI7, 8)

    def test_single_negative_element(self):
        p = SignedPermutation((-1,))
        assert reversal_for_vertex(p, 0) == ReversalInterval(1, 1)
        assert reversal_for_vertex(p, 1) == ReversalInterval(1, 1)

    def test_oriented_exactly_at_looped_vertices(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                h = permutation_circle_graph(row.perm)
                for v in h.vertices:
                    if h.has_loop(v):
                        reversal_for_vertex(row.perm, v)
                    else:
                        with pytest.raises(ValueError):
                            reversal_for_vertex(row.perm, v)

    def test_position_rule_matches_the_junction_positions(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                enc = encode_permutation(row.perm)
                for v in range(len(row.perm) + 1):
                    expected = interval_via_junctions(enc, v)
                    if expected is None:
                        with pytest.raises(ValueError):
                            reversal_for_vertex(row.perm, v)
                    else:
                        assert reversal_for_vertex(row.perm, v) == expected

    def test_reversal_at_vertex_strips_its_loop(self, small_sweep):
        # applying the chosen reversal commutes with stripping the vertex
        for row in small_sweep.rows[4]:
            h = permutation_circle_graph(row.perm)
            for v in sorted(h.looped_vertices()):
                r = reversal_for_vertex(row.perm, v)
                after = permutation_circle_graph(apply_reversal(row.perm, r))
                assert after == lc_strip(h, v)


class TestScriptsAtScale:
    @settings(max_examples=50, deadline=None)
    @given(scrambled_identities(max_n=300, max_reversals=12))
    def test_scripts_replay_near_the_identity(self, p):
        assert_script_replays(p)

    @settings(max_examples=25, deadline=None)
    @given(signed_permutations(max_n=80))
    def test_scripts_replay_on_uniform_permutations(self, p):
        assert_script_replays(p)

    def test_uniform_permutation_at_n_1000(self):
        rng = random.Random(1000)
        values = list(range(1, 1001))
        rng.shuffle(values)
        p = SignedPermutation(tuple(v * rng.choice((1, -1)) for v in values))
        with verifying(False):
            assert assert_script_replays(p) is not None

    @settings(max_examples=25, deadline=None)
    @given(signed_permutations(max_n=300))
    def test_oriented_exactly_at_looped_vertices(self, p):
        h = permutation_circle_graph(p)
        for v in h.vertices:
            if h.has_loop(v):
                reversal_for_vertex(p, v)
            else:
                with pytest.raises(ValueError):
                    reversal_for_vertex(p, v)


class TestReversalScript:
    def test_replay_validation_rejects_wrong_steps(self):
        with pytest.raises(ValueError):
            ReversalScript(
                SignedPermutation((2, 1)),
                ((ReversalInterval(1, 1), SignedPermutation((1, 2))),),
            )

    def test_replay_validation_requires_identity_at_the_end(self):
        with pytest.raises(ValueError):
            ReversalScript(
                SignedPermutation((-1, 2)),
                ((ReversalInterval(2, 2), SignedPermutation((-1, -2))),),
            )

    def test_json_carries_the_intervals(self):
        script = sort_by_reversals(PI7)
        data = script.to_json()
        assert [s["reversal"] for s in data["steps"]] == [
            [2, 5], [4, 7], [3, 4], [6, 6],
        ]
        assert data["claimed_distance"] == 4


class TestSortByReversals:
    def test_seven_element_example_script(self):
        script = sort_by_reversals(PI7)
        assert script is not None
        assert [(r.start, r.end) for r in script.intervals()] == [
            (2, 5), (4, 7), (3, 4), (6, 6),
        ]
        assert script.claimed_distance == 4

    def test_identity_needs_no_steps(self):
        script = sort_by_reversals(identity(5))
        assert script is not None and script.claimed_distance == 0

    def test_unsortable_permutation_returns_none(self):
        assert sort_by_reversals(SignedPermutation((2, 1))) is None

    def test_greedy_always_picks_the_lowest_candidate(self):
        h = permutation_circle_graph(PI7)
        assert min(ms_set(h)) == 1

    def test_every_step_resolves_the_vertex_it_strips(self, monkeypatch):
        # the full n <= 6 sweep, recording the vertices the sorter's own
        # greedy loop strips; the switch only adds rebuilds, which
        # test_switch_changes_no_script_or_report covers
        stripped = []

        def recorded(h):
            for v, after in greedy_strips(h):
                stripped.append(v)
                yield v, after

        monkeypatch.setattr(sorter, "greedy_strips", recorded)
        with verifying(False):
            for n in range(7):
                for p in oracle.enumerate_signed_permutations(n):
                    stripped.clear()
                    script = sort_by_reversals(p)
                    if script is not None:
                        assert_steps_resolve_their_vertices(script, stripped)

    def test_scripts_are_optimal_on_the_full_sweep(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                assert (row.script_length is None) == (not row.sortable)
                if row.script_length is not None:
                    assert row.script_length == row.oracle_distance


class TestVerifySwitch:
    """The super-linear cross-checks run only under the verify switch,
    which the suite turns on for every test (conftest.verify_switch)."""

    def test_the_suite_runs_with_the_switch_on(self):
        assert enabled()
        with verifying(False):
            assert not enabled()
        assert enabled()

    def test_default_sort_encodes_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("encode_permutation", "circle_graph"):
            monkeypatch.setattr(sorter, name, counted(name, getattr(sorter, name)))
        p = scrambled(30, 12, seed=4)
        with verifying(False):
            script = sort_by_reversals(p)
        assert script is not None and script.claimed_distance >= 5
        assert calls == {"encode_permutation": 1, "circle_graph": 1}
        # under the switch the circle graph is rebuilt after every step
        calls.clear()
        assert sort_by_reversals(p) == script
        steps = script.claimed_distance
        assert calls == {"encode_permutation": 1 + steps, "circle_graph": 1 + steps}

    def test_greedy_loop_picks_without_ms_set(self, monkeypatch):
        # the loop reads its pick off the candidate kernel, never the
        # public set, with the switch on or off
        def no_ms_set(h):
            raise AssertionError("the greedy loop called ms_set")

        monkeypatch.setattr(localcomp, "ms_set", no_ms_set)
        p = scrambled(30, 12, seed=4)
        with verifying(False):
            script = sort_by_reversals(p)
        assert script is not None and script.claimed_distance >= 5
        assert sort_by_reversals(p) == script

    def test_sabotaged_strip_fails_the_sort(self, monkeypatch):
        sabotage_lc_strip(monkeypatch)
        with pytest.raises(AssertionError, match="is not the strip"):
            sort_by_reversals(scrambled(30, 12, seed=4))

    def test_sabotaged_rank_fails_the_distance(self, monkeypatch):
        monkeypatch.setattr(graphs, "gf2_rank", lambda rows: 0)
        with pytest.raises(AssertionError, match="matrix rank"):
            reversal_distance(PI7)
        # the distance keeps this check with the switch off as well
        with verifying(False), pytest.raises(AssertionError, match="matrix rank"):
            reversal_distance(PI7)

    def test_trusted_constructors_validate_under_the_switch(self):
        asymmetric = ((0, 1), (0b10, 0))
        with verifying(False):
            LoopedGraph._trusted(*asymmetric)
            SignedPermutation._trusted((1, 1))
        with pytest.raises(ValueError):
            LoopedGraph._trusted(*asymmetric)
        with pytest.raises(ValueError):
            SignedPermutation._trusted((1, 1))

    def test_switch_changes_no_script_or_report(self, small_sweep):
        for rows in small_sweep.rows.values():
            for row in rows:
                with verifying(False):
                    off = (sort_by_reversals(row.perm), reversal_distance(row.perm))
                on = (sort_by_reversals(row.perm), reversal_distance(row.perm))
                assert on == off, row.perm


class TestReversalDistance:
    def test_seven_element_example(self):
        rep = reversal_distance(PI7)
        assert (rep.lower_bound, rep.exact, rep.method) == (4, 4, "hp_criterion")

    def test_identity_is_distance_zero(self):
        rep = reversal_distance(identity(6))
        assert rep.exact == 0

    def test_exchange_of_two_needs_the_oracle(self):
        # criterion fails; the true distance exceeds the bound
        rep = reversal_distance(SignedPermutation((2, 1)))
        assert rep.lower_bound == 2
        assert rep.exact == 3
        assert rep.method == "oracle"

    def test_single_negative_element(self):
        rep = reversal_distance(SignedPermutation((-1,)))
        assert (rep.lower_bound, rep.exact, rep.method) == (1, 1, "hp_criterion")

    def test_bound_only_policy_reports_no_exact(self):
        rep = reversal_distance(PI7, policy="bound_only")
        assert rep.lower_bound == 4 and rep.exact is None

    def test_auto_beyond_cap_degrades_to_bound(self, monkeypatch):
        def no_search(p):
            raise AssertionError("the oracle ran above its cap")

        monkeypatch.setattr(oracle, "brute_reversal_distance", no_search)
        hard = SignedPermutation((2, 1, *range(3, oracle.REVERSAL_CAP + 2)))
        rep = reversal_distance(hard)
        assert (rep.lower_bound, rep.exact, rep.method) == (2, None, "bound_only")

    def test_unknown_policy_rejected(self):
        assert POLICIES == ("auto", "bound_only")
        for policy in ("fast", "oracle_only"):
            with pytest.raises(ValueError):
                reversal_distance(PI7, policy=policy)

    def test_report_json(self):
        data = reversal_distance(PI7).to_json()
        assert data["lower_bound"] == 4 and data["exact"] == 4


class TestBothOrientations:
    def test_seven_element_example(self):
        pair = both_orientation_distance(PI7)
        assert pair.forward.exact == 4
        assert pair.backward.exact == 5
        assert pair.exact == 4
        assert pair.lower_bound == 4

    def test_orientations_differ_by_at_most_one(self, small_sweep):
        # direct check against the oracle table, exhaustive for n <= 5
        from revdcj.perm import reverse_complement

        for rows in small_sweep.rows.values():
            table = {row.perm.values: row.oracle_distance for row in rows}
            for row in rows:
                back = reverse_complement(row.perm).values
                assert abs(row.oracle_distance - table[back]) <= 1

    def test_pair_exact_is_none_when_either_side_is_open(self):
        pair = OrientationPair(
            reversal_distance(PI7, policy="bound_only"),
            reversal_distance(PI7, policy="bound_only"),
        )
        assert pair.exact is None

    def test_pair_json(self):
        data = both_orientation_distance(PI7).to_json()
        assert data["forward"]["exact"] == 4
        assert data["backward"]["exact"] == 5
        assert data["exact"] == 4
