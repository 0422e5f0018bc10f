"""Sorting signed permutations by reversals.

The lower bound n + 1 - c (c counts the circuits of the target partition)
always equals the GF(2) rank of the circle graph's adjacency matrix.  When
the circle graph admits a full lc-sequence, that rank is the exact
reversal distance and the greedy sorter emits a script of that length: at
each step it picks a minimal-score oriented vertex, applies the reversal
that vertex stands for, and checks that the circle graph recomputed from
the new permutation matches a strip of the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fourreg import encode_permutation, target_circuit_count
from .graphs import adjacency_matrix, circle_graph
from .localcomp import has_full_lc_sequence, lc_strip, ms_set
from .oracle import REVERSAL_CAP
from .perm import ReversalInterval, SignedPermutation, apply_reversal, is_identity
from .perm import reverse_complement


def circuit_count(p: SignedPermutation) -> int:
    """c: the intermediate-only circuits of the target partition.

    The target partition routes real segments into a single circuit that
    spells the sorted permutation; c counts all its other circuits.
    """
    enc = encode_permutation(p)
    return target_circuit_count(enc.graph, enc.pb)


def distance_lower_bound(p: SignedPermutation) -> int:
    """n + 1 - c, never above the true reversal distance."""
    return len(p) + 1 - circuit_count(p)


def permutation_circle_graph(p: SignedPermutation):
    enc = encode_permutation(p)
    return circle_graph(enc.graph, enc.pa, enc.pb)


def reversal_for_vertex(p: SignedPermutation, v: int, enc=None) -> ReversalInterval:
    """The reversal that brings the segment ends at vertex v together.

    v must name an oriented vertex, i.e. one carrying a loop in the circle
    graph; that holds exactly when its two junction positions have the
    same parity, so they sit at least two traversal steps apart and the
    enclosed positions form the interval to reverse.  enc, when given, is
    encode_permutation(p), saving the caller a second encoding.
    """
    if enc is None:
        enc = encode_permutation(p)
    if not 0 <= v <= enc.n:
        raise ValueError("unknown vertex %r" % (v,))
    ta, tb = enc.breakpoint_positions(v)
    if (tb - ta) % 2:
        raise ValueError("vertex %r is not oriented" % (v,))
    return ReversalInterval(ta // 2 + 1, tb // 2)


@dataclass(frozen=True)
class ReversalScript:
    """A validated sequence of reversals from source to the identity."""

    source: SignedPermutation
    steps: tuple[tuple[ReversalInterval, SignedPermutation], ...]

    def __post_init__(self):
        cur = self.source
        for interval, expected in self.steps:
            cur = apply_reversal(cur, interval)
            if cur != expected:
                raise ValueError("script step does not replay")
        if not is_identity(cur):
            raise ValueError("script does not end at the identity")

    @property
    def claimed_distance(self) -> int:
        return len(self.steps)

    def intervals(self) -> tuple[ReversalInterval, ...]:
        return tuple(interval for interval, _ in self.steps)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "steps": [
                {"reversal": [i.start, i.end], "result": q.to_json()}
                for i, q in self.steps
            ],
            "claimed_distance": self.claimed_distance,
        }


def sort_by_reversals(p: SignedPermutation) -> ReversalScript | None:
    """Greedy optimal script, or None when the criterion fails.

    Each step recomputes the circle graph from the new permutation and
    insists it equals the stripped previous graph; a mismatch means the
    step law broke, so it raises rather than returning a bad script.
    """
    enc = encode_permutation(p)
    h = circle_graph(enc.graph, enc.pa, enc.pb)
    if not has_full_lc_sequence(h):
        return None
    steps = []
    cur = p
    while h.has_any_edge():
        v = min(ms_set(h))
        interval = reversal_for_vertex(cur, v, enc)
        nxt = apply_reversal(cur, interval)
        enc = encode_permutation(nxt)
        recomputed = circle_graph(enc.graph, enc.pa, enc.pb)
        if recomputed != lc_strip(h, v):
            raise AssertionError(
                "circle graph after %s is not the strip at v%d" % (interval, v)
            )
        steps.append((interval, nxt))
        cur, h = nxt, recomputed
    if not is_identity(cur):
        raise AssertionError("edge-free circle graph on a non-identity permutation")
    return ReversalScript(p, tuple(steps))


@dataclass(frozen=True)
class DistanceReport:
    """Lower bound plus, when determined, the exact reversal distance."""

    permutation: SignedPermutation
    lower_bound: int
    exact: int | None
    method: str

    def __post_init__(self):
        if self.exact is not None and self.exact < self.lower_bound:
            raise ValueError("exact distance below the lower bound")

    def to_json(self) -> dict:
        return {
            "permutation": self.permutation.to_json(),
            "lower_bound": self.lower_bound,
            "exact": self.exact,
            "method": self.method,
        }


POLICIES = ("auto", "bound_only", "oracle_only")


def reversal_distance(
    p: SignedPermutation, policy: str = "auto", oracle_cap: int = REVERSAL_CAP
) -> DistanceReport:
    """Distance report under the given policy.

    auto: exact via the sortability criterion when it holds, otherwise by
    brute force up to oracle_cap, otherwise bound only.  bound_only: never
    exact.  oracle_only: always brute force, raising above the cap.
    """
    if policy not in POLICIES:
        raise ValueError("unknown policy %r" % (policy,))
    enc = encode_permutation(p)
    h = circle_graph(enc.graph, enc.pa, enc.pb)
    rank = adjacency_matrix(h).rank()
    lb = len(p) + 1 - target_circuit_count(enc.graph, enc.pb)
    if rank != lb:
        raise AssertionError("matrix rank disagrees with n + 1 - c")

    if policy == "bound_only":
        return DistanceReport(p, lb, None, "bound_only")
    if policy == "oracle_only":
        from .oracle import brute_reversal_distance

        result = brute_reversal_distance(p, cap=oracle_cap)
        return DistanceReport(p, lb, result.distance, "oracle")
    if has_full_lc_sequence(h):
        return DistanceReport(p, lb, lb, "hp_criterion")
    if len(p) <= oracle_cap:
        from .oracle import brute_reversal_distance

        result = brute_reversal_distance(p, cap=oracle_cap)
        return DistanceReport(p, lb, result.distance, "oracle")
    return DistanceReport(p, lb, None, "bound_only")


@dataclass(frozen=True)
class OrientationPair:
    """Reports for a permutation and its reverse complement."""

    forward: DistanceReport
    backward: DistanceReport

    @property
    def lower_bound(self) -> int:
        return min(self.forward.lower_bound, self.backward.lower_bound)

    @property
    def exact(self) -> int | None:
        if self.forward.exact is None or self.backward.exact is None:
            return None
        return min(self.forward.exact, self.backward.exact)

    def to_json(self) -> dict:
        return {
            "forward": self.forward.to_json(),
            "backward": self.backward.to_json(),
            "lower_bound": self.lower_bound,
            "exact": self.exact,
        }


def both_orientation_distance(
    p: SignedPermutation, policy: str = "auto", oracle_cap: int = REVERSAL_CAP
) -> OrientationPair:
    """Distances for p and its reverse complement; they differ by at most 1."""
    forward = reversal_distance(p, policy=policy, oracle_cap=oracle_cap)
    backward = reversal_distance(
        reverse_complement(p), policy=policy, oracle_cap=oracle_cap
    )
    if forward.exact is not None and backward.exact is not None:
        if abs(forward.exact - backward.exact) > 1:
            raise AssertionError("orientations more than one reversal apart")
    return OrientationPair(forward, backward)
