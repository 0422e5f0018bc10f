"""Sorting signed permutations by reversals.

The lower bound n + 1 - c (c counts the circuits of the target partition)
always equals the GF(2) rank of the circle graph's adjacency matrix.  When
the circle graph admits a full lc-sequence, that rank is the exact
reversal distance and the greedy sorter emits a script of that length.  It
encodes the permutation and builds its circle graph once, then follows
the greedy lc-sequence (``localcomp.greedy_strips``): each stripped vertex
stands for one reversal, read off the current permutation through a
value -> position array that is updated over each reversed block.  The
loop keeps the current permutation and the intervals only; the script
(``perm.ReversalScript``) is those intervals.

Under the verify switch (``revdcj.verify``) the sorter also rebuilds the
circle graph from each new permutation and checks that it equals the strip
the greedy loop took.  That costs a circle graph per step, so it stays off
the default path; the script constructor's O(n) replay of every step
always runs.
``reversal_distance`` checks the GF(2) rank against n + 1 - c on every
call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle, verify
from .fourreg import encode_permutation, target_circuit_count
from .graphs import adjacency_matrix, circle_graph
from .localcomp import greedy_strips, has_full_lc_sequence
# no code calls these two through this module: the import only keeps the
# names that bench/spans.py wraps resolvable
from .localcomp import lc_strip, ms_set  # noqa: F401
from .perm import ReversalInterval, ReversalScript, SignedPermutation
from .perm import apply_reversal, is_identity, reverse_complement


def circuit_count(p: SignedPermutation) -> int:
    """c: the intermediate-only circuits of the target partition.

    The target partition routes real segments into a single circuit that
    spells the sorted permutation; c counts all its other circuits.
    """
    return target_circuit_count(encode_permutation(p))


def distance_lower_bound(p: SignedPermutation) -> int:
    """n + 1 - c, never above the true reversal distance."""
    return len(p) + 1 - circuit_count(p)


def permutation_circle_graph(p: SignedPermutation):
    enc = encode_permutation(p)
    return circle_graph(enc.graph, enc.pa, enc.pb)


def _positions(p: SignedPermutation) -> list[int]:
    """pos[k] is the 1-based position of +k or -k in p; pos[0] is unused."""
    pos = [0] * (len(p) + 1)
    for i, x in enumerate(p.values, start=1):
        pos[abs(x)] = i
    return pos


def reversal_for_vertex(p: SignedPermutation, v: int, pos=None) -> ReversalInterval:
    """The reversal that brings the segment ends at vertex v together.

    v must name an oriented vertex, i.e. one carrying a loop in the circle
    graph; that holds exactly when its two junction positions have the
    same parity, so they sit at least two traversal steps apart and the
    enclosed positions form the interval to reverse.

    The junction positions are read off the framed permutation: v meets
    at 0 for v = 0, at 2i for +v at position i and at 2i - 1 for -v; v + 1
    meets at 2n + 1 for v = n, at 2i - 1 for +(v + 1) and at 2i for
    -(v + 1).  pos, when given, is ``_positions(p)``, saving the caller
    an O(n) scan.
    """
    n = len(p)
    if not 0 <= v <= n:
        raise ValueError("unknown vertex %r" % (v,))
    if pos is None:
        pos = _positions(p)
    values = p.values
    ta = 0 if v == 0 else 2 * pos[v] - (values[pos[v] - 1] < 0)
    tb = 2 * n + 1 if v == n else 2 * pos[v + 1] - (values[pos[v + 1] - 1] > 0)
    if (tb - ta) % 2:
        raise ValueError("vertex %r is not oriented" % (v,))
    ta, tb = min(ta, tb), max(ta, tb)
    return ReversalInterval(ta // 2 + 1, tb // 2)


def sort_by_reversals(p: SignedPermutation) -> ReversalScript | None:
    """Greedy optimal script, or None when the criterion fails.

    One encoding and one circle graph per call; each step of the greedy
    lc-sequence gives one reversal.  Under the verify switch each step
    also recomputes the circle graph from the new permutation and insists
    it equals the stripped previous graph; a mismatch means the step law
    broke, so it raises rather than returning a bad script.
    """
    enc = encode_permutation(p)
    h = circle_graph(enc.graph, enc.pa, enc.pb)
    if not has_full_lc_sequence(h):
        return None
    checking = verify.enabled()
    pos = _positions(p)
    intervals = []
    cur = p
    for v, stripped in greedy_strips(h):
        interval = reversal_for_vertex(cur, v, pos)
        cur = apply_reversal(cur, interval)
        for i in range(interval.start, interval.end + 1):
            pos[abs(cur.values[i - 1])] = i
        if checking:
            enc = encode_permutation(cur)
            if circle_graph(enc.graph, enc.pa, enc.pb) != stripped:
                raise AssertionError(
                    "circle graph after %s is not the strip at v%d" % (interval, v)
                )
        intervals.append(interval)
    if not is_identity(cur):
        raise AssertionError("edge-free circle graph on a non-identity permutation")
    return ReversalScript(p, tuple(intervals))


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


POLICIES = ("auto", "bound_only")


def reversal_distance(p: SignedPermutation, policy: str = "auto") -> DistanceReport:
    """Distance report under the given policy.

    auto: exact via the sortability criterion when it holds, otherwise by
    brute force up to ``oracle.REVERSAL_CAP`` elements, otherwise bound
    only.  bound_only: never exact.
    """
    if policy not in POLICIES:
        raise ValueError("unknown policy %r" % (policy,))
    enc = encode_permutation(p)
    h = circle_graph(enc.graph, enc.pa, enc.pb)
    lb = len(p) + 1 - target_circuit_count(enc)
    if adjacency_matrix(h).rank() != lb:
        raise AssertionError("matrix rank disagrees with n + 1 - c")

    if policy == "bound_only":
        return DistanceReport(p, lb, None, "bound_only")
    if has_full_lc_sequence(h):
        return DistanceReport(p, lb, lb, "hp_criterion")
    if len(p) <= oracle.REVERSAL_CAP:
        result = oracle.brute_reversal_distance(p)
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
    p: SignedPermutation, policy: str = "auto"
) -> OrientationPair:
    """Distances for p and its reverse complement; they differ by at most 1."""
    forward = reversal_distance(p, policy=policy)
    backward = reversal_distance(reverse_complement(p), policy=policy)
    if forward.exact is not None and backward.exact is not None:
        if abs(forward.exact - backward.exact) > 1:
            raise AssertionError("orientations more than one reversal apart")
    return OrientationPair(forward, backward)
