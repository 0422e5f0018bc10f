"""The four workloads: seeded input streams, the request each input makes,
and the check each answer must pass.

Every stream is endless and a pure function of (workload, seed, size): the
measuring loop takes items until its time is up, and a second call to
``Workload.stream()`` replays the same items.  Inputs and reference answers
are made while the stream is drawn, outside the timed call.  See README.md
for why each workload exists and which layers it should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from revdcj import cli, dcj, oracle, perm, sorter

import reference

NAMES = ("rev-distance", "rev-sort", "small-exact", "dcj-genomes")
WARM_UP_REQUESTS = 6


@dataclass(frozen=True)
class Item:
    call: Callable[[], Any]  # the timed request
    expected: Any  # what a correct answer must match
    check: Callable[[Any, Any], bool]  # (answer, expected) -> correct


@dataclass
class Workload:
    name: str
    stream: Callable[[], Iterator[Item]]
    deadline_s: float | None = None  # per request; a miss is a failed request
    # leading items served before the measuring window opens, and too slow
    # to serve as warm-up
    lead: int = 0
    # checks beyond the answers, run after the measurement so that their
    # memory stays out of it; returns what failed
    verify: Callable[[], list[str]] = lambda: []


# Full and toy sizes.  Full sizes are what the benchmark measures; toy sizes
# drive the warm-up and the self-test through the same code paths.
SIZES = {
    "rev-distance": ({"n": 100}, {"n": 12}),
    "rev-sort": ({"n": 30}, {"n": 8}),
    "small-exact": (
        # n cycles through `sizes`.  Up to `natural_max` the easy and hard
        # inputs come in their natural shares, hard ones by distance, since a
        # hard input's BFS cost is set by its distance alone.  Larger n are
        # drawn from the easy inputs, and their hard ones lead the stream,
        # before the measuring window: one input of size `lifted[0] + 1` and
        # distance `lifted[1]`, then one BFS of size `bfs[0]` per distance in
        # `bfs[1]`.  Every one of them ends well before the deadline.
        {"sizes": (2, 3, 4, 5, 6, 7), "natural_max": 5, "bfs": (6, (3, 4, 5)),
         "lifted": (6, 4), "deadline_s": 10.0},
        {"sizes": (2, 3, 4), "natural_max": 3, "bfs": (4, (3,)),
         "lifted": (4, 3), "deadline_s": 5.0},
    ),
    "dcj-genomes": (
        {"markers": 2000, "chromosomes": 20, "spot_markers": (4, 5, 6)},
        {"markers": 40, "chromosomes": 3, "spot_markers": (3, 4)},
    ),
}


def build(name: str, seed: int, toy: bool = False) -> Workload:
    sizes = SIZES[name][1 if toy else 0]
    rng_key = "%s:%d:%s" % (name, seed, "toy" if toy else "full")
    return _BUILDERS[name](rng_key, **sizes)


def warm_up_calls(name: str) -> list[Callable[[], Any]]:
    """WARM_UP_REQUESTS toy-size requests from a fixed seed, to serve
    unchecked."""
    w = build(name, seed=0, toy=True)
    items = w.stream()
    for _ in range(w.lead):
        next(items)
    return [next(items).call for _ in range(WARM_UP_REQUESTS)]


def _signed_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(v if rng.random() < 0.5 else -v for v in values)


def _near_identity(rng: random.Random, n: int, reversals: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    for _ in range(reversals):
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        values[i : j + 1] = [-x for x in reversed(values[i : j + 1])]
    return tuple(values)


def _easy(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        values = _signed_permutation(rng, n)
        if not reference.is_hard(values):
            return values


# ---------------------------------------------------------------------------
# rev-distance: the distance report at n = 100


def _check_report(report, expected) -> bool:
    return (report.lower_bound, report.exact) == expected


def _rev_distance(rng_key: str, n: int) -> Workload:
    def stream():
        rng = random.Random(rng_key)
        while True:
            for values in (
                _signed_permutation(rng, n),
                _near_identity(rng, n, n // 10),
            ):
                p = perm.SignedPermutation(values)
                lb = reference.lower_bound(values)
                exact = None if reference.is_hard(values) else lb
                yield Item(lambda p=p: sorter.reversal_distance(p), (lb, exact), _check_report)

    return Workload("rev-distance", stream)


# ---------------------------------------------------------------------------
# rev-sort: optimal scripts at n = 30


def _check_script(script, expected) -> bool:
    if expected is None:
        return script is None
    values, distance = expected
    if script is None:
        return False
    steps = [((i.start, i.end), q.values) for i, q in script.steps]
    return reference.script_replays(values, steps, distance)


def _rev_sort(rng_key: str, n: int) -> Workload:
    def stream():
        rng = random.Random(rng_key)
        while True:
            values = _signed_permutation(rng, n)
            p = perm.SignedPermutation(values)
            expected = None
            if not reference.is_hard(values):
                expected = (values, reference.lower_bound(values))
            yield Item(lambda p=p: sorter.sort_by_reversals(p), expected, _check_script)

    return Workload("rev-sort", stream)


# ---------------------------------------------------------------------------
# small-exact: one CLI query per request on n <= 7


def _cli_distance(values) -> Callable[[], tuple[int, str]]:
    # "--" keeps argparse from reading a leading "-2" as an option
    argv = ["distance", "--json", "--", ",".join(map(str, values))]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    return call


def _check_cli(answer, expected) -> bool:
    status, text = answer
    if status != 0:
        return False
    data = json.loads(text)
    return (data["exact"], data["lower_bound"]) == expected


def _interleave(counts: dict[int, int]) -> list[int]:
    """Labels spread evenly over one period, so that any prefix holds close to
    its share of every label."""
    slots = sorted(
        ((k + 0.5) / c, label) for label, c in counts.items() for k in range(c)
    )
    return [label for _, label in slots]


def _with_adjacency(values, rng: random.Random) -> tuple[int, ...]:
    """Insert a new element next to an existing one, as an adjacency.

    The new element is a+1 for a random a in 0..n: existing values above a
    shift up by one, and a+1 goes right after +a (first, when a = 0) or
    -(a+1) right before -a.  The breakpoint graph gains one trivial cycle and
    its overlap graph one isolated vertex, so lower bound, hurdles and
    distance are unchanged.
    """
    a = rng.randrange(len(values) + 1)
    shifted = [v + 1 if v > a else v - 1 if v < -a else v for v in values]
    if a == 0:
        return (1,) + tuple(shifted)
    i = shifted.index(a) + 1 if a in shifted else shifted.index(-a)
    return tuple(shifted[:i] + [a + 1 if a in shifted else -(a + 1)] + shifted[i:])


def _small_exact(rng_key, sizes, natural_max, bfs, lifted, deadline_s) -> Workload:
    # distance of every signed permutation up to the largest size needed, by
    # BFS from the identity
    largest = max(bfs[0], lifted[0], natural_max)
    tables = {n: oracle.reversal_distance_table(n) for n in range(min(sizes), largest + 1)}
    # up to natural_max, strata[n][d] holds the hard inputs at distance d and
    # strata[n][0] the easy ones; order[n] spreads them in their natural shares
    strata = {n: {} for n in sizes if n <= natural_max}
    for n, by_label in strata.items():
        for values, d in tables[n].items():
            by_label.setdefault(d if reference.is_hard(values) else 0, []).append(values)
    order = {n: _interleave({k: len(v) for k, v in strata[n].items()}) for n in strata}

    def item(values, d):
        return Item(_cli_distance(values), (d, reference.lower_bound(values)), _check_cli)

    def hard(rng, n, distances):
        while True:
            values = _signed_permutation(rng, n)
            if reference.is_hard(values) and tables[n][values] in distances:
                return values

    def stream():
        rng = random.Random(rng_key)
        n, d = lifted
        yield item(_with_adjacency(hard(rng, n, (d,)), rng), d)
        n, distances = bfs
        for d in distances:
            yield item(hard(rng, n, (d,)), d)
        drawn = dict.fromkeys(strata, 0)
        while True:
            for n in sizes:
                if n in strata:
                    values = rng.choice(strata[n][order[n][drawn[n] % len(order[n])]])
                    drawn[n] += 1
                else:
                    values = _easy(rng, n)
                d = tables[n][values] if n in tables else reference.lower_bound(values)
                yield item(values, d)

    return Workload("small-exact", stream, deadline_s, lead=1 + len(bfs[1]))


# ---------------------------------------------------------------------------
# dcj-genomes: text genome pairs, parsed and compared


def _genome(rng: random.Random, markers: int, shapes: list[bool]):
    order = list(range(markers))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, markers), len(shapes) - 1))
    return [
        (circular, [(m, rng.choice((1, -1))) for m in order[a:b]])
        for circular, a, b in zip(shapes, [0] + cuts, cuts + [markers])
    ]


def _genome_text(genome) -> str:
    return "\n".join(
        ("C: " if circular else "L: ")
        + " ".join("%sg%d" % ("-" if s < 0 else "", m + 1) for m, s in markers)
        for circular, markers in genome
    )


def _genome_pair(rng: random.Random, markers: int, chromosomes: int, circular: bool):
    def shapes():
        if circular:
            return [True] * chromosomes
        mixed = [k % 2 == 1 for k in range(chromosomes)]
        rng.shuffle(mixed)
        return mixed

    a = _genome(rng, markers, shapes())
    b = _genome(rng, markers, shapes())
    return a, b, reference.dcj_distance(markers, a, b)


def _dcj_request(text_a: str, text_b: str, circular: bool):
    def call():
        ga = perm.parse_genome(text_a)
        gb = perm.parse_genome(text_b)
        d = dcj.dcj_distance(ga, gb)
        if circular and dcj.circular_dcj_distance(ga, gb) != d:
            raise AssertionError("encoding route disagrees with the adjacency graph")
        return d

    return call


def _dcj_genomes(rng_key, markers, chromosomes, spot_markers) -> Workload:
    def stream():
        rng = random.Random(rng_key)
        while True:
            # two mixed pairs per all-circular pair; see README.md
            for circular in (False, False, True):
                a, b, expected = _genome_pair(rng, markers, chromosomes, circular)
                call = _dcj_request(_genome_text(a), _genome_text(b), circular)
                yield Item(call, expected, lambda d, e: d == e)

    def verify():
        """Small pairs against the brute-force oracle."""
        rng = random.Random(rng_key + ":spot")
        problems = []
        for n in spot_markers:
            a, b, expected = _genome_pair(rng, n, 2, circular=False)
            ga = perm.parse_genome(_genome_text(a))
            gb = perm.parse_genome(_genome_text(b))
            found = (dcj.dcj_distance(ga, gb), oracle.brute_dcj_distance(ga, gb).distance)
            if found != (expected, expected):
                problems.append(
                    "dcj spot check at %d markers: %r, expected %d" % (n, found, expected)
                )
        return problems

    return Workload("dcj-genomes", stream, verify=verify)


_BUILDERS = {
    "rev-distance": _rev_distance,
    "rev-sort": _rev_sort,
    "small-exact": _small_exact,
    "dcj-genomes": _dcj_genomes,
}
