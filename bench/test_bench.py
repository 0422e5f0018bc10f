"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench/test_bench.py

Checks the referees against the library's brute-force oracles, that every
workload runs and emits every metric BENCHMARK.json names, and that a wrong
reference answer is counted as a failed request.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

import pytest

import run

sys.path.insert(0, run.SRC_DIR)

import reference  # noqa: E402
import workloads  # noqa: E402
from revdcj.dcj import dcj_distance  # noqa: E402
from revdcj.localcomp import has_full_lc_sequence  # noqa: E402
from revdcj.oracle import (  # noqa: E402
    brute_dcj_distance,
    enumerate_signed_permutations,
    reversal_distance_table,
)
from revdcj.perm import parse_genome  # noqa: E402
from revdcj.sorter import distance_lower_bound, permutation_circle_graph  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_reversal_referee_matches_bfs_and_library():
    for n in range(6):
        table = reversal_distance_table(n)
        for p in enumerate_signed_permutations(n):
            lb = reference.lower_bound(p.values)
            hard = reference.is_hard(p.values)
            assert lb == distance_lower_bound(p)
            assert hard != has_full_lc_sequence(permutation_circle_graph(p))
            if not hard:
                assert table[p.values] == lb


def test_inserted_adjacency_keeps_the_distance():
    rng = random.Random(0)
    small, large = reversal_distance_table(4), reversal_distance_table(5)
    for values, d in small.items():
        assert large[workloads._with_adjacency(values, rng)] == d


def test_dcj_referee_matches_search_and_library():
    rng = random.Random(0)
    for markers in (1, 2, 3, 4, 5):
        for circular in (False, True):
            a, b, expected = workloads._genome_pair(rng, markers, 1, circular)
            ga = parse_genome(workloads._genome_text(a))
            gb = parse_genome(workloads._genome_text(b))
            assert dcj_distance(ga, gb) == expected
            assert brute_dcj_distance(ga, gb).distance == expected


def _toy(name):
    w = workloads.build(name, seed=3, toy=True)
    assert w.verify() == []
    return w


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_emits_every_metric(name):
    w = _toy(name)
    plain = run.measure(w, 1.0)
    assert plain and all(s.ok for s in plain)
    assert run.summarize(name, plain, [])["correct"]
    e2e = run.end_to_end(plain, setup_s=0.1)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())

    tracer = Tracer()
    with tracer.installed():
        traced = run.measure(w, float("inf"), tracer, limit=len(plain))
    layers = run.per_layer(tracer, plain, traced)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["trace.coverage_frac"][0] > 0.5


def test_small_exact_leads_with_hard_inputs_that_end_in_time():
    w = _toy("small-exact")
    items = w.stream()
    # (exact, lower bound): each lead input is hard, so BFS decides it
    assert all(d > lb for d, lb in (next(items).expected for _ in range(w.lead)))
    samples = run.measure(w, 1.0)
    assert not any(s.missed for s in samples) and all(s.ok for s in samples)


def test_deadline_miss_counts_as_failed():
    def stream():
        while True:
            yield workloads.Item(lambda: time.sleep(1.0), None, lambda a, e: True)

    w = workloads.Workload("slow", stream, deadline_s=0.02)
    samples = run.measure(w, 0.05)
    assert samples and all(s.missed and not s.ok for s in samples)
    assert all(s.seconds == 0.02 for s in samples)
    result = run.summarize("slow", samples, [])
    assert result["failed"] == len(samples) and result["correct"]


# one answer made wrong by one, in the shape each workload stores it
_OFF_BY_ONE = {
    "rev-distance": lambda e: (e[0], e[1] + 1),
    "rev-sort": lambda e: (e[0], e[1] + 1),
    "small-exact": lambda e: (e[0] + 1, e[1]),
    "dcj-genomes": lambda e: e + 1,
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_wrong_reference_counts_as_failed(name):
    w = _toy(name)
    stream, skip = w.stream, w.lead

    def corrupted():
        for i, item in enumerate(stream()):
            if i == skip:
                item = workloads.Item(item.call, _OFF_BY_ONE[name](item.expected), item.check)
            yield item

    w.stream = corrupted
    samples = run.measure(w, 1.0)
    result = run.summarize(name, samples, [])
    assert not samples[skip].ok and not samples[skip].missed
    assert not result["correct"]
    assert run.end_to_end(samples, setup_s=0.1)["ok_frac"][0] < 1
