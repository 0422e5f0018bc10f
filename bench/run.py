"""revdcj benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload rev-sort --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
client sends each request after the previous answer, in one thread.  After
the workload's lead items, the run takes requests until their summed time
reaches --seconds.  It checks every answer and prints one JSON line last:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1.  Times are at reference machine speed (see speed.py).
README.md explains each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from time import perf_counter

from spans import SITES, Tracer
from speed import KERNEL_REF_S, Gauge, kernel_seconds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples above the reported tail

# Set-up as a user pays it: a fresh interpreter imports revdcj, then serves
# the workload's warm-up requests.  Interpreter start-up and making the
# warm-up inputs are not counted.
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import revdcj
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
calls = workloads.warm_up_calls(sys.argv[3])
t2 = time.perf_counter()
for call in calls:
    call()
print(t1 - t0 + time.perf_counter() - t2)
"""


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass(frozen=True)
class Sample:
    raw: float  # wall seconds
    seconds: float  # at reference machine speed; a miss takes the deadline
    ok: bool
    missed: bool = False
    error: str | None = None


def measure(workload, seconds: float, tracer=None, limit: int | None = None) -> list[Sample]:
    """Serve the workload's stream until `limit` requests are done or, after
    its lead items, the summed request time at reference speed reaches
    `seconds`."""
    deadline = workload.deadline_s
    previous = signal.signal(signal.SIGALRM, _on_alarm) if deadline else None
    gauge = Gauge()
    samples: list[Sample] = []
    busy = total = 0.0  # request time in the window, and in all
    try:
        for i, item in enumerate(workload.stream()):
            if busy >= seconds or (limit is not None and len(samples) >= limit):
                break
            scale = gauge.tick(i, total)
            if tracer is not None:
                tracer.begin_request()
            t0 = perf_counter()
            try:
                if deadline:
                    signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    answer = item.call()
                finally:
                    if deadline:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                took = perf_counter() - t0
                sample = Sample(took, took * scale, item.check(answer, item.expected))
            except DeadlineExceeded:
                took = perf_counter() - t0
                sample = Sample(took, deadline, False, missed=True)
            except Exception as exc:  # a failed request; the run goes on
                took = perf_counter() - t0
                error = "%s: %s" % (type(exc).__name__, exc)
                sample = Sample(took, took * scale, False, error=error)
            if tracer is not None:
                tracer.end_request(took)
            samples.append(sample)
            total += sample.seconds
            if i >= workload.lead:
                busy += sample.seconds
    finally:
        if deadline:
            signal.signal(signal.SIGALRM, previous)
    return [
        s if s.missed else replace(s, seconds=s.raw * scale)
        for s, scale in zip(samples, gauge.scales(len(samples)))
    ]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(samples: list[Sample], setup_s: float) -> dict:
    latencies = [s.seconds for s in samples]
    ok = sum(s.ok for s in samples)
    tail_s, _ = tail(latencies)
    return {
        "requests_per_s": (ok / sum(latencies), "1/s"),
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": (ok / len(samples), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain: list[Sample], traced: list[Sample]) -> dict:
    n = len(traced)
    timed = [s for s in traced if not s.missed] or traced
    scale = sum(s.seconds for s in timed) / sum(s.raw for s in timed)
    metrics = {}
    for span in dict.fromkeys(name for _, _, name, _ in SITES):
        metrics[span + ".self_ms"] = (tracer.self_s[span] * scale * 1e3 / n, "ms")
    for span in ("fourreg.encode_permutation", "fourreg.circuits", "graphs.circle_graph"):
        metrics[span + ".calls"] = (tracer.calls[span] / n, "count")
    for counter in (
        "graphs.circle_graph.edges", "graphs.circle_graph.loops", "sorter.steps",
        "oracle.states", "dcj.components",
    ):
        metrics[counter] = (tracer.counts[counter] / n, "count")
    c = tracer.counts
    metrics["localcomp.ms_set.candidate_frac"] = (
        c["localcomp.ms_set.candidates"] / max(1, c["localcomp.ms_set.looped"]), "frac")
    metrics["sorter.criterion_frac"] = (c["sorter.criterion"] / n, "frac")
    metrics["oracle.hit_frac"] = (tracer.calls["oracle.brute_reversal_distance"] / n, "frac")
    ratios = [
        t.seconds / p.seconds for p, t in zip(plain, traced) if not (p.missed or t.missed)
    ]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1 if ratios else 0.0, "frac")
    metrics["trace.coverage_frac"] = (tracer.covered_s / tracer.request_s, "frac")
    return metrics


def setup_seconds(name: str) -> float:
    """Median over SETUP_PROBES fresh interpreters, each at the machine speed
    sampled just before and after it."""
    runs = []
    before = kernel_seconds()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, SRC_DIR, BENCH_DIR, name],
            capture_output=True, text=True, timeout=170, check=True,
        )
        after = kernel_seconds()
        runs.append(float(out.stdout.split()[-1]) * 2 * KERNEL_REF_S / (before + after))
        before = after
    return statistics.median(runs)


def summarize(name: str, samples: list[Sample], problems: list[str]) -> dict:
    errors = sorted({s.error for s in samples if s.error})
    raised = sum(1 for s in samples if s.error)
    wrong = sum(1 for s in samples if not (s.ok or s.missed or s.error))
    missed = sum(s.missed for s in samples)
    _, pct = tail([s.seconds for s in samples])
    timed = [s for s in samples if not s.missed] or samples
    print(
        "%s: %d requests, %d wrong, %d raised, %d missed the deadline; "
        "tail_ms is p%.2f; wall-clock p50 %.3f ms at mean speed scale %.3f"
        % (name, len(samples), wrong, raised, missed, pct,
           statistics.median(s.raw for s in samples) * 1e3,
           sum(s.seconds for s in timed) / sum(s.raw for s in timed)),
        file=sys.stderr,
    )
    for line in errors + problems:
        print("  " + line, file=sys.stderr)
    return {
        "correct": not (wrong or raised or problems),
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "revdcj", "__init__.py")):
        print("error: no revdcj sources under %s" % SRC_DIR, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error("--workload must be one of %s" % ", ".join(workloads.NAMES))
    setup_s = 0.0 if args.trace else setup_seconds(args.workload)
    for call in workloads.warm_up_calls(args.workload):
        call()
    w = workloads.build(args.workload, args.seed)

    samples = measure(w, args.seconds)
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = measure(w, float("inf"), tracer, limit=len(samples))
        metrics = per_layer(tracer, samples, traced)
        result = summarize(w.name, samples + traced, w.verify())
        result["attempted"] = len(traced)
        result["failed"] = sum(not s.ok for s in traced)
    else:
        metrics = end_to_end(samples, setup_s)
        result = summarize(w.name, samples, w.verify())
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
