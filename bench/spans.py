"""Per-layer timing by wrapping revdcj's functions where they are looked up.

Each site below is a module attribute that some caller resolves at call
time: for example ``revdcj.graphs.circuits`` is the name ``circle_graph``
calls, and ``revdcj.fourreg.circuits`` the one ``target_circuit_count``
calls.  Wrapping the name at the site catches internal calls too while the
library itself stays unedited.  A span's self time is its duration minus
the time of the spans it encloses; a request's coverage is the share of its
time inside any span.  Counters read the arguments and results at the same
boundaries.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _graph_size(counts, args, h):
    loops = sum(1 for e in h.edges if len(e) == 1)
    counts["graphs.circle_graph.loops"] += loops
    counts["graphs.circle_graph.edges"] += len(h.edges) - loops


def _ms_set_size(counts, args, found):
    counts["localcomp.ms_set.candidates"] += len(found)
    counts["localcomp.ms_set.looped"] += len(args[0].looped_vertices())


def _states(counts, args, result):
    counts["oracle.states"] += result.states_explored


def _components(counts, args, graph):
    counts["dcj.components"] += len(graph.components)


def _script(counts, args, script):
    if script is not None:
        counts["sorter.criterion"] += 1
        counts["sorter.steps"] += len(script.steps)


def _report(counts, args, report):
    counts["sorter.criterion"] += report.method == "hp_criterion"


# (module, attribute, span name, counter); a "Class.method" attribute wraps
# the method on the class
SITES = (
    ("revdcj.cli", "main", "cli", None),
    ("revdcj.cli", "parse_permutation", "perm.parse", None),
    ("revdcj.perm", "parse_genome", "perm.parse", None),
    ("revdcj.sorter", "apply_reversal", "perm.apply_reversal", None),
    ("revdcj.sorter", "encode_permutation", "fourreg.encode_permutation", None),
    ("revdcj.cli", "encode_permutation", "fourreg.encode_permutation", None),
    ("revdcj.sorter", "target_circuit_count", "fourreg.target_circuit_count", None),
    ("revdcj.cli", "target_circuit_count", "fourreg.target_circuit_count", None),
    ("revdcj.dcj", "target_circuit_count", "fourreg.target_circuit_count", None),
    ("revdcj.fourreg", "circuits", "fourreg.circuits", None),
    ("revdcj.graphs", "circuits", "fourreg.circuits", None),
    ("revdcj.dcj", "encode_circular_genomes", "fourreg.encode_circular_genomes", None),
    ("revdcj.sorter", "circle_graph", "graphs.circle_graph", _graph_size),
    ("revdcj.sorter", "adjacency_matrix", "graphs.rank", None),
    ("revdcj.graphs", "Gf2Matrix.rank", "graphs.rank", None),
    ("revdcj.sorter", "has_full_lc_sequence", "localcomp.has_full_lc_sequence", None),
    ("revdcj.sorter", "ms_set", "localcomp.ms_set", _ms_set_size),
    ("revdcj.sorter", "lc_strip", "localcomp.lc_strip", None),
    ("revdcj.sorter", "reversal_for_vertex", "sorter.reversal_for_vertex", None),
    ("revdcj.sorter", "sort_by_reversals", "sorter.sort_by_reversals", _script),
    ("revdcj.sorter", "reversal_distance", "sorter.reversal_distance", _report),
    ("revdcj.cli", "reversal_distance", "sorter.reversal_distance", _report),
    ("revdcj.oracle", "brute_reversal_distance", "oracle.brute_reversal_distance", _states),
    ("revdcj.dcj", "adjacency_set", "dcj.adjacency_set", None),
    ("revdcj.dcj", "adjacency_graph", "dcj.adjacency_graph", _components),
)


class Tracer:
    """Self time and calls per span name, plus counters, summed over requests."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_s = 0.0
        self.covered_s = 0.0
        self._stack = [[0.0]]  # per open span: time of the spans it encloses

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            inner = [0.0]
            self._stack.append(inner)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                self._stack.pop()
                self._stack[-1][0] += took
                self.self_s[name] += took - inner[0]
                self.calls[name] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def begin_request(self) -> None:
        self._stack = [[0.0]]

    def end_request(self, seconds: float) -> None:
        self.request_s += seconds
        self.covered_s += self._stack[0][0]

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        undo = []
        try:
            for module, attr, name, count in SITES:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
