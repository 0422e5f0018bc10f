"""Command-line front end.

Subcommands mirror the library layers: distance and sort for signed
permutations, circle-graph and fourreg for the graph machinery, dm for
the set-system view, dcj for genome pairs, oracle for the brute-force
referees, whose size caps (``revdcj.oracle``) no option raises.  Data goes
to stdout, errors to stderr; exit status is 0 on success, 1 on a domain
error (bad permutation, oversize oracle call, unreadable or unwritable
file) or when stdout is closed before the output is written (as when
piped into ``head``), 2 on usage errors, and 3 on an internal error (a
failed cross-check or invariant), which prints an ``internal error: ...``
line.
``--verify`` on distance and sort also runs the super-linear cross-checks
(see ``revdcj.verify``); the output is the same with and without it.

Permutation and genome arguments are taken literally, or read from a file
when the argument names one; inline genomes may separate chromosomes with
semicolons instead of newlines.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__
from .dcj import adjacency_graph, adjacency_graph_to_dot, circular_dcj_distance
from .dm import from_graph, has_full_lc_sequence_for, is_delta_matroid, is_even, summands
from .fourreg import (
    REAL,
    circuits,
    encode_permutation,
    graph_to_dot,
    permutation_names,
    random_euler_system,
    random_four_regular,
    random_supplementary,
    target_circuit_count,
)
from .graphs import (
    adjacency_matrix,
    graph_to_json,
    looped_graph_to_dot,
    matrix_pretty,
)
from .localcomp import has_full_lc_sequence
from .oracle import DCJ_CAP, brute_dcj_distance, brute_reversal_distance
from .perm import (
    CIRCULAR,
    Genome,
    SignedPermutation,
    apply_reversal,
    parse_genome,
    parse_permutation,
)
from .sorter import (
    POLICIES,
    both_orientation_distance,
    permutation_circle_graph,
    reversal_distance,
    sort_by_reversals,
)
from .verify import verifying


def _read_arg(text: str) -> str:
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _permutation(text: str) -> SignedPermutation:
    return parse_permutation(_read_arg(text))


def _genome(text: str) -> Genome:
    return parse_genome(_read_arg(text).replace(";", "\n"))


def _emit_json(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_dot(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


# ---------------------------------------------------------------------------
# distance


def _cmd_distance(args) -> int:
    p = _permutation(args.permutation)
    if args.both_orientations:
        pair = both_orientation_distance(p, policy=args.policy)
        if args.json:
            _emit_json(pair.to_json())
            return 0
        print("permutation: %s" % p)
        print("n: %d" % len(p))
        for name, rep in (("forward", pair.forward), ("backward", pair.backward)):
            print(
                "%s: lower bound %d, exact %s, method %s"
                % (name, rep.lower_bound, _fmt(rep.exact), rep.method)
            )
        print("lower bound: %d" % pair.lower_bound)
        print("exact: %s" % _fmt(pair.exact))
        return 0
    rep = reversal_distance(p, policy=args.policy)
    c = len(p) + 1 - rep.lower_bound
    if args.json:
        data = rep.to_json()
        data["c"] = c
        _emit_json(data)
        return 0
    print("permutation: %s" % p)
    print("n: %d" % len(p))
    print("c: %d" % c)
    print("lower bound: %d" % rep.lower_bound)
    print("exact: %s" % _fmt(rep.exact))
    print("method: %s" % rep.method)
    return 0


def _fmt(value) -> str:
    return "unknown" if value is None else str(value)


# ---------------------------------------------------------------------------
# sort


def _resolved_vertices(p: SignedPermutation) -> set[int]:
    """Vertices v whose values v and v + 1 already sit side by side.

    With p framed as 0, p, n + 1, a neighbour pair (a, b) with b = a + 1
    resolves v = a when a >= 0, and v = -b when both are negative (v + 1
    then v, reversed); these are the vertices whose two junctions are
    consecutive in the traversal.
    """
    q = (0, *p.values, len(p) + 1)
    return {a if a >= 0 else -b for a, b in zip(q, q[1:]) if b - a == 1}


def _connection_phrase(pairs: list[str]) -> str:
    """A reversal changes only the breakpoints at its two ends, so a step
    creates one adjacency or two."""
    if len(pairs) == 1:
        return "connecting %s" % pairs[0]
    return "connecting both (i) %s and (ii) %s" % tuple(pairs)


def _step_caption(before: SignedPermutation, after: SignedPermutation) -> str:
    n = len(before)
    fresh = sorted(_resolved_vertices(after) - _resolved_vertices(before))
    interior = ["%d with %d" % (v, v + 1) for v in fresh if 0 < v < n]
    if interior:
        return _connection_phrase(interior)
    anchor = []
    if 0 in fresh:
        anchor.append("$ with 1")
    if n in fresh:
        anchor.append("%d with $" % n)
    # every greedy step resolves the vertex it strips (tests/test_sorter.py
    # checks it), so a step with no fresh interior pair has one at an anchor
    return _connection_phrase(anchor)


def _cmd_sort(args) -> int:
    p = _permutation(args.permutation)
    script = sort_by_reversals(p)
    if script is None:
        if args.json:
            _emit_json({"source": p.to_json(), "sortable": False})
            return 0
        print("permutation: %s" % p)
        print("no optimal script: the sortability criterion fails")
        return 0
    if args.json:
        data = script.to_json()
        data["sortable"] = True
        _emit_json(data)
        return 0
    print("start: %s" % p)
    cur = p
    for i, (interval, nxt) in enumerate(script.steps, start=1):
        caption = _step_caption(cur, nxt)
        print("step %d: reversal %s %s -> %s" % (i, interval, caption, nxt))
        cur = nxt
    print("sorted in %d reversals" % script.claimed_distance)
    return 0


# ---------------------------------------------------------------------------
# circle-graph


def _cmd_circle_graph(args) -> int:
    p = _permutation(args.permutation)
    h = permutation_circle_graph(p)
    m = adjacency_matrix(h)
    rank = m.rank()
    nullity = m.size() - rank
    if args.dot:
        _write_dot(args.dot, looped_graph_to_dot(h))
    if args.json:
        data = graph_to_json(h)
        data["rank"] = rank
        data["nullity"] = nullity
        data["sortable"] = has_full_lc_sequence(h)
        _emit_json(data)
        return 0
    print("permutation: %s" % p)
    print("matrix:")
    print(matrix_pretty(m))
    print("oriented: %s" % (" ".join("v%d" % v for v in sorted(h.looped_vertices())) or "none"))
    print("rank: %d" % rank)
    print("nullity: %d" % nullity)
    print("sortable: %s" % ("yes" if has_full_lc_sequence(h) else "no"))
    return 0


# ---------------------------------------------------------------------------
# fourreg


def _cmd_fourreg(args) -> int:
    if args.random is not None:
        if args.permutation is not None:
            raise ValueError("give a permutation or --random, not both")
        g = random_four_regular(args.random, args.seed)
        pa = random_euler_system(g, args.seed + 1)
        pb = random_supplementary(g, pa, args.seed + 2)
        enc = None
        vertex_labels = ["u%d" % v for v in range(g.n_vertices)]
        edge_labels = ["e%d" % i for i in range(len(g.edges))]
        edge_kinds = [REAL] * len(g.edges)
    else:
        if args.permutation is None:
            raise ValueError("a permutation or --random is required")
        enc = encode_permutation(_permutation(args.permutation))
        g, pa, pb = enc.graph, enc.pa, enc.pb
        vertex_labels, edge_labels, edge_kinds = permutation_names(enc)
    ca = circuits(g, pa)
    cb = circuits(g, pb)
    if args.dot:
        _write_dot(args.dot, graph_to_dot(g, pb, vertex_labels, edge_labels))
    if args.json:
        data = {
            "vertices": list(vertex_labels),
            "edges": [
                {"slots": list(e), "label": edge_labels[i], "kind": edge_kinds[i]}
                for i, e in enumerate(g.edges)
            ],
            "pa_routes": list(pa.routes),
            "pb_routes": list(pb.routes),
            "pa_circuits": [[edge_labels[i] for i in c] for c in ca],
            "pb_circuits": [[edge_labels[i] for i in c] for c in cb],
        }
        _emit_json(data)
        return 0
    print("vertices: %d" % g.n_vertices)
    print("edges: %d" % len(g.edges))
    print("source circuits: %d" % len(ca))
    print("target circuits: %d" % len(cb))
    for c in cb:
        print("  " + " ".join(edge_labels[i] for i in c))
    if enc is not None:
        print("c: %d" % target_circuit_count(enc))
    return 0


# ---------------------------------------------------------------------------
# dm


def _cmd_dm(args) -> int:
    p = _permutation(args.permutation)
    h = permutation_circle_graph(p)
    d = from_graph(h)
    pieces = summands(d)
    if args.json:
        data = d.to_json()
        data["delta_matroid"] = is_delta_matroid(d)
        data["even"] = is_even(d)
        data["normal_form"] = 0 in d.masks
        data["summand_grounds"] = [list(s.ground) for s in pieces]
        data["sortable"] = has_full_lc_sequence_for(d)
        _emit_json(data)
        return 0
    print("permutation: %s" % p)
    print("ground: %s" % (" ".join("v%d" % v for v in d.ground)))
    print("family size: %d" % len(d.masks))
    print("delta matroid: %s" % ("yes" if is_delta_matroid(d) else "no"))
    print("even: %s" % ("yes" if is_even(d) else "no"))
    print(
        "summand grounds: %s"
        % ("; ".join(" ".join("v%d" % v for v in s.ground) for s in pieces))
    )
    print("sortable: %s" % ("yes" if has_full_lc_sequence_for(d) else "no"))
    return 0


# ---------------------------------------------------------------------------
# dcj


def _cmd_dcj(args) -> int:
    ga = _genome(args.genome_a)
    gb = _genome(args.genome_b)
    graph = adjacency_graph(ga, gb)
    distance = graph.distance
    n = len(ga.marker_names())
    all_circular = all(
        c.shape == CIRCULAR for g in (ga, gb) for c in g.chromosomes
    )
    circular_distance = circular_dcj_distance(ga, gb) if all_circular else None
    if circular_distance is not None and circular_distance != distance:
        raise AssertionError("encoding route disagrees with the adjacency graph")
    oracle_distance = None
    if n <= DCJ_CAP:
        oracle_distance = brute_dcj_distance(ga, gb).distance
        if oracle_distance != distance:
            raise AssertionError("formula disagrees with the search oracle")
    if args.dot:
        _write_dot(args.dot, adjacency_graph_to_dot(graph))
    if args.json:
        data = {
            "genome_a": ga.to_json(),
            "genome_b": gb.to_json(),
            "markers": n,
            "cycles": graph.cycles,
            "odd_paths": graph.odd_paths,
            "distance": distance,
            "circular_encoding_distance": circular_distance,
            "oracle_distance": oracle_distance,
        }
        _emit_json(data)
        return 0
    print("genome a:")
    for line in str(ga).splitlines():
        print("  " + line)
    print("genome b:")
    for line in str(gb).splitlines():
        print("  " + line)
    print("markers: %d" % n)
    print("cycles: %d" % graph.cycles)
    print("odd paths: %d" % graph.odd_paths)
    print("distance: %d" % distance)
    if circular_distance is not None:
        print("circular encoding distance: %d" % circular_distance)
    if oracle_distance is not None:
        print("oracle distance: %d" % oracle_distance)
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    if args.kind == "rev":
        if args.input_b is not None:
            raise ValueError("the rev oracle takes one permutation")
        p = _permutation(args.input_a)
        result = brute_reversal_distance(p)
        if args.json:
            _emit_json(
                {
                    "distance": result.distance,
                    "states_explored": result.states_explored,
                    "witness": [[r.start, r.end] for r in result.witness],
                }
            )
            return 0
        print("permutation: %s" % p)
        print("distance: %d" % result.distance)
        print("states explored: %d" % result.states_explored)
        cur = p
        for i, r in enumerate(result.witness, start=1):
            cur = apply_reversal(cur, r)
            print("step %d: %s -> %s" % (i, r, cur))
        return 0
    ga = _genome(args.input_a)
    if args.input_b is None:
        raise ValueError("the dcj oracle needs two genomes")
    gb = _genome(args.input_b)
    result = brute_dcj_distance(ga, gb)
    if args.json:
        _emit_json(
            {
                "distance": result.distance,
                "states_explored": result.states_explored,
                "witness": [g.to_json() for g in result.witness],
            }
        )
        return 0
    print("distance: %d" % result.distance)
    print("states explored: %d" % result.states_explored)
    for i, g in enumerate(result.witness):
        print("state %d:" % i)
        for line in str(g).splitlines():
            print("  " + line)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reads tokens such as ``-2,1`` as positionals, not as unknown flags.

    No revdcj flag starts with a digit, so any ``-<digit>`` token is a
    negative-leading permutation (argparse itself only exempts plain
    negative numbers).  Subcommand parsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


_VERIFY_HELP = "also run the super-linear cross-checks (per-step rebuild, validation)"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revdcj",
        description="Reversal and DCJ genome rearrangement distances.",
    )
    parser.add_argument("--version", action="version", version="revdcj %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="reversal distance of a signed permutation")
    d.add_argument("permutation")
    d.add_argument("--json", action="store_true")
    d.add_argument("--both-orientations", action="store_true")
    d.add_argument("--policy", choices=POLICIES, default="auto")
    d.add_argument("--verify", action="store_true", help=_VERIFY_HELP)
    d.set_defaults(func=_cmd_distance)

    s = sub.add_parser("sort", help="optimal reversal script when one is certified")
    s.add_argument("permutation")
    s.add_argument("--json", action="store_true")
    s.add_argument("--verify", action="store_true", help=_VERIFY_HELP)
    s.set_defaults(func=_cmd_sort)

    c = sub.add_parser("circle-graph", help="interleavement graph and its matrix")
    c.add_argument("permutation")
    c.add_argument("--json", action="store_true")
    c.add_argument("--dot", metavar="PATH")
    c.set_defaults(func=_cmd_circle_graph)

    f = sub.add_parser("fourreg", help="4-regular encoding and circuit partitions")
    f.add_argument("permutation", nargs="?")
    f.add_argument("--random", type=int, metavar="N")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--json", action="store_true")
    f.add_argument("--dot", metavar="PATH")
    f.set_defaults(func=_cmd_fourreg)

    m = sub.add_parser("dm", help="set system of the circle graph")
    m.add_argument("permutation")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=_cmd_dm)

    j = sub.add_parser("dcj", help="DCJ distance between two genomes")
    j.add_argument("genome_a")
    j.add_argument("genome_b")
    j.add_argument("--json", action="store_true")
    j.add_argument("--dot", metavar="PATH")
    j.set_defaults(func=_cmd_dcj)

    o = sub.add_parser("oracle", help="brute-force distances by state search")
    o.add_argument("kind", choices=("rev", "dcj"))
    o.add_argument("input_a")
    o.add_argument("input_b", nargs="?")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "verify", False):
            with verifying():
                status = args.func(args)
        else:
            status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull so
        # that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
