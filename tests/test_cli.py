"""Command-line interface: golden outputs, JSON modes, files, exit codes."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from revdcj import cli
from revdcj.dm import from_graph
from revdcj.fourreg import encode_permutation
from revdcj.oracle import DCJ_CAP
from revdcj.perm import (
    SignedPermutation,
    apply_reversal,
    ReversalInterval,
    permutation_from_json,
)
from revdcj.sorter import circuit_count, permutation_circle_graph
from revdcj.verify import enabled, verifying

from conftest import (
    breakpoint_positions,
    graph_from_json,
    sabotage_lc_strip,
    set_system_from_json,
)

PI7_ARG = "1,-6,7,4,-2,-5,3"

DISTANCE_TEXT = """\
permutation: (1, -6, 7, 4, -2, -5, 3)
n: 7
c: 4
lower bound: 4
exact: 4
method: hp_criterion
"""

SORT_TEXT = """\
start: (1, -6, 7, 4, -2, -5, 3)
step 1: reversal [2, 5] connecting 1 with 2 -> (1, 2, -4, -7, 6, -5, 3)
step 2: reversal [4, 7] connecting 3 with 4 -> (1, 2, -4, -3, 5, -6, 7)
step 3: reversal [3, 4] connecting both (i) 2 with 3 and (ii) 4 with 5 -> (1, 2, 3, 4, 5, -6, 7)
step 4: reversal [6, 6] connecting both (i) 5 with 6 and (ii) 6 with 7 -> (1, 2, 3, 4, 5, 6, 7)
sorted in 4 reversals
"""

CIRCLE_TEXT = """\
permutation: (1, -6, 7, 4, -2, -5, 3)
matrix:
   v0 v1 v2 v3 v4 v5 v6 v7
v0  0  0  0  0  0  0  0  0
v1  0  1  1  1  1  1  0  1
v2  0  1  1  0  1  1  0  0
v3  0  1  0  0  0  1  0  0
v4  0  1  1  0  1  1  0  0
v5  0  1  1  1  1  0  1  1
v6  0  0  0  0  0  1  1  0
v7  0  1  0  0  0  1  0  0
oriented: v1 v2 v4 v6
rank: 4
nullity: 4
sortable: yes
"""

DM_TEXT = """\
permutation: (1, -6, 7, 4, -2, -5, 3)
ground: v0 v1 v2 v3 v4 v5 v6 v7
family size: 42
delta matroid: yes
even: no
summand grounds: v0; v1 v2 v3 v4 v5 v6 v7
sortable: yes
"""

GOLDEN = Path(__file__).parent / "golden"
DM_JSON = (GOLDEN / "dm_pi7.json").read_text(encoding="utf-8")
README_DCJ = ("L: b -d c; C: a -e f", "L: a b c; C: d e; L: f")


def run(capsys, *argv):
    """cli.main's status, with argparse's SystemExit read as a status too."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_distance(self, capsys):
        code, out, err = run(capsys, "distance", PI7_ARG)
        assert (code, err) == (0, "")
        assert out == DISTANCE_TEXT

    def test_sort(self, capsys):
        code, out, err = run(capsys, "sort", PI7_ARG)
        assert (code, err) == (0, "")
        assert out == SORT_TEXT

    def test_circle_graph(self, capsys):
        code, out, err = run(capsys, "circle-graph", PI7_ARG)
        assert (code, err) == (0, "")
        assert out == CIRCLE_TEXT

    def test_dm(self, capsys):
        assert run(capsys, "dm", PI7_ARG) == (0, DM_TEXT, "")
        assert run(capsys, "dm", PI7_ARG, "--json") == (0, DM_JSON, "")

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("fourreg", "--json", PI7_ARG), "fourreg_pi7.json"),
            (("fourreg", "--random", "6", "--seed", "9"), "fourreg_random6_seed9.txt"),
            (
                ("dcj", "--json", "C: a -b c; C: d e", "C: a b; C: c -e d"),
                "dcj_circular.json",
            ),
        ],
    )
    def test_fourreg_and_dcj(self, capsys, argv, golden):
        expected = (GOLDEN / golden).read_text(encoding="utf-8")
        assert run(capsys, *argv) == (0, expected, "")

    def test_dcj_dot(self, capsys, tmp_path):
        path = tmp_path / "dcj.dot"
        code, _, err = run(capsys, "dcj", *README_DCJ, "--dot", str(path))
        assert (code, err) == (0, "")
        assert path.read_bytes() == (GOLDEN / "dcj_readme.dot").read_bytes()

    def test_output_is_stable_across_runs(self, capsys):
        first = run(capsys, "circle-graph", PI7_ARG)
        second = run(capsys, "circle-graph", PI7_ARG)
        assert first == second


class TestDistanceCommand:
    def test_unsortable_permutation_falls_back_to_search(self, capsys):
        code, out, _ = run(capsys, "distance", "2,1")
        assert code == 0
        assert "exact: 3" in out and "method: oracle" in out

    def test_both_orientations(self, capsys):
        code, out, _ = run(capsys, "distance", PI7_ARG, "--both-orientations")
        assert code == 0
        assert "forward: lower bound 4, exact 4, method hp_criterion" in out
        assert "backward: lower bound 5, exact 5, method hp_criterion" in out
        assert out.endswith("lower bound: 4\nexact: 4\n")

    def test_bound_only_policy(self, capsys):
        code, out, _ = run(capsys, "distance", "2,1", "--policy", "bound_only")
        assert code == 0
        assert "exact: unknown" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "distance", PI7_ARG, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["c"] == 4 and data["exact"] == 4
        assert data["method"] == "hp_criterion"
        p = permutation_from_json(data["permutation"])
        assert p == SignedPermutation((1, -6, 7, 4, -2, -5, 3))

    def test_c_is_the_circuit_count(self, capsys):
        rng = random.Random(30)
        for _ in range(60):
            n = rng.randint(1, 30)
            values = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n)]
            arg = ",".join(map(str, values))
            c = circuit_count(SignedPermutation(tuple(values)))
            code, out, _ = run(capsys, "distance", arg, "--policy", "bound_only", "--json")
            assert code == 0 and json.loads(out)["c"] == c
            code, out, _ = run(capsys, "distance", arg, "--policy", "bound_only")
            assert code == 0 and "\nc: %d\n" % c in out

    def test_permutation_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text(PI7_ARG + "\n")
        code, out, _ = run(capsys, "distance", str(path))
        assert code == 0 and out == DISTANCE_TEXT


class TestSortCommand:
    def test_identity_needs_no_steps(self, capsys):
        code, out, _ = run(capsys, "sort", "1,2,3")
        assert code == 0
        assert "sorted in 0 reversals" in out

    def test_unsortable_prints_a_reason(self, capsys):
        code, out, _ = run(capsys, "sort", "2,1")
        assert code == 0
        assert "no optimal script: the sortability criterion fails" in out

    def test_unsortable_json_names_the_source(self, capsys):
        code, out, err = run(capsys, "sort", "2,1", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"sortable": False, "source": {"values": [2, 1]}}

    def test_json_steps_replay(self, capsys):
        code, out, _ = run(capsys, "sort", PI7_ARG, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["sortable"] is True and data["claimed_distance"] == 4
        p = permutation_from_json(data["source"])
        for step in data["steps"]:
            a, b = step["reversal"]
            p = apply_reversal(p, ReversalInterval(a, b))
            assert p == permutation_from_json(step["result"])
        assert p == SignedPermutation((1, 2, 3, 4, 5, 6, 7))


    def test_captions_match_the_junction_positions(self, small_sweep):
        # reference: v is resolved when its two junction positions are adjacent
        def by_junctions(p):
            enc = encode_permutation(p)
            out = set()
            for v in range(len(p) + 1):
                ta, tb = breakpoint_positions(enc, v)
                if tb == ta + 1:
                    out.add(v)
            return out

        for rows in small_sweep.rows.values():
            for row in rows:
                assert cli._resolved_vertices(row.perm) == by_junctions(row.perm), row.perm


class TestNegativeLeadingPermutations:
    def test_leading_minus_is_a_permutation_not_a_flag(self, capsys):
        code, plain, _ = run(capsys, "distance", "-2,1")
        assert code == 0
        code, dashed, _ = run(capsys, "distance", "--", "-2,1")
        assert code == 0
        assert plain == dashed
        assert plain.startswith("permutation: (-2, 1)\n")

    def test_sort_json_agrees_with_distance(self, capsys):
        code, out, _ = run(capsys, "sort", "-3,1,2", "--json")
        assert code == 0
        script = json.loads(out)
        code, out, _ = run(capsys, "distance", "-3,1,2", "--json")
        assert code == 0
        report = json.loads(out)
        assert script["source"] == report["permutation"] == {"values": [-3, 1, 2]}
        assert script["claimed_distance"] == report["exact"]

    def test_oracle_reads_a_negative_leading_permutation(self, capsys):
        code, out, _ = run(capsys, "oracle", "rev", "-1")
        assert code == 0
        assert "distance: 1" in out

    def test_unknown_flags_are_still_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["distance", "--frob", "1,2"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestJsonIsNotDoubleEncoded:
    def test_sort_fields_are_objects(self, capsys):
        code, out, _ = run(capsys, "sort", "2,-1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["source"] == {"values": [2, -1]}
        assert all(isinstance(step["result"], dict) for step in data["steps"])

    def test_dcj_genomes_are_objects(self, capsys):
        code, out, _ = run(capsys, "dcj", "C: 1 2", "C: 1 -2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["genome_a"] == {
            "chromosomes": [{"shape": "circular", "markers": ["1", "2"]}]
        }


class TestCircleGraphCommand:
    def test_json_reconstructs_the_graph(self, capsys):
        code, out, _ = run(capsys, "circle-graph", PI7_ARG, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 4 and data["nullity"] == 4
        assert data["sortable"] is True
        pi7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))
        assert graph_from_json(data) == permutation_circle_graph(pi7)

    def test_dot_file(self, capsys, tmp_path):
        path = tmp_path / "h.dot"
        code, _, _ = run(capsys, "circle-graph", PI7_ARG, "--dot", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("graph") and "doublecircle" in text


class TestFourregCommand:
    def test_worked_example_summary(self, capsys):
        code, out, _ = run(capsys, "fourreg", PI7_ARG)
        assert code == 0
        for line in (
            "vertices: 8",
            "edges: 16",
            "source circuits: 1",
            "target circuits: 5",
            "c: 4",
        ):
            assert line in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "fourreg", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == ["v0", "v1"]
        assert len(data["edges"]) == 4
        assert {e["kind"] for e in data["edges"]} == {
            "anchor",
            "real",
            "intermediate",
        }
        assert set(data) >= {"pa_routes", "pb_routes", "pa_circuits", "pb_circuits"}

    def test_random_instance_is_seed_deterministic(self, capsys):
        first = run(capsys, "fourreg", "--random", "6", "--seed", "9", "--json")
        second = run(capsys, "fourreg", "--random", "6", "--seed", "9", "--json")
        assert first == second
        assert len(json.loads(first[1])["vertices"]) == 6

    def test_permutation_and_random_are_exclusive(self, capsys):
        code, _, err = run(capsys, "fourreg", "1,2", "--random", "5")
        assert code == 1
        assert err.startswith("error:")

    def test_permutation_or_random_is_required(self, capsys):
        assert run(capsys, "fourreg") == (
            1, "", "error: a permutation or --random is required\n"
        )

    def test_negative_random_count_is_named(self, capsys):
        assert run(capsys, "fourreg", "--random", "-1") == (
            1, "", "error: vertex count -1 is negative\n"
        )


class TestDmCommand:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "dm", PI7_ARG)
        assert code == 0
        for line in (
            "family size: 42",
            "delta matroid: yes",
            "even: no",
            "summand grounds: v0; v1 v2 v3 v4 v5 v6 v7",
            "sortable: yes",
        ):
            assert line in out

    def test_json_reconstructs_the_set_system(self, capsys):
        code, out, _ = run(capsys, "dm", PI7_ARG, "--json")
        assert code == 0
        data = json.loads(out)
        pi7 = SignedPermutation((1, -6, 7, 4, -2, -5, 3))
        assert set_system_from_json(data) == from_graph(permutation_circle_graph(pi7))
        assert data["normal_form"] is True and data["sortable"] is True


class TestDcjCommand:
    def test_worked_example_with_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("L: b -d c\nC: a -e f\n")
        b.write_text("L: a b c\nC: d e\nL: f\n")
        code, out, _ = run(capsys, "dcj", str(a), str(b))
        assert code == 0
        for line in (
            "markers: 6",
            "cycles: 0",
            "odd paths: 2",
            "distance: 5",
            "oracle distance: 5",
        ):
            assert line in out

    def test_inline_genomes_use_semicolons(self, capsys):
        code, out, _ = run(capsys, "dcj", "C: 1 2; C: 3", "C: 1 -2; C: 3")
        assert code == 0
        assert "distance: 1" in out
        assert "circular encoding distance: 1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dcj", "C: 1 2", "C: 1 -2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["distance"] == 1
        assert data["circular_encoding_distance"] == 1
        assert data["oracle_distance"] == 1

    def test_oracle_skipped_above_the_cap(self, capsys):
        names = " ".join(map(str, range(1, DCJ_CAP + 2)))
        code, out, _ = run(capsys, "dcj", "L: " + names, "C: " + names)
        assert code == 0
        assert "markers: %d" % (DCJ_CAP + 1) in out
        assert "distance: 1" in out
        assert "oracle distance" not in out

    def test_marker_mismatch_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "dcj", "L: 1", "L: 2")
        assert code == 1
        assert err.startswith("error:")


class TestOracleCommand:
    def test_reversal_search(self, capsys):
        code, out, _ = run(capsys, "oracle", "rev", "2,1")
        assert code == 0
        assert "distance: 3" in out
        assert "step 3: [1, 1] -> (1, 2)" in out

    def test_dcj_search_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "dcj", "L: 1", "C: 1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["distance"] == 1
        assert len(data["witness"]) == 2

    def test_missing_second_genome(self, capsys):
        code, _, err = run(capsys, "oracle", "dcj", "L: 1")
        assert code == 1
        assert err.startswith("error:")

    def test_reversal_search_takes_one_permutation(self, capsys):
        assert run(capsys, "oracle", "rev", "2,1", "1,2") == (
            1, "", "error: the rev oracle takes one permutation\n"
        )


class TestVerifyFlag:
    def test_same_stdout_with_and_without_verify(self, capsys):
        rng = random.Random(5)
        argvs = [["distance", PI7_ARG], ["sort", PI7_ARG], ["sort", "2,1"]]
        for _ in range(12):
            values = list(range(1, rng.randint(2, 25)))
            rng.shuffle(values)
            arg = ",".join(str(v if rng.random() < 0.5 else -v) for v in values)
            argvs.append(["sort", arg, "--json"][: rng.randint(2, 3)])
            argvs.append(["distance", arg, "--both-orientations"])
        for argv in argvs:
            with verifying(False):
                plain = run(capsys, *argv)
            assert run(capsys, *argv, "--verify") == plain, argv
            assert plain[0] == 0

    def test_verify_runs_the_checks_for_one_call(self, capsys, monkeypatch):
        sabotage_lc_strip(monkeypatch)
        with verifying(False):
            code, out, err = run(capsys, "sort", PI7_ARG, "--verify")
            assert (code, out) == (3, "")
            assert err.startswith("internal error: circle graph after [2, 5]")
            assert not enabled()


class TestExitCodes:
    def test_domain_errors_return_one(self, capsys):
        code, _, err = run(capsys, "distance", "1,0,2")
        assert code == 1
        assert err == "error: zero entry in signed permutation\n"

    def test_internal_errors_exit_three(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("matrix rank disagrees with n + 1 - c")

        monkeypatch.setattr(cli, "reversal_distance", broken)
        code, out, err = run(capsys, "distance", PI7_ARG)
        assert (code, out) == (3, "")
        assert err == "internal error: matrix rank disagrees with n + 1 - c\n"

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["distance"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("revdcj ")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_one_quietly(self, unbuffered):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "revdcj.cli", "distance", PI7_ARG],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "2,1", "--oracle-cap", "3"],
            ["dcj", "C: 1 2", "C: 1 -2", "--oracle-cap", "1"],
            ["oracle", "rev", "2,1", "--oracle-cap", "9"],
            ["distance", "2,1", "--policy", "oracle_only"],
        ],
        ids=["distance-cap", "dcj-cap", "oracle-cap", "oracle-only-policy"],
    )
    def test_is_a_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, "")


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["circle-graph", PI7_ARG],
            ["fourreg", PI7_ARG],
            ["dcj", "C: 1 2", "C: 1 -2"],
        ],
        ids=["circle-graph", "fourreg", "dcj"],
    )
    def test_dot_into_a_missing_directory(self, capsys, tmp_path, argv):
        path = tmp_path / "no" / "such" / "out.dot"
        code, _, err = run(capsys, *argv, "--dot", str(path))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


MALFORMED_TOKENS = ("x", "1.5", "+", "-", "--1", "1-", "2e3", "(1)", "0x1", "nan")


def fuzz_permutation(rng):
    """At most 6 values, often broken: a malformed or duplicate token,
    a zero, a gap, or an empty token."""
    n = rng.randint(0, 6)
    tokens = [str(v * rng.choice((1, -1))) for v in rng.sample(range(1, n + 1), n)]
    flaw = rng.randrange(7)
    if flaw == 0 and tokens:
        tokens[rng.randrange(n)] = rng.choice(MALFORMED_TOKENS)
    elif flaw == 1 and tokens:
        tokens.append(rng.choice(tokens))
    elif flaw == 2:
        tokens.insert(rng.randint(0, n), rng.choice(("0", "-0")))
    elif flaw == 3:
        tokens.append(str(n + 2))
    elif flaw == 4:
        tokens.insert(rng.randint(0, n), "")
    return rng.choice((",", " ", ", ")).join(tokens)


def fuzz_genome(rng, names):
    """Chromosomes over the given markers, joined by ';', sometimes broken:
    a duplicate or foreign marker, an empty chromosome, a bad prefix, a
    stray sign."""
    names = list(names)
    rng.shuffle(names)
    lines = []
    while names:
        k = rng.randint(1, len(names))
        chunk, names = names[:k], names[k:]
        markers = [rng.choice(("", "-")) + m for m in chunk]
        lines.append("%s: %s" % (rng.choice("LC"), " ".join(markers)))
    flaw = rng.randrange(10)
    if flaw == 0 and lines:
        lines[-1] += " " + lines[-1].split()[-1].lstrip("-")
    elif flaw == 1:
        lines.append("L: z")
    elif flaw == 2:
        lines.append(rng.choice(("C:", "L: ", "X: a", "a b")))
    elif flaw == 3 and lines:
        lines[0] = lines[0].replace(": ", ": --", 1)
    elif flaw == 4 and lines:
        lines[-1] += " -"
    return rng.choice((";", "; ", "\n")).join(lines)


def fuzz_argv(rng, literal_files, dot_paths):
    command = rng.choice(
        ("distance", "sort", "circle-graph", "fourreg", "dm", "dcj", "oracle")
    )
    perm = rng.choice(literal_files) if rng.random() < 0.15 else fuzz_permutation(rng)
    names = rng.sample(("a", "b", "c", "1", "2", "x7"), rng.randint(0, 4))
    genomes = [
        rng.choice(literal_files) if rng.random() < 0.15 else fuzz_genome(rng, names)
        for _ in range(rng.choice((1, 2, 2, 2)))
    ]
    if command == "dcj":
        argv = [command, *genomes]
    elif command == "oracle":
        kind = rng.choice(("rev", "dcj", "bad"))
        argv = [command, kind, *(genomes if kind == "dcj" else [perm])]
    elif command == "fourreg" and rng.random() < 0.3:
        argv = [command, "--random", str(rng.randint(-1, 8))]
        argv += ["--seed", str(rng.randint(-3, 9))]
        if rng.random() < 0.2:
            argv.append(perm)
    else:
        argv = [command, perm]
    if rng.random() < 0.4:
        argv.append("--json")
    if command in ("circle-graph", "fourreg", "dcj") and rng.random() < 0.3:
        argv += ["--dot", rng.choice(dot_paths)]
    if command == "distance":
        if rng.random() < 0.3:
            argv.append("--both-orientations")
        if rng.random() < 0.3:
            argv += ["--policy", rng.choice(("auto", "bound_only", "exact"))]
    if command in ("distance", "sort") and rng.random() < 0.2:
        argv.append("--verify")
    if rng.random() < 0.05:
        argv.append(rng.choice(("--frob", "-x", "--json=1")))
    return argv


class TestFuzz:
    def test_every_call_ends_with_a_status(self, capsys, tmp_path, monkeypatch):
        # files named like literals: an existing path is read, not parsed
        monkeypatch.chdir(tmp_path)
        Path("2,1").write_text("1,-2\n")
        Path("3 1 2").write_text("not a permutation\n")
        Path("L: a; C: b").write_text("L: b\nC: a\n")
        Path("latin1").write_bytes(b"1,\xff2\n")
        Path("1,2").mkdir()
        literal_files = ["2,1", "3 1 2", "L: a; C: b", "latin1", "1,2"]
        dot_paths = ["out.dot", str(tmp_path / "missing" / "out.dot"), "1,2"]

        rng = random.Random(16)
        seen = Counter()
        for _ in range(400):
            argv = fuzz_argv(rng, literal_files, dot_paths)
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), argv
            assert "internal error" not in err, argv
            seen[code] += 1
        assert all(seen[code] > 20 for code in (0, 1, 2)), seen
