import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import widthlab
from widthlab import bprog, cli, decomposition, lbound, width
from widthlab.cli import build_parser, main
from widthlab.graph import Ordering, format_dimacs_graph
from widthlab.instances import (
    cnf_of_graph,
    ct_graph,
    cycle_graph,
    format_dimacs_cnf,
    path_graph,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def p10_file(tmp_path):
    path = tmp_path / "p10.gr"
    path.write_text(format_dimacs_graph(path_graph(10)))
    return str(path)


K2_CNF = format_dimacs_cnf(cnf_of_graph(path_graph(2)))
# Each clause mixes a negated and a plain variable.
SIGNS_CNF = "p cnf 3 2\n-3 1 0\n2 -1 0\n"


@pytest.fixture
def k2_cnf_file(tmp_path):
    path = tmp_path / "k2.cnf"
    path.write_text(K2_CNF)
    return str(path)


class TestGenerators:
    def test_gen_graph_path(self, capsys):
        code, out = run(capsys, "gen-graph", "--kind", "path", "--n", "4")
        assert code == 0
        assert "p edge 4 3" in out

    def test_gen_graph_random_is_seeded(self, capsys):
        args = ("gen-graph", "--kind", "random", "--n", "6", "--p", "0.5",
                "--seed", "3")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_gen_cnf_from_params(self, capsys):
        code, out = run(capsys, "gen-cnf", "--r", "1", "--k", "1")
        assert code == 0
        assert "p cnf 5 2" in out

    def test_gen_cnf_requires_a_source(self, capsys):
        code, _ = run(capsys, "gen-cnf")
        assert code == 2

    # Outputs recorded before variable names moved from Cnf to the writer.
    GEN_CNF_R1_K2 = (
        "c widthlab cnf format v1 (DIMACS)\n"
        + "".join(f"c var {i + 1} vertex {i}\n" for i in range(6))
        + "".join(f"c var {i} edge {{{e}}}\n" for i, e in enumerate(
            ["0,1", "0,2", "0,3", "0,4", "0,5", "1,2", "1,3", "1,4", "1,5", "2,3", "4,5"], 7))
        + "p cnf 17 11\n"
        "1 2 7 0\n1 3 8 0\n1 4 9 0\n1 5 10 0\n1 6 11 0\n2 3 12 0\n"
        "2 4 13 0\n2 5 14 0\n2 6 15 0\n3 4 16 0\n5 6 17 0\n"
    )
    GEN_CNF_GRAPH = (
        "c widthlab cnf format v1 (DIMACS)\n"
        "c var 1 vertex 0\nc var 2 vertex 1\nc var 3 vertex 2\nc var 4 vertex 3\n"
        "c var 5 vertex 4\nc var 6 edge {0,1}\nc var 7 edge {0,4}\nc var 8 edge {1,2}\n"
        "c var 9 edge {3,4}\n"
        "p cnf 9 4\n"
        "1 2 6 0\n1 5 7 0\n2 3 8 0\n4 5 9 0\n"
    )

    @pytest.mark.parametrize(
        "argv, graph_text, expected",
        [
            (["--r", "1", "--k", "2"], None, GEN_CNF_R1_K2),
            (["--graph", "{in}"], "c a comment\np edge 5 4\ne 5 1\ne 3 2\ne 1 2\ne 4 5\n",
             GEN_CNF_GRAPH),
        ],
        ids=["r1-k2", "graph"],
    )
    def test_gen_cnf_bytes(self, capsys, tmp_path, argv, graph_text, expected):
        in_file = tmp_path / "input.gr"
        if graph_text is not None:
            in_file.write_text(graph_text)
        code, out = run(capsys, "gen-cnf", *(a.format(**{"in": str(in_file)}) for a in argv))
        assert code == 0
        assert out == expected


class TestWidthCommands:
    def test_mw_exact(self, capsys, p10_file):
        code, out = run(capsys, "mw", "--graph", p10_file)
        assert code == 0 and out == "1\n"

    def test_mw_of_ordering(self, capsys, p10_file):
        order = "0 2 4 6 8 1 3 5 7 9"
        code, out = run(capsys, "mw", "--graph", p10_file, "--order", order)
        assert code == 0 and out == "5\n"

    def test_mw_json(self, capsys, p10_file):
        code, out = run(capsys, "mw", "--graph", p10_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1
        assert payload["witness_ordering"] == list(range(10))

    def test_pw(self, capsys, p10_file):
        code, out = run(capsys, "pw", "--graph", p10_file)
        assert code == 0 and out == "1\n"

    def test_bad_order_is_a_usage_error(self, capsys, p10_file):
        code, _ = run(capsys, "mw", "--graph", p10_file, "--order", "0 1")
        assert code == 2

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _ = run(capsys, "mw", "--graph", "/nonexistent.gr")
        assert code == 2


class TestDecompositionCommands:
    @pytest.mark.parametrize("r, k", [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("extended", [False, True], ids=["base", "extended"])
    def test_td_ctree(self, capsys, extended, r, k):
        flags = ["--extended"] if extended else []
        code, out = run(capsys, "td-ctree", "--r", str(r), "--k", str(k), *flags)
        assert code == 0
        g = decomposition.ctree_primal_graph(r, k) if extended else ct_graph(r, k)
        td, n = decomposition.parse_pace(out)
        assert n == g.n
        assert decomposition.validate_decomposition(g, td).valid
        if (extended, r, k) == (False, 1, 2):
            assert "s td 3 4 6" in out

    @pytest.mark.parametrize(
        "kind, order, sha256",
        [
            (["path", "--n", "10"], range(10),
             "6becdb7e0c0807ff3f15d3dd633aeb510d80bb5bb890cfa65a91b1403ace73ca"),
            (["grid", "--rows", "4", "--cols", "5"], range(20),
             "edca915758ac6b102ee85d8d55b4010740d5a62ed8a1f68cefae4b87a7a0f72d"),
            (["random", "--n", "30", "--p", ".2", "--seed", "3"], range(29, -1, -1),
             "4371e57d242db8fb6dc9445b5c9196ed974944e6769e582782631b350e87f83f"),
        ],
        ids=["p10", "grid4x5", "random30-reversed"],
    )
    def test_round_trip_through_files(self, capsys, tmp_path, kind, order, sha256):
        g_file, pd_file = str(tmp_path / "g.gr"), tmp_path / "g.td"
        assert run(capsys, "gen-graph", "--kind", *kind, "--out", g_file) == (0, "")
        code, _ = run(capsys, "pd-from-order", "--graph", g_file,
                      "--order", ",".join(map(str, order)), "--out", str(pd_file))
        assert code == 0
        assert hashlib.sha256(pd_file.read_bytes()).hexdigest() == sha256
        code, out = run(capsys, "order-from-pd", "--graph", g_file,
                        "--pd", str(pd_file), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mw_of_ordering"] <= payload["pd_width"] + 1
        # The same tree with its edge lines in reverse order, each flipped.
        lines = pd_file.read_text().splitlines()
        edges = [line.split() for line in lines if line[0].isdigit()]
        flipped = tmp_path / "flipped.td"
        flipped.write_text("".join(f"{line}\n" for line in lines if not line[0].isdigit())
                           + "".join(f"{b} {a}\n" for a, b in reversed(edges)))
        ordering = run(capsys, "order-from-pd", "--graph", g_file, "--pd", str(pd_file))
        assert ordering[0] == 0
        assert run(capsys, "order-from-pd", "--graph", g_file, "--pd", str(flipped)) == ordering


class TestObddCommands:
    @pytest.mark.parametrize(
        "cnf, flags, out",
        [(K2_CNF, [], "5\n"), (SIGNS_CNF, ["--order", "2,1,0"], "7\n")],
        ids=["k2", "signs"],
    )
    def test_obdd_build(self, capsys, tmp_path, cnf, flags, out):
        (tmp_path / "f.cnf").write_text(cnf)
        assert run(capsys, "obdd-build", "--cnf", str(tmp_path / "f.cnf"), *flags) == (0, out)

    def test_obdd_build_rejects_out_dash(self, capsys, monkeypatch, tmp_path, k2_cnf_file):
        # stdout carries the size, so "-" cannot name it; nothing is built
        # and no file named "-" is written.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bprog, "build_obdd", None)
        code = main(["obdd-build", "--cnf", k2_cnf_file, "--out", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: obdd-build --out cannot be '-': stdout carries the size\n"
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize(
        "cnf, flags, out",
        [
            (K2_CNF, ["--json"], '{\n  "command": "obdd-min",\n  "order": [\n    0,\n'
                                 '    1,\n    2\n  ],\n  "size": 5\n}\n'),
            (SIGNS_CNF, [], "6 0 1 2\n"),
        ],
        ids=["k2", "signs"],
    )
    def test_obdd_min(self, capsys, tmp_path, cnf, flags, out):
        (tmp_path / "f.cnf").write_text(cnf)
        assert run(capsys, "obdd-min", "--cnf", str(tmp_path / "f.cnf"), *flags) == (0, out)

    def test_check_cnsobdd_pass_and_fail(self, capsys, tmp_path, k2_cnf_file):
        bp_file = str(tmp_path / "k2.bp")
        code, _ = run(capsys, "obdd-build", "--cnf", k2_cnf_file,
                      "--out", bp_file)
        assert code == 0
        code, out = run(capsys, "check-cnsobdd", "--bp", bp_file, "--c", "1")
        assert code == 0 and out == "pass\n"
        # reversed reference order forces more segments on some path
        code, out = run(capsys, "check-cnsobdd", "--bp", bp_file, "--c", "1",
                        "--order", "2 1 0")
        assert code == 1 and out.startswith("fail")

    @pytest.mark.parametrize("kind, n, family_size", [("path", 2, 2), ("cycle", 6, 4)],
                             ids=["p2", "c6"])
    def test_lb_experiment(self, capsys, tmp_path, kind, n, family_size):
        g_file = str(tmp_path / "g.gr")
        assert run(capsys, "gen-graph", "--kind", kind, "--n", str(n), "--out", g_file) == (0, "")
        code, out = run(capsys, "lb-experiment", "--graph", g_file, "--c", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] and payload["family_size"] == family_size


class TestLbExperimentBudget:
    @pytest.mark.parametrize("c", ["0", "2000"])
    def test_out_of_range_c_is_a_usage_error(self, capsys, tmp_path, c):
        g_file = tmp_path / "c5.gr"
        g_file.write_text(format_dimacs_graph(cycle_graph(5)))
        code = main(["lb-experiment", "--graph", str(g_file), "--c", c])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: segment budget must be between 1 and 10, got {c}\n"

    def test_negative_t_fails_before_order_minimisation(self, capsys, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("order minimisation ran")

        monkeypatch.setattr(lbound, "min_obdd_size_over_orders", unreachable)
        g_file = tmp_path / "c5.gr"
        g_file.write_text(format_dimacs_graph(cycle_graph(5)))
        code = main(["lb-experiment", "--graph", str(g_file), "--c", "1", "--t", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: t must be non-negative, got -1\n"

    @pytest.mark.parametrize("t", ["5", "99"])
    def test_t_above_half_the_vertices_fails_before_the_cnf_is_built(
        self, capsys, tmp_path, monkeypatch, t
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the CNF was built")

        monkeypatch.setattr(lbound, "cnf_of_graph", unreachable)
        g_file = tmp_path / "c8.gr"
        g_file.write_text(format_dimacs_graph(cycle_graph(8)))
        code = main(["lb-experiment", "--graph", str(g_file), "--c", "1", "--t", t])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: t must be at most 4, the most edges a cut matching of 8 vertices "
            f"can have, got {t}\n"
        )

    def test_t_of_half_the_vertices_passes_the_early_checks(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(lbound, "cnf_of_graph", reached)
        with pytest.raises(Reached):
            lbound.run_lb_experiment(cycle_graph(8), 1, t=4)

    def test_order_minimisation_cap_is_checked_before_the_cnf_is_built(
        self, capsys, tmp_path, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the CNF was built")

        monkeypatch.setattr(lbound, "cnf_of_graph", unreachable)
        g_file = tmp_path / "c9.gr"
        g_file.write_text(format_dimacs_graph(cycle_graph(9)))  # 9 + 9 variables
        code = main(["lb-experiment", "--graph", str(g_file), "--c", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: order minimization: 18 variables exceeds cap 16\n"


class TestCheckCnsobddFiles:
    def test_duplicate_edge_is_a_usage_error(self, capsys, tmp_path):
        bp_file = tmp_path / "dup.bp"
        bp_file.write_text("bp 3 1 3\n1 2\n1 2\n2 3\n2 3 -1\n")
        code = main(["check-cnsobdd", "--bp", str(bp_file), "--c", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: line 3: duplicate edge '1 2'\n"

    def test_default_order_is_the_programs_variables_ascending(
        self, capsys, tmp_path, monkeypatch
    ):
        # The program reads variables 3 and 7 only.
        bp_file = tmp_path / "sparse.bp"
        bp_file.write_text("bp 3 1 3\n1 2 4\n2 3 -8\n")
        orders = []
        check = bprog.check_c_nsobdd

        def recording(z, sv, *args, **kwargs):
            orders.append(tuple(sv))
            return check(z, sv, *args, **kwargs)

        monkeypatch.setattr(bprog, "check_c_nsobdd", recording)
        code, out = run(capsys, "check-cnsobdd", "--bp", str(bp_file), "--c", "1", "--json")
        assert code == 0 and orders == [(3, 7)]
        code, explicit = run(capsys, "check-cnsobdd", "--bp", str(bp_file), "--c", "1",
                             "--json", "--order", "0,1,2,3,4,5,6,7")
        assert code == 0 and explicit == out

    def test_path_cap_bounds_only_the_witness_search(self, capsys, tmp_path):
        # 2^8 consistent paths through eight diamonds, none violating.
        lines = [f"{i + 1} {i + 2} {s * (i + 1)}" for i in range(8) for s in (-1, 1)]
        bp_file = tmp_path / "diamonds.bp"
        bp_file.write_text("bp 9 1 9\n" + "\n".join(lines) + "\n")
        code, out = run(capsys, "check-cnsobdd", "--bp", str(bp_file), "--c", "1",
                        "--path-cap", "4")
        assert code == 0 and out == "pass\n"
        code = main(["check-cnsobdd", "--bp", str(bp_file), "--c", "1", "--path-cap", "4",
                     "--order", "1 0 2 3 4 5 6 7"])
        assert code == 1


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["mw", "--graph"],
            ["mw", "--graph", "g.gr", "--bogus"],
            ["lb-experiment", "--graph", "g.gr", "--c", "x"],
            ["bogus"],
        ],
        ids=["missing-value", "unknown-flag", "non-integer", "unknown-command"],
    )
    def test_malformed_command_line_is_one_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_invariant_violation_has_its_own_code(self, capsys, monkeypatch, p10_file):
        monkeypatch.setattr(
            decomposition, "validate_decomposition",
            lambda g, d: decomposition.ValidationResult(False, "union", (0,)),
        )
        code = main(["pd-from-order", "--graph", p10_file, "--order", "0 1 2 3 4 5 6 7 8 9"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: constructed decomposition invalid: union\n"

    def test_settled_cover_above_tau_is_an_invariant_violation(
        self, capsys, monkeypatch, p10_file
    ):
        real = width.min_vc_containing

        def one_too_many(c, x):
            cover = real(c, x)
            spare = (c.left | c.right) & ~cover
            return cover | spare & -spare

        monkeypatch.setattr(width, "min_vc_containing", one_too_many)
        code = main(["pd-from-order", "--graph", p10_file, "--order", "0 1 2 3 4 5 6 7 8 9"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: carried-over cover not extendable to a minimum cover at prefix 1\n"
        )

    def test_obdd_engines_disagreeing_is_an_invariant_violation(
        self, capsys, tmp_path, monkeypatch
    ):
        real = lbound.min_obdd_size_over_orders

        def one_too_many(f, cap):
            best = real(f, cap=cap)
            return bprog.MinObddResult(best.size + 1, best.order)

        monkeypatch.setattr(lbound, "min_obdd_size_over_orders", one_too_many)
        g_file = tmp_path / "c5.gr"
        g_file.write_text(format_dimacs_graph(cycle_graph(5)))
        code = main(["lb-experiment", "--graph", str(g_file), "--c", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: OBDD along the best order has ")
        assert captured.err.count("\n") == 1

    def test_obdd_min_size_off_by_one_is_an_invariant_violation(
        self, capsys, tmp_path, monkeypatch
    ):
        real = bprog.order_tables

        def one_too_many(f):
            counts, below = real(f)
            counts[0] += 1  # the root level: the size moves, the best order does not
            return counts, below

        monkeypatch.setattr(bprog, "order_tables", one_too_many)
        cnf_file = tmp_path / "c5.cnf"
        cnf_file.write_text(format_dimacs_cnf(cnf_of_graph(cycle_graph(5))))
        code = main(["obdd-min", "--cnf", str(cnf_file), "--json"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert re.fullmatch(r"error: OBDD along the best order has (\d+) nodes, "
                            r"order minimization said (\d+)\n", captured.err)
        built, said = map(int, re.findall(r"\d+", captured.err))
        assert said == built + 1

    def test_own_obdd_rejecting_a_family_member_is_an_invariant_violation(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(lbound, "enumerate_computational_paths", lambda z, **kw: iter(()))
        g_file = tmp_path / "c5.gr"
        g_file.write_text(format_dimacs_graph(cycle_graph(5)))
        code = main(["lb-experiment", "--graph", str(g_file), "--c", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: no accepting path for family member 0\n"

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            # The last edge turned back to the root.
            (lambda leaf, t, h, s: (t, h[:-1] + (0,), s),
             "edge (2,0) does not lead to a later node"),
            # One more edge, out of the leaf to the rejecting terminal.
            (lambda leaf, t, h, s: (t + (leaf,), h + (leaf + 1,), s + (0,)),
             "leaf has outgoing edges"),
        ],
        ids=["backward-edge", "leaf-out-edge"],
    )
    def test_obdd_build_failing_its_own_check_is_an_invariant_violation(
        self, capsys, monkeypatch, k2_cnf_file, corrupt, message
    ):
        real = bprog._program

        def corrupted(num_nodes, root, leaf, *arrays):
            return real(num_nodes, root, leaf, *corrupt(leaf, *arrays))

        monkeypatch.setattr(bprog, "_program", corrupted)
        code = main(["obdd-build", "--cnf", k2_cnf_file])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_witness_cut_is_an_input_error(self, capsys, tmp_path):
        g_file = tmp_path / "empty4.gr"
        g_file.write_text("p edge 4 0\n")
        code = main(["lb-experiment", "--graph", str(g_file), "--c", "1", "--t", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: no prefix cut of the ordering has a matching of size 1\n"
        )


# A well-formed command line of each command, starting with a required flag
# and its value where the command has one, and an int flag of the command
# (order-from-pd and pd-from-order have none).
WELL_FORMED = {
    "gen-graph": (["--kind", "grid", "--rows", "2", "--cols", "3", "--seed", "5"], "--n"),
    "gen-cnf": (["--r", "2", "--k", "3", "--out", "f.cnf"], "--r"),
    "mw": (["--graph", "g.gr", "--order", "0 1", "--cap", "12", "--json"], "--cap"),
    "pw": (["--graph", "g.gr", "--cap", "12", "--json", "--out", "-"], "--cap"),
    "td-ctree": (["--r", "2", "--k", "3", "--extended"], "--k"),
    "order-from-pd": (["--graph", "g.gr", "--pd", "g.td", "--json"], None),
    "pd-from-order": (["--graph", "g.gr", "--order", "0 1"], None),
    "obdd-build": (["--cnf", "f.cnf", "--order", "0 1", "--cap", "9", "--out", "f.bp"], "--cap"),
    "obdd-min": (["--cnf", "f.cnf", "--cap", "9", "--json"], "--cap"),
    "check-cnsobdd": (["--bp", "f.bp", "--c", "2", "--path-cap", "7", "--json"], "--path-cap"),
    "lb-experiment": (["--graph", "g.gr", "--c", "1", "--t", "2", "--cap", "9"], "--t"),
}


def _command_lines():
    for command, (argv, int_flag) in WELL_FORMED.items():
        yield [command, "--help"]
        yield [command, *argv[2:]]  # a required flag left out (gen-cnf has none)
        yield [command, *argv, "--bogus"]
        if int_flag is not None:
            yield [command, *argv, int_flag, "x"]
        yield [command, *argv]


class TestOneCommandParser:
    def test_every_command_has_a_well_formed_line(self, capsys):
        assert main(["--help"]) == 0
        listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == list(WELL_FORMED)

    @pytest.mark.parametrize("argv", list(_command_lines()), ids=" ".join)
    def test_parses_as_the_full_parser(self, capsys, argv):
        outcomes = []
        for parser in (build_parser(argv[0]), build_parser()):
            try:
                outcome = vars(parser.parse_args(argv))
            except SystemExit as exc:
                outcome = exc.code
            outcomes.append((outcome, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]


class TestParsersBuilt:
    @pytest.fixture
    def built(self, monkeypatch):
        """The number of argument parsers made so far."""
        count = [0]
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        return count

    def test_a_command_builds_its_own_parser_only(self, capsys, built, p10_file):
        assert main(["mw", "--graph", p10_file]) == 0
        assert built[0] == 2

    def test_the_console_script_path_too(self, capsys, built, monkeypatch, p10_file):
        monkeypatch.setattr(sys, "argv", ["widthlab", "pw", "--graph", p10_file])
        assert main() == 0
        assert capsys.readouterr().out == "1\n"
        assert built[0] == 2

    @pytest.mark.parametrize("argv", [["--help"], [], ["frobnicate"]])
    def test_otherwise_every_parser(self, capsys, built, argv):
        main(argv)
        assert built[0] == 1 + len(WELL_FORMED)


class TestC9Program:
    """`obdd-build`, a check that its DP bound settles and a witness search,
    on the 675-node OBDD of C9's CNF."""

    @pytest.fixture
    def c9_cnf(self, tmp_path):
        path = tmp_path / "c9.cnf"
        path.write_text(format_dimacs_cnf(cnf_of_graph(cycle_graph(9))))
        return str(path)

    @pytest.fixture
    def c9_bp(self, tmp_path, capsys, c9_cnf):
        path = str(tmp_path / "c9.bp")
        assert run(capsys, "obdd-build", "--cnf", c9_cnf, "--out", path) == (0, "675\n")
        return path

    def test_obdd_build(self, tmp_path, capsys, c9_cnf):
        out = str(tmp_path / "c9.bp")
        assert run(capsys, "obdd-build", "--cnf", c9_cnf, "--out", out) == (0, "675\n")

    def test_a_passing_check(self, capsys, c9_bp):
        assert run(capsys, "check-cnsobdd", "--bp", c9_bp, "--c", "1") == (0, "pass\n")

    def test_a_witness_search(self, capsys, c9_bp):
        order = ",".join(map(str, reversed(range(18))))
        code, out = run(capsys, "check-cnsobdd", "--bp", c9_bp, "--c", "2", "--order", order)
        assert (code, out) == (1, "fail: a path needs 18 segments\n")


class TestC6Chain:
    """`obdd-min` on C6's CNF, then `obdd-build` along its best order and
    `check-cnsobdd` with c = 1 along that order and its reverse."""

    def test_min_build_check(self, capsys, tmp_path):
        gr, cnf, bp = (str(tmp_path / f"c6.{ext}") for ext in ("gr", "cnf", "bp"))
        assert run(capsys, "gen-graph", "--kind", "cycle", "--n", "6", "--out", gr) == (0, "")
        assert run(capsys, "gen-cnf", "--graph", gr, "--out", cnf) == (0, "")
        code, out = run(capsys, "obdd-min", "--cnf", cnf, "--json")
        best = json.loads(out)
        assert (code, best["size"]) == (0, 38)
        order = ",".join(map(str, best["order"]))
        assert run(capsys, "obdd-build", "--cnf", cnf, "--order", order, "--out", bp) == (0, "38\n")
        assert run(capsys, "check-cnsobdd", "--bp", bp, "--c", "1", "--order", order) == (
            0, "pass\n")
        reverse = ",".join(map(str, reversed(best["order"])))
        assert run(capsys, "check-cnsobdd", "--bp", bp, "--c", "1", "--order", reverse) == (
            1, "fail: a path needs 9 segments\n")


class TestPaceTreeEdges:
    """A bad tree edge or bag id in a PACE file is reported at its line, with
    the file's 1-based bag ids."""

    @pytest.mark.parametrize(
        "records, message",
        [
            ("b 1 1\nb 2 1\n1 5\n", "line 4: bag 5 outside 1..2"),
            ("b 1 1\nb 2 1\n0 1\n", "line 4: bag 0 outside 1..2"),
            ("b 1 1\nb 2 1\n2 2\n", "line 4: self-loop at bag 2"),
            ("b 1 1\nb 2 1\nb 3 1\n1 2\n2 3\n1 2\n", "line 7: duplicate tree edge '1 2'"),
            ("b 1 1\nb 2 1\nb 3 1\n1 2\n2 3\n2 1\n", "line 7: duplicate tree edge '2 1'"),
            ("b 1 1\nb 5 1\n", "line 3: bag 5 outside 1..2"),
        ],
        ids=["edge-beyond", "edge-zero", "self-loop", "duplicate", "duplicate-flipped",
             "bag-beyond"],
    )
    def test_error_names_the_line(self, capsys, tmp_path, records, message):
        bags = records.count("b ")
        pd_file = tmp_path / "bad.td"
        pd_file.write_text(f"s td {bags} 1 1\n" + records)
        g_file = tmp_path / "one.gr"
        g_file.write_text("p edge 1 0\n")
        code = main(["order-from-pd", "--graph", str(g_file), "--pd", str(pd_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestHugeDeclaredSizes:
    """Huge declared sizes exit 2 with one line: a named error when a cap, a
    limit or a shape check can reject them before anything is built per
    declared item, otherwise "out of memory".  Each command runs in a child
    process whose address space is capped just above its start-up size, so
    the test itself allocates nothing large."""

    CHILD = (
        "import resource, sys\n"
        "from widthlab.cli import main\n"
        "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
        "limit = size + (128 << 20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    HUGE = 10_000_000_000_000
    OUT_OF_MEMORY = "error: out of memory: the input or a cap is too large"
    NOT_A_PERMUTATION = f"error: --order is not a permutation of 0..{HUGE - 1}: (0,)"
    OVER_THE_LIMIT = ("error: the output would have {} {}, over the generator "
                      "limit of 1048576")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs /proc and an enforced RLIMIT_AS")
    @pytest.mark.parametrize(
        "argv, text, stderr",
        [
            (["check-cnsobdd", "--bp", "{in}", "--c", "1"], f"bp {HUGE} 1 2\n", OUT_OF_MEMORY),
            (["gen-cnf", "--graph", "{in}"], f"p edge {HUGE} 0\n",
             OVER_THE_LIMIT.format(HUGE, "variables")),
            (["gen-cnf", "--r", "40", "--k", "2"], "",
             OVER_THE_LIMIT.format(15393162788853, "variables")),
            (["td-ctree", "--r", "40", "--k", "3"], "",
             OVER_THE_LIMIT.format(32985348833256, "variables")),
            (["mw", "--graph", "{in}", "--order", "0"], f"p edge {HUGE} 0\n",
             NOT_A_PERMUTATION),
            (["order-from-pd", "--graph", "{gr}", "--pd", "{in}"], f"s td {HUGE} 1 1\n",
             "error: bag ids do not cover 1..<declared bag count>"),
            (["obdd-build", "--cnf", "{in}", "--order", "0"], f"p cnf {HUGE} 0\n",
             NOT_A_PERMUTATION),
            (["check-cnsobdd", "--bp", "{in}", "--c", "1", "--order", "0"],
             f"bp 2 1 2\n1 2 {HUGE}\n", NOT_A_PERMUTATION),
            (["obdd-build", "--cnf", "{in}"], f"p cnf {HUGE} 0\n",
             f"error: OBDD build: {HUGE} variables exceeds cap 24"),
            (["obdd-min", "--cnf", "{in}"], f"p cnf {HUGE} 0\n",
             f"error: order minimization: {HUGE} variables exceeds cap 16"),
            # Within the raised cap, but the order tables' sort words hold 22.
            (["obdd-min", "--cnf", "{in}", "--cap", "40"], "p cnf 23 1\n1 -23 0\n",
             "error: order tables: 23 variables exceeds 22, the most whose packed sort "
             "words fit in an int64"),
            (["gen-graph", "--kind", "path", "--n", str(HUGE)], "",
             OVER_THE_LIMIT.format(2 * HUGE - 1, "vertices plus edges")),
            (["gen-graph", "--kind", "grid", "--rows", "100000", "--cols", "100000"], "",
             OVER_THE_LIMIT.format(29999800000, "vertices plus edges")),
            (["gen-graph", "--kind", "random", "--n", "100000", "--p", ".5"], "",
             OVER_THE_LIMIT.format(5000050000, "vertices plus vertex pairs")),
            # 2^20 vertices and no expected edge, but one draw per vertex pair.
            (["gen-graph", "--kind", "random", "--n", "1048576", "--p", "0"], "",
             OVER_THE_LIMIT.format(549756338176, "vertices plus vertex pairs")),
            (["td-ctree", "--r", str(10 ** 22), "--k", "2"], "",
             OVER_THE_LIMIT.format("at least 2^67", "variables")),
            (["gen-graph", "--kind", "cycle", "--n", "9" * 4300], "",
             OVER_THE_LIMIT.format("at least 2^14285", "vertices plus edges")),
        ],
        ids=["bp-nodes", "graph-vertices", "ctree-cnf", "ctree-decomposition", "mw-order",
             "pace-bags", "obdd-build-order", "check-cnsobdd-order", "obdd-build-cap",
             "obdd-min-cap", "obdd-min-word-width", "gen-graph-path", "gen-graph-grid",
             "gen-graph-random", "gen-graph-random-pairs", "ctree-height", "gen-graph-digits"],
    )
    def test_out_of_memory_is_a_usage_error(self, tmp_path, argv, text, stderr):
        in_file = tmp_path / "input"
        in_file.write_text(text)
        gr_file = tmp_path / "one.gr"
        gr_file.write_text("p edge 1 0\n")
        paths = {"in": str(in_file), "gr": str(gr_file)}
        src = str(Path(widthlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *(a.format(**paths) for a in argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == stderr + "\n"


class TestGeneratorLimit:
    """gen-cnf and td-ctree write an output of MAX_GENERATED_VARS variables,
    and gen-graph one of as many vertices plus edges (vertex pairs, for a
    random graph, whatever p is); each rejects one of a unit more."""

    @pytest.mark.parametrize(
        "argv, num_vars, what",
        [
            (["gen-cnf", "--graph", "{p3}"], 5, "variables"),  # 3 vertices, 2 edges
            (["gen-cnf", "--r", "1", "--k", "2"], 17, "variables"),  # 6 vertices, 11 edges
            (["td-ctree", "--r", "1", "--k", "2"], 17, "variables"),
            # 6 vertices, 7 edges
            (["gen-graph", "--kind", "grid", "--rows", "2", "--cols", "3"], 13,
             "vertices plus edges"),
            # 4 vertices, 6 pairs all expected to be edges
            (["gen-graph", "--kind", "random", "--n", "4", "--p", "1"], 10,
             "vertices plus vertex pairs"),
            # 4 vertices, 6 pairs of which half are expected to be edges
            (["gen-graph", "--kind", "random", "--n", "4", "--p", ".5"], 10,
             "vertices plus vertex pairs"),
        ],
        ids=["graph", "ctree-cnf", "ctree-decomposition", "gen-graph-grid",
             "gen-graph-random", "gen-graph-random-pairs"],
    )
    def test_boundary(self, monkeypatch, capsys, tmp_path, argv, num_vars, what):
        p3_file = tmp_path / "p3.gr"
        p3_file.write_text(format_dimacs_graph(path_graph(3)))
        argv = [a.format(p3=p3_file) for a in argv]
        monkeypatch.setattr(cli, "MAX_GENERATED_VARS", num_vars)
        code, out = run(capsys, *argv)
        assert code == 0 and out
        monkeypatch.setattr(cli, "MAX_GENERATED_VARS", num_vars - 1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the output would have {num_vars} {what}, "
                                f"over the generator limit of {num_vars - 1}\n")


class TestMalformedIntegers:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["mw", "--graph", "{p10}", "--order", "0,1,x"], None),
            (["obdd-build", "--cnf", "{k2}", "--order", "0,x"], None),
            (["obdd-min", "--cnf", "{in}"], "p cnf x 1\n1 0\n"),
            (["check-cnsobdd", "--bp", "{in}", "--c", "1"], "bp 2 1 x\n1 2\n"),
            (["order-from-pd", "--graph", "{p10}", "--pd", "{in}"], "s td 1 x 3\nb 1 1 2\n"),
            (["order-from-pd", "--graph", "{p10}", "--pd", "{in}"], "s td 1 2 3\nb\n"),
            (["order-from-pd", "--graph", "{p4}", "--pd", "{in}"],
             "s td 1 99 2\nb 1 1 2 3 4\n"),
            (["order-from-pd", "--graph", "{p4}", "--pd", "{in}"],
             "s td 1 99 4\nb 1 1 2 3 4\n"),
            (["order-from-pd", "--graph", "{p4}", "--pd", "{in}"],
             "s td 1 4 5\nb 1 1 2 3 4\n"),
        ],
        ids=["mw-order", "obdd-build-order", "cnf-header", "bp-header", "pace-header",
             "pace-bare-bag", "pace-bag-vertex", "pace-width", "pace-n-vs-graph"],
    )
    def test_usage_error_with_one_line(self, capsys, tmp_path, p10_file, k2_cnf_file,
                                       argv, text):
        in_file = tmp_path / "input"
        if text is not None:
            in_file.write_text(text)
        p4_file = tmp_path / "p4.gr"
        p4_file.write_text(format_dimacs_graph(path_graph(4)))
        paths = {"p10": p10_file, "k2": k2_cnf_file, "in": str(in_file), "p4": str(p4_file)}
        code = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestUndecodableInput:
    """Every input file is read as UTF-8; a byte that does not decode is a
    usage error naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["mw", "--graph", "{in}"], b"p edge 2 1\ne 1 \xff\n"),
            (["order-from-pd", "--graph", "{p10}", "--pd", "{in}"],
             b"s td 1 1 10\nb 1 \xff\n"),
            (["obdd-build", "--cnf", "{in}"], b"p cnf 1 1\n\xff 0\n"),
            (["obdd-min", "--cnf", "{in}"], b"p cnf 1 1\n\xff 0\n"),
            (["check-cnsobdd", "--bp", "{in}", "--c", "1"], b"bp 2 1 2\n1 \xff\n"),
        ],
        ids=["mw-graph", "order-from-pd-pd", "obdd-build-cnf", "obdd-min-cnf",
             "check-cnsobdd-bp"],
    )
    def test_usage_error_with_one_line(self, capsys, tmp_path, p10_file, argv, data):
        in_file = tmp_path / "input"
        in_file.write_bytes(data)
        code = main([a.format(**{"in": str(in_file), "p10": p10_file}) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {in_file}: ")
        assert captured.err.count("\n") == 1


class TestByteOrderMark:
    """An input file may start with a UTF-8 byte-order mark; the file then
    reads as it does without one."""

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["mw", "--graph", "{in}"], b"p edge 2 1\ne 1 2\n"),
            (["order-from-pd", "--graph", "{p10}", "--pd", "{in}"],
             b"s td 1 10 10\nb 1 1 2 3 4 5 6 7 8 9 10\n"),
            (["obdd-build", "--cnf", "{in}"], b"p cnf 1 1\n1 0\n"),
            (["obdd-min", "--cnf", "{in}"], b"p cnf 1 1\n1 0\n"),
            (["check-cnsobdd", "--bp", "{in}", "--c", "1"], b"bp 2 1 2\n1 2 1\n"),
        ],
        ids=["mw-graph", "order-from-pd-pd", "obdd-build-cnf", "obdd-min-cnf",
             "check-cnsobdd-bp"],
    )
    def test_reads_as_without_it(self, capsys, tmp_path, p10_file, argv, data):
        outs = []
        for name, raw in [("plain", data), ("bom", b"\xef\xbb\xbf" + data)]:
            in_file = tmp_path / name
            in_file.write_bytes(raw)
            code = main([a.format(**{"in": str(in_file), "p10": p10_file}) for a in argv])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            outs.append(captured.out)
        assert outs[0] == outs[1]


class TestOrderFlag:
    """Every command with --order reads it as one permutation format and
    reports each fault with the same line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["mw", "--graph", "{p3}"],
            ["pd-from-order", "--graph", "{p3}"],
            ["obdd-build", "--cnf", "{k2}"],
            ["check-cnsobdd", "--bp", "{bp}", "--c", "1"],
        ],
        ids=["mw", "pd-from-order", "obdd-build", "check-cnsobdd"],
    )
    @pytest.mark.parametrize(
        "order, shown", [("0 1", "(0, 1)"), ("0,1,1", "(0, 1, 1)")], ids=["short", "repeated"]
    )
    def test_not_a_permutation(self, capsys, tmp_path, k2_cnf_file, argv, order, shown):
        # Three vertices, and three variables in the CNF and the program.
        p3_file = tmp_path / "p3.gr"
        p3_file.write_text(format_dimacs_graph(path_graph(3)))
        bp_file = tmp_path / "k2.bp"
        z = bprog.build_obdd(cnf_of_graph(path_graph(2)), range(3))
        bp_file.write_text(bprog.format_bp(z))
        paths = {"p3": str(p3_file), "k2": k2_cnf_file, "bp": str(bp_file)}
        code = main([a.format(**paths) for a in argv] + ["--order", order])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --order is not a permutation of 0..2: {shown}\n"


class TestDeclaredCounts:
    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["mw", "--graph", "{in}"], "p edge 3 9\ne 1 2\n",
             "line 1: declares 9 edges, found 1"),
            (["lb-experiment", "--graph", "{in}", "--c", "1"], "p edge 2 -1\n",
             "line 1: negative edge count -1"),
            (["obdd-min", "--cnf", "{in}"], "p cnf 3 x\n",
             "line 1: expected an integer, got 'x'"),
            (["obdd-build", "--cnf", "{in}"], "c hi\np cnf 2 5\n1 0\n",
             "line 2: declares 5 clauses, found 1"),
        ],
        ids=["mw-edges", "lb-negative-edges", "obdd-min-clauses-token", "obdd-build-clauses"],
    )
    def test_count_mismatch_is_a_usage_error(self, capsys, tmp_path, argv, text, message):
        in_file = tmp_path / "input"
        in_file.write_text(text)
        code = main([a.format(**{"in": str(in_file)}) for a in argv])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# Valid inputs of every file format, at most 8 vertices, variables or nodes,
# so that no exact solver runs long on a mutation of them.
_FUZZ_GRAPH = format_dimacs_graph(cycle_graph(4))
_FUZZ_CNF = format_dimacs_cnf(cnf_of_graph(path_graph(2)))
_FUZZ_PACE = decomposition.format_pace(
    decomposition.path_decomposition_from_ordering(cycle_graph(4), Ordering.make(range(4))), 4)
_FUZZ_BP = bprog.format_bp(bprog.build_obdd(cnf_of_graph(path_graph(2)), (0, 1, 2)))
_FUZZ_TOKENS = ["-1", "0", "1", "2", "3", "4", "5", "8", "x", "1.5", "", "p", "e", "b",
                "s", "td", "edge", "cnf", "bp"]


@st.composite
def mutated(draw, text):
    """text after one to three line or token edits: drop, duplicate or swap
    lines, insert a line of random tokens, replace one token, or truncate."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "insert", "token", "truncate"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            tokens = draw(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=5))
            lines.insert(i, " ".join(tokens))
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = " ".join(parts)
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


class TestFuzzedFiles:
    """Every file-reading command, fed mutated valid files, exits 0, 1 or 2
    with at most one stderr line and never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-cnf", "--graph", "{graph}"],
            ["mw", "--graph", "{graph}", "--json"],
            ["mw", "--graph", "{graph}", "--order", "0,1,2,3"],
            ["pw", "--graph", "{graph}", "--json"],
            ["order-from-pd", "--graph", "{graph}", "--pd", "{pace}", "--json"],
            ["pd-from-order", "--graph", "{graph}", "--order", "0,1,2,3"],
            ["obdd-build", "--cnf", "{cnf}", "--json"],
            ["obdd-min", "--cnf", "{cnf}", "--json"],
            ["check-cnsobdd", "--bp", "{bp}", "--c", "1", "--json"],
            ["lb-experiment", "--graph", "{graph}", "--c", "1"],
        ],
        ids=["gen-cnf", "mw", "mw-order", "pw", "order-from-pd", "pd-from-order", "obdd-build",
             "obdd-min", "check-cnsobdd", "lb-experiment"],
    )
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_and_one_line(self, capsys, tmp_path, argv, data):
        bases = {"graph": _FUZZ_GRAPH, "cnf": _FUZZ_CNF, "pace": _FUZZ_PACE, "bp": _FUZZ_BP}
        paths = {}
        for kind, base in bases.items():
            text = data.draw(st.one_of(st.just(base), mutated(base)), label=kind)
            paths[kind] = tmp_path / kind
            paths[kind].write_text(text)
        code = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") <= 1
        if code == 2:
            assert err.startswith("error: ") and err.endswith("\n")


# Flag values for TestFuzzedFlags.  A size is drawn from -3..6 or from past
# every limit and cap (at least 2^21, and a tree height r at least 40), never
# from the band between: a value there can pass a limit and still run long,
# as gen-graph --kind random --n 1000000 --p 0 does over 5 * 10^11 pairs.
_NOT_AN_INT = st.sampled_from(["x", "", "1.5", "0x10", "1e3", "9" * 4301, "--"])
_INT = st.one_of(st.integers(-3, 6), st.integers(1 << 21, 10 ** 4299)).map(str) | _NOT_AN_INT
_HEIGHT = st.one_of(st.integers(-3, 6), st.integers(40, 10 ** 30)).map(str) | _NOT_AN_INT
_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["x", "", ".5", "-0.0", "1e400"]),
)
_ORDERS = ["0,1,2,3", "0,1,2", "2 1 0", "0", "", "x", "0,0,1,2", "0,1,2,99999999999999"]
_FILE_FLAGS = {"--graph": "graph", "--cnf": "cnf", "--pd": "pace", "--bp": "bp"}


class TestFuzzedFlags:
    """Every command, given each of its flags or not, with huge, negative or
    malformed values, exits 0, 1 or 2 with at most one stderr line and never
    a traceback.  The flags are read off `cli._COMMANDS`; a file flag names
    a valid file, a missing one or a directory."""

    @pytest.mark.parametrize("command", [c[0] for c in cli._COMMANDS])
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_and_one_line(self, capsys, monkeypatch, tmp_path, command, data):
        monkeypatch.chdir(tmp_path)  # a file written under a relative name lands here
        files = {"graph": _FUZZ_GRAPH, "cnf": _FUZZ_CNF, "pace": _FUZZ_PACE, "bp": _FUZZ_BP}
        for kind, text in files.items():
            (tmp_path / kind).write_text(text)
        argv = [command]
        (arguments,) = [c[3] for c in cli._COMMANDS if c[0] == command]
        for flag, keywords in arguments:
            if not data.draw(st.booleans(), label=flag):
                continue
            if keywords.get("action") == "store_true":
                argv.append(flag)
                continue
            if "choices" in keywords:
                values = st.sampled_from([*keywords["choices"], "hexagon"])
            elif keywords.get("type") is int:
                values = _HEIGHT if flag == "--r" else _INT
            elif keywords.get("type") is float:
                values = _FLOAT
            elif flag in _FILE_FLAGS:
                values = st.sampled_from([str(tmp_path / _FILE_FLAGS[flag]),
                                          str(tmp_path / "missing"), str(tmp_path)])
            elif flag == "--order":
                values = st.sampled_from(_ORDERS)
            else:
                assert flag == "--out"
                values = st.sampled_from(["-", str(tmp_path / "out"), str(tmp_path)])
            argv += [flag, data.draw(values, label=flag)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") <= 1
        if code == 2:
            assert err.startswith("error: ") and err.endswith("\n")


class TestLongChain:
    def test_check_cnsobdd_on_a_3000_node_chain(self, capsys, tmp_path):
        bp_file = tmp_path / "chain.bp"
        edges = [f"{i} {i + 1} {i}" for i in range(1, 3000)]
        bp_file.write_text("\n".join(["bp 3000 1 3000"] + edges) + "\n")
        code, out = run(capsys, "check-cnsobdd", "--bp", str(bp_file), "--c", "1", "--json")
        assert code == 0 and json.loads(out)["pass"] is True


class TestDeterminism:
    def test_json_outputs_are_byte_identical(self, capsys, tmp_path, p10_file):
        p4_file = str(tmp_path / "p4.gr")
        (tmp_path / "p4.gr").write_text(format_dimacs_graph(path_graph(4)))
        for argv in (
            ("mw", "--graph", p10_file, "--json"),
            ("pw", "--graph", p10_file, "--json"),
            ("lb-experiment", "--graph", p4_file, "--c", "2"),
        ):
            _, first = run(capsys, *argv)
            _, second = run(capsys, *argv)
            assert first == second
