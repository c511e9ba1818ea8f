import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import widthlab
from widthlab import bprog, decomposition
from widthlab.cli import main
from widthlab.graph import Ordering, format_dimacs_graph
from widthlab.instances import cnf_of_graph, cycle_graph, format_dimacs_cnf, path_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def p10_file(tmp_path):
    path = tmp_path / "p10.gr"
    path.write_text(format_dimacs_graph(path_graph(10)))
    return str(path)


@pytest.fixture
def k2_cnf_file(tmp_path):
    path = tmp_path / "k2.cnf"
    path.write_text(format_dimacs_cnf(cnf_of_graph(path_graph(2))))
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
    def test_td_ctree(self, capsys):
        code, out = run(capsys, "td-ctree", "--r", "1", "--k", "2")
        assert code == 0
        assert "s td 3 4 6" in out

    def test_round_trip_through_files(self, capsys, tmp_path, p10_file):
        pd_file = str(tmp_path / "p10.td")
        code, _ = run(capsys, "pd-from-order", "--graph", p10_file,
                      "--order", "0 1 2 3 4 5 6 7 8 9", "--out", pd_file)
        assert code == 0
        code, out = run(capsys, "order-from-pd", "--graph", p10_file,
                        "--pd", pd_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mw_of_ordering"] <= payload["pd_width"] + 1


class TestObddCommands:
    def test_obdd_build(self, capsys, k2_cnf_file):
        code, out = run(capsys, "obdd-build", "--cnf", k2_cnf_file)
        assert code == 0 and out == "5\n"

    def test_obdd_min(self, capsys, k2_cnf_file):
        code, out = run(capsys, "obdd-min", "--cnf", k2_cnf_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] <= 5

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

    def test_lb_experiment(self, capsys, tmp_path):
        g_file = str(tmp_path / "k2.gr")
        g_file_p = run(capsys, "gen-graph", "--kind", "path", "--n", "2",
                       "--out", g_file)
        assert g_file_p[0] == 0
        code, out = run(capsys, "lb-experiment", "--graph", g_file, "--c", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] and payload["family_size"] == 2


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


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_invariant_violation_has_its_own_code(self, capsys, monkeypatch, p10_file):
        monkeypatch.setattr(
            decomposition, "validate_decomposition",
            lambda g, d: decomposition.ValidationResult(False, "union", (0,)),
        )
        code = main(["pd-from-order", "--graph", p10_file, "--order", "0 1 2 3 4 5 6 7 8 9"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: constructed decomposition invalid: union\n"


class TestHugeDeclaredSizes:
    """Declared sizes too large to allocate exit 2 with one line.  Each
    command runs in a child process whose address space is capped just above
    its start-up size, so the test itself allocates nothing large."""

    CHILD = (
        "import resource, sys\n"
        "from widthlab.cli import main\n"
        "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
        "limit = size + (128 << 20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs /proc and an enforced RLIMIT_AS")
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["check-cnsobdd", "--bp", "{in}", "--c", "1"], "bp 10000000000000 1 2\n"),
            (["gen-cnf", "--graph", "{in}"], "p edge 10000000000000 0\n"),
        ],
        ids=["bp-nodes", "graph-vertices"],
    )
    def test_out_of_memory_is_a_usage_error(self, tmp_path, argv, text):
        in_file = tmp_path / "input"
        in_file.write_text(text)
        src = str(Path(widthlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *(a.format(**{"in": str(in_file)}) for a in argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


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
        ],
        ids=["mw-order", "obdd-build-order", "cnf-header", "bp-header", "pace-header",
             "pace-bare-bag"],
    )
    def test_usage_error_with_one_line(self, capsys, tmp_path, p10_file, k2_cnf_file,
                                       argv, text):
        in_file = tmp_path / "input"
        if text is not None:
            in_file.write_text(text)
        paths = {"p10": p10_file, "k2": k2_cnf_file, "in": str(in_file)}
        code = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


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
