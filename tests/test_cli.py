import json

import pytest

from widthlab.cli import main
from widthlab.graph import format_dimacs_graph
from widthlab.instances import format_dimacs_cnf, cnf_of_graph, path_graph


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


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert run(capsys, "--help")[0] == 0


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
