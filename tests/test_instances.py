import operator
from itertools import product

import pytest
from hypothesis import given, strategies as st

from widthlab.errors import FormatError, InputError
from widthlab.graph import Graph
from widthlab.instances import (
    Cnf,
    cnf_of_graph,
    complete_binary_tree,
    ct_graph,
    cycle_graph,
    edge_variable,
    f_rk,
    f_rk_num_vars,
    format_dimacs_cnf,
    generate,
    graph_cnf_names,
    grid_graph,
    parse_dimacs_cnf,
    path_graph,
    primal_graph,
    random_graph,
    vertex_variable,
)


class TestCnf:
    def test_make_sorts_by_variable_and_dedupes(self):
        f = Cnf.make(3, [[-3, 1, -3, 2]])
        assert f.clauses == ((1, 2, -3),)
        assert format_dimacs_cnf(f).endswith("p cnf 3 1\n1 2 -3 0\n")

    def test_zero_is_not_a_literal(self):
        with pytest.raises(InputError, match="^literal 0 names no variable in 1..2$"):
            Cnf.make(2, [[0]])

    def test_rejects_tautological_clause(self):
        with pytest.raises(InputError, match="^clause holds both 2 and -2$"):
            Cnf.make(2, [[-2, 1, 2]])

    @pytest.mark.parametrize("s", [3, -3])
    def test_rejects_out_of_range_variable(self, s):
        with pytest.raises(InputError, match=f"^literal {s} names no variable in 1..2$"):
            Cnf.make(2, [[s]])

    def test_evaluate(self):
        f = Cnf.make(2, [[1], [-2]])
        assert f.evaluate((True, False))
        assert not f.evaluate((True, True))
        assert not f.evaluate((False, False))
        with pytest.raises(InputError):
            f.evaluate((True,))

    def test_empty_clause_is_unsatisfiable(self):
        f = Cnf.make(1, [[]])
        assert not f.evaluate((True,)) and not f.evaluate((False,))


class TestTreeGenerators:
    def test_complete_binary_tree_shape(self):
        t = complete_binary_tree(2)
        assert t.n == 7
        assert t.edges == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))

    def test_height_zero(self):
        t = complete_binary_tree(0)
        assert t.n == 1 and not t.edges

    def test_rejects_negative_height(self):
        with pytest.raises(InputError):
            complete_binary_tree(-1)

    def test_ct_graph_k1_is_the_tree(self):
        assert ct_graph(2, 1) == complete_binary_tree(2)

    @pytest.mark.parametrize("r,k", list(product(range(4), range(1, 5))))
    def test_ct_graph_counts(self, r, k):
        g = ct_graph(r, k)
        nodes = 2 ** (r + 1) - 1
        assert g.n == nodes * k
        assert len(g.edges) == nodes * k * (k - 1) // 2 + (nodes - 1) * k * k

    def test_ct_graph_adjacent_cliques_fully_joined(self):
        g = ct_graph(1, 2)
        # node 0 = {0,1}, node 1 = {2,3}, node 2 = {4,5}
        for i, j in product((0, 1), (2, 3)):
            assert (i, j) in g.edges
        for i, j in product((2, 3), (4, 5)):
            assert (min(i, j), max(i, j)) not in g.edges


@st.composite
def shuffled_edge_lists(draw, max_n=8):
    """A vertex count and an edge set listed in any order, each edge with its
    endpoints in either order."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    flip = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    listed = [(v, u) if f else (u, v) for (u, v), k, f in zip(pairs, keep, flip) if k]
    return n, draw(st.permutations(listed))


class TestGraphCnf:
    def test_variable_numbering(self):
        g = path_graph(3)
        assert vertex_variable(g, 1) == 1
        assert edge_variable(g, 0, 1) == 3
        assert edge_variable(g, 2, 1) == 4
        with pytest.raises(InputError):
            edge_variable(g, 0, 2)

    @given(shuffled_edge_lists())
    def test_edge_variable_is_n_plus_the_position_in_the_sorted_edges(self, drawn):
        n, listed = drawn
        g = Graph.make(n, listed)
        assert all(u < v for u, v in g.edges)
        assert all(a < b for a, b in zip(g.edges, g.edges[1:]))
        assert set(g.edges) == {(min(e), max(e)) for e in listed}
        clauses = cnf_of_graph(g).clauses
        for i, (u, v) in enumerate(g.edges):
            assert edge_variable(g, u, v) == edge_variable(g, v, u) == g.n + i
            assert g.n + i + 1 in clauses[i]
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in g.edges:
                    with pytest.raises(InputError):
                        edge_variable(g, v, u)

    def test_one_clause_per_edge_all_positive(self):
        g = cycle_graph(4)
        f = cnf_of_graph(g)
        assert f.num_vars == 8
        assert len(f.clauses) == 4
        for clause in f.clauses:
            assert len(clause) == 3
            assert all(s > 0 for s in clause)

    def test_clause_holds_iff_edge_hit(self):
        g = path_graph(2)
        f = cnf_of_graph(g)
        # vars: X_0, X_1, X_{0,1}; the single clause needs any of them true
        assert not f.evaluate((False, False, False))
        assert f.evaluate((False, False, True))
        assert f.evaluate((True, False, False))

    def test_var_names(self):
        assert graph_cnf_names(path_graph(2)) == ["vertex 0", "vertex 1", "edge {0,1}"]
        g = Graph.make(4, [(2, 3), (0, 3), (0, 1)])
        assert graph_cnf_names(g) == [
            "vertex 0", "vertex 1", "vertex 2", "vertex 3",
            "edge {0,1}", "edge {0,3}", "edge {2,3}",
        ]
        assert len(graph_cnf_names(g)) == cnf_of_graph(g).num_vars

    def test_primal_graph(self):
        f = cnf_of_graph(path_graph(2))
        p = primal_graph(f)
        assert p.n == 3
        assert p.edges == ((0, 1), (0, 2), (1, 2))


class TestFrkCounts:
    @pytest.mark.parametrize("r,k", list(product(range(6), range(1, 6))))
    def test_closed_form_matches_generated(self, r, k):
        assert f_rk(r, k).num_vars == f_rk_num_vars(r, k)

    @pytest.mark.parametrize("r,k", list(product(range(6), range(1, 6))))
    def test_upper_bound(self, r, k):
        assert f_rk_num_vars(r, k) <= (1 << r) * 6 * k * k

    @pytest.mark.parametrize("r", range(1, 5))
    def test_diagonal_closed_form(self, r):
        expected = (1 << r) * (3 * r * r + r) - (5 * r * r + r) // 2
        assert f_rk_num_vars(r, r) == expected


class TestSmallGraphGenerators:
    def test_path_cycle_grid(self):
        assert len(path_graph(5).edges) == 4
        assert len(cycle_graph(5).edges) == 5
        g = grid_graph(2, 3)
        assert g.n == 6 and len(g.edges) == 7

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            path_graph(0)
        with pytest.raises(InputError):
            cycle_graph(2)
        with pytest.raises(InputError):
            grid_graph(0, 3)
        with pytest.raises(InputError):
            random_graph(3, 1.5, 0)

    def test_random_graph_density_extremes(self):
        assert not random_graph(5, 0.0, 1).edges
        assert len(random_graph(5, 1.0, 1).edges) == 10

    def test_generate_dispatch(self):
        assert generate("path", {"n": 4}) == path_graph(4)
        assert generate("random", {"n": 5, "p": 0.4}, seed=3) == random_graph(5, 0.4, 3)
        with pytest.raises(InputError):
            generate("mystery", {})
        with pytest.raises(InputError):
            generate("grid", {"rows": 2})


@st.composite
def raw_clauses(draw, max_vars=6, max_clauses=5):
    """A variable count and clauses as written: unsorted, literals repeated."""
    m = draw(st.integers(min_value=1, max_value=max_vars))
    lits = st.builds(
        operator.mul, st.integers(min_value=1, max_value=m), st.sampled_from((1, -1))
    )
    clause = st.lists(lits, min_size=0, max_size=3).filter(
        lambda ls: len({abs(s) for s in ls}) == len(set(ls))
    )
    return m, draw(st.lists(clause, max_size=max_clauses))


@st.composite
def cnfs(draw, max_vars=6, max_clauses=5):
    return Cnf.make(*draw(raw_clauses(max_vars, max_clauses)))


class TestDimacsCnf:
    def test_format_known(self):
        g = path_graph(2)
        f = cnf_of_graph(g)
        assert format_dimacs_cnf(f, graph_cnf_names(g)) == (
            "c widthlab cnf format v1 (DIMACS)\n"
            "c var 1 vertex 0\n"
            "c var 2 vertex 1\n"
            "c var 3 edge {0,1}\n"
            "p cnf 3 1\n"
            "1 2 3 0\n"
        )
        assert format_dimacs_cnf(f) == (
            "c widthlab cnf format v1 (DIMACS)\n"
            "p cnf 3 1\n"
            "1 2 3 0\n"
        )

    @given(cnfs(), st.lists(st.text(alphabet="ab {},0123456789", min_size=1), max_size=6))
    def test_round_trip(self, f, names):
        # `c var` lines are comments: any names, or none, parse to the same CNF
        assert parse_dimacs_cnf(format_dimacs_cnf(f, names)) == f

    @given(raw_clauses())
    def test_parse_normalises_clauses_as_make_does(self, raw):
        m, clauses = raw
        text = f"p cnf {m} {len(clauses)}\n" + "".join(
            " ".join(map(str, [*clause, 0])) + "\n" for clause in clauses
        )
        assert parse_dimacs_cnf(text) == Cnf.make(m, clauses)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no problem line
            "1 0\np cnf 1 1\n",  # clause before header
            "p cnf 1 1\np cnf 1 1\n",  # duplicate header
            "p cnf 1 1\n1\n",  # clause missing terminator
            "p cnf 1 1\n2 0\n",  # variable out of range
            "p cnf 1 1\n1 -1 0\n",  # tautological clause
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(FormatError):
            parse_dimacs_cnf(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 2 2\n1 0 2 0\n", "line 2: 0 before the end of the clause"),
            ("p cnf -1 0\n", "line 1: negative variable count -1"),
            ("p cnf 2 1\n1 5 0\n", "line 2: variable 5 outside 1..2"),
            ("p cnf 2 1\n\n2 -2 0\n", "line 3: clause holds both 2 and -2"),
            ("p cnf 2 5\n1 0\n", "line 1: declares 5 clauses, found 1"),
            ("c hi\np cnf 2 0\n1 0\n", "line 2: declares 0 clauses, found 1"),
            ("p cnf 3 -2\n", "line 1: negative clause count -2"),
            ("p cnf 3 x\n", "line 1: expected an integer, got 'x'"),
        ],
    )
    def test_parse_error_names_the_line(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_dimacs_cnf(text)
        assert str(exc.value) == message
