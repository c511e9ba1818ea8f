import pytest
from hypothesis import given, settings, strategies as st

from widthlab.errors import CapacityError, FormatError, InputError
from widthlab.instances import Cnf, Literal, cnf_of_graph, path_graph
from widthlab.bprog import (
    BranchingProgram,
    Edge,
    _truth_table,
    build_obdd,
    check_c_nsobdd,
    enumerate_computational_paths,
    equivalence_vs_cnf,
    evaluate,
    format_bp,
    min_obdd_size_over_orders,
    min_segments,
    parse_bp,
    subfunction_counts,
)

from oracles import (
    brute_computational_paths,
    brute_min_obdd,
    brute_min_segments,
    brute_subfunction_count,
    brute_truth_table,
)


@st.composite
def cnfs(draw, max_vars=5, max_clauses=4):
    m = draw(st.integers(min_value=1, max_value=max_vars))
    lits = st.builds(
        Literal,
        st.integers(min_value=0, max_value=m - 1),
        st.booleans(),
    )
    clause = st.lists(lits, min_size=1, max_size=3).filter(
        lambda ls: len({l.var for l in ls}) == len({(l.var, l.positive) for l in ls})
    )
    clauses = draw(st.lists(clause, max_size=max_clauses))
    return Cnf.make(m, clauses)


def single_clause(*signed):
    lits = [Literal.from_signed(s) for s in signed]
    m = max(l.var for l in lits) + 1
    return Cnf.make(m, [lits])


@st.composite
def dag_programs(draw, max_nodes=7, max_vars=3):
    """Programs on nodes 0..n-1 with edges going up in node id, so they are
    DAGs; parallel edges, unlabelled edges, repeated reads and sign
    conflicts are all common.  The leaf may be the root or have out-edges.
    No edge is listed twice: two copies of one edge repeat every path
    through it, and the repeats interleave with paths that differ later."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_vars))
    labels = st.none() | st.builds(
        Literal, st.integers(min_value=0, max_value=m - 1), st.booleans()
    )
    edges = []
    if n > 1:
        tails = st.integers(min_value=0, max_value=n - 2)
        for tail in draw(st.lists(tails, max_size=3 * n)):
            head = draw(st.integers(min_value=tail + 1, max_value=n - 1))
            edges.append(Edge(tail, head, draw(labels)))
    edges = list(dict.fromkeys(edges))
    leaf = draw(st.integers(min_value=0, max_value=n - 1))
    return BranchingProgram(n, tuple(edges), 0, leaf)


def chain_program(n):
    """A path of n nodes whose i-th edge tests variable i positively."""
    return BranchingProgram(
        n, tuple(Edge(i, i + 1, Literal(i)) for i in range(n - 1)), 0, n - 1
    )


class TestValidate:
    def test_rejects_cycle(self):
        z = BranchingProgram(2, (Edge(0, 1), Edge(1, 0)), 0, 1)
        with pytest.raises(InputError):
            z.validate()

    def test_rejects_root_with_incoming(self):
        z = BranchingProgram(2, (Edge(1, 0),), 0, 1)
        with pytest.raises(InputError):
            z.validate()

    def test_rejects_leaf_with_outgoing(self):
        z = BranchingProgram(3, (Edge(0, 1), Edge(1, 2)), 0, 1)
        with pytest.raises(InputError):
            z.validate()

    def test_strict_rejects_stranded_node(self):
        z = BranchingProgram(3, (Edge(0, 1),), 0, 1)
        with pytest.raises(InputError):
            z.validate(strict=True)
        z.validate(strict=False)


class TestEvaluate:
    def test_unlabeled_edges_are_free(self):
        z = BranchingProgram(2, (Edge(0, 1),), 0, 1)
        assert evaluate(z, ())

    def test_single_literal(self):
        z = BranchingProgram(2, (Edge(0, 1, Literal(0)),), 0, 1)
        assert evaluate(z, (True,))
        assert not evaluate(z, (False,))

    def test_partial_assignment_rejected(self):
        z = BranchingProgram(2, (Edge(0, 1, Literal(1)),), 0, 1)
        with pytest.raises(InputError):
            evaluate(z, (True,))

    def test_nondeterministic_or(self):
        z = BranchingProgram(
            2, (Edge(0, 1, Literal(0)), Edge(0, 1, Literal(1))), 0, 1
        )
        for a, b in ((True, True), (True, False), (False, True)):
            assert evaluate(z, (a, b))
        assert not evaluate(z, (False, False))


class TestBuildObdd:
    def test_single_binary_clause_has_four_nodes(self):
        f = single_clause(1, 2)
        z = build_obdd(f, (0, 1))
        assert z.size == 4

    def test_tautology_and_contradiction(self):
        taut = Cnf.make(2, [])
        assert build_obdd(taut, (0, 1)).size == 2
        contra = Cnf.make(2, [[]])
        assert build_obdd(contra, (0, 1)).size == 2
        assert not evaluate(build_obdd(contra, (0, 1)), (True, True))

    def test_edge_cnf_of_k2(self):
        f = cnf_of_graph(path_graph(2))
        z = build_obdd(f, (0, 1, 2))
        assert z.size == 5

    def test_rejects_non_permutation_order(self):
        f = single_clause(1, 2)
        with pytest.raises(InputError):
            build_obdd(f, (0, 0))

    def test_cap(self):
        f = cnf_of_graph(path_graph(4))
        with pytest.raises(CapacityError):
            build_obdd(f, tuple(range(f.num_vars)), cap=5)

    def test_variables_follow_the_order_on_every_path(self):
        f = cnf_of_graph(path_graph(3))
        order = (4, 2, 0, 3, 1)
        z = build_obdd(f, order)
        pos = {v: i for i, v in enumerate(order)}
        for p in enumerate_computational_paths(z):
            positions = [pos[e.label.var] for e in p.edges if e.label is not None]
            assert positions == sorted(positions)
            assert len(set(positions)) == len(positions)

    @settings(deadline=None, max_examples=50)
    @given(cnfs(), st.randoms(use_true_random=False))
    def test_equivalent_to_the_cnf(self, f, rng):
        order = list(range(f.num_vars))
        rng.shuffle(order)
        z = build_obdd(f, order)
        assert equivalence_vs_cnf(z, f).equivalent

    def test_equivalence_counterexample(self):
        f = single_clause(1)
        z = build_obdd(Cnf.make(1, []), (0,))  # constant true
        verdict = equivalence_vs_cnf(z, f)
        assert not verdict.equivalent
        assert verdict.counterexample == (False,)

    @pytest.mark.parametrize("m", [64, 65])
    def test_raised_cap_beyond_numpy_arrays(self, m):
        # 64 variables exceed numpy's array size, 65 its rank (on numpy 2).
        with pytest.raises(CapacityError):
            build_obdd(Cnf.make(m, [[Literal(0)]]), range(m), cap=m)

    @pytest.mark.parametrize(
        "order, text",
        [
            ((0, 1, 2, 3, 4),
             "bp 11 1 10\n1 2 -1\n1 3 1\n2 4 -2\n2 10 2\n3 5 -2\n3 10 2\n4 6 -3\n"
             "4 7 3\n5 8 -3\n5 10 3\n6 9 4\n6 11 -4\n7 10 4\n7 11 -4\n8 9 -4\n8 9 4\n"
             "9 10 5\n9 11 -5\n"),
            ((4, 2, 0, 3, 1),
             "bp 10 1 9\n1 2 -5\n1 3 5\n2 4 -3\n2 5 3\n3 5 -3\n3 5 3\n4 6 -1\n4 6 1\n"
             "5 7 -1\n5 9 1\n6 8 -4\n6 8 4\n7 8 -4\n7 9 4\n8 9 2\n8 10 -2\n"),
        ],
        ids=["ascending", "shuffled"],
    )
    def test_node_numbering(self, order, text):
        # Decision nodes level by level in order of first reach, then the
        # true and false terminals.
        z = build_obdd(cnf_of_graph(path_graph(3)), order)
        assert format_bp(z) == "c widthlab branching-program format v1\n" + text


class TestTruthTable:
    @settings(deadline=None, max_examples=60)
    @given(cnfs(max_vars=8, max_clauses=6), st.randoms(use_true_random=False))
    def test_matches_the_oracle(self, f, rng):
        order = list(range(f.num_vars))
        rng.shuffle(order)
        assert _truth_table(f, order).tolist() == brute_truth_table(f, order)

    @pytest.mark.parametrize(
        "f",
        [
            Cnf.make(0, []),
            Cnf.make(0, [[]]),
            Cnf.make(3, [[Literal(0)], []]),
            Cnf.make(3, []),
            Cnf.make(5, [[Literal(4, False), Literal(1)], [Literal(1, False)]]),
        ],
        ids=["m0-true", "m0-false", "empty-clause", "tautology", "unused-vars"],
    )
    def test_corner_cases(self, f):
        order = list(reversed(range(f.num_vars)))
        assert _truth_table(f, order).tolist() == brute_truth_table(f, order)


class TestMinObddSize:
    @settings(deadline=None, max_examples=25)
    @given(cnfs(max_vars=5))
    def test_subset_dp_matches_full_enumeration(self, f):
        result = min_obdd_size_over_orders(f)
        assert (result.size, result.order) == brute_min_obdd(f)

    def test_best_order_achieves_the_size(self):
        f = cnf_of_graph(path_graph(4))
        result = min_obdd_size_over_orders(f)
        assert build_obdd(f, result.order).size == result.size

    def test_order_sensitivity(self):
        # (x1 or x4) and (x2 or x5) and (x3 or x6): pairing orders win
        f = Cnf.make(
            6,
            [
                [Literal(0), Literal(3)],
                [Literal(1), Literal(4)],
                [Literal(2), Literal(5)],
            ],
        )
        paired = build_obdd(f, (0, 3, 1, 4, 2, 5)).size
        split = build_obdd(f, (0, 1, 2, 3, 4, 5)).size
        assert paired < split
        assert min_obdd_size_over_orders(f).size == paired

    def test_cap(self):
        f = cnf_of_graph(path_graph(10))
        with pytest.raises(CapacityError):
            min_obdd_size_over_orders(f, cap=10)


class TestSubfunctionCounts:
    @staticmethod
    def oracle_counts(f):
        m = f.num_vars
        return [
            brute_subfunction_count(f, [v for v in range(m) if (s >> v) & 1])
            for s in range(1 << m)
        ]

    @settings(deadline=None, max_examples=30)
    @given(cnfs(max_vars=8, max_clauses=6))
    def test_every_prefix_set_matches_the_oracle(self, f):
        assert subfunction_counts(f) == self.oracle_counts(f)

    @pytest.mark.parametrize(
        "f",
        [
            Cnf.make(0, []),
            Cnf.make(0, [[]]),
            Cnf.make(1, [[Literal(0, False)]]),
            Cnf.make(3, []),
            Cnf.make(3, [[Literal(1)], [Literal(1, False)]]),
            Cnf.make(4, [[Literal(0), Literal(3, False)], [Literal(1)]]),
        ],
        ids=["m0-true", "m0-false", "m1", "tautology", "unsatisfiable", "unused-var"],
    )
    def test_corner_cases(self, f):
        assert subfunction_counts(f) == self.oracle_counts(f)


class TestPathEnumeration:
    def test_lexicographic_order_and_literals(self):
        z = BranchingProgram(
            3,
            (
                Edge(0, 2, Literal(0)),
                Edge(0, 1, Literal(1, False)),
                Edge(1, 2, Literal(2)),
            ),
            0,
            2,
        )
        paths = list(enumerate_computational_paths(z))
        assert [tuple(e.head for e in p.edges) for p in paths] == [(1, 2), (2,)]
        assert paths[0].literals == frozenset({Literal(1, False), Literal(2)})
        assert paths[0].nodes(z.root) == (0, 1, 2)

    def test_inconsistent_paths_are_skipped(self):
        z = BranchingProgram(
            3,
            (Edge(0, 1, Literal(0)), Edge(1, 2, Literal(0, False)), Edge(0, 2)),
            0,
            2,
        )
        paths = list(enumerate_computational_paths(z))
        assert len(paths) == 1
        assert paths[0].literals == frozenset()

    def test_repeated_same_sign_reads_allowed(self):
        z = BranchingProgram(
            3, (Edge(0, 1, Literal(0)), Edge(1, 2, Literal(0)),), 0, 2
        )
        paths = list(enumerate_computational_paths(z))
        assert len(paths) == 1
        assert paths[0].literals == frozenset({Literal(0)})

    def test_cap(self):
        f = cnf_of_graph(path_graph(3))
        z = build_obdd(f, tuple(range(5)))
        with pytest.raises(CapacityError):
            list(enumerate_computational_paths(z, cap=2))

    @settings(deadline=None, max_examples=200)
    @given(dag_programs(), st.integers(min_value=0, max_value=12))
    def test_equals_the_brute_force_oracle(self, z, cap):
        expected = brute_computational_paths(z)
        got = []
        try:
            for p in enumerate_computational_paths(z, cap=cap):
                got.append((p.edges, p.literals))
        except CapacityError:
            assert len(expected) > cap
            assert got == expected[:cap]
        else:
            assert len(expected) <= cap
            assert got == expected


class TestLongChains:
    """Traversals follow a 3000-node path, deeper than the recursion limit."""

    def test_evaluate(self):
        z = chain_program(3000)
        assert evaluate(z, [True] * 2999)
        assert not evaluate(z, [True] * 2998 + [False])

    def test_enumerate_computational_paths(self):
        z = chain_program(3000)
        (path,) = enumerate_computational_paths(z)
        assert path.edges == z.edges
        assert path.literals == frozenset(Literal(i) for i in range(2999))
        assert check_c_nsobdd(z, range(2999), 1).ok


class TestMinSegments:
    def test_known_values(self):
        assert min_segments([]) == 1
        assert min_segments([0, 1, 2]) == 1
        assert min_segments([2, 0]) == 2
        assert min_segments([0, 0]) == 2
        assert min_segments([0, 2, 1, 3, 0]) == 3

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=9))
    def test_matches_partition_dp(self, positions):
        assert min_segments(positions) == brute_min_segments(positions)


class TestCheckCNsobdd:
    def test_built_obdds_pass_with_their_own_order(self):
        f = cnf_of_graph(path_graph(3))
        for order in ((0, 1, 2, 3, 4), (4, 2, 0, 3, 1)):
            z = build_obdd(f, order)
            assert check_c_nsobdd(z, order, 1).ok

    def test_two_segment_chain(self):
        # tests x3 then x1: one descent, so c=1 fails and c=2 passes
        z = BranchingProgram(
            3, (Edge(0, 1, Literal(2)), Edge(1, 2, Literal(0))), 0, 2
        )
        verdict = check_c_nsobdd(z, (0, 1, 2), 1)
        assert not verdict.ok
        assert verdict.segments_needed == 2
        assert check_c_nsobdd(z, (0, 1, 2), 2).ok

    def test_semantic_exemption_of_inconsistent_paths(self):
        # the only order-violating path reads x1 with both signs
        z = BranchingProgram(
            4,
            (
                Edge(0, 1, Literal(0)),
                Edge(1, 3, Literal(0, False)),
                Edge(0, 2, Literal(1)),
                Edge(2, 3),
            ),
            0,
            3,
        )
        assert check_c_nsobdd(z, (0, 1), 1).ok

    def test_reordering_the_reference_order_can_fail(self):
        z = BranchingProgram(
            3, (Edge(0, 1, Literal(0)), Edge(1, 2, Literal(1))), 0, 2
        )
        assert check_c_nsobdd(z, (0, 1), 1).ok
        assert not check_c_nsobdd(z, (1, 0), 1).ok

    def test_input_validation(self):
        z = BranchingProgram(2, (Edge(0, 1, Literal(3)),), 0, 1)
        with pytest.raises(InputError):
            check_c_nsobdd(z, (0, 1), 1)  # order misses variable 3
        with pytest.raises(InputError):
            check_c_nsobdd(z, (3,), 0)


class TestBpFormat:
    def test_format_known(self):
        z = BranchingProgram(
            3, (Edge(0, 1, Literal(1, False)), Edge(1, 2, Literal(0))), 0, 2
        )
        assert format_bp(z) == (
            "c widthlab branching-program format v1\n"
            "bp 3 1 3\n"
            "1 2 -2\n"
            "2 3 1\n"
        )

    def test_round_trip(self):
        f = cnf_of_graph(path_graph(3))
        z = build_obdd(f, (0, 1, 2, 3, 4))
        again = parse_bp(format_bp(z))
        assert again.num_nodes == z.num_nodes
        assert again.root == z.root and again.leaf == z.leaf
        assert set(again.edges) == set(z.edges)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no header
            "1 2\nbp 2 1 2\n",  # edge before header
            "bp 2 1 2\nbp 2 1 2\n",  # duplicate header
            "bp 2 1 2\n1 2 0\n",  # 0 is not a literal
            "bp 2 1 2\n1 2 3 4\n",  # too many fields
            "bp 2 2 1\n1 2\n",  # root has an incoming edge
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(FormatError):
            parse_bp(text)
