import itertools
import operator
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from widthlab import bprog, tables
from widthlab.errors import CapacityError, FormatError, InputError
from widthlab.instances import (
    Cnf, cnf_of_graph, cycle_graph, grid_graph, path_graph,
)
from widthlab.bprog import (
    BranchingProgram,
    build_obdd,
    check_c_nsobdd,
    enumerate_computational_paths,
    equivalence_vs_cnf,
    evaluate,
    format_bp,
    min_obdd_size_over_orders,
    min_segments,
    parse_bp,
)
from widthlab.lbound import check_distinctness
from widthlab.tables import order_tables, truth_table

from oracles import (
    brute_check_c_nsobdd,
    brute_computational_paths,
    brute_min_obdd,
    brute_min_segments,
    brute_prefix_set_dp,
    brute_subfunction_count,
    brute_truth_table,
    clause_scan_satisfies,
    path_labels,
    row_keyed_obdd,
)


def signed_literals(m):
    """The literals of variables 0..m-1 as DIMACS signed ints, both signs."""
    return st.builds(
        operator.mul, st.integers(min_value=1, max_value=m), st.sampled_from((1, -1))
    )


@st.composite
def cnfs(draw, max_vars=5, max_clauses=4):
    m = draw(st.integers(min_value=1, max_value=max_vars))
    clause = st.lists(signed_literals(m), min_size=1, max_size=3).filter(
        lambda ls: len({abs(s) for s in ls}) == len(set(ls))
    )
    clauses = draw(st.lists(clause, max_size=max_clauses))
    return Cnf.make(m, clauses)


@st.composite
def ordered_cnfs(draw, max_vars=10):
    """A CNF of clauses of 0-4 literals and a random variable order, so any
    index bit, the top and the bottom ones included, may be fixed."""
    m = draw(st.integers(min_value=1, max_value=max_vars))
    clause = st.lists(signed_literals(m), max_size=4, unique_by=abs)
    f = Cnf.make(m, draw(st.lists(clause, max_size=6)))
    return f, tuple(draw(st.permutations(range(m))))


def single_clause(*signed):
    return Cnf.make(max(map(abs, signed)), [signed])


@st.composite
def dag_programs(draw, max_nodes=7, max_vars=3):
    """Programs on nodes 0..n-1 with edges going up in node id, so they are
    DAGs; parallel edges, unlabelled edges, repeated reads and sign
    conflicts are all common.  The leaf may be the root or have out-edges.
    No edge is listed twice: two copies of one edge repeat every path
    through it, and the repeats interleave with paths that differ later."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_vars))
    labels = st.just(0) | signed_literals(m)
    edges = []
    if n > 1:
        tails = st.integers(min_value=0, max_value=n - 2)
        for tail in draw(st.lists(tails, max_size=3 * n)):
            head = draw(st.integers(min_value=tail + 1, max_value=n - 1))
            edges.append((tail, head, draw(labels)))
    edges = list(dict.fromkeys(edges))
    leaf = draw(st.integers(min_value=0, max_value=n - 1))
    return BranchingProgram(n, tuple(edges), 0, leaf)


@st.composite
def programs_with_assignments(draw):
    """A `dag_programs` program and a full assignment of its variables,
    sometimes one entry longer than it needs."""
    z = draw(dag_programs())
    s = draw(st.lists(st.booleans(), min_size=z.num_vars, max_size=z.num_vars + 1))
    return z, tuple(s)


def triples(z, path):
    """The (tail, head, signed literal) edges of a path of edge indices."""
    return [(z.tails[i], z.heads[i], z.lits[i]) for i in path]


def is_chain(z, path):
    """Whether the edge indices lead from the root to the leaf, each edge
    leaving the node the one before it reached."""
    nodes = [z.root, *(z.heads[i] for i in path)]
    return all(z.tails[i] == nodes[j] for j, i in enumerate(path)) and nodes[-1] == z.leaf


def cyclic_program():
    """Nodes 1 and 2 form a cycle on the way from the root to the leaf."""
    return BranchingProgram(4, ((0, 1, 0), (1, 2, 0), (2, 1, 0), (1, 3, 0)), 0, 3)


def chain_program(n):
    """A path of n nodes whose i-th edge tests variable i positively."""
    return BranchingProgram(
        n, tuple((i, i + 1, i + 1) for i in range(n - 1)), 0, n - 1
    )


class TestValidate:
    def test_rejects_cycle(self):
        z = BranchingProgram(2, ((0, 1, 0), (1, 0, 0)), 0, 1)
        with pytest.raises(InputError):
            z.validate()

    def test_rejects_root_with_incoming(self):
        z = BranchingProgram(2, ((1, 0, 0),), 0, 1)
        with pytest.raises(InputError):
            z.validate()

    def test_rejects_leaf_with_outgoing(self):
        z = BranchingProgram(3, ((0, 1, 0), (1, 2, 0)), 0, 1)
        with pytest.raises(InputError):
            z.validate()

    def test_accepts_stranded_node(self):
        # An OBDD's rejecting terminal lies on no root-leaf path.
        z = BranchingProgram(3, ((0, 1, 0),), 0, 1)
        z.validate()

    @pytest.mark.parametrize(
        "edges, leaf, message",
        [
            (((0, 1, 0), (2, 5, 0), (1, 3, 0)), 2, "edge (1,3) outside node range"),
            (((0, 1, 0), (-1, 2, 0)), 2, "edge (-1,2) outside node range"),
            (((0, 1, 0),), 3, "root or leaf outside node range"),
        ],
    )
    def test_range_errors_name_the_first_edge_in_stored_order(self, edges, leaf, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            BranchingProgram(3, edges, 0, leaf).validate()


class TestTopologicalOrder:
    @given(dag_programs())
    def test_every_edge_goes_forward(self, z):
        order = z.topological_order
        assert sorted(order) == list(range(z.num_nodes))
        rank = {v: i for i, v in enumerate(order)}
        assert all(rank[t] < rank[h] for t, h in zip(z.tails, z.heads))

    @pytest.mark.parametrize(
        "read",
        [
            lambda z: z.topological_order,
            lambda z: z.validate(),
            lambda z: next(enumerate_computational_paths(z)),
            lambda z: check_c_nsobdd(z, (), 1),
            lambda z: check_distinctness(z, [()], (), frozenset(), 1, frozenset()),
        ],
        ids=["topological_order", "validate", "enumerate_computational_paths",
             "check_c_nsobdd", "check_distinctness"],
    )
    def test_every_reader_rejects_a_cycle(self, read):
        with pytest.raises(InputError, match="^program graph contains a cycle$"):
            read(cyclic_program())


class TestEvaluate:
    def test_unlabeled_edges_are_free(self):
        z = BranchingProgram(2, ((0, 1, 0),), 0, 1)
        assert evaluate(z, ())

    def test_single_literal(self):
        z = BranchingProgram(2, ((0, 1, 1),), 0, 1)
        assert evaluate(z, (True,))
        assert not evaluate(z, (False,))

    def test_partial_assignment_rejected(self):
        z = BranchingProgram(2, ((0, 1, 2),), 0, 1)
        with pytest.raises(InputError):
            evaluate(z, (True,))

    def test_short_assignment_names_the_largest_variable(self):
        z = BranchingProgram(
            3, ((0, 1, 1), (1, 2, 6), (0, 2, -3)),
            0, 2,
        )
        with pytest.raises(InputError, match="^assignment does not cover variable 5$"):
            evaluate(z, (True, True))
        assert evaluate(z, (False,) * 6)

    def test_nondeterministic_or(self):
        z = BranchingProgram(
            2, ((0, 1, 1), (0, 1, 2)), 0, 1
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

    def test_an_iterator_order_builds_as_its_tuple(self):
        f = cnf_of_graph(path_graph(3))
        order = (4, 2, 0, 3, 1)
        assert build_obdd(f, iter(order)) == build_obdd(f, order)
        assert build_obdd(f, (v for v in range(5))) == build_obdd(f, tuple(range(5)))

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
            positions = [pos[abs(z.lits[i]) - 1] for i in p if z.lits[i]]
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

    def test_equivalence_cap(self):
        z = BranchingProgram(2, ((0, 1, 0),), 0, 1)
        with pytest.raises(CapacityError, match="^equivalence check: 21 variables exceeds cap 20$"):
            equivalence_vs_cnf(z, Cnf.make(21, []))

    @settings(deadline=None, max_examples=50)
    @given(cnfs(max_clauses=5))
    def test_counterexample_is_the_first_difference(self, f):
        # The OBDD of f without its last clause, against f: the first
        # assignment in binary order (variable 0 most significant) where
        # they differ.
        g = Cnf.make(f.num_vars, f.clauses[:-1])
        differ = [s for s in itertools.product((False, True), repeat=f.num_vars)
                  if clause_scan_satisfies(f, s) != clause_scan_satisfies(g, s)]
        verdict = equivalence_vs_cnf(build_obdd(g, range(f.num_vars)), f)
        assert verdict.equivalent == (not differ)
        assert verdict.counterexample == (differ[0] if differ else None)

    @pytest.mark.parametrize("m", [64, 65])
    def test_raised_cap_beyond_numpy_arrays(self, m):
        # A table of 2^64 or 2^65 bits is too large for a Python int.
        with pytest.raises(CapacityError):
            build_obdd(Cnf.make(m, [[1]]), range(m), cap=m)

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

    @settings(deadline=None, max_examples=80)
    @given(cnfs(max_vars=10, max_clauses=8), st.randoms(use_true_random=False))
    def test_equals_the_row_keyed_oracle(self, f, rng):
        order = list(range(f.num_vars))
        rng.shuffle(order)
        assert build_obdd(f, order) == row_keyed_obdd(f, order)

    @pytest.mark.parametrize(
        "g", [cycle_graph(7), cycle_graph(8), grid_graph(2, 3)], ids=["C7", "C8", "grid2x3"])
    def test_graph_cnfs_match_the_row_keyed_oracle_bytes(self, g):
        # Ascending and three shuffled orders, compared as `format_bp` text.
        f, rng = cnf_of_graph(g), random.Random(g.n)
        m = f.num_vars
        for order in [list(range(m))] + [rng.sample(range(m), m) for _ in range(3)]:
            assert format_bp(build_obdd(f, order)) == format_bp(row_keyed_obdd(f, order))


def table_bits(f, order) -> list[bool]:
    """`truth_table(f, order)` read bit by bit, least significant first."""
    table = truth_table(f, order)
    return [bool(table >> k & 1) for k in range(1 << f.num_vars)]


class TestTruthTable:
    @settings(deadline=None, max_examples=60)
    @given(cnfs(max_vars=8, max_clauses=6), st.randoms(use_true_random=False))
    def test_matches_the_oracle(self, f, rng):
        order = list(range(f.num_vars))
        rng.shuffle(order)
        assert table_bits(f, order) == brute_truth_table(f, order)

    @settings(deadline=None, max_examples=80)
    @given(ordered_cnfs())
    # With order (0, 1, 2), variable 0 is the top index bit, 2 the bottom.
    @example((Cnf.make(3, [[-1]]), (0, 1, 2)))
    @example((Cnf.make(3, [[3]]), (0, 1, 2)))
    @example((Cnf.make(3, [[2], []]), (0, 1, 2)))
    def test_fixed_bits_anywhere(self, case):
        f, order = case
        assert table_bits(f, order) == brute_truth_table(f, order)

    @pytest.mark.parametrize(
        "f",
        [
            Cnf.make(0, []),
            Cnf.make(0, [[]]),
            Cnf.make(3, [[1], []]),
            Cnf.make(3, []),
            Cnf.make(5, [[-5, 2], [-2]]),
        ],
        ids=["m0-true", "m0-false", "empty-clause", "tautology", "unused-vars"],
    )
    def test_corner_cases(self, f):
        order = list(reversed(range(f.num_vars)))
        assert table_bits(f, order) == brute_truth_table(f, order)


class TestMinObddSize:
    @settings(deadline=None, max_examples=25)
    @given(cnfs(max_vars=5))
    def test_subset_dp_matches_full_enumeration(self, f):
        result = min_obdd_size_over_orders(f)
        assert (result.size, result.order) == brute_min_obdd(f)

    @settings(deadline=None, max_examples=30)
    @given(cnfs(max_vars=7, max_clauses=6))
    @example(Cnf.make(0, []))
    @example(Cnf.make(0, [[]]))
    def test_below_and_order_match_permutation_enumeration(self, f):
        """below[0] is the fewest nodes over all orders' prefix sets, and
        the order is the lexicographically smallest that attains it."""
        counts, below = order_tables(f)
        result = min_obdd_size_over_orders(f)
        assert (below[0], result.order) == brute_prefix_set_dp(counts.tolist(), operator.add)
        assert result.size == 2 + counts[0] + below[0]
        assert type(result.size) is int and all(type(v) is int for v in result.order)

    def test_best_order_achieves_the_size(self):
        f = cnf_of_graph(path_graph(4))
        result = min_obdd_size_over_orders(f)
        assert build_obdd(f, result.order).size == result.size

    def test_order_sensitivity(self):
        # (x1 or x4) and (x2 or x5) and (x3 or x6): pairing orders win
        f = Cnf.make(6, [[1, 4], [2, 5], [3, 6]])
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
        assert order_tables(f)[0].tolist() == self.oracle_counts(f)

    @settings(deadline=None, max_examples=20)
    @given(cnfs(max_vars=8, max_clauses=6))
    def test_every_chunk_size_matches_the_oracles(self, f):
        """Chunks of one table, of a few tables and of many tables (at 8
        variables the default chunk holds every level whole) give the
        oracles' counts and below[0], and the default chunk's below."""
        counts = self.oracle_counts(f)
        best = brute_prefix_set_dp(counts, operator.add)[0]
        below = order_tables(f)[1].tolist()
        for chunk in (1, 4, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tables, "_COMPACTION_CHUNK", chunk)
                got_counts, got_below = order_tables(f)
            assert got_counts.tolist() == counts
            assert got_below[0] == best
            assert got_below.tolist() == below

    def test_many_chunks_per_level_match_one_chunk(self, monkeypatch):
        f = cnf_of_graph(cycle_graph(6))  # 12 variables
        counts, below = order_tables(f)
        monkeypatch.setattr(tables, "_COMPACTION_CHUNK", 16)
        chunked_counts, chunked_below = order_tables(f)
        assert chunked_counts.tolist() == counts.tolist()
        assert chunked_below.tolist() == below.tolist()

    @pytest.mark.parametrize(
        "f",
        [
            Cnf.make(0, []),
            Cnf.make(0, [[]]),
            Cnf.make(1, [[-1]]),
            Cnf.make(3, []),
            Cnf.make(3, [[2], [-2]]),
            Cnf.make(4, [[1, -4], [2]]),
        ],
        ids=["m0-true", "m0-false", "m1", "tautology", "unsatisfiable", "unused-var"],
    )
    def test_corner_cases(self, f):
        assert order_tables(f)[0].tolist() == self.oracle_counts(f)


class TestPathEnumeration:
    def test_lexicographic_order_and_literals(self):
        z = BranchingProgram(
            3,
            (
                (0, 2, 1),
                (0, 1, -2),
                (1, 2, 3),
            ),
            0,
            2,
        )
        paths = list(enumerate_computational_paths(z))
        assert [tuple(z.heads[i] for i in p) for p in paths] == [(1, 2), (2,)]
        assert path_labels(z, paths[0]) == frozenset({-2, 3})
        assert triples(z, paths[0]) == [(0, 1, -2), (1, 2, 3)]

    def test_inconsistent_paths_are_skipped(self):
        z = BranchingProgram(
            3,
            ((0, 1, 1), (1, 2, -1), (0, 2, 0)),
            0,
            2,
        )
        paths = list(enumerate_computational_paths(z))
        assert [triples(z, p) for p in paths] == [[(0, 2, 0)]]

    def test_repeated_same_sign_reads_allowed(self):
        z = BranchingProgram(
            3, ((0, 1, 1), (1, 2, 1),), 0, 2
        )
        paths = list(enumerate_computational_paths(z))
        assert len(paths) == 1
        assert path_labels(z, paths[0]) == frozenset({1})

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
                assert is_chain(z, p)
                got.append((p, path_labels(z, p)))
        except CapacityError:
            assert len(expected) > cap
            assert got == expected[:cap]
        else:
            assert len(expected) <= cap
            assert got == expected

    @settings(deadline=None, max_examples=300)
    @given(programs_with_assignments())
    # The root is the leaf: the one path is empty, whatever the assignment.
    @example((BranchingProgram(2, ((0, 1, 1),), 0, 0), (False,)))
    # The leaf has out-edges: the walk stops there.
    @example((BranchingProgram(3, ((0, 1, 1), (1, 2, -2)),
                               0, 1), (True, True)))
    def test_seeded_walk_yields_the_assignments_accepting_paths(self, case):
        z, s = case
        expected = [
            edges for edges, lits in brute_computational_paths(z)
            if all(s[abs(l) - 1] == (l > 0) for l in lits)
        ]
        got = list(enumerate_computational_paths(z, assignment=s))
        assert all(is_chain(z, p) for p in got)
        assert got == expected
        assert bool(expected) == evaluate(z, s)

    def test_seeded_walk_rejects_a_short_assignment(self):
        z = chain_program(3)  # reads x0, then x1
        with pytest.raises(InputError) as from_evaluate:
            evaluate(z, (True,))
        with pytest.raises(InputError, match="^assignment does not cover variable 1$") as got:
            next(enumerate_computational_paths(z, assignment=(True,)))
        assert str(got.value) == str(from_evaluate.value)


class TestLongChains:
    """Traversals follow a 3000-node path, deeper than the recursion limit."""

    def test_evaluate(self):
        z = chain_program(3000)
        assert evaluate(z, [True] * 2999)
        assert not evaluate(z, [True] * 2998 + [False])

    def test_enumerate_computational_paths(self):
        z = chain_program(3000)
        (path,) = enumerate_computational_paths(z)
        assert path == tuple(range(2999))  # every edge, in stored order
        assert path_labels(z, path) == frozenset(range(1, 3000))
        assert list(enumerate_computational_paths(z, assignment=[True] * 2999)) == [path]
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
            3, ((0, 1, 3), (1, 2, 1)), 0, 2
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
                (0, 1, 1),
                (1, 3, -1),
                (0, 2, 2),
                (2, 3, 0),
            ),
            0,
            3,
        )
        assert check_c_nsobdd(z, (0, 1), 1).ok

    def test_reordering_the_reference_order_can_fail(self):
        z = BranchingProgram(
            3, ((0, 1, 1), (1, 2, 2)), 0, 2
        )
        assert check_c_nsobdd(z, (0, 1), 1).ok
        assert not check_c_nsobdd(z, (1, 0), 1).ok

    @settings(deadline=None, max_examples=300)
    @given(dag_programs(), st.permutations(range(3)), st.integers(min_value=1, max_value=3))
    def test_equals_the_brute_force_oracle(self, z, sv, c):
        verdict = check_c_nsobdd(z, sv, c)
        got = (verdict.ok, verdict.violating_path, verdict.segments_needed)
        assert got == brute_check_c_nsobdd(z, sv, c)
        assert verdict.violating_path is None or is_chain(z, verdict.violating_path)

    def test_path_cap_bounds_only_the_witness_search(self):
        # Ten diamonds in a row, each reading x_i with either sign: 2^10
        # consistent paths, all in order, so no path is enumerated.
        edges = tuple((i, i + 1, s * (i + 1)) for i in range(10) for s in (-1, 1))
        z = BranchingProgram(11, edges, 0, 10)
        assert len(brute_computational_paths(z)) == 1 << 10
        assert check_c_nsobdd(z, range(10), 1, path_cap=4).ok
        # A last step reading x_0 again violates the order, but only on
        # paths that took x_0 positively: the 512 paths before the first
        # such one are enumerated, and they count against the cap.
        z = BranchingProgram(12, edges + ((10, 11, 1), (10, 11, 11)),
                             0, 11)
        with pytest.raises(CapacityError):
            check_c_nsobdd(z, range(11), 1, path_cap=4)
        verdict = check_c_nsobdd(z, range(11), 1)
        assert not verdict.ok and verdict.segments_needed == 2
        assert z.lits[verdict.violating_path[0]] == 1

    def test_rereading_a_variable_starts_a_segment(self):
        z = BranchingProgram(
            3, ((0, 1, 1), (1, 2, 1)), 0, 2
        )
        verdict = check_c_nsobdd(z, (0,), 1)
        assert not verdict.ok and verdict.segments_needed == 2
        assert check_c_nsobdd(z, (0,), 2).ok

    def test_leaf_out_edges_do_not_count(self):
        # Paths stop at the leaf; the descent after it belongs to none.
        z = BranchingProgram(
            3, ((0, 1, 2), (1, 2, 1)), 0, 1
        )
        assert check_c_nsobdd(z, (0, 1), 1).ok

    def test_rejects_a_cycle(self):
        z = BranchingProgram(3, ((0, 1, 0), (1, 2, 0), (2, 1, 0)), 0, 2)
        with pytest.raises(InputError, match="cycle"):
            check_c_nsobdd(z, (), 1)

    def test_input_validation(self):
        z = BranchingProgram(2, ((0, 1, 4),), 0, 1)
        with pytest.raises(InputError):
            check_c_nsobdd(z, (0, 1), 1)  # order misses variable 3
        with pytest.raises(InputError):
            check_c_nsobdd(z, (3,), 0)


class TestBpFormat:
    def test_format_known(self):
        z = BranchingProgram(
            3, ((0, 1, -2), (1, 2, 1)), 0, 2
        )
        assert format_bp(z) == (
            "c widthlab branching-program format v1\n"
            "bp 3 1 3\n"
            "1 2 -2\n"
            "2 3 1\n"
        )

    @settings(deadline=None, max_examples=60)
    @given(cnfs(max_vars=8, max_clauses=6), st.randoms(use_true_random=False))
    def test_round_trip(self, f, rng):
        order = list(range(f.num_vars))
        rng.shuffle(order)
        z = build_obdd(f, order)
        assert parse_bp(format_bp(z)) == z

    @settings(deadline=None, max_examples=100)
    @given(dag_programs(), st.randoms(use_true_random=False))
    def test_edge_order_is_canonical(self, z, rng):
        edges = list(zip(z.tails, z.heads, z.lits))
        rng.shuffle(edges)
        y = BranchingProgram(z.num_nodes, tuple(edges), z.root, z.leaf)
        assert y == z
        assert (y.tails, y.heads, y.lits) == (z.tails, z.heads, z.lits)
        assert y.out_ranges == z.out_ranges
        assert format_bp(y) == format_bp(z)
        assert list(enumerate_computational_paths(y)) == list(enumerate_computational_paths(z))

    @settings(deadline=None, max_examples=100)
    @given(dag_programs().filter(lambda z: z.leaf not in z.tails),  # files hold valid programs
           st.randoms(use_true_random=False))
    def test_shuffled_edge_lines_parse_as_the_canonical_file(self, z, rng):
        text = format_bp(z)
        lines = text.splitlines(keepends=True)
        edge_lines = lines[2:]
        rng.shuffle(edge_lines)
        y = parse_bp("".join(lines[:2] + edge_lines))
        assert y == z
        assert format_bp(y) == text
        assert list(enumerate_computational_paths(y)) == list(enumerate_computational_paths(z))
        with pytest.MonkeyPatch.context() as mp:  # a canonical file is never sorted
            mp.setattr(bprog, "sorted", None, raising=False)
            assert parse_bp(text) == z

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("bp 3 1 3\n2 5\n", "line 2: node 5 outside 1..3"),
            ("bp 3 1 3\n1 2\nc\n0 3 1\n", "line 4: node 0 outside 1..3"),
        ],
    )
    def test_node_range_errors_name_the_line(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_bp(text)
        assert str(exc.value) == message

    def test_zero_literal_after_good_ones_names_its_line(self):
        text = "bp 4 1 4\n1 2 1\n2 3 -1\n2 3 1\nc\n3 4 0\n"
        with pytest.raises(FormatError, match="^line 6: 0 is not a literal$"):
            parse_bp(text)

    def test_duplicate_edge(self):
        text = "bp 3 1 3\n1 2\n1 2\n2 3\n2 3 -1\n"
        with pytest.raises(FormatError, match="^line 3: duplicate edge '1 2'$"):
            parse_bp(text)
        # Parallel edges with different labels are distinct edges.
        z = parse_bp("bp 2 1 2\n1 2\n1 2 1\n1 2 -1\n")
        assert len(z.lits) == 3
