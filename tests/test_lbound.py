import pytest
from hypothesis import example, given, settings

from widthlab import lbound
from widthlab.errors import InputError
from widthlab.graph import Graph
from widthlab.instances import cnf_of_graph, cycle_graph, grid_graph, path_graph
from widthlab.bprog import (
    BranchingProgram,
    build_obdd,
    enumerate_computational_paths,
)
from widthlab.lbound import (
    assignment_family,
    check_distinctness,
    run_lb_experiment,
    separation_vector,
    verify_size_bound,
    witness_cut,
)
from widthlab.width import mw_of_ordering

from oracles import clause_scan_satisfies, per_prefix_witness
from strategies import graphs_with_ordering


class TestWitnessCut:
    def test_smallest_qualifying_prefix(self):
        g = path_graph(4)
        sv = (0, 2, 1, 3)
        w = witness_cut(g, sv, 2)
        assert w.prefix_len == 2
        assert len(w.pairs) == 2
        # every earlier prefix has a smaller cut matching
        assert mw_of_ordering(g, (0, 1, 2, 3)).value == 1

    def test_pairs_are_oriented_and_disjoint(self):
        g = path_graph(6)
        sv = (0, 2, 4, 1, 3, 5)
        w = witness_cut(g, sv, 3)
        prefix = set(sv[: w.prefix_len])
        used = set()
        for inside, outside in w.pairs:
            assert inside in prefix and outside not in prefix
            assert inside not in used and outside not in used
            used.update((inside, outside))

    def test_t_zero(self):
        g = path_graph(3)
        w = witness_cut(g, tuple(range(3)), 0)
        assert w.prefix_len == 0 and w.pairs == ()

    def test_unreachable_t(self):
        g = Graph.make(3, [])
        message = "^no prefix cut of the ordering has a matching of size 1$"
        with pytest.raises(InputError, match=message):
            witness_cut(g, tuple(range(3)), 1)

    def test_negative_t(self):
        with pytest.raises(InputError):
            witness_cut(path_graph(3), tuple(range(3)), -1)

    @settings(deadline=None, max_examples=150)
    @given(graphs_with_ordering(10))
    @example((Graph.make(4, [(0, 1)]), tuple(range(4))))  # t = 2 has no prefix cut
    def test_equals_the_per_prefix_oracle(self, case):
        g, sv = case
        for t in range(g.n // 2 + 1):
            expected = per_prefix_witness(g, sv, t)
            if expected is None:
                message = f"^no prefix cut of the ordering has a matching of size {t}$"
                with pytest.raises(InputError, match=message):
                    witness_cut(g, sv, t)
            else:
                w = witness_cut(g, sv, t)
                assert (w.prefix_len, w.pairs) == expected


class TestAssignmentFamily:
    def test_k2_family(self):
        g = path_graph(2)
        f = cnf_of_graph(g)
        w = witness_cut(g, (0, 1), 1)
        family = assignment_family(f, w)
        # vars: X_0, X_1, X_{0,1}; matched edge negative, ends opposite
        assert family == (
            (False, True, False),
            (True, False, False),
        )

    def test_family_members_satisfy_by_clause_scan(self, corpus):
        for seed, g in corpus[:60]:
            f = cnf_of_graph(g)
            sv = tuple(range(g.n))
            t = mw_of_ordering(g, sv).value
            if t == 0:
                continue
            family = assignment_family(f, witness_cut(g, sv, t))
            assert len(family) == 1 << t
            assert len(set(family)) == len(family)
            for s in family:
                assert clause_scan_satisfies(f, s)

    def test_unmatched_variables_stay_positive(self):
        g = path_graph(4)
        f = cnf_of_graph(g)
        w = witness_cut(g, tuple(range(4)), 1)
        matched = {w.pairs[0][0], w.pairs[0][1]}
        for s in assignment_family(f, w):
            for u in range(4):
                if u not in matched:
                    assert s[u]

    def test_rejects_foreign_cnf(self):
        g = path_graph(3)
        w = witness_cut(g, tuple(range(3)), 1)
        with pytest.raises(InputError):
            assignment_family(cnf_of_graph(path_graph(2)), w)


def chain_program(*labels):
    """A chain whose i-th edge has signed literal labels[i], 0 for none."""
    edges = tuple((i, i + 1, lab) for i, lab in enumerate(labels))
    return BranchingProgram(len(labels) + 1, edges, 0, len(labels))


def only_path(z):
    return tuple(range(len(z.lits)))  # a chain's edges, in stored order


class TestSeparationVector:
    def test_single_segment_prefix_then_suffix(self):
        # path reads prefix var 0 then suffix var 1: split after the last
        # prefix-labelled edge
        z = chain_program(1, 2)
        p = only_path(z)
        vec = separation_vector(z, p, (0, 1), frozenset({0}), 1, frozenset({1}))
        assert vec == (1,)

    def test_only_prefix_vars_uses_segment_end(self):
        z = chain_program(1, 2)
        p = only_path(z)
        vec = separation_vector(z, p, (0, 1), frozenset({0, 1}), 1, frozenset())
        assert vec == (2,)

    def test_only_suffix_vars_uses_segment_start(self):
        z = chain_program(1, 2)
        p = only_path(z)
        vec = separation_vector(z, p, (0, 1), frozenset(), 1, frozenset({0, 1}))
        assert vec == (0,)

    def test_two_segments(self):
        # positions 1 then 0: a descent, so two segments under c=2
        z = chain_program(2, 1)
        p = only_path(z)
        vec = separation_vector(z, p, (0, 1), frozenset({0}), 2, frozenset({1}))
        # segment 1 holds only suffix var 1 (start 0); cut at node 1;
        # segment 2 holds only prefix var 0 (end 2)
        assert vec == (0, 1, 2)

    def test_padding_with_empty_segments(self):
        z = chain_program(1)
        p = only_path(z)
        vec = separation_vector(z, p, (0,), frozenset({0}), 2, frozenset())
        assert vec == (1, 1, 1)

    def test_padding_after_one_descent(self):
        z = chain_program(2, 1)
        p = only_path(z)
        vec = separation_vector(z, p, (0, 1), frozenset({0}), 3, frozenset({1}))
        assert vec == (0, 1, 2, 2, 2)

    def test_split_after_the_last_prefix_edge_before_suffix_edges(self):
        # segments [x0 x1 x2 x3] and [x1 x2]; x0, x1 prefix-side
        z = chain_program(1, 2, 3, 4, 2, 3)
        p = only_path(z)
        vec = separation_vector(z, p, (0, 1, 2, 3), frozenset({0, 1}), 2, frozenset({2, 3}))
        assert vec == (2, 4, 5)

    def test_unlabelled_edges_stay_in_the_segment_before_a_descent(self):
        # the second segment starts at the x0 edge, not after the x1 edge
        z = chain_program(0, 2, 0, 1)
        p = only_path(z)
        vec = separation_vector(z, p, (0, 1), frozenset({0}), 2, frozenset({1}))
        assert vec == (0, 3, 4)

    def test_budget_too_small(self):
        z = chain_program(2, 1)
        p = only_path(z)
        with pytest.raises(InputError):
            separation_vector(z, p, (0, 1), frozenset({0}), 1, frozenset({1}))

    def test_unknown_variable(self):
        z = chain_program(6)
        p = only_path(z)
        with pytest.raises(InputError):
            separation_vector(z, p, (0, 1), frozenset({0}), 1, frozenset({1}))


class TestCheckDistinctness:
    def test_distinct_on_k2_obdd(self):
        g = path_graph(2)
        f = cnf_of_graph(g)
        order = (0, 1, 2)
        z = build_obdd(f, order)
        w = witness_cut(g, (0, 1), 1)
        family = assignment_family(f, w)
        report = check_distinctness(
            z, family, order, frozenset({0}), 1, frozenset({1})
        )
        assert report.distinct
        assert len(report.vectors) == 2
        assert not report.collisions

    def test_collision_detected_on_oblivious_program(self):
        # single unlabeled edge: every member uses the same path
        z = BranchingProgram(2, ((0, 1, 0),), 0, 1)
        family = ((True, False), (False, True))
        report = check_distinctness(z, family, (0, 1), frozenset({0}), 1, frozenset({1}))
        assert not report.distinct
        assert report.collisions == ((0, 1),)

    def test_rejecting_member_is_an_error(self):
        z = chain_program(1)
        with pytest.raises(InputError):
            check_distinctness(z, ((False,),), (0,), frozenset({0}), 1, frozenset())

    def test_lowest_rejected_member_is_named(self):
        z = chain_program(1)
        family = ((True,), (False,), (True,), (False,))
        with pytest.raises(InputError, match="family member 1$"):
            check_distinctness(z, family, (0,), frozenset({0}), 1, frozenset())

    def test_each_member_gets_its_smallest_accepting_path(self):
        # Nondeterministic: (x0, x1) = (1, 1) has three accepting paths, and
        # only the smallest, 0-1-3, splits at node 1.
        z = BranchingProgram(
            4,
            ((0, 1, 1), (0, 2, 0), (1, 3, 2),
             (2, 1, 0), (2, 3, 2)),
            0,
            3,
        )
        family = ((True, True), (False, True), (True, True))
        report = check_distinctness(z, family, (0, 1), frozenset({0}), 1, frozenset({1}))
        assert report.vectors == ((1,), (0,), (1,))
        assert report.collisions == ((0, 2),)
        paths = list(enumerate_computational_paths(z))
        for s, vector in zip(family, report.vectors):
            accepting = [p for p in paths
                         if all(s[abs(z.lits[i]) - 1] == (z.lits[i] > 0) for i in p if z.lits[i])]
            smallest = min(accepting)
            assert vector == separation_vector(z, smallest, (0, 1), frozenset({0}), 1,
                                               frozenset({1}))

    def test_a_member_shorter_than_the_program_is_an_input_error(self):
        z = chain_program(1, 2)
        with pytest.raises(InputError, match="^assignment does not cover variable 1$"):
            check_distinctness(z, [(True,)], (0, 1), frozenset({0}), 1, frozenset({1}))

    @pytest.mark.parametrize(
        "g,sv",
        [(path_graph(4), (0, 2, 1, 3)), (cycle_graph(4), tuple(range(4))),
         (grid_graph(2, 3), tuple(range(6)))],
        ids=["path4", "cycle4", "grid2x3"],
    )
    def test_draws_one_path_per_member(self, g, sv, monkeypatch):
        drawn = []

        def counting(*args, **kwargs):
            for p in enumerate_computational_paths(*args, **kwargs):
                drawn.append(p)
                yield p

        monkeypatch.setattr(lbound, "enumerate_computational_paths", counting)
        f = cnf_of_graph(g)
        order = tuple(range(f.num_vars))
        z = build_obdd(f, order)
        w = witness_cut(g, sv, 2)
        family = assignment_family(f, w)
        svp_vars = frozenset(sv[:w.prefix_len])
        report = check_distinctness(z, family, order, svp_vars, 1, frozenset(sv[w.prefix_len:]))
        assert len(drawn) == len(family) == len(report.vectors) == 4


class TestVerifySizeBound:
    def test_exact_integer_comparison(self):
        assert verify_size_bound(8, 3, 1) is True  # 8 >= 8
        assert verify_size_bound(7, 3, 1) is False  # 7 < 8
        # fractional exponents never hit floating point: 3^3 = 27 >= 2^3
        assert verify_size_bound(3, 3, 2) is True
        assert verify_size_bound(1, 1, 2) is False

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            verify_size_bound(4, -1, 1)
        with pytest.raises(InputError):
            verify_size_bound(4, 1, 0)


class TestExperiment:
    def test_k2_report(self):
        report = run_lb_experiment(path_graph(2), c=1)
        assert report["pass"]
        assert report["t"] == 1
        assert report["matching_width"] == 1
        assert report["family_size"] == 2
        assert report["bound"]["lhs"] == report["measured_size"]
        assert report["bound"]["rhs"] == 2
        assert all(m["satisfies"] for m in report["members"])

    def test_report_is_deterministic(self):
        g = path_graph(3)
        assert run_lb_experiment(g, c=1) == run_lb_experiment(g, c=1)

    def test_explicit_t(self):
        report = run_lb_experiment(path_graph(4), c=1, t=0)
        assert report["family_size"] == 1
        assert report["witness_prefix_len"] == 0

    def test_bound_holds_on_small_corpus(self, corpus):
        small = [(seed, g) for seed, g in corpus if g.n <= 4][:12]
        for seed, g in small:
            report = run_lb_experiment(g, c=1)
            assert report["pass"], (seed, report)
            assert report["measured_size"] >= 1 << report["matching_width"]
