from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from widthlab import width
from widthlab.errors import CapacityError, InputError
from widthlab.graph import (
    Graph,
    Ordering,
    adjacency_masks,
    cut_graph,
    iter_bits,
    max_bipartite_matching,
)
from widthlab.instances import ct_graph, cycle_graph, grid_graph, path_graph, random_graph
from widthlab.width import (
    _CutMatching,
    _boundary,
    matching_width_exact,
    min_vc_containing,
    mw_of_ordering,
    pathwidth_exact,
    settled_vertex_covers,
)

from oracles import (
    brute_matching_width,
    brute_max_matching,
    brute_pathwidth,
    crossing_edges,
    cut_edges,
    frozenset_settled_covers,
    matching_costs,
    neighbours,
    separation_costs,
    table_minimax,
)


def complete_graph(n):
    return Graph.make(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph.make(n, edges)


@st.composite
def graphs_with_ordering(draw, max_n=6):
    g = draw(graphs(max_n=max_n))
    return g, Ordering.make(draw(st.permutations(list(range(g.n)))))


def brute_cut_sizes(g):
    """Maximum matching size of every cut, indexed by mask, by brute force."""
    sizes, by_edges = [], {}  # a cut and its complement cross the same edges
    for mask in range(1 << g.n):
        edges = tuple(crossing_edges(g, set(iter_bits(mask))))
        if edges not in by_edges:
            by_edges[edges] = brute_max_matching(edges)
        sizes.append(by_edges[edges])
    return sizes


def table_dp_report(cost):
    """An exact width's report, recomputed by the table DP over every prefix
    set's cost: the value, the lexicographically smallest optimal ordering,
    and its first prefix whose set attains the value."""
    value, seq = table_minimax(cost)
    mask, prefix = 0, None
    for i, v in enumerate(seq[:-1], 1):
        mask |= 1 << v
        if cost[mask] == value:
            prefix = i
            break
    return value, seq, prefix


def report_tuple(report):
    return report.value, report.witness_ordering.seq, report.witness_prefix


LARGER_GRAPHS = pytest.mark.parametrize(
    "g",
    [
        random_graph(14, 0.2, 0),
        random_graph(14, 0.5, 0),
        grid_graph(2, 7),
        cycle_graph(14),
        random_graph(13, 0.3, 0),
        ct_graph(3, 1),
        ct_graph(2, 2),
        grid_graph(4, 4),
    ],
    ids=["random14_p0.2", "random14_p0.5", "grid2x7", "cycle14", "random13_p0.3",
         "ct_3_1", "ct_2_2", "grid4x4"],
)


class TestCutMatchingCosts:
    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=9))
    def test_gray_walk_equals_brute_force_on_every_mask(self, g):
        assert matching_costs(g) == brute_cut_sizes(g)

    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=9))
    def test_size_of_equals_brute_force_on_every_mask(self, g):
        cut = _CutMatching(adjacency_masks(g))
        assert [cut.size_of(mask) for mask in range(1 << g.n)] == brute_cut_sizes(g)

    @settings(deadline=None, max_examples=40)
    @given(graphs_with_ordering(max_n=9))
    def test_cut_sizes_equal_brute_force_on_every_prefix(self, gs):
        g, sv = gs
        sizes = brute_cut_sizes(g)
        masks = [sum(1 << v for v in sv.seq[:i]) for i in range(1, g.n)]
        assert width.cut_sizes(g, sv) == tuple(sizes[m] for m in masks)

    def test_cut_sizes_reject_a_short_ordering(self):
        with pytest.raises(InputError, match="ordering length"):
            width.cut_sizes(path_graph(3), Ordering.make(range(2)))


class TestMwOfOrdering:
    def test_path_natural_order(self):
        g = path_graph(10)
        assert mw_of_ordering(g, Ordering.make(range(10))).value == 1

    def test_path_interleaved_order(self):
        # evens then odds: the middle cut matches every edge endpoint pair
        g = path_graph(10)
        interleaved = Ordering.make([0, 2, 4, 6, 8, 1, 3, 5, 7, 9])
        assert mw_of_ordering(g, interleaved).value == 5

    def test_witness_prefix_attains_value(self):
        g = cycle_graph(6)
        sv = Ordering.make([0, 3, 1, 4, 2, 5])
        report = mw_of_ordering(g, sv)
        c = cut_graph(g, sv, report.witness_prefix)
        assert len(max_bipartite_matching(c)) == report.value

    def test_rejects_wrong_length(self):
        with pytest.raises(InputError):
            mw_of_ordering(path_graph(3), Ordering.make([0, 1]))

    @settings(deadline=None)
    @given(graphs_with_ordering())
    def test_matches_per_prefix_brute_force(self, gsv):
        g, sv = gsv
        sizes = [
            brute_max_matching(crossing_edges(g, set(sv.seq[:i]))) for i in range(1, g.n)
        ]
        report = mw_of_ordering(g, sv)
        assert report.value == max(sizes, default=0)
        assert report.witness_prefix == (sizes.index(max(sizes)) + 1 if sizes else None)


class TestMatchingWidthExact:
    def test_path(self):
        assert matching_width_exact(path_graph(10)).value == 1

    def test_known_families(self):
        assert matching_width_exact(complete_graph(4)).value == 2
        assert matching_width_exact(complete_graph(6)).value == 3
        assert matching_width_exact(cycle_graph(5)).value == 2
        assert matching_width_exact(Graph.make(4, [(0, 1), (2, 3)])).value == 1
        assert matching_width_exact(Graph.make(3, [])).value == 0

    def test_witness_attains_value(self):
        g = grid_graph(2, 3)
        report = matching_width_exact(g)
        assert mw_of_ordering(g, report.witness_ordering).value == report.value

    def test_witness_is_lexicographically_smallest(self):
        g = cycle_graph(5)
        report = matching_width_exact(g)
        optimal = [
            perm
            for perm in permutations(range(5))
            if mw_of_ordering(g, Ordering.make(perm)).value == report.value
        ]
        assert report.witness_ordering.seq == min(optimal)

    def test_cap(self):
        with pytest.raises(CapacityError):
            matching_width_exact(path_graph(8), cap=7)

    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=5))
    def test_matches_permutation_enumeration(self, g):
        report = matching_width_exact(g)
        assert (report.value, report.witness_ordering.seq) == brute_matching_width(g)

    @settings(deadline=None, max_examples=60)
    @given(graphs(max_n=9))
    @example(Graph.make(0, []))
    @example(Graph.make(1, []))
    def test_matches_table_dp(self, g):
        assert report_tuple(matching_width_exact(g)) == table_dp_report(matching_costs(g))

    @LARGER_GRAPHS
    def test_matches_table_dp_on_larger_graphs(self, g):
        assert report_tuple(matching_width_exact(g)) == table_dp_report(matching_costs(g))


class TestPathwidthExact:
    def test_known_families(self):
        assert pathwidth_exact(path_graph(10)).value == 1
        assert pathwidth_exact(cycle_graph(6)).value == 2
        assert pathwidth_exact(complete_graph(5)).value == 4
        assert pathwidth_exact(grid_graph(2, 3)).value == 2
        assert pathwidth_exact(Graph.make(4, [])).value == 0

    def test_star(self):
        star = Graph.make(5, [(0, i) for i in range(1, 5)])
        assert pathwidth_exact(star).value == 1

    def test_cap(self):
        with pytest.raises(CapacityError):
            pathwidth_exact(path_graph(8), cap=7)

    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=5))
    def test_matches_permutation_enumeration(self, g):
        report = pathwidth_exact(g)
        assert (report.value, report.witness_ordering.seq) == brute_pathwidth(g)

    @settings(deadline=None, max_examples=60)
    @given(graphs(max_n=10))
    @example(Graph.make(0, []))
    @example(Graph.make(1, []))
    def test_matches_table_dp(self, g):
        assert report_tuple(pathwidth_exact(g)) == table_dp_report(separation_costs(g))

    @LARGER_GRAPHS
    def test_matches_table_dp_on_larger_graphs(self, g):
        assert report_tuple(pathwidth_exact(g)) == table_dp_report(separation_costs(g))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_boundary_equals_per_vertex_scan(n):
    g = random_graph(n, 0.4, n)
    boundary = _boundary(adjacency_masks(g))
    for s in range(1 << n):
        scan = sum(1 << v for v in range(n)
                   if s >> v & 1 and any(not s >> w & 1 for w in neighbours(g, v)))
        assert boundary(s) == scan


class TestSandwich:
    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=6))
    def test_pathwidth_bounds_matching_width(self, g):
        mw = matching_width_exact(g).value
        pw = pathwidth_exact(g).value
        assert pw <= 2 * mw  # i.e. pw/2 <= mw
        assert mw <= pw + 1


class TestSettledCovers:
    def test_chain_length(self):
        g = path_graph(5)
        chain = settled_vertex_covers(g, Ordering.make(range(5)))
        assert len(chain) == 4

    def test_covers_are_minimum(self, corpus):
        for seed, g in corpus[:60]:
            sv = Ordering.make(range(g.n))
            chain = settled_vertex_covers(g, sv)
            for i, vc in enumerate(chain, start=1):
                c = cut_graph(g, sv, i)
                assert all(vc >> u & 1 or vc >> v & 1 for u, v in cut_edges(c))
                assert vc.bit_count() == len(max_bipartite_matching(c))

    def test_suffix_side_carries_over(self, corpus):
        for seed, g in corpus[:60]:
            sv = Ordering.make(range(g.n))
            chain = settled_vertex_covers(g, sv)
            for i in range(1, len(chain)):
                carried = chain[i - 1] & sum(1 << v for v in sv.seq[i + 1 :])
                assert carried & ~chain[i] == 0

    @settings(deadline=None, max_examples=200)
    @given(graphs_with_ordering(max_n=12))
    def test_covers_match_the_frozenset_chain(self, gsv):
        g, sv = gsv
        chain = settled_vertex_covers(g, sv)
        assert [set(iter_bits(vc)) for vc in chain] == frozenset_settled_covers(g, sv)

    def test_one_matching_per_cut(self, monkeypatch):
        calls = []
        real = width.max_bipartite_matching
        monkeypatch.setattr(width, "max_bipartite_matching", lambda c: calls.append(c) or real(c))
        g = grid_graph(4, 5)
        settled_vertex_covers(g, Ordering.make(range(g.n)))
        assert len(calls) == g.n - 1

    def test_carry_that_covers_the_whole_cut(self):
        # Star centred at 0, placed fourth: the cover of cut 2 is {0}, and 0
        # meets every edge of cut 3, so carrying it leaves an empty residual.
        g = Graph.make(5, [(0, v) for v in range(1, 5)])
        sv = Ordering.make([1, 2, 3, 0, 4])
        chain = settled_vertex_covers(g, sv)
        assert [set(iter_bits(vc)) for vc in chain] == [{1}, {0}, {0}, {0}]
        assert min_vc_containing(cut_graph(g, sv, 3), 1 << 0) == 1 << 0

    def test_min_vc_containing_reports_minimality(self):
        g = path_graph(4)
        c = cut_graph(g, Ordering.make(range(4)), 2)
        cover = min_vc_containing(c, 0)
        assert cover.bit_count() == 1 == len(max_bipartite_matching(c))
        # forcing both cut endpoints into the cover makes it non-minimum
        cover = min_vc_containing(c, 1 << 1 | 1 << 2)
        assert cover == 1 << 1 | 1 << 2 and cover.bit_count() > len(max_bipartite_matching(c))

    def test_min_vc_containing_drops_required_left_vertices(self):
        # Left {0, 1}, right {2}: with 0 required, 1-2 is the rest of the
        # cut, and 0's own edge must not put 2 in the cover instead of 1.
        g = Graph.make(3, [(0, 2), (1, 2)])
        c = cut_graph(g, Ordering.make(range(3)), 2)
        assert min_vc_containing(c, 1 << 0) == 1 << 0 | 1 << 1

    def test_min_vc_containing_rejects_foreign_vertices(self):
        g = path_graph(4)
        c = cut_graph(g, Ordering.make(range(4)), 2)
        with pytest.raises(InputError):
            min_vc_containing(c, 1 << 9)


def test_random_graph_seeds_are_reproducible():
    assert random_graph(8, 0.4, 7) == random_graph(8, 0.4, 7)
    assert random_graph(8, 0.4, 7) != random_graph(8, 0.4, 8)
