import pytest
from hypothesis import given, settings, strategies as st

from widthlab.errors import FormatError, InputError
from widthlab.graph import (
    CutGraph,
    Graph,
    Ordering,
    adjacency_masks,
    cut_graph,
    format_dimacs_graph,
    iter_bits,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
    parse_dimacs_graph,
)

from oracles import (
    brute_max_matching,
    brute_min_vertex_cover,
    brute_prefix_set_dp,
    crossing_edges,
    cut_edges,
    konig_cover,
    recursive_kuhn_pairs,
    table_minimax,
)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph.make(n, edges)


@st.composite
def graphs_with_ordering(draw, max_n=7):
    g = draw(graphs(max_n=max_n))
    seq = draw(st.permutations(list(range(g.n))))
    return g, Ordering.make(seq)


class TestGraphMake:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.make(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            Graph.make(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph.make(3, [(0, 3)])

    def test_rejects_negative_n(self):
        with pytest.raises(InputError):
            Graph.make(-1, [])


class TestGraphHash:
    def test_equal_graphs_share_one_adjacency_entry(self):
        a = Graph.make(5, [(0, 4), (1, 2), (3, 4)])
        b = Graph.make(5, [(4, 3), (2, 1), (4, 0)])
        assert a is not b and a == b and hash(a) == hash(b)
        adjacency_masks.cache_clear()
        adjacency_masks(a)
        assert adjacency_masks(b) is adjacency_masks(a)
        info = adjacency_masks.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)

    def test_hash_is_fixed_at_first_use(self):
        g = Graph.make(3, [(0, 1)])
        h = hash(g)
        object.__setattr__(g, "edges", ((0, 1), (1, 2)))
        assert hash(g) == h
        assert hash(Graph.make(3, [(0, 1), (1, 2)])) != h


class TestOrdering:
    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            Ordering.make([0, 0, 1])
        with pytest.raises(InputError):
            Ordering.make([1, 2, 3])


class TestCutGraph:
    def test_p4_middle_cut(self):
        # P_4 split as {0,1} vs {2,3}: the one crossing edge is 1-2.
        g = Graph.make(4, [(0, 1), (1, 2), (2, 3)])
        c = cut_graph(g, Ordering.make([0, 1, 2, 3]), 2)
        assert c.left == 0b0011
        assert c.right == 0b1100
        assert c.nbrs == {1: 1 << 2}

    def test_orientation_follows_prefix(self):
        g = Graph.make(3, [(0, 2)])
        c = cut_graph(g, Ordering.make([2, 1, 0]), 1)
        assert c.nbrs == {2: 1 << 0}

    @settings(deadline=None)
    @given(graphs_with_ordering())
    def test_matches_the_edge_scan(self, gsv):
        g, sv = gsv
        for i in range(1, g.n):
            c = cut_graph(g, sv, i)
            left = set(sv.seq[:i])
            assert c.left == sum(1 << v for v in left)
            assert c.right == sum(1 << v for v in sv.seq[i:])
            assert cut_edges(c) == {
                (u, v) if u in left else (v, u) for u, v in crossing_edges(g, left)
            }
            assert all(c.nbrs.values())

    def test_rejects_bad_prefix_length(self):
        g = Graph.make(3, [(0, 1)])
        sv = Ordering.make([0, 1, 2])
        for i in (0, 3, -1):
            with pytest.raises(InputError):
                cut_graph(g, sv, i)

    def test_rejects_mismatched_ordering(self):
        g = Graph.make(3, [(0, 1)])
        with pytest.raises(InputError):
            cut_graph(g, Ordering.make([0, 1]), 1)


def bits(vertices) -> int:
    return sum(1 << v for v in vertices)


def cut_of_pairs(left, right, pairs) -> CutGraph:
    """The mask cut graph with the given oriented (left, right) pairs."""
    nbrs: dict[int, int] = {}
    for u, v in pairs:
        nbrs[u] = nbrs.get(u, 0) | 1 << v
    return CutGraph(bits(left), bits(right), nbrs)


class TestMatchingAndCover:
    def test_known_matching(self):
        # K_{2,2}-ish cut: left {0,1}, right {2,3}, three crossing edges.
        c = cut_of_pairs({0, 1}, {2, 3}, {(0, 2), (0, 3), (1, 2)})
        m = max_bipartite_matching(c)
        assert len(m) == 2
        cover = min_vertex_cover_bipartite(c, m)
        assert cover.bit_count() == 2

    def test_empty_cut(self):
        c = cut_of_pairs({0}, {1}, ())
        m = max_bipartite_matching(c)
        assert len(m) == 0
        assert min_vertex_cover_bipartite(c, m) == 0

    def test_left_vertex_without_crossing_edge(self):
        # P_4 cut after 0, 1, 3: vertex 0 crosses nothing; 1-2 and 3-2 cross.
        g = Graph.make(4, [(0, 1), (1, 2), (2, 3)])
        c = cut_graph(g, Ordering.make([0, 1, 3, 2]), 3)
        assert cut_edges(c) == {(1, 2), (3, 2)}
        m = max_bipartite_matching(c)
        assert m == {(1, 2)}
        assert min_vertex_cover_bipartite(c, m) == 1 << 2

    def test_deterministic(self):
        c = cut_of_pairs({0, 1, 2}, {3, 4}, {(0, 3), (1, 3), (1, 4), (2, 4)})
        assert max_bipartite_matching(c) == max_bipartite_matching(c)

    def test_long_alternating_path(self):
        # One path e0-o0-e1-...-o(k-1)-ek with e_j = j on the left and
        # o_j = 2k - j on the right: the search from ek walks the whole path.
        k = 1500
        edges = {(j, 2 * k - j) for j in range(k)} | {(j + 1, 2 * k - j) for j in range(k)}
        c = cut_of_pairs(range(k + 1), range(k + 1, 2 * k + 1), edges)
        m = max_bipartite_matching(c)
        assert m == frozenset((j, 2 * k - j) for j in range(k))

    @settings(deadline=None)
    @given(graphs_with_ordering())
    def test_matching_matches_brute_force(self, gsv):
        g, sv = gsv
        for i in range(1, g.n):
            c = cut_graph(g, sv, i)
            m = max_bipartite_matching(c)
            assert len(m) == brute_max_matching(cut_edges(c))
            # matched pairs really are disjoint cut edges
            used = set()
            for u, v in m:
                assert (u, v) in cut_edges(c)
                assert u not in used and v not in used
                used.update((u, v))

    @settings(deadline=None, max_examples=200)
    @given(graphs_with_ordering(max_n=10))
    def test_pairs_match_the_recursive_search(self, gsv):
        g, sv = gsv
        for i in range(1, g.n):
            c = cut_graph(g, sv, i)
            assert max_bipartite_matching(c) == recursive_kuhn_pairs(cut_edges(c))

    @settings(deadline=None)
    @given(graphs_with_ordering())
    def test_cover_is_minimum_and_covers(self, gsv):
        g, sv = gsv
        for i in range(1, g.n):
            c = cut_graph(g, sv, i)
            cover = min_vertex_cover_bipartite(c, max_bipartite_matching(c))
            assert all(cover >> u & 1 or cover >> v & 1 for u, v in cut_edges(c))
            assert cover.bit_count() == brute_min_vertex_cover(cut_edges(c))
            assert set(iter_bits(cover)) == konig_cover(cut_edges(c))


class TestDimacs:
    def test_format_known(self):
        g = Graph.make(3, [(0, 2), (0, 1)])
        text = format_dimacs_graph(g)
        assert text == (
            "c widthlab graph format v1 (DIMACS edge)\n"
            "p edge 3 2\n"
            "e 1 2\n"
            "e 1 3\n"
        )

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_dimacs_graph(format_dimacs_graph(g)) == g

    @given(graphs(), st.randoms(use_true_random=False))
    def test_shuffled_flipped_records_parse_as_make_builds(self, g, rnd):
        pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
        rnd.shuffle(pairs)
        text = f"p edge {g.n} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
        assert parse_dimacs_graph(text) == Graph.make(g.n, pairs)

    def test_comments_survive_parsing(self):
        g = Graph.make(2, [(0, 1)])
        text = format_dimacs_graph(g, comments=["hello world"])
        assert parse_dimacs_graph(text) == g

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no problem line
            "e 1 2\np edge 2 1\n",  # edge before header
            "p edge 2 1\np edge 2 1\n",  # duplicate header
            "p edge 2 1\ne 1\n",  # short edge line
            "p edge 2 1\nx 1 2\n",  # unknown line
            "p edge 2 1\ne 1 3\n",  # endpoint out of range
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(FormatError):
            parse_dimacs_graph(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3 9\ne 1 2\n", "line 1: declares 9 edges, found 1"),
            ("c hi\np edge 3 0\ne 1 2\n", "line 2: declares 0 edges, found 1"),
            ("p edge 3 -1\n", "line 1: negative edge count -1"),
            ("p edge 3 x\n", "line 1: expected an integer, got 'x'"),
            ("p edge -1 0\n", "line 1: negative vertex count -1"),
            ("p edge 4 2\ne 1 6\n", "line 2: vertex 6 outside 1..4"),
            ("p edge 4 2\ne 0 1\n", "line 2: vertex 0 outside 1..4"),
            ("p edge 4 2\ne 1 1\n", "line 2: self-loop at vertex 1"),
            ("p edge 4 2\ne 1 2\nc\ne 2 1\n", "line 4: duplicate edge '2 1'"),
        ],
    )
    def test_parse_error_names_the_line(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_dimacs_graph(text)
        assert str(exc.value) == message


@st.composite
def cost_tables(draw, max_n=6):
    """Prefix-set cost tables with values in 0..2 (so ties are common) and
    the full set costing 0."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    cost = draw(st.lists(st.integers(0, 2), min_size=1 << n, max_size=1 << n))
    cost[-1] = 0
    return cost


class TestPrefixSetDp:
    """The max fold is the reference table DP of the exact widths; the sum
    fold runs inside the minimum OBDD's level walk, checked in test_bprog."""

    @settings(deadline=None, max_examples=60)
    @given(cost_tables())
    @pytest.mark.parametrize("dp, fold", [(table_minimax, max)], ids=["max"])
    def test_matches_permutation_enumeration(self, dp, fold, cost):
        value, order = dp(cost)
        assert (value, order) == brute_prefix_set_dp(cost, fold)
        assert type(value) is int and all(type(v) is int for v in order)

    @pytest.mark.parametrize("dp", [table_minimax], ids=["max"])
    def test_zero_and_one_items(self, dp):
        assert dp([0]) == (0, ())
        assert dp([2, 0]) == (0, (0,))


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_adjacency_cache_stays_bounded_over_many_graphs():
    for n in range(2, 66):
        adjacency_masks(Graph.make(n, [(0, n - 1)]))
    info = adjacency_masks.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < 64
