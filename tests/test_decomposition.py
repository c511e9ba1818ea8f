from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from widthlab.errors import FormatError, InputError
from widthlab.graph import Graph, Ordering
from widthlab.instances import ct_graph, cycle_graph, path_graph
from widthlab.decomposition import (
    TreeDecomposition,
    as_path_decomposition,
    ctree_decomposition,
    ctree_primal_graph,
    format_pace,
    ordering_from_path_decomposition,
    parse_pace,
    path_decomposition_from_ordering,
    validate_decomposition,
)
from widthlab.width import matching_width_exact, mw_of_ordering, pathwidth_exact

from oracles import brute_validate_decomposition, neighbours, optimal_path_decomposition


def fs(*verts):
    return frozenset(verts)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph.make(n, edges)


def layout_bags(g, order):
    """Path-shaped: bag i holds order[i] and the earlier vertices that have a
    neighbour at position i or later."""
    pos = {v: i for i, v in enumerate(order)}
    last = {u: max([pos[u]] + [pos[w] for w in neighbours(g, u)]) for u in order}
    return [
        frozenset(u for u in order[: i + 1] if u == v or last[u] >= i)
        for i, v in enumerate(order)
    ]


def elimination_bags(g, order):
    """Tree-shaped: eliminating order[i] gives bag i, the vertex and its later
    neighbours in the filled graph, hung below the bag of the earliest of
    those neighbours (or of order[i + 1] when it has none)."""
    pos = {v: i for i, v in enumerate(order)}
    nbrs = {v: neighbours(g, v) for v in order}
    bags, tree = [], []
    for i, v in enumerate(order):
        later = {u for u in nbrs[v] if pos[u] > i}
        for u in later:
            nbrs[u] |= later - {u}
        bags.append(frozenset(later | {v}))
        if later:
            tree.append((pos[min(later, key=pos.get)], i))
        elif i + 1 < len(order):
            tree.append((i + 1, i))
    return bags, tree


@st.composite
def decompositions(draw):
    """A graph with a valid path- or tree-shaped decomposition, either left
    valid or broken one of three ways: a vertex dropped from every bag, an
    edge left uncovered, or a vertex's occurrences split in two by a new
    leaf bag holding it."""
    g = draw(graphs())
    order = draw(st.permutations(range(g.n)))
    path_shaped = draw(st.booleans())
    if path_shaped:
        bags, tree = layout_bags(g, order), []
    else:
        bags, tree = elimination_bags(g, order)
    damage = draw(st.sampled_from(["none", "drop", "uncover", "split"]))
    if damage == "drop":
        x = draw(st.sampled_from(range(g.n)))
        bags = [bag - {x} for bag in bags]
    elif damage == "uncover" and g.edges:
        u, v = draw(st.sampled_from(g.edges))
        bags = [bag - {v} if u in bag else bag for bag in bags]
    elif damage == "split":
        x = draw(st.sampled_from(range(g.n)))
        if not path_shaped:
            tree.append((draw(st.sampled_from(range(len(bags)))), len(bags)))
        bags.append(frozenset({x}))
    if path_shaped:
        return g, TreeDecomposition.path(tuple(bags)), damage
    return g, TreeDecomposition(tuple(bags), tuple(tree)), damage


class TestValidate:
    @settings(deadline=None, max_examples=300)
    @given(decompositions())
    def test_equals_the_brute_force_oracle(self, gd):
        g, td, damage = gd
        verdict = validate_decomposition(g, td)
        assert verdict.valid or damage != "none"
        assert (verdict.valid, verdict.failed_property, verdict.witness) == (
            brute_validate_decomposition(g, td.bags, td.tree_edges)
        )

    def test_valid_path_decomposition(self):
        g = path_graph(4)
        pd = TreeDecomposition.path((fs(0, 1), fs(1, 2), fs(2, 3)))
        assert validate_decomposition(g, pd).valid
        assert pd.width == 1

    def test_union_violation(self):
        g = Graph.make(3, [(0, 1)])
        pd = TreeDecomposition.path((fs(0, 1),))
        verdict = validate_decomposition(g, pd)
        assert not verdict.valid
        assert verdict.failed_property == "union"
        assert verdict.witness == (2,)

    def test_containment_violation(self):
        g = path_graph(3)
        pd = TreeDecomposition.path((fs(0, 1), fs(2)))
        verdict = validate_decomposition(g, pd)
        assert not verdict.valid
        assert verdict.failed_property == "containment"
        assert verdict.witness == (1, 2)

    def test_connectedness_violation(self):
        g = path_graph(3)
        pd = TreeDecomposition.path((fs(0, 1), fs(1, 2), fs(0, 2)))
        verdict = validate_decomposition(g, pd)
        assert not verdict.valid
        assert verdict.failed_property == "connectedness"
        assert verdict.witness == (0,)

    def test_foreign_vertex_is_an_input_error(self):
        g = path_graph(2)
        with pytest.raises(InputError):
            validate_decomposition(g, TreeDecomposition.path((fs(0, 1, 5),)))

    def test_disconnected_tree_is_an_input_error(self):
        g = path_graph(2)
        td = TreeDecomposition((fs(0, 1), fs(0, 1), fs(0, 1)), ((0, 1),))
        with pytest.raises(InputError):
            validate_decomposition(g, td)

    def test_tree_decomposition_of_a_cycle(self):
        g = cycle_graph(4)
        td = TreeDecomposition(
            (fs(0, 1, 2), fs(0, 2, 3)),
            ((0, 1),),
        )
        assert validate_decomposition(g, td).valid
        assert td.width == 2


class TestCtreeDecomposition:
    @pytest.mark.parametrize("r,k", list(product(range(4), (2, 3, 4))))
    def test_base_validates_with_tight_width(self, r, k):
        g = ct_graph(r, k)
        d = ctree_decomposition(r, k).base
        assert validate_decomposition(g, d).valid
        assert d.width == (2 * k - 1 if r > 0 else k - 1)

    @pytest.mark.parametrize("r,k", [(1, 2), (2, 2), (1, 3)])
    def test_extended_covers_the_primal_graph(self, r, k):
        primal = ctree_primal_graph(r, k)
        d = ctree_decomposition(r, k).extended
        assert validate_decomposition(primal, d).valid
        assert d.width == 2 * k - 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            ctree_decomposition(-1, 2)
        with pytest.raises(InputError):
            ctree_decomposition(1, 0)


class TestOrderingFromPd:
    def test_first_bag_order(self):
        g = path_graph(4)
        pd = TreeDecomposition.path((fs(0, 1), fs(1, 2), fs(2, 3)))
        assert ordering_from_path_decomposition(g, pd).seq == (0, 1, 2, 3)

    def test_rejects_invalid_decomposition(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            ordering_from_path_decomposition(g, TreeDecomposition.path((fs(0, 1),)))

    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=6))
    def test_mw_at_most_width_plus_one(self, g):
        pd = optimal_path_decomposition(g)
        sv = ordering_from_path_decomposition(g, pd)
        assert mw_of_ordering(g, sv).value <= pd.width + 1


class TestPdFromOrdering:
    def test_path_natural_order(self):
        g = path_graph(4)
        pd = path_decomposition_from_ordering(g, Ordering.make(range(4)))
        assert validate_decomposition(g, pd).valid
        assert pd.width <= 2  # 2 * mw of the natural order

    @pytest.mark.parametrize("n", [0, 1])
    def test_singleton_graph(self, n):
        g = Graph.make(n, [])
        pd = path_decomposition_from_ordering(g, Ordering.make(range(n)))
        assert pd.bags == tuple(fs(v) for v in range(n))

    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=6))
    def test_valid_and_width_bounded(self, g):
        report = matching_width_exact(g)
        pd = path_decomposition_from_ordering(g, report.witness_ordering)
        assert validate_decomposition(g, pd).valid
        assert pd.width <= 2 * report.value


class TestOptimalPd:
    @settings(deadline=None, max_examples=40)
    @given(graphs(max_n=6))
    def test_width_equals_pathwidth(self, g):
        pd = optimal_path_decomposition(g)
        assert validate_decomposition(g, pd).valid
        assert pd.width == pathwidth_exact(g).value


# A path tree with its bags out of path order, and a star of four bags.
OUT_OF_ORDER = TreeDecomposition((fs(1, 2), fs(0, 1), fs(2, 3)), ((1, 0), (0, 2)))
STAR = TreeDecomposition((fs(0), fs(0), fs(0), fs(0)), ((0, 1), (0, 2), (0, 3)))


class TestPaceFormat:
    def test_format_known(self):
        pd = TreeDecomposition.path((fs(0, 1), fs(1, 2)))
        assert format_pace(pd, 3) == (
            "c widthlab decomposition format v1 (PACE td)\n"
            "s td 2 2 3\n"
            "b 1 1 2\n"
            "b 2 2 3\n"
            "1 2\n"
        )

    def test_round_trip(self):
        d = ctree_decomposition(2, 2).extended
        n = ctree_primal_graph(2, 2).n
        td, parsed_n = parse_pace(format_pace(d, n))
        assert td == d and parsed_n == n

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no solution line
            "b 1 1\ns td 1 1 1\n",  # bag before solution line
            "s td 1 1 1\ns td 1 1 1\n",  # duplicate solution line
            "s td 2 1 1\nb 1 1\n",  # missing bag 2
            "s td 1 1 1\nb 1 1\nb 1 1\n",  # duplicate bag
            "s td 1 1 1\nnope\n",  # junk line
            "s td 1 99 2\nb 1 1 2 3 4\n",  # bag vertices beyond the declared n
            "s td 1 2 4\nb 1 0 1\n",  # bag vertex 0
            "s td 1 99 4\nb 1 1 2 3 4\n",  # declared width+1 is not the largest bag
            "s td 0 1 4\n",  # declared width+1 of no bags
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(FormatError):
            parse_pace(text)

    def test_as_path_decomposition_orders_bags(self):
        pd = as_path_decomposition(OUT_OF_ORDER)
        assert pd == TreeDecomposition.path((fs(0, 1), fs(1, 2), fs(2, 3)))

    def test_as_path_decomposition_rejects_stars(self):
        with pytest.raises(InputError):
            as_path_decomposition(STAR)

    @settings(deadline=None, max_examples=40)
    @given(decompositions())
    def test_as_path_decomposition_is_idempotent(self, gd):
        _, td, _ = gd
        try:
            pd = as_path_decomposition(td)
        except InputError:
            return
        assert as_path_decomposition(pd) == pd
        assert pd.tree_edges == TreeDecomposition.path(pd.bags).tree_edges
        assert sorted(pd.bags, key=sorted) == sorted(td.bags, key=sorted)


class TestOrderingFromPathShapedTree:
    def test_orders_the_bags_itself(self):
        g = path_graph(4)
        sv = ordering_from_path_decomposition(g, OUT_OF_ORDER)
        assert sv == ordering_from_path_decomposition(g, as_path_decomposition(OUT_OF_ORDER))
        assert sv.seq == (0, 1, 2, 3)

    def test_star_is_an_input_error(self):
        with pytest.raises(InputError, match="not a path"):
            ordering_from_path_decomposition(Graph.make(1, []), STAR)
