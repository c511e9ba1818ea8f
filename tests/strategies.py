"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from widthlab.graph import Graph


@st.composite
def graphs(draw, min_n: int, max_n: int) -> Graph:
    """A simple graph on min_n..max_n vertices, any subset of the edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.make(n, edges)


@st.composite
def graphs_with_ordering(draw, max_n: int) -> tuple[Graph, tuple[int, ...]]:
    """A graph on 0..max_n vertices with an ordering of its vertices."""
    g = draw(graphs(0, max_n))
    return g, tuple(draw(st.permutations(range(g.n))))
