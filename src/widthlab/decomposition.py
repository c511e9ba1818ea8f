"""Tree and path decompositions: validity checking, the clique-blown-tree
decomposition and both constructive conversions between vertex orderings
and path decompositions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormatError, InputError, int_token
from .graph import Graph, Ordering, adjacency_masks, iter_bits
from .instances import ct_graph, cnf_of_graph, primal_graph
from .width import (
    DEFAULT_SUBSET_DP_CAP,
    _separation_boundary,
    pathwidth_exact,
    settled_vertex_covers,
)


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by tree node; tree given as an edge list on bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class PathDecomposition:
    """Bag sequence; the underlying tree is the path over bag indices."""

    bags: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def as_tree(self) -> TreeDecomposition:
        return TreeDecomposition(
            self.bags, tuple((i, i + 1) for i in range(len(self.bags) - 1))
        )


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    failed_property: str | None = None
    witness: tuple | None = None


def _tree_neighbors(num_bags: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(num_bags)]
    for a, b in edges:
        if not (0 <= a < num_bags and 0 <= b < num_bags) or a == b:
            raise InputError(f"bad tree edge ({a},{b})")
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def validate_decomposition(
    g: Graph, d: TreeDecomposition | PathDecomposition
) -> ValidationResult:
    """Check the union, containment and connectedness properties.

    Returns the first violated property with a witness vertex or edge; a
    foreign vertex in a bag is a malformed input, not a verdict.  One pass
    over the bags gives each vertex the ascending list of bags holding it;
    the checks then read only those lists: vertices in ascending order for
    union and connectedness, edges in `sorted_edges` order for containment.
    """
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    holding: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                raise InputError(f"bag contains foreign vertex {v}")
            holding[v].append(i)
    nbrs = _tree_neighbors(len(td.bags), td.tree_edges)
    if len(td.bags) > 0:
        # The tree itself must be connected and acyclic.
        if len(td.tree_edges) != len(td.bags) - 1:
            raise InputError("tree edge count does not match a tree")
        seen = {0}
        stack = [0]
        while stack:
            for b in nbrs[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) != len(td.bags):
            raise InputError("decomposition tree is disconnected")

    for v in g.vertices():
        if not holding[v]:
            return ValidationResult(False, "union", (v,))
    for u, v in g.sorted_edges():
        if set(holding[u]).isdisjoint(holding[v]):
            return ValidationResult(False, "containment", (u, v))
    for v in g.vertices():
        held = set(holding[v])
        seen = {holding[v][0]}
        stack = [holding[v][0]]
        while stack:
            for b in nbrs[stack.pop()]:
                if b in held and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if seen != held:
            return ValidationResult(False, "connectedness", (v,))
    return ValidationResult(True)


@dataclass(frozen=True)
class CtreeDecompositions:
    """Decomposition of the clique-blown tree plus its extension to the
    primal graph of the corresponding CNF."""

    base: TreeDecomposition
    extended: TreeDecomposition


def ctree_decomposition(r: int, k: int) -> CtreeDecompositions:
    """Decompose ct_graph(r, k) along its underlying tree.

    The root bag holds its own clique (size k); every other bag also holds
    the parent clique (size 2k).  The extension adds, per edge of the
    blown-up graph, a size-3 bag holding the edge variable and the edge's
    ends, yielding a decomposition of the primal graph of f_rk(r, k).
    """
    if r < 0 or k < 1:
        raise InputError(f"bad parameters r={r}, k={k}")
    g = ct_graph(r, k)
    nodes = (1 << (r + 1)) - 1
    clique = [frozenset(range(a * k, (a + 1) * k)) for a in range(nodes)]
    bags = [clique[0]]
    tree_edges = []
    for a in range(1, nodes):
        parent = (a - 1) // 2
        bags.append(clique[a] | clique[parent])
        tree_edges.append((parent, a))
    base = TreeDecomposition(tuple(bags), tuple(tree_edges))

    ext_bags = list(bags)
    ext_edges = list(tree_edges)
    for idx, (u, v) in enumerate(g.sorted_edges()):
        evar = g.n + idx
        a, b = u // k, v // k
        attach = a if a == b else max(a, b)  # the child holds both cliques
        ext_bags.append(frozenset({evar, u, v}))
        ext_edges.append((attach, len(ext_bags) - 1))
    extended = TreeDecomposition(tuple(ext_bags), tuple(ext_edges))
    return CtreeDecompositions(base=base, extended=extended)


def ordering_from_path_decomposition(g: Graph, pd: PathDecomposition) -> Ordering:
    """Order vertices by first bag of appearance, ties by vertex id.

    The matching width of the result is at most width(pd) + 1.
    """
    verdict = validate_decomposition(g, pd)
    if not verdict.valid:
        raise InputError(
            f"invalid path decomposition: {verdict.failed_property} "
            f"violated at {verdict.witness}"
        )
    first = {}
    for i, bag in enumerate(pd.bags):
        for v in bag:
            first.setdefault(v, i)
    return Ordering.make(sorted(g.vertices(), key=lambda v: (first[v], v)))


def path_decomposition_from_ordering(g: Graph, sv: Ordering) -> PathDecomposition:
    """Bags from the settled cover chain: bag i holds the covers of the
    cuts on both sides of position i plus the vertex placed there.

    The width is at most twice the ordering's matching width.
    """
    n = g.n
    if n == 0:
        return PathDecomposition(())
    if n == 1:
        return PathDecomposition((frozenset({sv.seq[0]}),))
    chain = settled_vertex_covers(g, sv).covers
    bags = []
    for i in range(n):
        bag = {sv.seq[i]}
        if i > 0:
            bag |= chain[i - 1].verts
        if i < n - 1:
            bag |= chain[i].verts
        bags.append(frozenset(bag))
    return PathDecomposition(tuple(bags))


def optimal_path_decomposition(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> PathDecomposition:
    """A minimum-width path decomposition, built from an optimal vertex
    separation layout: bag i holds the i-th vertex plus the earlier
    vertices that still have a neighbor outside the first i-1."""
    report = pathwidth_exact(g, cap=cap)
    adj = adjacency_masks(g)
    bags = []
    prefix = 0
    for v in report.witness_ordering.seq:
        bags.append(frozenset(iter_bits(_separation_boundary(adj, prefix) | 1 << v)))
        prefix |= 1 << v
    return PathDecomposition(tuple(bags))


# --- PACE-style decomposition text format ---

PACE_HEADER = "c widthlab decomposition format v1 (PACE td)"


def format_pace(d: TreeDecomposition | PathDecomposition, n: int) -> str:
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    width_plus_1 = max((len(b) for b in td.bags), default=0)
    lines = [PACE_HEADER, f"s td {len(td.bags)} {width_plus_1} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    lines.extend(f"{a + 1} {b + 1}" for a, b in td.tree_edges)
    return "\n".join(lines) + "\n"


def parse_pace(text: str) -> tuple[TreeDecomposition, int]:
    """Returns the decomposition and the declared host-graph vertex count."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(f"line {lineno}: expected 's td <bags> <width+1> <n>'")
            header = tuple(int_token(p, f"line {lineno}") for p in parts[2:])
        elif parts[0] == "b":
            if header is None:
                raise FormatError(f"line {lineno}: bag before solution line")
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: expected 'b <bag id> <vertices>'")
            bid = int_token(parts[1], f"line {lineno}") - 1
            if bid in bags:
                raise FormatError(f"line {lineno}: duplicate bag {bid + 1}")
            bags[bid] = frozenset(int_token(p, f"line {lineno}") - 1 for p in parts[2:])
        else:
            if header is None or len(parts) != 2:
                raise FormatError(f"line {lineno}: unrecognized line {line!r}")
            edges.append((int_token(parts[0], f"line {lineno}") - 1,
                          int_token(parts[1], f"line {lineno}") - 1))
    if header is None:
        raise FormatError("missing 's td' solution line")
    num_bags, _, n = header
    if sorted(bags) != list(range(num_bags)):
        raise FormatError("bag ids do not cover 1..<declared bag count>")
    td = TreeDecomposition(tuple(bags[i] for i in range(num_bags)), tuple(edges))
    return td, n


def as_path_decomposition(td: TreeDecomposition) -> PathDecomposition:
    """Reinterpret a path-shaped tree decomposition as a bag sequence."""
    m = len(td.bags)
    if m == 0:
        return PathDecomposition(())
    nbrs = _tree_neighbors(m, td.tree_edges)
    if any(len(ns) > 2 for ns in nbrs):
        raise InputError("decomposition tree is not a path")
    if m == 1:
        return PathDecomposition(td.bags)
    ends = [i for i, ns in enumerate(nbrs) if len(ns) == 1]
    if len(ends) != 2:
        raise InputError("decomposition tree is not a path")
    order = [min(ends)]
    prev = None
    while len(order) < m:
        nxt = [b for b in nbrs[order[-1]] if b != prev]
        if not nxt:
            raise InputError("decomposition tree is not a path")
        prev = order[-1]
        order.append(nxt[0])
    return PathDecomposition(tuple(td.bags[i] for i in order))


def ctree_primal_graph(r: int, k: int) -> Graph:
    """Primal graph of the CNF of the clique-blown tree (for validation)."""
    return primal_graph(cnf_of_graph(ct_graph(r, k)))
