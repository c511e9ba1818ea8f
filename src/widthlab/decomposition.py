"""Tree decompositions: validity checking, the clique-blown-tree
decomposition and both constructive conversions between vertex orderings
and path decompositions, which are tree decompositions in path form: tree
edges (i, i + 1) in bag order, as `TreeDecomposition.path` builds them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormatError, InputError, int_token, read_records
from .graph import Graph, Ordering, adjacency_masks, iter_bits
from .instances import ct_graph, cnf_of_graph, edge_variable, primal_graph
from .width import (
    DEFAULT_SUBSET_DP_CAP,
    _boundary,
    pathwidth_exact,
    settled_vertex_covers,
)


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by tree node; tree given as an edge list on bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @classmethod
    def path(cls, bags: Iterable[frozenset[int]]) -> TreeDecomposition:
        """The path decomposition with these bags: tree edges (i, i + 1)."""
        bags = tuple(bags)
        return cls(bags, tuple((i, i + 1) for i in range(len(bags) - 1)))

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


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


def validate_decomposition(g: Graph, td: TreeDecomposition) -> ValidationResult:
    """Check the union, containment and connectedness properties.

    Returns the first violated property with a witness vertex or edge; a
    foreign vertex in a bag is a malformed input, not a verdict.  One pass
    over the bags gives each vertex the ascending list of bags holding it,
    and one over the tree edges counts, per vertex, the edges whose two bags
    both hold it.  The checks read only those: vertices in ascending order
    for union and connectedness, edges in `g.edges` order for containment.
    """
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
    for u, v in g.edges:
        if set(holding[u]).isdisjoint(holding[v]):
            return ValidationResult(False, "containment", (u, v))
    # The tree is connected and acyclic, so the bags holding v, with the
    # inner[v] tree edges between two of them, form a forest of
    # len(holding[v]) - inner[v] trees.
    inner = [0] * g.n
    for a, b in td.tree_edges:
        for v in td.bags[a] & td.bags[b]:
            inner[v] += 1
    for v in g.vertices():
        if len(holding[v]) - inner[v] != 1:
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
    for u, v in g.edges:
        a, b = u // k, v // k
        attach = a if a == b else max(a, b)  # the child holds both cliques
        ext_bags.append(frozenset({edge_variable(g, u, v), u, v}))
        ext_edges.append((attach, len(ext_bags) - 1))
    extended = TreeDecomposition(tuple(ext_bags), tuple(ext_edges))
    return CtreeDecompositions(base=base, extended=extended)


def ordering_from_path_decomposition(g: Graph, td: TreeDecomposition) -> Ordering:
    """Order vertices by first bag of appearance along the path, ties by
    vertex id; the tree must be path-shaped, its bags in any order.

    The matching width of the result is at most width(td) + 1.
    """
    pd = as_path_decomposition(td)
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


def path_decomposition_from_ordering(g: Graph, sv: Ordering) -> TreeDecomposition:
    """Bags from the settled cover chain: bag i holds the covers of the
    cuts on both sides of position i plus the vertex placed there.

    The width is at most twice the ordering's matching width.
    """
    covers = (0, *settled_vertex_covers(g, sv), 0)
    return TreeDecomposition.path(
        frozenset(iter_bits(covers[i] | covers[i + 1] | 1 << v)) for i, v in enumerate(sv.seq)
    )


def optimal_path_decomposition(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> TreeDecomposition:
    """A minimum-width path decomposition, built from an optimal vertex
    separation layout: bag i holds the i-th vertex plus the earlier
    vertices that still have a neighbor outside the first i-1."""
    report = pathwidth_exact(g, cap=cap)
    boundary = _boundary(adjacency_masks(g))
    bags = []
    prefix = 0
    for v in report.witness_ordering.seq:
        bags.append(frozenset(iter_bits(boundary(prefix) | 1 << v)))
        prefix |= 1 << v
    return TreeDecomposition.path(bags)


# --- PACE-style decomposition text format ---

PACE_HEADER = "c widthlab decomposition format v1 (PACE td)"


def format_pace(td: TreeDecomposition, n: int) -> str:
    width_plus_1 = max((len(b) for b in td.bags), default=0)
    lines = [PACE_HEADER, f"s td {len(td.bags)} {width_plus_1} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    lines.extend(f"{a + 1} {b + 1}" for a, b in td.tree_edges)
    return "\n".join(lines) + "\n"


def parse_pace(text: str) -> tuple[TreeDecomposition, int]:
    """Returns the decomposition and the declared host-graph vertex count.

    The `s td` line's sizes are checked: the bag ids, of bags and of tree
    edges, must be in 1..<bags>, every bag vertex in 1..<n>, and <width+1>
    must be the largest bag's size.  No tree edge is a loop or repeated."""
    _, (num_bags, width_plus_1, n), records = read_records(
        text, "s td", "<bags> <width+1> <n>"
    )
    bags: dict[int, frozenset[int]] = {}
    edges: dict[tuple[int, int], tuple[int, int]] = {}  # (low, high) -> the edge as written
    for where, parts in records:
        if parts[0] == "b":
            if len(parts) < 2:
                raise FormatError(f"{where}: expected 'b <bag id> <vertices>'")
            bid = int_token(parts[1], where)
            if not 0 < bid <= num_bags:
                raise FormatError(f"{where}: bag {bid} outside 1..{num_bags}")
            if bid - 1 in bags:
                raise FormatError(f"{where}: duplicate bag {bid}")
            bag = frozenset(int_token(p, where) - 1 for p in parts[2:])
            if bag and not (min(bag) >= 0 and max(bag) < n):
                raise FormatError(f"{where}: bag {bid} has a vertex outside 1..{n}")
            bags[bid - 1] = bag
        elif len(parts) == 2:
            a, b = int_token(parts[0], where), int_token(parts[1], where)
            if not (0 < a <= num_bags and 0 < b <= num_bags):
                bad = b if 0 < a <= num_bags else a
                raise FormatError(f"{where}: bag {bad} outside 1..{num_bags}")
            if a == b:
                raise FormatError(f"{where}: self-loop at bag {a}")
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise FormatError(f"{where}: duplicate tree edge '{a} {b}'")
            edges[key] = (a - 1, b - 1)
        else:
            raise FormatError(f"{where}: unrecognized line {' '.join(parts)!r}")
    if len(bags) != num_bags:
        raise FormatError("bag ids do not cover 1..<declared bag count>")
    largest = max(map(len, bags.values()), default=0)
    if width_plus_1 != largest:
        raise FormatError(
            f"declared width+1 is {width_plus_1}, but the largest bag has {largest} vertices"
        )
    td = TreeDecomposition(tuple(bags[i] for i in range(num_bags)), tuple(edges.values()))
    return td, n


def as_path_decomposition(td: TreeDecomposition) -> TreeDecomposition:
    """A path-shaped tree decomposition in path form, walked from its end of
    lower bag index; one already in path form comes back unchanged."""
    m = len(td.bags)
    nbrs = _tree_neighbors(m, td.tree_edges)
    ends = [i for i, ns in enumerate(nbrs) if len(ns) < 2]
    if len(ends) != min(m, 2) or any(len(ns) > 2 for ns in nbrs):
        raise InputError("decomposition tree is not a path")
    order, prev = ends[:1], None
    while len(order) < m:
        nxt = [b for b in nbrs[order[-1]] if b != prev]
        if not nxt:
            raise InputError("decomposition tree is not a path")
        prev = order[-1]
        order.append(nxt[0])
    return TreeDecomposition.path(td.bags[i] for i in order)


def ctree_primal_graph(r: int, k: int) -> Graph:
    """Primal graph of the CNF of the clique-blown tree (for validation)."""
    return primal_graph(cnf_of_graph(ct_graph(r, k)))
