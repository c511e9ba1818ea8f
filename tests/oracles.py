"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive: enumeration over edge subsets,
vertex subsets, whole permutations or all root-leaf edge sequences.  None
of it shares code with the library beyond the Graph container,
Cnf.evaluate and the path order ComputationalPath.sort_key.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from widthlab.bprog import ComputationalPath
from widthlab.graph import Graph


def brute_max_matching(edges) -> int:
    """Maximum matching size by branching over every edge."""
    edges = list(edges)

    def go(i: int, used: frozenset) -> int:
        if i == len(edges):
            return 0
        best = go(i + 1, used)
        u, v = edges[i]
        if u not in used and v not in used:
            best = max(best, 1 + go(i + 1, used | {u, v}))
        return best

    return go(0, frozenset())


def brute_min_vertex_cover(edges) -> int:
    """Minimum vertex cover size by enumerating subsets ascending by size."""
    edges = list(edges)
    verts = sorted({v for e in edges for v in e})
    for size in range(len(verts) + 1):
        for sub in combinations(verts, size):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return size
    return 0


def crossing_edges(g: Graph, left: set[int]) -> list[tuple[int, int]]:
    return [e for e in g.sorted_edges() if (e[0] in left) != (e[1] in left)]


def brute_matching_width(g: Graph) -> tuple[int, tuple[int, ...]]:
    """min over all n! orderings of max over prefixes of the cut matching,
    with the lexicographically smallest optimal ordering."""
    n = g.n
    nu: dict[frozenset, int] = {}

    def cut_nu(left: frozenset) -> int:
        if left not in nu:
            nu[left] = brute_max_matching(crossing_edges(g, left))
        return nu[left]

    best = None
    for perm in permutations(range(n)):
        worst = 0
        for i in range(1, n):
            worst = max(worst, cut_nu(frozenset(perm[:i])))
            if best is not None and worst >= best[0]:
                break
        if best is None or worst < best[0]:
            best = (worst, perm)
    return best


def brute_pathwidth(g: Graph) -> tuple[int, tuple[int, ...]]:
    """min over all n! layouts of the max vertex-separation boundary, with
    the lexicographically smallest optimal layout."""
    best = None
    for perm in permutations(range(g.n)):
        worst = 0
        placed: set[int] = set()
        for v in perm:
            placed.add(v)
            boundary = sum(
                1 for u in placed if any(w not in placed for w in g.neighbors(u))
            )
            worst = max(worst, boundary)
        if best is None or worst < best[0]:
            best = (worst, perm)
    # Boundary of the full set is 0 but every bag also holds the new vertex,
    # so pathwidth is the max boundary taken just before each placement.
    return best


def brute_pathwidth_bags(g: Graph) -> int:
    """Pathwidth as min over layouts of max |boundary before v| over placements."""
    n = g.n
    if n == 0:
        return -1
    best = None
    for perm in permutations(range(n)):
        worst = 0
        for i in range(n):
            prefix = set(perm[:i])
            boundary = {
                u for u in prefix if any(w not in prefix for w in g.neighbors(u))
            }
            worst = max(worst, len(boundary | {perm[i]}) - 1)
        if best is None or worst < best:
            best = worst
    return best


def brute_prefix_set_dp(cost, combine) -> tuple[int, tuple[int, ...]]:
    """min over all n! orderings of cost folded by combine (max or +) over
    the ordering's prefix sets 1..n, starting from 0, with the
    lexicographically smallest optimal ordering; len(cost) == 2^n."""
    n = (len(cost) - 1).bit_length()
    best = None
    for perm in permutations(range(n)):
        total, placed = 0, 0
        for v in perm:
            placed |= 1 << v
            total = combine(total, cost[placed])
        if best is None or total < best[0]:
            best = (total, perm)
    return best


def brute_min_segments(positions) -> int:
    """Minimum partition into contiguous strictly-increasing runs (DP)."""
    n = len(positions)
    if n == 0:
        return 1
    INF = n + 1
    best = [INF] * (n + 1)
    best[0] = 0
    for end in range(1, n + 1):
        for start in range(end):
            run = positions[start:end]
            if all(run[j] < run[j + 1] for j in range(len(run) - 1)):
                best[end] = min(best[end], best[start] + 1)
    return best[n]


def clause_scan_satisfies(f, assignment) -> bool:
    """Literal-by-literal clause scan, written independently of Cnf.evaluate."""
    for clause in f.clauses:
        hit = False
        for lit in clause:
            val = assignment[lit.var]
            if (val and lit.positive) or (not val and not lit.positive):
                hit = True
                break
        if not hit:
            return False
    return True


def brute_subfunction_count(f, subset) -> int:
    """Distinct non-constant residuals of f over the assignments of subset,
    each residual tabulated by evaluating f on every completion."""
    subset = list(subset)
    rest = [v for v in range(f.num_vars) if v not in subset]
    residuals = set()
    for fixed in product((False, True), repeat=len(subset)):
        table = []
        for free in product((False, True), repeat=len(rest)):
            assignment = [False] * f.num_vars
            for v, value in zip(subset, fixed):
                assignment[v] = value
            for v, value in zip(rest, free):
                assignment[v] = value
            table.append(f.evaluate(assignment))
        if any(table) and not all(table):
            residuals.add(tuple(table))
    return len(residuals)


def brute_min_obdd(f) -> tuple[int, tuple[int, ...]]:
    """Minimum OBDD size over all m! variable orders, with the
    lexicographically smallest optimal order.  An order's size is the two
    terminals plus, per level, the residual count of the variables before it."""
    counts: dict[frozenset, int] = {}

    def count(prefix) -> int:
        key = frozenset(prefix)
        if key not in counts:
            counts[key] = brute_subfunction_count(f, sorted(key))
        return counts[key]

    best = None
    for perm in permutations(range(f.num_vars)):
        size = 2 + sum(count(perm[:i]) for i in range(f.num_vars))
        if best is None or size < best[0]:
            best = (size, perm)
    return best


def brute_truth_table(f, order) -> list[bool]:
    """f evaluated on every assignment; in entry i, order[j] takes bit j of
    i counted from the most significant of len(order) bits."""
    m = len(order)
    table = []
    for i in range(1 << m):
        assignment = [False] * f.num_vars
        for j, v in enumerate(order):
            assignment[v] = bool((i >> (m - 1 - j)) & 1)
        table.append(f.evaluate(assignment))
    return table


def recursive_kuhn_pairs(edges) -> frozenset:
    """Kuhn's augmenting-path matching of oriented (left, right) edges, by
    plain recursion: left vertices ascending, each search trying neighbours
    in ascending order with a fresh visited set."""
    adj: dict = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
    match_right: dict = {}

    def augment(u, visited) -> bool:
        for v in adj[u]:
            if v not in visited:
                visited.add(v)
                if v not in match_right or augment(match_right[v], visited):
                    match_right[v] = u
                    return True
        return False

    for u in sorted(adj):
        augment(u, set())
    return frozenset((u, v) for v, u in match_right.items())


def brute_validate_decomposition(g: Graph, bags, tree_edges) -> tuple:
    """(valid, failed_property, witness) of a well-formed tree decomposition,
    scanning every bag once per vertex and once per edge: union and
    connectedness by ascending vertex, containment in sorted edge order."""
    nbrs: list[list[int]] = [[] for _ in bags]
    for a, b in tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    covered = set().union(*bags) if bags else set()
    for v in g.vertices():
        if v not in covered:
            return (False, "union", (v,))
    for u, v in g.sorted_edges():
        if not any(u in bag and v in bag for bag in bags):
            return (False, "containment", (u, v))
    for v in g.vertices():
        holding = [i for i, bag in enumerate(bags) if v in bag]
        seen = {holding[0]}
        stack = [holding[0]]
        holding_set = set(holding)
        while stack:
            for b in nbrs[stack.pop()]:
                if b in holding_set and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if seen != holding_set:
            return (False, "connectedness", (v,))
    return (True, None, None)


def brute_computational_paths(z) -> list[tuple[tuple, frozenset]]:
    """(edges, literal set) of every root-leaf edge sequence that reads no
    variable with both signs, by plain recursion over out-edges; a sequence
    ends when it first reaches the leaf.  The literal set is the edges'
    labels, and the list is sorted by ComputationalPath.sort_key."""
    found = []

    def walk(node: int, edges: tuple) -> None:
        if node == z.leaf:
            labels = frozenset(e.label for e in edges if e.label is not None)
            if len({l.var for l in labels}) == len(labels):
                found.append(edges)
            return
        for e in z.edges:
            if e.tail == node:
                walk(e.head, edges + (e,))

    walk(z.root, ())
    found.sort(key=lambda edges: ComputationalPath(edges).sort_key())
    return [
        (edges, frozenset(e.label for e in edges if e.label is not None))
        for edges in found
    ]
