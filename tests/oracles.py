"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive: enumeration over edge subsets,
vertex subsets or whole permutations.  None of it shares code with the
library beyond the Graph container and Cnf.evaluate.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

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


def brute_matching_width(g: Graph) -> int:
    """min over all n! orderings of max over prefixes of the cut matching."""
    n = g.n
    if n <= 1:
        return 0
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
            if best is not None and worst >= best:
                break
        if best is None or worst < best:
            best = worst
    return best


def brute_pathwidth(g: Graph) -> int:
    """min over all n! layouts of the max vertex-separation boundary."""
    n = g.n
    if n == 0:
        return 0
    best = None
    for perm in permutations(range(n)):
        worst = 0
        placed: set[int] = set()
        for i in range(n):
            placed.add(perm[i])
            boundary = sum(
                1 for u in placed if any(w not in placed for w in g.neighbors(u))
            )
            worst = max(worst, boundary)
        if best is None or worst < best:
            best = worst
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
