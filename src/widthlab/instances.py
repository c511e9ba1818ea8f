"""Instance generators: binary trees, clique-blown trees, graph CNFs, primal
graphs and the small test-graph corpus.

The CNF of a graph has one all-positive 3-clause per edge over a vertex
variable per vertex and an edge variable per edge.  Vertex u is variable
u, and an edge's variable is `g.n` plus the edge's position in `g.edges`,
the graph's one sorted edge order, so serialized output is reproducible.

A `Cnf` is its variable count and clauses.  A clause is a tuple of DIMACS
signed ints sorted by variable: `v + 1` is variable v and `-(v + 1)` its
negation, the form a `BranchingProgram` labels its edges with.  Variable
names live only in the DIMACS writer, as `c var` comments
(`graph_cnf_names` gives a graph CNF's); the reader skips every `c` line, so
parsing builds nothing per declared variable.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import FormatError, InputError, int_token, read_records
from .graph import Graph

# --- CNFs ---


@dataclass(frozen=True)
class Cnf:
    """A CNF over variables 0..num_vars-1: the count and the clauses only."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(num_vars: int, clauses: Iterable[Iterable[int]]) -> "Cnf":
        """Each clause without duplicate literals and sorted by variable."""
        normed = []
        for clause in clauses:
            present = set(clause)
            lits = tuple(sorted(present, key=abs))
            for s in lits:
                if not 0 < abs(s) <= num_vars:
                    raise InputError(f"literal {s} names no variable in 1..{num_vars}")
                if -s in present:
                    raise InputError(f"clause holds both {abs(s)} and {-abs(s)}")
            normed.append(lits)
        return Cnf(num_vars, tuple(normed))

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise InputError("assignment length does not match variable count")
        return all(
            any(assignment[abs(s) - 1] == (s > 0) for s in clause) for clause in self.clauses
        )


# --- generators ---


def complete_binary_tree(r: int) -> Graph:
    """Complete binary tree of height r, heap-numbered (children of i are
    2i+1 and 2i+2); 2**(r+1)-1 nodes."""
    if r < 0:
        raise InputError(f"height must be non-negative, got {r}")
    n = (1 << (r + 1)) - 1
    edges = [((i - 1) // 2, i) for i in range(1, n)]
    return Graph.make(n, edges)


def ct_graph(r: int, k: int) -> Graph:
    """Tree of height r with each node blown up into a k-clique and the
    cliques of adjacent nodes fully joined.  Clique member j of node a is
    vertex a*k + j."""
    if k < 1:
        raise InputError(f"clique size must be positive, got {k}")
    tree = complete_binary_tree(r)
    nodes = tree.n
    edges: list[tuple[int, int]] = []
    for a in range(nodes):
        base = a * k
        edges.extend((base + i, base + j) for i in range(k) for j in range(i + 1, k))
    for a, b in tree.edges:
        edges.extend((a * k + i, b * k + j) for i in range(k) for j in range(k))
    return Graph.make(nodes * k, edges)


def vertex_variable(g: Graph, u: int) -> int:
    if not 0 <= u < g.n:
        raise InputError(f"vertex {u} outside graph")
    return u


def edge_variable(g: Graph, u: int, v: int) -> int:
    e = (u, v) if u < v else (v, u)
    i = bisect_left(g.edges, e)
    if i == len(g.edges) or g.edges[i] != e:
        raise InputError(f"{e} is not an edge of the graph")
    return g.n + i


def cnf_of_graph(g: Graph) -> Cnf:
    """One clause (X_u or X_uv or X_v) per edge, all positive."""
    clauses = [(u + 1, g.n + idx + 1, v + 1) for idx, (u, v) in enumerate(g.edges)]
    return Cnf.make(g.n + len(g.edges), clauses)


def graph_cnf_names(g: Graph) -> list[str]:
    """Names of `cnf_of_graph(g)`'s variables, for `format_dimacs_cnf`."""
    names = [f"vertex {u}" for u in range(g.n)]
    names.extend(f"edge {{{u},{v}}}" for u, v in g.edges)
    return names


def f_rk(r: int, k: int) -> Cnf:
    return cnf_of_graph(ct_graph(r, k))


def f_rk_num_vars(r: int, k: int) -> int:
    """Closed form for the variable count of f_rk."""
    nodes = (1 << (r + 1)) - 1
    return nodes * (k + k * (k - 1) // 2) + (nodes - 1) * k * k


def primal_graph(f: Cnf) -> Graph:
    """Graph on the variables with edges between co-occurring pairs."""
    edges = set()
    for clause in f.clauses:
        vs = sorted({abs(s) - 1 for s in clause})
        edges.update((vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs)))
    return Graph.make(f.num_vars, edges)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs at least one vertex")
    return Graph.make(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least three vertices")
    return Graph.make(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise InputError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.make(rows * cols, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    if n < 0 or not 0.0 <= p <= 1.0:
        raise InputError(f"bad random graph parameters n={n}, p={p}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.make(n, edges)


def generate(kind: str, params: Mapping[str, object], seed: int = 0) -> Graph:
    """Dispatch to the named generator; deterministic for a fixed seed."""
    try:
        if kind == "path":
            return path_graph(int(params["n"]))
        if kind == "cycle":
            return cycle_graph(int(params["n"]))
        if kind == "grid":
            return grid_graph(int(params["rows"]), int(params["cols"]))
        if kind == "random":
            return random_graph(int(params["n"]), float(params["p"]), seed)
    except KeyError as exc:
        raise InputError(f"generator {kind!r} missing parameter {exc}") from exc
    raise InputError(f"unknown generator kind {kind!r}")


# --- DIMACS CNF format ---

DIMACS_CNF_HEADER = "c widthlab cnf format v1 (DIMACS)"


def format_dimacs_cnf(f: Cnf, names: Sequence[str] = ()) -> str:
    """DIMACS text of f.  Each of `names` is printed as a `c var` comment
    naming the variable at its position; readers skip these lines."""
    lines = [DIMACS_CNF_HEADER]
    lines.extend(f"c var {i + 1} {name}" for i, name in enumerate(names))
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in f.clauses)
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text: str) -> Cnf:
    p_line, (num_vars, declared), records = read_records(text, "p cnf", "vars clauses")
    if num_vars < 0:
        raise FormatError(f"{p_line}: negative variable count {num_vars}")
    if declared < 0:
        raise FormatError(f"{p_line}: negative clause count {declared}")
    clauses: list[tuple[int, ...]] = []
    for where, parts in records:
        ints = [int_token(p, where) for p in parts]
        if ints[-1] != 0:
            raise FormatError(f"{where}: clause must end with 0")
        signed = ints[:-1]
        present = set(signed)
        for s in signed:
            if s == 0:
                raise FormatError(f"{where}: 0 before the end of the clause")
            if abs(s) > num_vars:
                raise FormatError(f"{where}: variable {abs(s)} outside 1..{num_vars}")
            if -s in present:
                raise FormatError(f"{where}: clause holds both {s} and {-s}")
        clauses.append(tuple(sorted(present, key=abs)))  # as `Cnf.make` normalises
    if len(clauses) != declared:
        raise FormatError(f"{p_line}: declares {declared} clauses, found {len(clauses)}")
    return Cnf(num_vars, tuple(clauses))
