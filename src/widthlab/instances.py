"""Instance generators: binary trees, clique-blown trees, graph CNFs, primal
graphs and the small test-graph corpus.

The CNF of a graph has one all-positive 3-clause per edge over a vertex
variable per vertex and an edge variable per edge.  Variable numbering is
canonical (vertex variables first, by id, then edge variables in
lexicographic endpoint order) so serialized output is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import FormatError, InputError, int_token
from .graph import Graph

# --- literals and CNFs ---


@dataclass(frozen=True, order=True)
class Literal:
    var: int
    positive: bool = True

    def negated(self) -> "Literal":
        return Literal(self.var, not self.positive)

    def signed(self) -> int:
        """DIMACS-style signed 1-based integer."""
        return self.var + 1 if self.positive else -(self.var + 1)

    @staticmethod
    def from_signed(s: int) -> "Literal":
        if s == 0:
            raise InputError("0 is not a literal")
        return Literal(abs(s) - 1, s > 0)


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[tuple[Literal, ...], ...]
    var_names: tuple[str, ...] = field(default=())

    @staticmethod
    def make(
        num_vars: int,
        clauses: Iterable[Iterable[Literal]],
        var_names: Sequence[str] | None = None,
    ) -> "Cnf":
        normed = []
        for clause in clauses:
            lits = tuple(sorted(set(clause)))
            seen = {l.var for l in lits}
            if len(seen) != len(lits):
                raise InputError(f"clause contains a variable and its negation: {lits}")
            for l in lits:
                if not 0 <= l.var < num_vars:
                    raise InputError(f"literal variable {l.var} outside 0..{num_vars - 1}")
            normed.append(lits)
        if var_names is None:
            names = tuple(f"x{i}" for i in range(num_vars))
        else:
            if len(var_names) != num_vars:
                raise InputError("var_names length does not match num_vars")
            names = tuple(var_names)
        return Cnf(num_vars, tuple(normed), names)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise InputError("assignment length does not match variable count")
        return all(
            any(assignment[l.var] == l.positive for l in clause) for clause in self.clauses
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
    for a, b in tree.sorted_edges():
        edges.extend((a * k + i, b * k + j) for i in range(k) for j in range(k))
    return Graph.make(nodes * k, edges)


def vertex_variable(g: Graph, u: int) -> int:
    if not 0 <= u < g.n:
        raise InputError(f"vertex {u} outside graph")
    return u


def edge_variable(g: Graph, u: int, v: int) -> int:
    e = (u, v) if u < v else (v, u)
    try:
        return g.n + g.sorted_edges().index(e)
    except ValueError as exc:
        raise InputError(f"{e} is not an edge of the graph") from exc


def cnf_of_graph(g: Graph) -> Cnf:
    """One clause (X_u or X_uv or X_v) per edge, all positive."""
    names = [f"vertex {u}" for u in range(g.n)]
    clauses = []
    for idx, (u, v) in enumerate(g.sorted_edges()):
        names.append(f"edge {{{u},{v}}}")
        evar = g.n + idx
        clauses.append((Literal(u), Literal(evar), Literal(v)))
    return Cnf.make(g.n + len(g.edges), clauses, names)


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
        vs = sorted({l.var for l in clause})
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


def format_dimacs_cnf(f: Cnf) -> str:
    lines = [DIMACS_CNF_HEADER]
    lines.extend(f"c var {i + 1} {name}" for i, name in enumerate(f.var_names))
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    lines.extend(
        " ".join(str(l.signed()) for l in clause) + " 0" for clause in f.clauses
    )
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text: str) -> Cnf:
    num_vars = None
    names: dict[int, str] = {}
    clauses: list[tuple[Literal, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split(maxsplit=3)
            if len(parts) == 4 and parts[1] == "var":
                try:
                    names[int(parts[2]) - 1] = parts[3]
                except ValueError:
                    pass
            continue
        parts = line.split()
        if parts[0] == "p":
            if num_vars is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"line {lineno}: expected 'p cnf vars clauses'")
            num_vars = int_token(parts[2], f"line {lineno}")
        else:
            if num_vars is None:
                raise FormatError(f"line {lineno}: clause before problem line")
            ints = [int_token(p, f"line {lineno}") for p in parts]
            if not ints or ints[-1] != 0:
                raise FormatError(f"line {lineno}: clause must end with 0")
            clauses.append(tuple(Literal.from_signed(s) for s in ints[:-1]))
    if num_vars is None:
        raise FormatError("missing 'p cnf' problem line")
    var_names = tuple(names.get(i, f"x{i}") for i in range(num_vars))
    try:
        return Cnf.make(num_vars, clauses, var_names)
    except InputError as exc:
        raise FormatError(str(exc)) from exc
