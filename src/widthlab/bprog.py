"""Nondeterministic branching programs, OBDD construction and the
order-segmentation checker.

Programs are DAGs with one root and one accepting leaf; edges optionally
carry a literal.  An assignment is accepted when some consistent
root-leaf path's literal set is contained in it.  A computational path is
its edge tuple alone: it reads no variable with both signs, so its literal
set is the set of its edge labels.  OBDDs are built from
the truth table (one strided write per clause) level by level over a
variable order, one node per distinct residual row, numbered when first
reached; constant residuals go to two shared terminals, numbered last, and
the rejecting one counts as a node though no accepting path reaches it.

The minimum size over all variable orders counts each level's nodes
without building any OBDD: the Friedman–Supowit compaction derives the
residual-function ids of every prefix set from those of a set one
variable larger, level by level from the truth table down, and
`graph.prefix_set_dp` sums them along the best order.  Program traversals
(evaluation, path enumeration, validation) use explicit stacks, so program
depth is not bounded by the recursion limit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    CapacityError,
    FormatError,
    InputError,
    InvariantViolationError,
    int_token,
)
from .graph import prefix_set_dp, sets_by_size
from .instances import Cnf, Literal

DEFAULT_BUILD_CAP = 24
DEFAULT_EQUIV_CAP = 20
DEFAULT_MIN_SIZE_CAP = 16
DEFAULT_PATH_CAP = 200_000


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    label: Literal | None = None

    def sort_key(self) -> tuple:
        if self.label is None:
            return (self.tail, self.head, -1, False)
        return (self.tail, self.head, self.label.var, self.label.positive)


@dataclass(frozen=True)
class BranchingProgram:
    num_nodes: int
    edges: tuple[Edge, ...]
    root: int
    leaf: int
    var_order: tuple[int, ...] | None = None  # set when built as an OBDD

    @property
    def size(self) -> int:
        return self.num_nodes

    @functools.cached_property
    def out_edges(self) -> tuple[tuple[Edge, ...], ...]:
        """Each node's out-edges, sorted by Edge.sort_key; built once."""
        out: list[list[Edge]] = [[] for _ in range(self.num_nodes)]
        for e in self.edges:
            out[e.tail].append(e)
        return tuple(tuple(sorted(lst, key=Edge.sort_key)) for lst in out)

    @functools.cached_property
    def variables(self) -> frozenset[int]:
        """The variables some edge tests; built once."""
        return frozenset(e.label.var for e in self.edges if e.label is not None)

    def validate(self, strict: bool = True) -> None:
        """Check DAG shape, root/leaf degrees and (strictly) that every node
        lies on a root-leaf path.  OBDDs keep a rejecting dead-end terminal
        and are validated non-strictly."""
        if not (0 <= self.root < self.num_nodes and 0 <= self.leaf < self.num_nodes):
            raise InputError("root or leaf outside node range")
        indeg = [0] * self.num_nodes
        out: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for e in self.edges:
            if not (0 <= e.tail < self.num_nodes and 0 <= e.head < self.num_nodes):
                raise InputError(f"edge ({e.tail},{e.head}) outside node range")
            indeg[e.head] += 1
            out[e.tail].append(e.head)
        if indeg[self.root] != 0:
            raise InputError("root has incoming edges")
        if out[self.leaf]:
            raise InputError("leaf has outgoing edges")
        # topological check
        order = [v for v in range(self.num_nodes) if indeg[v] == 0]
        seen = 0
        deg = list(indeg)
        queue = list(order)
        while queue:
            v = queue.pop()
            seen += 1
            for w in out[v]:
                deg[w] -= 1
                if deg[w] == 0:
                    queue.append(w)
        if seen != self.num_nodes:
            raise InputError("program graph contains a cycle")
        if strict:
            reach_root = _reachable(self.num_nodes, self.edges, self.root, forward=True)
            reach_leaf = _reachable(self.num_nodes, self.edges, self.leaf, forward=False)
            for v in range(self.num_nodes):
                if v not in reach_root or v not in reach_leaf:
                    raise InputError(f"node {v} lies on no root-leaf path")


def _reachable(n: int, edges: Sequence[Edge], start: int, forward: bool) -> set[int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        if forward:
            adj[e.tail].append(e.head)
        else:
            adj[e.head].append(e.tail)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class ComputationalPath:
    """A consistent root-leaf path, given by its edges alone; it reads no
    variable with both signs, so its literal set is its edges' labels."""

    edges: tuple[Edge, ...]

    @functools.cached_property
    def literals(self) -> frozenset[Literal]:
        """The labels of the path's edges; built on first use."""
        return frozenset(e.label for e in self.edges if e.label is not None)

    def nodes(self, root: int) -> tuple[int, ...]:
        seq = [root]
        seq.extend(e.head for e in self.edges)
        return tuple(seq)

    def sort_key(self) -> tuple:
        return tuple(e.sort_key() for e in self.edges)


def evaluate(z: BranchingProgram, assignment: Mapping[int, bool] | Sequence[bool]) -> bool:
    """True iff some consistent root-leaf path's literal set is contained in
    the assignment."""
    getter = assignment.get if isinstance(assignment, Mapping) else None
    for v in z.variables:
        val = getter(v) if getter else (assignment[v] if v < len(assignment) else None)
        if val is None:
            raise InputError(f"assignment does not cover variable {v}")
    # Containment in a full assignment forces consistency, so this reduces
    # to reachability through agreeing edges.
    out = z.out_edges
    seen = {z.root}
    stack = [z.root]
    while stack:
        node = stack.pop()
        if node == z.leaf:
            return True
        for e in out[node]:
            if e.label is not None and assignment[e.label.var] != e.label.positive:
                continue
            if e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return False


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    counterexample: tuple[bool, ...] | None = None


def equivalence_vs_cnf(
    z: BranchingProgram, f: Cnf, cap: int = DEFAULT_EQUIV_CAP
) -> EquivalenceVerdict:
    """Truth-table comparison over all assignments of the CNF's variables."""
    m = f.num_vars
    if m > cap:
        raise CapacityError(f"equivalence check: {m} variables exceeds cap {cap}")
    if not z.variables <= set(range(m)):
        raise InputError("program tests variables outside the CNF")
    for bits in range(1 << m):
        s = tuple(bool((bits >> (m - 1 - i)) & 1) for i in range(m))
        if evaluate(z, s) != f.evaluate(s):
            return EquivalenceVerdict(False, s)
    return EquivalenceVerdict(True)


# --- OBDD construction ---


def _truth_table(f: Cnf, order: Sequence[int]) -> np.ndarray:
    """Flat truth table of f; index bit j (most significant first) is the
    value of order[j].  Each clause writes False once, into the subcube of the
    (2,)*m table where its literals are all false; other axes stay whole."""
    m = f.num_vars
    pos = {v: j for j, v in enumerate(order)}
    try:
        table = np.ones((2,) * m, dtype=bool)
    except ValueError as exc:  # beyond numpy's array rank or size
        raise CapacityError(f"truth table of {m} variables: {exc}") from None
    for clause in f.clauses:
        cube: list[int | slice] = [slice(None)] * m
        for lit in clause:
            cube[pos[lit.var]] = 0 if lit.positive else 1
        table[tuple(cube)] = False
    return table.reshape(-1)


def _constant_program(value: bool, order: tuple[int, ...]) -> BranchingProgram:
    edges = (Edge(0, 1),) if value else ()
    return BranchingProgram(2, edges, root=0, leaf=1, var_order=order)


def build_obdd(f: Cnf, order: Sequence[int], cap: int = DEFAULT_BUILD_CAP) -> BranchingProgram:
    """Deterministic reduced OBDD of f, levelized by the variable order.

    Size is the node count: decision nodes plus both terminals.
    """
    m = f.num_vars
    if sorted(order) != list(range(m)):
        raise InputError("order is not a permutation of the CNF's variables")
    if m > cap:
        raise CapacityError(f"OBDD build: {m} variables exceeds cap {cap}")
    order = tuple(order)
    tbl = _truth_table(f, order)
    if tbl.all():
        return _constant_program(True, order)
    if not tbl.any():
        return _constant_program(False, order)

    # The true and false terminals are the last two nodes; until the node
    # count is known, edges name them -2 and -1, counting from the end.
    raw_edges: list[tuple[int, int, Literal]] = []
    rows, first = [tbl], 0  # this level's rows; rows[j] is node first + j
    del tbl  # the next level's rows are copies, so free the table after level 0
    for var in order:
        index: dict[bytes, int] = {}  # the next level's rows, in id order
        for j, row in enumerate(rows):
            half = len(row) // 2
            for positive, child in ((False, row[:half]), (True, row[half:])):
                if child.all():
                    head = -2
                elif not child.any():
                    head = -1
                else:
                    head = index.setdefault(child.tobytes(), first + len(rows) + len(index))
                raw_edges.append((first + j, head, Literal(var, positive)))
        rows, first = [np.frombuffer(key, dtype=bool) for key in index], first + len(rows)

    size = first + 2
    edges = tuple(Edge(tail, head % size, label) for tail, head, label in raw_edges)
    z = BranchingProgram(size, edges, root=0, leaf=size - 2, var_order=order)
    z.validate(strict=False)
    return z


# Entries of one level derived per vectorised step.  This bounds the int64
# keys, gather indices and np.unique's sort to a few hundred KiB whatever
# the level's size, so peak memory is the two adjacent levels' id tables.
_COMPACTION_CHUNK = 1 << 13


def subfunction_counts(f: Cnf) -> list[int]:
    """For every variable set S (bit v of the index set iff v is in S), the
    number of distinct non-constant residual functions of f over the
    assignments of S: the nodes at the OBDD level right after prefix set S.

    This is the compaction of Friedman & Supowit (IEEE Trans. Computers
    39(5), 1990).  The table of S holds, for each assignment of S (bit i
    of the index is the i-th smallest variable of S), an id of the
    residual function: 0 is constant false, 1 constant true, and two
    entries of one table have equal ids exactly when their residuals are
    equal.  The table of the full set is the truth table.  The table of S
    comes from that of its parent S | {v}, v the lowest variable outside
    S: the residual under an assignment of S is the pair of residuals with
    v=0 and v=1, so deduplicating the id pairs gives S's ids.

    Levels |S| = m-1, ..., 0 are derived in turn.  A level is one flat
    int32 array of C(m,k) tables of 2^k entries, and only two adjacent
    levels are alive at once: at m=16 the largest pair (k=11 and k=10)
    holds 17.1M ids, 65 MiB.  All levels together hold 3^m entries, each
    deduplicated by a sort over a chunk of about _COMPACTION_CHUNK entries
    (one table, when a table is larger), so the time is O(m·3^m).
    """
    m = f.num_vars
    by_level, starts = sets_by_size(m)
    row = np.empty(1 << m, dtype=np.int64)  # a set's table index within its level
    row[by_level] = np.arange(1 << m) - np.repeat(starts[:-1], np.diff(starts))
    counts = np.zeros(1 << m, dtype=np.int64)

    parent = _truth_table(f, tuple(reversed(range(m)))).astype(np.int32)
    base = 2  # every parent id is below base
    for k in range(m - 1, -1, -1):
        level_sets = by_level[starts[k]:starts[k + 1]]
        width = 1 << k
        level = np.empty(len(level_sets) * width, dtype=np.int32)
        a = np.arange(width, dtype=np.int64)
        rows_per_chunk = max(1, _COMPACTION_CHUNK >> k)
        next_base = 2
        for r0 in range(0, len(level_sets), rows_per_chunk):
            s = level_sets[r0:r0 + rows_per_chunk]
            bit = (~s & (s + 1))[:, None]  # the lowest variable outside s
            # Parent index of assignment a with v=0: the bits of a at and
            # above v's rank move up one place to make room for v.
            at = a & -bit
            at += a
            at += (row[s | bit[:, 0]] << (k + 1))[:, None]
            pair = parent[at].astype(np.int64)
            pair *= base
            at += bit
            pair += parent[at]
            false, true = pair == 0, pair == base + 1
            # Tagging each pair with its row lets one sort dedupe every row.
            span = base * base
            pair += (np.arange(len(s), dtype=np.int64) * span)[:, None]
            uniq, inv = np.unique(pair.ravel(), return_inverse=True)
            ids = level[r0 * width:(r0 + len(s)) * width].reshape(len(s), width)
            np.add(inv.reshape(len(s), width), 2, out=ids, casting="unsafe")
            ids[false] = 0
            ids[true] = 1
            residue = uniq % span
            varying = uniq[(residue != 0) & (residue != base + 1)]
            counts[s] = np.bincount(varying // span, minlength=len(s))
            next_base = max(next_base, len(uniq) + 2)
        parent, base = level, next_base
    return counts.tolist()


@dataclass(frozen=True)
class MinObddResult:
    size: int
    order: tuple[int, ...]


def min_obdd_size_over_orders(f: Cnf, cap: int = DEFAULT_MIN_SIZE_CAP) -> MinObddResult:
    """Minimum OBDD node count over all m! variable orders, with the
    lexicographically smallest best order.

    The number of nodes at a level depends only on the *set* of variables
    placed before it, so an order's size is the two terminals plus the sum
    of its prefix sets' node counts.  Those counts all come first, from one
    Friedman–Supowit compaction (`subfunction_counts`, O(m·3^m) time, two
    adjacent levels of id tables in memory); `prefix_set_dp` with addition
    then minimises the sum over the 2^m sets.
    """
    m = f.num_vars
    if m > cap:
        raise CapacityError(f"order minimization: {m} variables exceeds cap {cap}")
    count = subfunction_counts(f)
    value, order = prefix_set_dp(count, np.add)
    return MinObddResult(2 + count[0] + value, order)


# --- path enumeration and the segmentation checker ---


def enumerate_computational_paths(
    z: BranchingProgram, cap: int = DEFAULT_PATH_CAP
) -> Iterator[ComputationalPath]:
    """All consistent root-leaf paths, in lexicographic edge-sequence order.

    Depth-first with an explicit stack of out-edge iterators, one per node
    on the current path, so path length is not bounded by recursion depth.
    One var -> sign dict holds the signs the path has read; each path edge
    records the variable it added (None if it added none), so popping the
    edge deletes exactly that entry.
    """
    out = z.out_edges
    count = 0
    path: list[Edge] = []
    added: list[int | None] = []  # added[i]: the variable path[i] put in signs
    signs: dict[int, bool] = {}
    # stack[i] iterates the out-edges of the node that path[:i] reaches.
    stack: list[Iterator[Edge]] = []
    reached: int | None = z.root  # the node the last step reached, if any
    while True:
        if reached == z.leaf:
            count += 1
            if count > cap:
                raise CapacityError(f"more than {cap} computational paths")
            yield ComputationalPath(tuple(path))
            stack.append(iter(()))  # the walk stops at the leaf
        elif reached is not None:
            stack.append(iter(out[reached]))
        elif not stack:
            return
        reached = None
        for e in stack[-1]:
            var = None
            if e.label is not None:
                sign = signs.get(e.label.var)
                if sign is None:
                    var = e.label.var
                    signs[var] = e.label.positive
                elif sign != e.label.positive:
                    continue  # inconsistent continuation
            path.append(e)
            added.append(var)
            reached = e.head
            break
        else:
            stack.pop()
            if path:
                path.pop()
                var = added.pop()
                if var is not None:
                    del signs[var]


def min_segments(positions: Sequence[int]) -> int:
    """Minimum number of contiguous strictly-increasing segments.

    Greedy: cut exactly when the next position fails to increase; this is
    minimal because any segmentation must also cut at each such descent.
    """
    if not positions:
        return 1
    k = 1
    last = positions[0]
    for p in positions[1:]:
        if p <= last:
            k += 1
        last = p
    return k


@dataclass(frozen=True)
class SegmentationVerdict:
    ok: bool
    violating_path: ComputationalPath | None = None
    segments_needed: int | None = None


def check_c_nsobdd(
    z: BranchingProgram,
    sv: Sequence[int],
    c: int,
    path_cap: int = DEFAULT_PATH_CAP,
) -> SegmentationVerdict:
    """Check that every consistent root-leaf path splits into at most c
    contiguous segments whose labelled variables strictly follow sv.

    Inconsistent paths are exempt; unlabelled edges never constrain the
    segmentation.
    """
    if c < 1:
        raise InputError(f"segment budget must be positive, got {c}")
    pos = {v: i for i, v in enumerate(sv)}
    if len(pos) != len(sv):
        raise InputError("variable order contains duplicates")
    missing = z.variables - set(pos)
    if missing:
        raise InputError(f"variable order misses program variables {sorted(missing)}")
    for p in enumerate_computational_paths(z, cap=path_cap):
        positions = [pos[e.label.var] for e in p.edges if e.label is not None]
        k = min_segments(positions)
        if k > c:
            return SegmentationVerdict(False, p, k)
    return SegmentationVerdict(True)


# --- text serialization ---

BP_HEADER = "c widthlab branching-program format v1"


def format_bp(z: BranchingProgram) -> str:
    lines = [BP_HEADER, f"bp {z.num_nodes} {z.root + 1} {z.leaf + 1}"]
    for e in sorted(z.edges, key=Edge.sort_key):
        if e.label is None:
            lines.append(f"{e.tail + 1} {e.head + 1}")
        else:
            lines.append(f"{e.tail + 1} {e.head + 1} {e.label.signed()}")
    return "\n".join(lines) + "\n"


def parse_bp(text: str) -> BranchingProgram:
    header = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "bp":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: expected 'bp <nodes> <root> <leaf>'")
            header = tuple(int_token(p, f"line {lineno}") for p in parts[1:])
        else:
            if header is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(parts) not in (2, 3):
                raise FormatError(f"line {lineno}: expected 'tail head [literal]'")
            tail, head = (int_token(p, f"line {lineno}") - 1 for p in parts[:2])
            label = None
            if len(parts) == 3:
                signed = int_token(parts[2], f"line {lineno}")
                try:
                    label = Literal.from_signed(signed)
                except InputError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from exc
            edges.append(Edge(tail, head, label))
    if header is None:
        raise FormatError("missing 'bp' header line")
    num_nodes, root, leaf = header
    z = BranchingProgram(num_nodes, tuple(edges), root - 1, leaf - 1)
    try:
        z.validate(strict=False)
    except InputError as exc:
        raise FormatError(str(exc)) from exc
    return z
