"""Nondeterministic branching programs, OBDD construction and the
order-segmentation checker.

Programs are DAGs with one root and one accepting leaf; edges optionally
carry a literal.  An assignment is accepted when some consistent
root-leaf path's literal set is contained in it.  OBDDs are built
levelized over a variable order and reduced per level by residual
subfunction (truth-table key); constant residuals short-circuit to two
shared terminal nodes, and the rejecting terminal stays in the node
count even though no accepting path passes through it.

The minimum size over all variable orders counts each level's nodes
without building any OBDD: the Friedman–Supowit compaction derives the
residual-function ids of every prefix set from those of a set one
variable larger, level by level from the truth table down.  Program
traversals (evaluation, path enumeration, validation) use explicit
stacks, so program depth is not bounded by the recursion limit.
"""

from __future__ import annotations

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

    def out_edges(self) -> list[list[Edge]]:
        out: list[list[Edge]] = [[] for _ in range(self.num_nodes)]
        for e in self.edges:
            out[e.tail].append(e)
        for lst in out:
            lst.sort(key=Edge.sort_key)
        return out

    def variables(self) -> set[int]:
        return {e.label.var for e in self.edges if e.label is not None}

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
    """A consistent root-leaf path with its labelling literal set."""

    edges: tuple[Edge, ...]
    literals: frozenset[Literal]

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
    for v in z.variables():
        val = getter(v) if getter else (assignment[v] if v < len(assignment) else None)
        if val is None:
            raise InputError(f"assignment does not cover variable {v}")
    # Containment in a full assignment forces consistency, so this reduces
    # to reachability through agreeing edges.
    out = z.out_edges()
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
    if not z.variables() <= set(range(m)):
        raise InputError("program tests variables outside the CNF")
    for bits in range(1 << m):
        s = tuple(bool((bits >> (m - 1 - i)) & 1) for i in range(m))
        if evaluate(z, s) != f.evaluate(s):
            return EquivalenceVerdict(False, s)
    return EquivalenceVerdict(True)


# --- OBDD construction ---


def _truth_table(f: Cnf, order: Sequence[int]) -> np.ndarray:
    """Flat truth table of f; index bit j (most significant first) is the
    value of order[j]."""
    m = f.num_vars
    pos = {v: j for j, v in enumerate(order)}
    idx = np.arange(1 << m, dtype=np.uint32)
    table = np.ones(1 << m, dtype=bool)
    for clause in f.clauses:
        cmask = np.zeros(1 << m, dtype=bool)
        for lit in clause:
            bit = (idx >> (m - 1 - pos[lit.var])) & 1
            cmask |= bit == (1 if lit.positive else 0)
        table &= cmask
    return table


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

    # Level by level: one node per distinct non-constant residual row.
    level_rows: list[list[np.ndarray]] = [[tbl]]
    raw_edges: list[tuple[tuple[int, int], object, Literal]] = []
    for lvl in range(m):
        rows = level_rows[lvl]
        next_rows: list[np.ndarray] = []
        index: dict[bytes, int] = {}
        for j, row in enumerate(rows):
            half = len(row) // 2
            for positive, child in ((False, row[:half]), (True, row[half:])):
                label = Literal(order[lvl], positive)
                if child.all():
                    target: object = "T"
                elif not child.any():
                    target = "F"
                else:
                    key = child.tobytes()
                    if key not in index:
                        index[key] = len(next_rows)
                        next_rows.append(child)
                    target = (lvl + 1, index[key])
                raw_edges.append(((lvl, j), target, label))
        level_rows.append(next_rows)

    ids: dict[tuple[int, int], int] = {}
    for lvl, rows in enumerate(level_rows):
        for j in range(len(rows)):
            ids[(lvl, j)] = len(ids)
    t_id = len(ids)
    f_id = t_id + 1
    edges = tuple(
        Edge(
            ids[tail],
            t_id if target == "T" else f_id if target == "F" else ids[target],
            label,
        )
        for tail, target, label in raw_edges
    )
    z = BranchingProgram(f_id + 1, edges, root=0, leaf=t_id, var_order=order)
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
    sets = np.arange(1 << m, dtype=np.int64)
    size = np.zeros(1 << m, dtype=np.int64)
    for v in range(m):
        size += (sets >> v) & 1
    by_level = np.argsort(size, kind="stable")  # ascending sets within a level
    starts = np.zeros(m + 2, dtype=np.int64)
    np.cumsum(np.bincount(size, minlength=m + 1), out=starts[1:])
    row = np.empty(1 << m, dtype=np.int64)  # a set's table index within its level
    row[by_level] = sets - starts[size[by_level]]
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


def min_obdd_size_over_orders(
    f: Cnf,
    cap: int = DEFAULT_MIN_SIZE_CAP,
    orders: Sequence[Sequence[int]] | None = None,
) -> MinObddResult:
    """Minimum OBDD node count over variable orders, with a best order.

    With an explicit order list the minimum is over exactly those orders.
    Otherwise all m! orders are covered at once by a subset DP: the number
    of nodes at a level depends only on the *set* of variables placed
    before it, so the per-order size telescopes over prefix sets.  Those
    per-set node counts all come first, from one Friedman–Supowit
    compaction (`subfunction_counts`, O(m·3^m) time, two adjacent levels
    of id tables in memory); the DP over the 2^m sets then takes the
    lexicographically smallest best order.
    """
    m = f.num_vars
    if orders is not None:
        best: MinObddResult | None = None
        for o in orders:
            z = build_obdd(f, o)
            if best is None or z.size < best.size or (
                z.size == best.size and tuple(o) < best.order
            ):
                best = MinObddResult(z.size, tuple(o))
        if best is None:
            raise InputError("empty order list")
        return best
    if m > cap:
        raise CapacityError(f"order minimization: {m} variables exceeds cap {cap}")
    if m == 0:
        return MinObddResult(2, ())
    count = subfunction_counts(f)
    full = (1 << m) - 1
    g = [0] * (1 << m)
    g[full] = 2
    for s in sorted(range(1 << m), key=lambda x: x.bit_count(), reverse=True):
        if s == full:
            continue
        g[s] = count[s] + min(g[s | (1 << v)] for v in range(m) if not (s >> v) & 1)
    order: list[int] = []
    s = 0
    while s != full:
        for v in range(m):
            if not (s >> v) & 1 and g[s | (1 << v)] == g[s] - count[s]:
                order.append(v)
                s |= 1 << v
                break
    return MinObddResult(g[0], tuple(order))


# --- path enumeration and the segmentation checker ---


def enumerate_computational_paths(
    z: BranchingProgram, cap: int = DEFAULT_PATH_CAP
) -> Iterator[ComputationalPath]:
    """All consistent root-leaf paths, in lexicographic edge-sequence order.

    Depth-first with an explicit stack of out-edge iterators, one per node
    on the current path, so path length is not bounded by recursion depth.
    """
    out = z.out_edges()
    count = 0
    path: list[Edge] = []
    signs: dict[int, bool] = {}
    claims: dict[int, int] = {}  # var -> number of edges on the path labelling it

    def arrive() -> ComputationalPath:
        nonlocal count
        count += 1
        if count > cap:
            raise CapacityError(f"more than {cap} computational paths")
        return ComputationalPath(
            tuple(path),
            frozenset(Literal(v, s) for v, s in signs.items()),
        )

    if z.root == z.leaf:
        yield arrive()
        return
    # stack[i] iterates the out-edges of the node that path[:i] reaches.
    stack = [iter(out[z.root])]
    while stack:
        for e in stack[-1]:
            if e.label is not None:
                v = e.label.var
                if v in signs and signs[v] != e.label.positive:
                    continue  # inconsistent continuation
                signs.setdefault(v, e.label.positive)
                claims[v] = claims.get(v, 0) + 1
            path.append(e)
            if e.head == z.leaf:
                yield arrive()
                stack.append(iter(()))  # the walk stops at the leaf
            else:
                stack.append(iter(out[e.head]))
            break
        else:
            stack.pop()
            if path:
                e = path.pop()
                if e.label is not None:
                    v = e.label.var
                    claims[v] -= 1
                    if claims[v] == 0:
                        del claims[v]
                        del signs[v]


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
    missing = z.variables() - set(pos)
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
