"""Nondeterministic branching programs, OBDD construction and the
order-segmentation checker.

Programs are DAGs with one root and one accepting leaf; edges optionally
carry a literal, and a program stores them sorted by `Edge.sort_key`, so
programs with the same edges are equal and walks and `format_bp` follow
that order.  An assignment is accepted when some consistent
root-leaf path's literal set is contained in it.  A computational path is
a tuple of edges: it reads no variable with both signs, so its literal
set is the set of its edge labels.  Path enumeration seeded with an
assignment walks only the paths that accept it.  OBDDs are built from
the truth table, one int with one bit per assignment that each clause's
periodic falsifying pattern is cleared from, level by level over a
variable order, one node per distinct residual row (a slice of that
int), numbered when first reached; constant residuals go to two shared
terminals, numbered last, and the rejecting one counts as a node though no
accepting path reaches it.

The segmentation checker first bounds the segments of every root-leaf
path with a DP over the DAG, O(E·m); only when that bound exceeds the
budget does it enumerate consistent paths, to find the first violating
one.

The minimum size over all variable orders counts each level's nodes
without building any OBDD, in one walk down the prefix sets' levels: the
Friedman–Supowit compaction derives the residual-function ids of every
prefix set from those of a set one variable larger, and the prefix-set DP
finds the fewest nodes any order can place after each set.

Each program computes its topological order once, by Kahn's algorithm
(`BranchingProgram.topological_order`); validation, the segment DP and
path enumeration read it, so a cyclic program raises instead of hanging.
Evaluation and path enumeration use explicit stacks, so program depth is
not bounded by the recursion limit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import (
    CapacityError, FormatError, InputError, InvariantViolationError, int_token, read_records,
)
from .instances import Cnf, Literal

DEFAULT_BUILD_CAP = 24
DEFAULT_EQUIV_CAP = 20
DEFAULT_MIN_SIZE_CAP = 16
DEFAULT_PATH_CAP = 200_000


@dataclass(frozen=True, slots=True)
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
    """The constructor stores the edges sorted by `Edge.sort_key`, whatever
    order they come in: the one place that order is applied."""

    num_nodes: int
    edges: tuple[Edge, ...]
    root: int
    leaf: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=Edge.sort_key)))

    @property
    def size(self) -> int:
        return self.num_nodes

    @functools.cached_property
    def out_edges(self) -> tuple[tuple[Edge, ...], ...]:
        """Each node's out-edges, in stored order; built once."""
        out: list[list[Edge]] = [[] for _ in range(self.num_nodes)]
        for e in self.edges:
            out[e.tail].append(e)
        return tuple(map(tuple, out))

    @functools.cached_property
    def variables(self) -> frozenset[int]:
        """The variables some edge tests; built once."""
        return frozenset(e.label.var for e in self.edges if e.label is not None)

    @functools.cached_property
    def num_vars(self) -> int:
        """One more than the largest variable some edge tests; built once."""
        return max(self.variables, default=-1) + 1

    @functools.cached_property
    def topological_order(self) -> tuple[int, ...]:
        """The nodes with every edge's tail before its head, by Kahn's
        algorithm on int adjacency lists built from `edges`; built once.
        Raises InputError on a cycle."""
        indeg = [0] * self.num_nodes
        succ: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for e in self.edges:
            indeg[e.head] += 1
            succ[e.tail].append(e.head)
        order = [v for v in range(self.num_nodes) if indeg[v] == 0]
        for v in order:  # a FIFO queue: nodes are appended as they become ready
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        if len(order) != self.num_nodes:
            raise InputError("program graph contains a cycle")
        return tuple(order)

    def validate(self) -> None:
        """Check that root, leaf and every edge lie in the node range, that
        the root has no in-edge and the leaf no out-edge, and that the graph
        is a DAG (`topological_order`).  A node need not lie on a root-leaf
        path: an OBDD keeps a rejecting terminal that no path to the leaf
        reaches."""
        n, root, leaf = self.num_nodes, self.root, self.leaf
        if not (0 <= root < n and 0 <= leaf < n):
            raise InputError("root or leaf outside node range")
        root_in = leaf_out = False
        for e in self.edges:
            if not (0 <= e.tail < n and 0 <= e.head < n):
                raise InputError(f"edge ({e.tail},{e.head}) outside node range")
            if e.head == root:
                root_in = True
            if e.tail == leaf:
                leaf_out = True
        if root_in:
            raise InputError("root has incoming edges")
        if leaf_out:
            raise InputError("leaf has outgoing edges")
        self.topological_order  # raises on a cycle


def evaluate(z: BranchingProgram, assignment: Sequence[bool]) -> bool:
    """True iff some consistent root-leaf path's literal set is contained in
    the assignment, a sequence whose entry v is the value of variable v; it
    must cover every variable z tests, so it is no shorter than z.num_vars."""
    if len(assignment) < z.num_vars:
        raise InputError(f"assignment does not cover variable {z.num_vars - 1}")
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


def equivalence_vs_cnf(z: BranchingProgram, f: Cnf) -> EquivalenceVerdict:
    """Compare z with f on every assignment of the CNF's variables, in
    binary order with variable 0 most significant; the counterexample is
    the first assignment where they differ.  f's side is read from its
    truth table and z is evaluated on each assignment."""
    m = f.num_vars
    if m > DEFAULT_EQUIV_CAP:
        raise CapacityError(f"equivalence check: {m} variables exceeds cap {DEFAULT_EQUIV_CAP}")
    if not z.variables <= set(range(m)):
        raise InputError("program tests variables outside the CNF")
    # Character i from the end is bit i of the table.
    bits = format(_truth_table(f, range(m)), f"0{1 << m}b")
    for s, value in zip(itertools.product((False, True), repeat=m), reversed(bits)):
        if evaluate(z, s) != (value == "1"):
            return EquivalenceVerdict(False, s)
    return EquivalenceVerdict(True)


# --- OBDD construction ---


def _truth_table(f: Cnf, order: Sequence[int]) -> int:
    """Truth table of f as one int: bit k is f at assignment k, where index
    bit j, counted from the most significant of m, is the value of order[j].

    f is false exactly on its clauses' falsifying subcubes.  A clause's
    subcube is a bit pattern that repeats with period 2^(h+1), h the highest
    index bit its literals fix: it is built by doubling a one-bit pattern
    h+1 times, keeping one half at a fixed bit and both at a free one.
    Patterns of one period are ORed together, one running OR widens through
    the periods in ascending order to all 2^m bits, and the table is its
    complement.  A table too large for an int raises CapacityError.
    """
    m = f.num_vars
    bit = {v: m - 1 - j for j, v in enumerate(order)}  # v's index bit, from the least
    try:
        full = (1 << (1 << m)) - 1
        falsified: dict[int, int] = {}  # h+1 -> OR of the patterns of period 2^(h+1)
        for clause in f.clauses:
            fixed = {bit[lit.var]: lit.positive for lit in clause}
            top = max(fixed, default=-1) + 1
            pattern = 1
            for b in range(top):
                positive = fixed.get(b)
                if positive is None:
                    pattern |= pattern << (1 << b)
                elif not positive:  # a negative literal is false where the bit is 1
                    pattern <<= 1 << b
            falsified[top] = falsified.get(top, 0) | pattern
        acc, period = 0, 0  # acc repeats every 2^period bits
        for top in sorted(falsified) + [m]:
            for b in range(period, top):
                acc |= acc << (1 << b)
            acc |= falsified.pop(top, 0)
            period = top
        return full ^ acc
    except (MemoryError, OverflowError):
        raise CapacityError(f"truth table of {m} variables does not fit in memory") from None


def _constant_program(value: bool) -> BranchingProgram:
    edges = (Edge(0, 1),) if value else ()
    return BranchingProgram(2, edges, root=0, leaf=1)


def build_obdd(f: Cnf, order: Sequence[int], cap: int = DEFAULT_BUILD_CAP) -> BranchingProgram:
    """Deterministic reduced OBDD of f, levelized by the variable order.

    Size is the node count: decision nodes plus both terminals.  The root's
    row is the truth table along the order (`_truth_table`, one bit per
    assignment), and each level keys its nodes by their residual rows, also
    ints, so a node's two children are a mask and a shift of its row.
    Nodes are numbered level by level in the order they are first reached;
    the two terminals come last.
    """
    m = f.num_vars
    if m > cap:
        raise CapacityError(f"OBDD build: {m} variables exceeds cap {cap}")
    if sorted(order) != list(range(m)):
        raise InputError("order is not a permutation of the CNF's variables")
    order = tuple(order)
    table = _truth_table(f, order)
    width = 1 << m
    if table.bit_count() == width:
        return _constant_program(True)
    if not table:
        return _constant_program(False)

    # A row is one int: bit k is entry k of the residual's table, so the
    # low half is the branch where the level's variable is 0.  The true and
    # false terminals are the last two nodes; until the node count is known,
    # edges name them -2 and -1, counting from the end.
    raw_edges: list[tuple[int, int, Literal]] = []
    rows, first = [table], 0  # rows[j] is node first + j, of width bits
    del table  # so the root's row is freed once its level is done
    for var in order:
        width >>= 1
        ones = (1 << width) - 1
        index = {ones: -2, 0: -1}  # then the next level's rows, in id order
        next_id = first + len(rows) - 2  # plus len(index): the next new id
        low, high = Literal(var, False), Literal(var, True)
        for tail, row in enumerate(rows, first):
            for label, child in ((low, row & ones), (high, row >> width)):
                head = index.setdefault(child, next_id + len(index))
                raw_edges.append((tail, head, label))
        rows, first = list(index)[2:], first + len(rows)

    size = first + 2
    edges = tuple(Edge(tail, head % size, label) for tail, head, label in raw_edges)
    del raw_edges  # free the triples before the constructor sorts the edges
    z = BranchingProgram(size, edges, root=0, leaf=size - 2)
    try:
        z.validate()
    except InputError as exc:  # the program was built here, so this is a bug
        raise InvariantViolationError(str(exc)) from exc
    return z


# Entries of one level derived per vectorised step.  This bounds the int64
# keys, gather indices and np.unique's sort to a few hundred KiB whatever
# the level's size, so peak memory is the two adjacent levels' id tables.
_COMPACTION_CHUNK = 1 << 13


def _order_tables(f: Cnf) -> tuple:
    """Two int64 numpy arrays over the variable sets S (bit v of the index
    set iff v is in S): counts[S], the distinct non-constant residual
    functions of f over the assignments of S, which are the nodes at the
    OBDD level right after prefix set S; and below[S], the fewest nodes the
    levels after S can have, min over v outside S of counts[S|v] +
    below[S|v] (Bodlaender et al., ToCS 2012).  Only this function imports
    numpy.

    counts is the compaction of Friedman & Supowit (IEEE Trans. Computers
    39(5), 1990).  The table of S holds, for each assignment of S (bit i
    of the index is the i-th smallest variable of S), an id of the
    residual function: 0 is constant false, 1 constant true, and two
    entries of one table have equal ids exactly when their residuals are
    equal.  The table of the full set is the truth table, unpacked once
    from `_truth_table`'s int into int32 ids.  The table of S comes from
    that of its parent S | {v}, v the lowest variable outside S: the
    residual under an assignment of S is the pair of residuals with v=0
    and v=1, so deduplicating the id pairs gives S's ids.

    One walk derives the levels |S| = m-1, ..., 0 in turn, counts and then
    below, whose every S|v lies on the level before.  A level is one flat
    int32 array of C(m,k) tables of 2^k entries, and only two adjacent
    levels are alive at once: at m=16 the largest pair (k=11 and k=10)
    holds 17.1M ids, 65 MiB.  All levels together hold 3^m entries, each
    deduplicated by a sort over a chunk of about _COMPACTION_CHUNK entries
    (one table, when a table is larger), so the time is O(m·3^m).
    """
    import numpy as np

    m = f.num_vars
    size = np.zeros(1 << m, dtype=np.int8)
    for v in range(m):  # the sets holding v are those without it, plus v
        size[1 << v:2 << v] = size[:1 << v] + 1
    by_level = np.argsort(size, kind="stable")  # level k is by_level[starts[k]:starts[k + 1]]
    starts = np.searchsorted(size[by_level], np.arange(m + 2))
    row = np.argsort(by_level) - starts[size]  # a set's table index within its level
    counts, below = np.zeros((2, 1 << m), dtype=np.int64)
    below[:-1] = 1 << 62  # unset: a set's own entry never wins a min before its level sets it

    # The truth table with variable i on index bit i, one int32 per entry.
    table = _truth_table(f, tuple(reversed(range(m))))
    packed = np.frombuffer(table.to_bytes(((1 << m) + 7) // 8, "little"), dtype=np.uint8)
    parent = np.unpackbits(packed, count=1 << m, bitorder="little").astype(np.int32)
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
        t = level_sets[:, None] | 1 << np.arange(m)  # S|v for each v; S, still unset, if v in S
        below[level_sets] = (counts[t] + below[t]).min(axis=1)
        del t  # so the next level's two id tables are the peak
    return counts, below


@dataclass(frozen=True)
class MinObddResult:
    size: int
    order: tuple[int, ...]


def min_obdd_size_over_orders(f: Cnf, cap: int = DEFAULT_MIN_SIZE_CAP) -> MinObddResult:
    """Minimum OBDD node count over all m! variable orders, with the
    lexicographically smallest best order.

    The number of nodes at a level depends only on the *set* of variables
    placed before it, so an order's size is the two terminals plus the sum
    of its prefix sets' node counts.  `_order_tables` gives each set's
    count and the fewest nodes below it, in O(m·3^m) time; the order adds,
    from the empty set, the smallest variable whose set t keeps that
    fewest: counts[t] + below[t] == below[s].
    """
    m = f.num_vars
    if m > cap:
        raise CapacityError(f"order minimization: {m} variables exceeds cap {cap}")
    counts, below = _order_tables(f)
    order: list[int] = []
    s = 0
    for _ in range(m):
        v = next(v for v in range(m)
                 if not s >> v & 1 and counts[s | 1 << v] + below[s | 1 << v] == below[s])
        order.append(v)
        s |= 1 << v
    return MinObddResult(int(2 + counts[0] + below[0]), tuple(order))


# --- path enumeration and the segmentation checker ---


def enumerate_computational_paths(
    z: BranchingProgram,
    cap: int = DEFAULT_PATH_CAP,
    assignment: Sequence[bool] | None = None,
) -> Iterator[tuple[Edge, ...]]:
    """All consistent root-leaf paths, each as its edge tuple, in
    lexicographic edge-sequence order.

    Given an assignment (entry v the value of variable v, covering
    z.num_vars as for `evaluate`), only the paths whose labels agree with
    it: those that accept it, in the same order.

    The first step reads `z.topological_order`, so a cyclic program raises
    InputError instead of being walked forever.  Depth-first with an
    explicit stack of out-edge iterators, one per node on the current path,
    so path length is not bounded by recursion depth.  One var -> sign dict
    holds the signs the path has read, seeded with the assignment; each
    path edge records the variable it added (None if it added none), so
    popping the edge deletes exactly that entry.
    """
    z.topological_order  # raises on a cycle
    if assignment is not None and len(assignment) < z.num_vars:
        raise InputError(f"assignment does not cover variable {z.num_vars - 1}")
    out = z.out_edges
    count = 0
    path: list[Edge] = []
    added: list[int | None] = []  # added[i]: the variable path[i] put in signs
    signs: dict[int, bool] = {} if assignment is None else dict(enumerate(assignment))
    # stack[i] iterates the out-edges of the node that path[:i] reaches.
    stack: list[Iterator[Edge]] = []
    reached: int | None = z.root  # the node the last step reached, if any
    while True:
        if reached == z.leaf:
            count += 1
            if count > cap:
                raise CapacityError(f"more than {cap} computational paths")
            yield tuple(path)
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


def _max_segments(z: BranchingProgram, pos: Mapping[int, int]) -> int:
    """The most segments any root-leaf path of z needs, consistent or not,
    with labelled variables ordered by pos; 0 when no path reaches the leaf.

    Nodes are visited in `z.topological_order`, which raises InputError
    on a cycle.  Each keeps, per position of the last
    labelled variable read (-1 before any), the most segments a root-node
    path ending that way needs; what a continuation adds depends only on
    that position, so the map is exact.  Paths stop at the leaf, but what
    the leaf passes on never comes back to it.  O(E·m) time.
    """
    out = z.out_edges
    most: list[dict[int, int]] = [{} for _ in range(z.num_nodes)]
    most[z.root][-1] = 1
    for v in z.topological_order:
        states = most[v]
        if not states:
            continue
        for e in out[v]:
            target = most[e.head]
            if e.label is None:
                for last, k in states.items():
                    if target.get(last, 0) < k:
                        target[last] = k
            else:
                q = pos[e.label.var]
                need = max(k + (q <= last) for last, k in states.items())
                if target.get(q, 0) < need:
                    target[q] = need
    return max(most[z.leaf].values(), default=0)


@dataclass(frozen=True)
class SegmentationVerdict:
    ok: bool
    violating_path: tuple[Edge, ...] | None = None
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
    segmentation.  A DP over the DAG first bounds the segments of every
    path, consistent or not (`_max_segments`); when that bound is at most
    c the check passes without enumerating a path.  Otherwise the paths
    are enumerated in order and the first consistent one needing more than
    c segments is the witness, so path_cap bounds only that search.
    """
    if c < 1:
        raise InputError(f"segment budget must be positive, got {c}")
    pos = {v: i for i, v in enumerate(sv)}
    if len(pos) != len(sv):
        raise InputError("variable order contains duplicates")
    missing = z.variables - set(pos)
    if missing:
        raise InputError(f"variable order misses program variables {sorted(missing)}")
    if _max_segments(z, pos) <= c:
        return SegmentationVerdict(True)
    for p in enumerate_computational_paths(z, cap=path_cap):
        positions = [pos[e.label.var] for e in p if e.label is not None]
        k = min_segments(positions)
        if k > c:
            return SegmentationVerdict(False, p, k)
    return SegmentationVerdict(True)


# --- text serialization ---

BP_HEADER = "c widthlab branching-program format v1"


def format_bp(z: BranchingProgram) -> str:
    """One line per edge in stored order; `parse_bp` reads back an equal program."""
    lines = [BP_HEADER, f"bp {z.num_nodes} {z.root + 1} {z.leaf + 1}"]
    for e in z.edges:
        if e.label is None:
            lines.append(f"{e.tail + 1} {e.head + 1}")
        else:
            lines.append(f"{e.tail + 1} {e.head + 1} {e.label.signed()}")
    return "\n".join(lines) + "\n"


def parse_bp(text: str) -> BranchingProgram:
    _, (num_nodes, root, leaf), records = read_records(text, "bp", "<nodes> <root> <leaf>")
    edges: list[Edge] = []
    seen: set[tuple[int, int, int]] = set()  # (tail, head, signed literal or 0)
    literals: dict[int, Literal] = {}  # one Literal per distinct signed literal
    for where, parts in records:
        if len(parts) not in (2, 3):
            raise FormatError(f"{where}: expected 'tail head [literal]'")
        tail, head = int_token(parts[0], where), int_token(parts[1], where)
        if not (0 < tail <= num_nodes and 0 < head <= num_nodes):
            bad = head if 0 < tail <= num_nodes else tail
            raise FormatError(f"{where}: node {bad} outside 1..{num_nodes}")
        label, signed = None, 0
        if len(parts) == 3:
            signed = int_token(parts[2], where)
            label = literals.get(signed)
            if label is None:
                try:
                    label = literals[signed] = Literal.from_signed(signed)
                except InputError as exc:
                    raise FormatError(f"{where}: {exc}") from exc
        if (tail, head, signed) in seen:
            raise FormatError(f"{where}: duplicate edge '{' '.join(parts)}'")
        seen.add((tail, head, signed))
        edges.append(Edge(tail - 1, head - 1, label))
    z = BranchingProgram(num_nodes, tuple(edges), root - 1, leaf - 1)
    try:
        z.validate()
    except InputError as exc:
        raise FormatError(str(exc)) from exc
    return z
