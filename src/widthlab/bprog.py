"""Nondeterministic branching programs, OBDD construction and the
order-segmentation checker.

A program is a DAG with one root and one accepting leaf.  Its edges are
three int tuples in canonical order (`_key`: by tail, then head, then
label, unlabelled first, then by variable, negative first): tails, heads
and signed literals, 0 for no label.  Each node's out-edges are one index
range, from the CSR offsets of that order.  An assignment is accepted
when some consistent root-leaf path's literal set is contained in it.  A
computational path is a tuple of edge indices: it reads no variable with
both signs, so its literal set is the set of its edges' labels.  Path
enumeration seeded with an assignment walks only the paths that accept it.

OBDDs are built from the truth table (`tables.truth_table`, one int),
level by level over a variable order, one node per distinct residual row
(a slice of that int), numbered when first reached; constant residuals
go to two shared terminals, numbered last, and the rejecting one counts
as a node though no accepting path reaches it.  Each node's two edges
come out in canonical order, so a built program is never sorted, and
`parse_bp` sorts only a file whose edge lines are out of that order.
The minimum size over all variable orders is read from
`tables.order_tables` without building any OBDD.

The segmentation checker first bounds the segments of every root-leaf
path with a DP over the DAG, O(E·m); only when that bound exceeds the
budget does it enumerate consistent paths, to find the first violating
one.

Each program computes its topological order once, by Kahn's algorithm,
when first asked; validation, the segment DP and path enumeration read it,
so a cyclic program raises instead of hanging.  `build_obdd` checks its
own program without it, since its numbering puts every head after its
tail.  Walks use explicit stacks, so program depth is not bounded by the
recursion limit.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CapacityError, FormatError, InputError, InvariantViolationError, int_token, read_records,
)
from .instances import Cnf
from .tables import order_tables, truth_table

DEFAULT_BUILD_CAP = 24
DEFAULT_EQUIV_CAP = 20
DEFAULT_MIN_SIZE_CAP = 16
DEFAULT_PATH_CAP = 200_000


def _key(edge: tuple[int, int, int]) -> tuple[int, int, int]:
    """The canonical order of (tail, head, signed literal) edges: by tail,
    then head, then label: none (0) first, then by variable, negative first."""
    tail, head, s = edge
    return tail, head, 2 * abs(s) + (s > 0)


@dataclass(frozen=True, init=False)
class BranchingProgram:
    """The edges are `tails`, `heads` and `lits` (each label's DIMACS signed
    literal, as in a `Cnf` clause, or 0) in the canonical order of `_key`; node
    v's out-edges are the indices in out_ranges[v].  The constructor takes
    (tail, head, signed literal) triples, 0 for no label, in any order."""

    num_nodes: int
    root: int
    leaf: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    lits: tuple[int, ...]

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int, int]],
                 root: int, leaf: int) -> None:
        tails, heads, lits = tuple(zip(*sorted(edges, key=_key))) or ((), (), ())
        vars(self).update(num_nodes=num_nodes, root=root, leaf=leaf,
                          tails=tails, heads=heads, lits=lits)

    @property
    def size(self) -> int:
        return self.num_nodes

    @functools.cached_property
    def out_ranges(self) -> tuple[range, ...]:
        """range(offsets[v], offsets[v + 1]) for each node v, the CSR
        offsets; built once, since walks iterate them faster than new ones."""
        off = [0] * (self.num_nodes + 1)
        for t in self.tails:
            off[t + 1] += 1
        off = list(itertools.accumulate(off))
        return tuple(map(range, off, off[1:]))

    @functools.cached_property
    def variables(self) -> frozenset[int]:
        """The variables some edge tests; built once."""
        return frozenset(abs(s) - 1 for s in set(self.lits) if s)

    @functools.cached_property
    def num_vars(self) -> int:
        """One more than the largest variable some edge tests; built once."""
        return max(self.variables, default=-1) + 1

    @functools.cached_property
    def topological_order(self) -> tuple[int, ...]:
        """The nodes with every edge's tail before its head, by Kahn's
        algorithm; built once.  Raises InputError on a cycle."""
        indeg = [0] * self.num_nodes
        for h in self.heads:
            indeg[h] += 1
        order = [v for v in range(self.num_nodes) if indeg[v] == 0]
        heads, out = self.heads, self.out_ranges
        for v in order:  # a FIFO queue: nodes are appended as they become ready
            for i in out[v]:
                w = heads[i]
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
        n, tails, heads = self.num_nodes, self.tails, self.heads
        if not (0 <= self.root < n and 0 <= self.leaf < n):
            raise InputError("root or leaf outside node range")
        if tails and not (0 <= tails[0] and tails[-1] < n and 0 <= min(heads) and max(heads) < n):
            t, h = next((t, h) for t, h in zip(tails, heads) if not (0 <= t < n and 0 <= h < n))
            raise InputError(f"edge ({t},{h}) outside node range")
        if self.root in heads:
            raise InputError("root has incoming edges")
        if self.leaf in tails:
            raise InputError("leaf has outgoing edges")
        self.topological_order  # raises on a cycle


def _program(num_nodes: int, root: int, leaf: int, tails, heads, lits) -> BranchingProgram:
    """The program of int tuples already in canonical order."""
    z = object.__new__(BranchingProgram)
    vars(z).update(num_nodes=num_nodes, root=root, leaf=leaf, tails=tails, heads=heads, lits=lits)
    return z


def evaluate(z: BranchingProgram, assignment: Sequence[bool]) -> bool:
    """True iff some consistent root-leaf path's literal set is contained in
    the assignment, a sequence whose entry v is the value of variable v; it
    must cover every variable z tests, so it is no shorter than z.num_vars."""
    if len(assignment) < z.num_vars:
        raise InputError(f"assignment does not cover variable {z.num_vars - 1}")
    # Containment in a full assignment forces consistency, so this reduces to
    # reachability through agreeing edges.  A label s reads variable s - 1 if
    # positive, ~s if negative.
    heads, lits, out, root, leaf = z.heads, z.lits, z.out_ranges, z.root, z.leaf
    if root == leaf:
        return True
    seen = {root}
    stack = [root]
    while stack:
        for i in out[stack.pop()]:
            s = lits[i]
            if s > 0:
                if not assignment[s - 1]:
                    continue
            elif s and assignment[~s]:
                continue
            head = heads[i]
            if head not in seen:
                if head == leaf:
                    return True
                seen.add(head)
                stack.append(head)
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
    bits = format(truth_table(f, range(m)), f"0{1 << m}b")
    values = map("1".__eq__, reversed(bits))
    for s, value in zip(itertools.product((False, True), repeat=m), values):
        if evaluate(z, s) != value:
            return EquivalenceVerdict(False, s)
    return EquivalenceVerdict(True)


# --- OBDD construction ---


def build_obdd(f: Cnf, order: Iterable[int], cap: int = DEFAULT_BUILD_CAP,
               min_size: int | None = None) -> BranchingProgram:
    """Deterministic reduced OBDD of f, levelized by the variable order.

    Size is the node count: decision nodes plus both terminals.  The root's
    row is the truth table along the order (`truth_table`, one bit per
    assignment), and each level keys its nodes by their residual rows, also
    ints, so a node's two children are a mask and a shift of its row.
    Nodes are numbered level by level in the order they are first reached;
    the two terminals come last.  Each node's two edges are emitted in
    canonical order, so nothing is sorted.  The self-check is one pass over
    the arrays: every edge leads to a later node, which makes the program
    acyclic and leaves root 0 without an in-edge, and none leaves the leaf.
    Given min_size, the size order minimization found for this order, the
    program must have that size too, which checks the one engine against
    the other.  A failure is an InvariantViolationError.
    """
    m = f.num_vars
    if m > cap:
        raise CapacityError(f"OBDD build: {m} variables exceeds cap {cap}")
    order = tuple(order)
    if sorted(order) != list(range(m)):
        raise InputError("order is not a permutation of the CNF's variables")
    table = truth_table(f, order)
    width = 1 << m
    if not table or table.bit_count() == width:  # constant: one unlabelled edge if true
        return _program(2, 0, 1, *(((0,), (1,), (0,)) if table else ((), (), ())))

    # A row is one int: bit k is entry k of the residual's table, so the
    # low half is the branch where the level's variable is 0.  The true and
    # false terminals are the last two nodes; until the node count is known,
    # heads name them top and top + 1, above the id of any of the fewer
    # than 2^m decision nodes, so a node's lower head goes first by plain
    # comparison; on equal heads the negative literal goes first.
    top = width
    heads: list[int] = []
    lits: list[int] = []
    nodes = [0]  # the node ids, the very int objects that heads hold
    rows, first = [table], 0  # rows[j] is node first + j, of width bits
    del table  # so the root's row is freed once its level is done
    for var in order:
        width >>= 1
        ones = (1 << width) - 1
        index = {ones: top, 0: top + 1}  # then the next level's rows, in id order
        next_id = first + len(rows) - 2  # plus len(index): the next new id
        low_first, high_first = (-var - 1, var + 1), (var + 1, -var - 1)
        for row in rows:
            low = index.setdefault(row & ones, next_id + len(index))
            high = index.setdefault(row >> width, next_id + len(index))
            if high < low:
                heads += high, low
                lits += high_first
            else:
                heads += low, high
                lits += low_first
        rows, first = list(index)[2:], first + len(rows)
        nodes += itertools.islice(index.values(), 2, None)

    ends = {top: first, top + 1: first + 1}  # the terminals' ids, now that they are known
    z = _program(first + 2, 0, first, tuple(itertools.chain.from_iterable(zip(nodes, nodes))),
                 tuple(map(ends.get, heads, heads)), tuple(lits))
    del heads, lits, nodes  # free the lists before the check
    if not all(map(operator.lt, z.tails, z.heads)):
        t, h = next((t, h) for t, h in zip(z.tails, z.heads) if not t < h)
        raise InvariantViolationError(f"edge ({t},{h}) does not lead to a later node")
    if z.leaf in z.tails:
        raise InvariantViolationError("leaf has outgoing edges")
    if min_size is not None and z.size != min_size:
        raise InvariantViolationError(
            f"OBDD along the best order has {z.size} nodes, order minimization said {min_size}")
    return z


@dataclass(frozen=True)
class MinObddResult:
    size: int
    order: tuple[int, ...]


def min_obdd_size_over_orders(f: Cnf, cap: int = DEFAULT_MIN_SIZE_CAP) -> MinObddResult:
    """Minimum OBDD node count over all m! variable orders, with the
    lexicographically smallest best order.

    The number of nodes at a level depends only on the *set* of variables
    placed before it, so an order's size is the two terminals plus the sum
    of its prefix sets' node counts.  `order_tables` gives each set's
    count and the fewest nodes below it, in O(m·3^m) time; the order adds,
    from the empty set, the smallest variable whose set t keeps that
    fewest: counts[t] + below[t] == below[s].
    """
    m = f.num_vars
    if m > cap:
        raise CapacityError(f"order minimization: {m} variables exceeds cap {cap}")
    counts, below = order_tables(f)
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
) -> Iterator[tuple[int, ...]]:
    """All consistent root-leaf paths, each as its tuple of edge indices,
    in lexicographic order, which is the canonical order of their edge
    sequences.

    Given an assignment (entry v the value of variable v, covering
    z.num_vars as for `evaluate`), only the paths whose labels agree with
    it: those that accept it, in the same order.

    The first step reads `z.topological_order`, so a cyclic program raises
    InputError instead of being walked forever.  Depth-first with an
    explicit stack of out-edge index iterators, one per node on the current
    path, so path length is not bounded by recursion depth.  One set holds
    the signed literals the path has read, seeded with the assignment's;
    each path edge records the literal it added (0 if it added none), so
    popping the edge removes exactly that one.
    """
    z.topological_order  # raises on a cycle
    if assignment is not None and len(assignment) < z.num_vars:
        raise InputError(f"assignment does not cover variable {z.num_vars - 1}")
    heads, lits, out = z.heads, z.lits, z.out_ranges
    count = 0
    path: list[int] = []
    added: list[int] = []  # added[i]: the literal path[i] put in read, or 0
    read = set() if assignment is None else {
        v + 1 if a else -v - 1 for v, a in enumerate(assignment)}
    # stack[i] iterates the out-edge indices of the node that path[:i] reaches.
    stack: list[Iterator[int]] = []
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
        for i in stack[-1]:
            s = lits[i]
            if -s in read:
                continue  # inconsistent continuation
            if s in read:
                s = 0  # read before, so the edge adds nothing
            elif s:
                read.add(s)
            path.append(i)
            added.append(s)
            reached = heads[i]
            break
        else:
            stack.pop()
            if path:
                path.pop()
                read.discard(added.pop())


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
    heads, lits, out = z.heads, z.lits, z.out_ranges
    at = {s: pos[abs(s) - 1] for s in set(lits) if s}  # each signed literal's position
    most: list[dict[int, int]] = [{} for _ in range(z.num_nodes)]
    most[z.root][-1] = 1
    for v in z.topological_order:
        states = most[v]
        if not states:
            continue
        for i in out[v]:
            target = most[heads[i]]
            if not lits[i]:
                for last, k in states.items():
                    if target.get(last, 0) < k:
                        target[last] = k
            else:
                q = at[lits[i]]
                need = max(k + (q <= last) for last, k in states.items())
                if target.get(q, 0) < need:
                    target[q] = need
    return max(most[z.leaf].values(), default=0)


@dataclass(frozen=True)
class SegmentationVerdict:
    ok: bool
    violating_path: tuple[int, ...] | None = None  # edge indices
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
    lits = z.lits
    for p in enumerate_computational_paths(z, cap=path_cap):
        k = min_segments([pos[abs(lits[i]) - 1] for i in p if lits[i]])
        if k > c:
            return SegmentationVerdict(False, p, k)
    return SegmentationVerdict(True)


# --- text serialization ---

BP_HEADER = "c widthlab branching-program format v1"


def format_bp(z: BranchingProgram) -> str:
    """One line per edge in stored order; `parse_bp` reads back an equal program."""
    lines = [BP_HEADER, f"bp {z.num_nodes} {z.root + 1} {z.leaf + 1}"]
    lines += [f"{t + 1} {h + 1} {s}" if s else f"{t + 1} {h + 1}"
              for t, h, s in zip(z.tails, z.heads, z.lits)]
    return "\n".join(lines) + "\n"


def parse_bp(text: str) -> BranchingProgram:
    """The program of a `format_bp` text.  Its edge lines may come in any order:
    one comparison per line checks canonical order, and only a file out of
    that order is sorted."""
    _, (num_nodes, root, leaf), records = read_records(text, "bp", "<nodes> <root> <leaf>")
    tails, heads, lits = [], [], []
    seen: set[tuple[int, int, int]] = set()  # the `_key` of each edge
    last, ordered = (-1,), True  # (-1,) sorts before every key
    for where, parts in records:
        if len(parts) not in (2, 3):
            raise FormatError(f"{where}: expected 'tail head [literal]'")
        tail, head = int_token(parts[0], where), int_token(parts[1], where)
        if not (0 < tail <= num_nodes and 0 < head <= num_nodes):
            bad = head if 0 < tail <= num_nodes else tail
            raise FormatError(f"{where}: node {bad} outside 1..{num_nodes}")
        signed = 0
        if len(parts) == 3:
            signed = int_token(parts[2], where)
            if not signed:
                raise FormatError(f"{where}: 0 is not a literal")
        tail, head = tail - 1, head - 1
        key = _key((tail, head, signed))
        if key in seen:
            raise FormatError(f"{where}: duplicate edge '{' '.join(parts)}'")
        seen.add(key)
        ordered = ordered and last < key
        last = key
        tails.append(tail)
        heads.append(head)
        lits.append(signed)
    ids: dict[int, int] = {}  # one int object per node id, for tails and heads alike
    arrays = (tuple(map(ids.setdefault, tails, tails)),
              tuple(map(ids.setdefault, heads, heads)), lits)
    if not ordered:
        arrays = zip(*sorted(zip(*arrays), key=_key))
    z = _program(num_nodes, root - 1, leaf - 1, *map(tuple, arrays))
    try:
        z.validate()
    except InputError as exc:
        raise FormatError(str(exc)) from exc
    return z
