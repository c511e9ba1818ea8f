"""Desk-scale verification of the decision-diagram size lower bounds:
witness cuts, the 2^t assignment family, separation vectors and the
exact-arithmetic bound checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bprog import (
    BranchingProgram,
    build_obdd,
    enumerate_computational_paths,
    min_obdd_size_over_orders,
    DEFAULT_MIN_SIZE_CAP,
)
from .errors import CapacityError, InputError, InvariantViolationError
from .graph import Graph, Ordering, cut_graph, max_bipartite_matching
from .instances import Cnf, cnf_of_graph, edge_variable, vertex_variable
from .width import cut_sizes, matching_width_exact


@dataclass(frozen=True)
class WitnessCut:
    """A prefix of an ordering together with t matched crossing edges, each
    with its left end inside the prefix and its right end outside."""

    graph: Graph
    prefix_len: int
    pairs: tuple[tuple[int, int], ...]  # (inside, outside)


def witness_cut(g: Graph, sv: Ordering, t: int) -> WitnessCut:
    """Smallest prefix whose cut has a matching of size >= t, with t of the
    matched pairs (deterministically the smallest by endpoint ids).

    `width.cut_sizes` checks sv and finds the prefix; only that prefix's cut
    is matched afresh, by `max_bipartite_matching`, whose pairs the witness
    takes.
    """
    if t < 0:
        raise InputError(f"matching size must be non-negative, got {t}")
    sizes = cut_sizes(g, sv)
    if t == 0:
        return WitnessCut(g, 0, ())
    for i, size in enumerate(sizes, 1):
        if size >= t:
            pairs = tuple(sorted(max_bipartite_matching(cut_graph(g, sv, i))))[:t]
            return WitnessCut(g, i, pairs)
    raise InputError(f"no prefix cut of the ordering has a matching of size {t}")


def assignment_family(f: Cnf, w: WitnessCut) -> tuple[tuple[bool, ...], ...]:
    """The 2^t satisfying assignments induced by a witness cut.

    Every variable is positive except: the matched edges' variables are
    negative, and each matched pair's two vertex variables take opposite
    signs (one sign pattern per family member).
    """
    g = w.graph
    if f.num_vars != g.n + len(g.edges):
        raise InputError("CNF does not match the witness cut's host graph")
    base = [True] * f.num_vars
    for u, v in w.pairs:
        base[edge_variable(g, u, v)] = False
    t = len(w.pairs)
    family = []
    for pattern in range(1 << t):
        s = list(base)
        for i, (u, v) in enumerate(w.pairs):
            bit = bool((pattern >> i) & 1)
            s[vertex_variable(g, u)] = bit
            s[vertex_variable(g, v)] = not bit
        family.append(tuple(s))
    return tuple(family)


def separation_vector(
    z: BranchingProgram,
    path: tuple[int, ...],
    sv_star: Sequence[int],
    svp_vars: frozenset[int],
    c: int,
    suffix_vars: frozenset[int],
) -> tuple[int, ...]:
    """The (2c-1)-tuple of segment-boundary nodes of a computational path
    of z, given by its edge indices from the root.

    The path is split greedily into order-respecting segments: a new one
    starts at each labelled edge whose variable does not follow the
    previous label's in sv_star (the descents `min_segments` counts).  At
    most c are allowed, and empty trailing segments pad the split to c.
    Each segment is then split at the head of its last edge labelled by a
    prefix-side variable (one in svp_vars).  A segment that reads no
    suffix-side variable (none in suffix_vars) keeps its own end as the
    boundary; one that reads suffix-side but no prefix-side variables uses
    its start.  A variable in neither set, such as an edge variable, counts
    for neither side.  An unknown variable is reported before an exceeded
    budget.
    """
    if c < 1:
        raise InputError(f"segment budget must be positive, got {c}")
    pos = {v: i for i, v in enumerate(sv_star)}
    # [first edge, last prefix-side edge or None, reads a suffix-side variable]
    segments: list[list] = [[0, None, False]]
    last = None
    lits = z.lits
    for j, i in enumerate(path):
        if not lits[i]:
            continue
        v = abs(lits[i]) - 1
        if v not in pos:
            raise InputError(f"path labels variable {v} missing from the order")
        if last is not None and pos[v] <= last:
            segments.append([j, None, False])
        last = pos[v]
        if v in svp_vars:
            segments[-1][1] = j
        if v in suffix_vars:
            segments[-1][2] = True
    if len(segments) > c:
        raise InputError(f"path needs {len(segments)} segments, budget is {c}")
    segments += [[len(path), None, False]] * (c - len(segments))

    nodes = [z.root, *map(z.heads.__getitem__, path)]
    vector: list[int] = []
    for i, (a, prefix_edge, has_suffix) in enumerate(segments):
        b = segments[i + 1][0] if i + 1 < c else len(path)
        if prefix_edge is not None and has_suffix:
            vector.append(nodes[prefix_edge + 1])
        elif has_suffix:
            vector.append(nodes[a])
        else:
            vector.append(nodes[b])
        if i < c - 1:
            vector.append(nodes[b])
    return tuple(vector)


@dataclass(frozen=True)
class DistinctnessReport:
    distinct: bool
    vectors: tuple[tuple[int, ...], ...]
    collisions: tuple[tuple[int, int], ...]  # member index pairs


def check_distinctness(
    z: BranchingProgram,
    family: Sequence[Sequence[bool]],
    sv_star: Sequence[int],
    svp_vars: frozenset[int],
    c: int,
    suffix_vars: frozenset[int],
) -> DistinctnessReport:
    """One accepting path per family member (lexicographically smallest edge
    sequence), one separation vector each (`separation_vector` with the
    prefix-side svp_vars and suffix-side suffix_vars); reports any vector
    collision.

    A member's path is the first one the path enumeration yields when
    seeded with that member, so the walk follows only edges that agree
    with it.  A missing accepting path means the program rejects a
    required satisfying assignment: an InputError, not a falsification.
    """
    vectors: list[tuple[int, ...]] = []
    for idx, s in enumerate(family):
        path = next(enumerate_computational_paths(z, assignment=s), None)
        if path is None:
            raise InputError(f"no accepting path for family member {idx}")
        vectors.append(separation_vector(z, path, sv_star, svp_vars, c, suffix_vars))
    collisions = tuple(
        (i, j)
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
        if vectors[i] == vectors[j]
    )
    return DistinctnessReport(not collisions, tuple(vectors), collisions)


def verify_size_bound(z_size: int, t: int, c: int) -> bool:
    """Whether size >= 2^(t/(2c-1)), compared in exact integer arithmetic
    as size^(2c-1) >= 2^t."""
    if z_size < 0 or t < 0 or c < 1:
        raise InputError("bad bound parameters")
    return z_size ** (2 * c - 1) >= 1 << t


def run_lb_experiment(
    g: Graph,
    c: int,
    t: int | None = None,
    min_size_cap: int = DEFAULT_MIN_SIZE_CAP,
) -> dict:
    """End-to-end lower-bound experiment on one graph; JSON-ready report.

    Measures the minimum OBDD size of the graph's CNF over all variable
    orders, checks it against 2^(t/(2c-1)) with t the exact matching
    width, and verifies the assignment family and separation-vector
    distinctness on the size-minimal OBDD.  The minimum size comes from the
    compaction and the OBDD from `build_obdd`, so a size mismatch between
    the two engines raises InvariantViolationError, as does that OBDD
    rejecting a family member.  The OBDD is read-once, so no path needs
    more segments than there are variables.
    The CNF has one variable per vertex and per edge, so c is checked
    against that limit, t against 0..n // 2 (no cut matching has more
    edges) and the variable count against min_size_cap before the CNF is
    built or any DP runs.
    """
    m = g.n + len(g.edges)
    limit = max(1, m)
    if not 1 <= c <= limit:
        raise InputError(f"segment budget must be between 1 and {limit}, got {c}")
    if t is not None and t < 0:
        raise InputError(f"t must be non-negative, got {t}")
    if t is not None and t > g.n // 2:
        raise InputError(f"t must be at most {g.n // 2}, the most edges a cut matching "
                         f"of {g.n} vertices can have, got {t}")
    if m > min_size_cap:
        raise CapacityError(f"order minimization: {m} variables exceeds cap {min_size_cap}")
    f = cnf_of_graph(g)
    mw_report = matching_width_exact(g)
    if t is None:
        t = mw_report.value
    best = min_obdd_size_over_orders(f, cap=min_size_cap)
    z = build_obdd(f, best.order, min_size=best.size)
    holds = verify_size_bound(best.size, t, c)

    sv = tuple(v for v in best.order if v < g.n)
    w = witness_cut(g, sv, t)
    family = assignment_family(f, w)
    member_sat = [f.evaluate(s) for s in family]
    svp_vars = frozenset(sv[: w.prefix_len])
    suffix_vars = frozenset(sv[w.prefix_len :])
    try:
        distinct = check_distinctness(z, family, best.order, svp_vars, c, suffix_vars)
    except InputError as exc:  # every argument was built here, from our own OBDD
        raise InvariantViolationError(str(exc)) from exc

    ok = (
        holds
        and all(member_sat)
        and distinct.distinct
        and len(family) == 1 << t
    )
    return {
        "format": "widthlab lb-experiment report v1",
        "instance": {"n": g.n, "edges": len(g.edges), "cnf_vars": f.num_vars},
        "c": c,
        "t": t,
        "matching_width": mw_report.value,
        "bound": {
            "statement": "size^(2c-1) >= 2^t",
            "lhs": best.size ** (2 * c - 1),
            "rhs": 1 << t,
            "holds": holds,
        },
        "measured_size": best.size,
        "best_order": list(best.order),
        "witness_prefix_len": w.prefix_len,
        "witness_pairs": [list(p) for p in w.pairs],
        "family_size": len(family),
        "members": [
            {
                "index": i,
                "satisfies": member_sat[i],
                "vector": list(distinct.vectors[i]),
            }
            for i in range(len(family))
        ],
        "vectors_distinct": distinct.distinct,
        "pass": ok,
    }
