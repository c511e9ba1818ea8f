"""Desk-scale verification of the decision-diagram size lower bounds:
witness cuts, the 2^t assignment family, separation vectors and the
exact-arithmetic bound checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bprog import (
    BranchingProgram,
    ComputationalPath,
    build_obdd,
    enumerate_computational_paths,
    min_obdd_size_over_orders,
    DEFAULT_MIN_SIZE_CAP,
    DEFAULT_PATH_CAP,
)
from .errors import InputError, ProgramIncorrectError, WitnessNotFoundError
from .graph import Graph, Ordering, cut_graph, max_bipartite_matching
from .instances import Cnf, cnf_of_graph, edge_variable, vertex_variable
from .width import matching_width_exact


@dataclass(frozen=True)
class WitnessCut:
    """A prefix of an ordering together with t matched crossing edges, each
    with its left end inside the prefix and its right end outside."""

    graph: Graph
    ordering: Ordering
    prefix_len: int
    pairs: tuple[tuple[int, int], ...]  # (inside, outside)


def witness_cut(g: Graph, sv: Ordering, t: int) -> WitnessCut:
    """Smallest prefix whose cut has a matching of size >= t, with t of the
    matched pairs (deterministically the smallest by endpoint ids)."""
    if t < 0:
        raise InputError(f"matching size must be non-negative, got {t}")
    if t == 0:
        return WitnessCut(g, sv, 0, ())
    for i in range(1, g.n):
        m = max_bipartite_matching(cut_graph(g, sv, i))
        if len(m) >= t:
            pairs = tuple(sorted(m.pairs))[:t]
            return WitnessCut(g, sv, i, pairs)
    raise WitnessNotFoundError(
        f"no prefix cut of the ordering has a matching of size {t}"
    )


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
    p: ComputationalPath,
    root: int,
    sv_star: Sequence[int],
    svp_vars: frozenset[int],
    c: int,
    suffix_vars: frozenset[int] | None = None,
) -> tuple[int, ...]:
    """The (2c-1)-tuple of segment-boundary nodes of a computational path.

    The path is split greedily into order-respecting segments: a new one
    starts at each labelled edge whose variable does not follow the
    previous label's in sv_star (the descents `min_segments` counts).  At
    most c are allowed, and empty trailing segments pad the split to c.
    Each segment is then split at the head of its last edge labelled by a
    prefix-side variable.  A segment with only prefix-side variables (or
    none at all) keeps its own end as the boundary; one with only
    suffix-side variables uses its start.  An unknown variable is reported
    before an exceeded budget.
    """
    if c < 1:
        raise InputError(f"segment budget must be positive, got {c}")
    pos = {v: i for i, v in enumerate(sv_star)}
    if suffix_vars is None:
        suffix_vars = frozenset(pos) - svp_vars
    # [first edge, last prefix-side edge or None, reads a suffix-side variable]
    segments: list[list] = [[0, None, False]]
    last = None
    for j, e in enumerate(p.edges):
        if e.label is None:
            continue
        v = e.label.var
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
    segments += [[len(p.edges), None, False]] * (c - len(segments))

    nodes = p.nodes(root)
    vector: list[int] = []
    for i, (a, prefix_edge, has_suffix) in enumerate(segments):
        b = segments[i + 1][0] if i + 1 < c else len(p.edges)
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
    suffix_vars: frozenset[int] | None = None,
    path_cap: int = DEFAULT_PATH_CAP,
) -> DistinctnessReport:
    """One accepting path per family member (lexicographically smallest edge
    sequence), one separation vector each; reports any vector collision.

    Paths are enumerated once, in that order, until every member has one.  A
    missing accepting path means the program rejects a required satisfying
    assignment and is an error, not a falsification.
    """
    chosen: dict[int, ComputationalPath] = {}
    paths = enumerate_computational_paths(z, cap=path_cap)
    while len(chosen) < len(family) and (p := next(paths, None)) is not None:
        for idx, s in enumerate(family):
            if idx not in chosen and all(s[l.var] == l.positive for l in p.literals):
                chosen[idx] = p
    vectors: list[tuple[int, ...]] = []
    for idx in range(len(family)):
        if idx not in chosen:
            raise ProgramIncorrectError(f"no accepting path for family member {idx}")
        vectors.append(separation_vector(chosen[idx], z.root, sv_star, svp_vars, c, suffix_vars))
    collisions = tuple(
        (i, j)
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
        if vectors[i] == vectors[j]
    )
    return DistinctnessReport(not collisions, tuple(vectors), collisions)


@dataclass(frozen=True)
class BoundVerdict:
    passes: bool
    size_ok: bool
    rk_ok: bool | None = None


def verify_size_bound(z_size: int, t: int, c: int, rk: int | None = None) -> BoundVerdict:
    """size >= 2^(t/(2c-1)), compared in exact integer arithmetic as
    size^(2c-1) >= 2^t; optionally also size^(4c-2) >= 2^rk."""
    if z_size < 0 or t < 0 or c < 1:
        raise InputError("bad bound parameters")
    size_ok = z_size ** (2 * c - 1) >= 1 << t
    rk_ok = None
    if rk is not None:
        rk_ok = z_size ** (4 * c - 2) >= 1 << rk
    return BoundVerdict(size_ok and (rk_ok is not False), size_ok, rk_ok)


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
    distinctness on the size-minimal OBDD.  That OBDD is read-once, so no
    path needs more segments than there are variables, and c is checked
    against that limit before any DP runs.
    """
    f = cnf_of_graph(g)
    limit = max(1, f.num_vars)
    if not 1 <= c <= limit:
        raise InputError(f"segment budget must be between 1 and {limit}, got {c}")
    mw_report = matching_width_exact(g)
    if t is None:
        t = mw_report.value
    best = min_obdd_size_over_orders(f, cap=min_size_cap)
    z = build_obdd(f, best.order)
    bound = verify_size_bound(best.size, t, c)

    sv = Ordering.make([v for v in best.order if v < g.n])
    w = witness_cut(g, sv, t)
    family = assignment_family(f, w)
    member_sat = [f.evaluate(s) for s in family]
    svp_vars = frozenset(sv.seq[: w.prefix_len])
    suffix_vars = frozenset(sv.seq[w.prefix_len :])
    distinct = check_distinctness(z, family, best.order, svp_vars, c, suffix_vars)

    ok = (
        bound.passes
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
            "holds": bound.size_ok,
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
