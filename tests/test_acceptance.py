"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single pass/fail line (and
pytest -v shows one PASSED/FAILED line per criterion).  Everything here
is exact arithmetic; there are no tolerances.
"""

import json
import random
from itertools import product

import pytest

from widthlab.graph import (
    Graph,
    Ordering,
    cut_graph,
    format_dimacs_graph,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
)
from widthlab.instances import (
    cnf_of_graph,
    ct_graph,
    f_rk,
    f_rk_num_vars,
    path_graph,
)
from widthlab.decomposition import (
    ctree_decomposition,
    ctree_primal_graph,
    optimal_path_decomposition,
    ordering_from_path_decomposition,
    path_decomposition_from_ordering,
    validate_decomposition,
)
from widthlab.width import matching_width_exact, mw_of_ordering, pathwidth_exact
from widthlab.bprog import (
    BranchingProgram,
    build_obdd,
    check_c_nsobdd,
    min_obdd_size_over_orders,
)
from widthlab.lbound import assignment_family, check_distinctness, witness_cut
from widthlab.cli import main as cli_main

from oracles import brute_matching_width, clause_scan_satisfies, cut_edges


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def complete_graph(n):
    return Graph.make(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def small_bound_instances(corpus):
    """Corpus graphs with n <= 5 plus the named hand instances."""
    out = [g for _, g in corpus if g.n <= 5]
    out += [
        path_graph(3),
        path_graph(4),
        complete_graph(3),
        complete_graph(4),
        Graph.make(4, [(0, 1), (2, 3)]),  # two disjoint edges
    ]
    return out


@pytest.fixture(scope="module")
def bound_setups(corpus):
    """Shared minimum-size OBDDs for the lower-bound criteria."""
    setups = []
    for g in small_bound_instances(corpus):
        f = cnf_of_graph(g)
        mw = matching_width_exact(g).value
        best = min_obdd_size_over_orders(f)
        z = build_obdd(f, best.order)
        setups.append((g, f, mw, best, z))
    return setups


def test_criterion_01_path_ordering_examples():
    g = path_graph(10)
    natural = mw_of_ordering(g, Ordering.make(range(10))).value
    interleaved = mw_of_ordering(
        g, Ordering.make([0, 2, 4, 6, 8, 1, 3, 5, 7, 9])
    ).value
    exact = matching_width_exact(g).value
    ok = (natural, interleaved, exact) == (1, 5, 1)
    verdict(1, ok, f"P_10 orderings give mw {natural}/{interleaved}/{exact}, "
                   "expected 1/5/1")


def test_criterion_02_matching_equals_cover_on_every_prefix(corpus):
    checked = 0
    for seed, g in corpus:
        orderings = [list(range(g.n)), list(range(g.n - 1, -1, -1))]
        shuffled = list(range(g.n))
        random.Random(seed).shuffle(shuffled)
        orderings.append(shuffled)
        for seq in orderings:
            sv = Ordering.make(seq)
            for i in range(1, g.n):
                c = cut_graph(g, sv, i)
                m = max_bipartite_matching(c)
                cover = min_vertex_cover_bipartite(c, m)
                # cover validity plus |cover| = |matching| pins nu = tau
                assert all(cover >> u & 1 or cover >> v & 1 for u, v in cut_edges(c))
                assert cover.bit_count() == len(m)
                checked += 1
    verdict(2, checked > 0,
            f"nu = tau via the cover construction on {checked} prefix cuts "
            f"of {len(corpus)} graphs")


def test_criterion_03_subset_dp_equals_permutation_enumeration(corpus):
    mismatches = []
    checked = 0
    for seed, g in corpus:
        if g.n > 7:
            continue
        report = matching_width_exact(g)
        if (report.value, report.witness_ordering.seq) != brute_matching_width(g):
            mismatches.append(seed)
        checked += 1
    verdict(3, not mismatches,
            f"subset DP equals full enumeration on {checked} graphs with "
            f"n <= 7 (mismatched seeds: {mismatches or 'none'})")


def test_criterion_04_pathwidth_sandwich(corpus):
    violations = []
    for seed, g in corpus:
        mw = matching_width_exact(g).value
        pw = pathwidth_exact(g).value
        if not (pw <= 2 * mw and mw <= pw + 1):
            violations.append((seed, mw, pw))
    verdict(4, not violations,
            f"pw/2 <= mw <= pw+1 on all {len(corpus)} graphs "
            f"(violations: {violations or 'none'})")


def test_criterion_05_constructive_conversions(corpus):
    violations = []
    for seed, g in corpus:
        mw_report = matching_width_exact(g)
        pd = path_decomposition_from_ordering(g, mw_report.witness_ordering)
        if not validate_decomposition(g, pd).valid or pd.width > 2 * mw_report.value:
            violations.append((seed, "ordering->pd"))
            continue
        pw = pathwidth_exact(g).value
        opt_pd = optimal_path_decomposition(g)
        sv = ordering_from_path_decomposition(g, opt_pd)
        if mw_of_ordering(g, sv).value > pw + 1:
            violations.append((seed, "pd->ordering"))
    verdict(5, not violations,
            f"both conversions meet their width bounds on {len(corpus)} "
            f"graphs (violations: {violations or 'none'})")


def test_criterion_06_blown_tree_decomposition():
    failures = []
    for r, k in product(range(4), (2, 3, 4)):
        d = ctree_decomposition(r, k).extended
        primal = ctree_primal_graph(r, k)
        if not validate_decomposition(primal, d).valid or d.width > 2 * k - 1:
            failures.append((r, k))
    verdict(6, not failures,
            "extended decompositions validate with width <= 2k-1 for "
            f"r <= 3, k in 2..4 (failures: {failures or 'none'})")


def test_criterion_07_variable_counting_formulas():
    failures = []
    for r, k in product(range(6), range(1, 6)):
        count = f_rk(r, k).num_vars
        if count != f_rk_num_vars(r, k) or count > (1 << r) * 6 * k * k:
            failures.append((r, k))
    for r in range(1, 5):
        closed = (1 << r) * (3 * r * r + r) - (5 * r * r + r) // 2
        if f_rk_num_vars(r, r) != closed:
            failures.append((r, r))
    verdict(7, not failures,
            "variable counts match the closed forms and the 2^r*6k^2 bound "
            f"for r <= 5, k <= 5 (failures: {failures or 'none'})")


def test_criterion_08_assignment_families_satisfy(corpus):
    families = 0
    failures = []
    for seed, g in corpus:
        f = cnf_of_graph(g)
        sv = matching_width_exact(g).witness_ordering
        top = min(5, mw_of_ordering(g, sv).value)
        for t in range(top + 1):
            family = assignment_family(f, witness_cut(g, sv, t))
            ok = (
                len(family) == 1 << t
                and len(set(family)) == len(family)
                and all(clause_scan_satisfies(f, s) for s in family)
            )
            if not ok:
                failures.append((seed, t))
            families += 1
    verdict(8, not failures,
            f"all {families} families have exactly 2^t distinct satisfying "
            f"members (failures: {failures or 'none'})")


def test_criterion_09_minimum_size_exceeds_two_to_the_width(bound_setups):
    violations = []
    for g, f, mw, best, z in bound_setups:
        if not best.size >= 1 << mw:
            violations.append((g.n, sorted(g.edges)))
    verdict(9, not violations,
            f"min OBDD size >= 2^mw on {len(bound_setups)} instances "
            f"(violations: {violations or 'none'})")


def test_criterion_10_separation_vectors_are_distinct(bound_setups):
    collisions = []
    checks = 0
    for g, f, mw, best, z in bound_setups:
        sv = Ordering.make([v for v in best.order if v < g.n])
        top = min(3, mw_of_ordering(g, sv).value)
        for t in range(1, top + 1):
            w = witness_cut(g, sv, t)
            family = assignment_family(f, w)
            report = check_distinctness(
                z,
                family,
                best.order,
                frozenset(sv.seq[: w.prefix_len]),
                c=1,
                suffix_vars=frozenset(sv.seq[w.prefix_len :]),
            )
            if not report.distinct:
                collisions.append((g.n, sorted(g.edges), t))
            checks += 1
    verdict(10, not collisions,
            f"zero vector collisions across {checks} families with t <= 3 "
            f"(collisions: {collisions or 'none'})")


def test_criterion_11_semantic_segmentation_checker():
    parts = []
    # every built OBDD passes with its own order
    f = cnf_of_graph(path_graph(3))
    own_order_ok = all(
        check_c_nsobdd(build_obdd(f, order), order, 1).ok
        for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3))
    )
    parts.append(("own order", own_order_ok))
    # a chain testing x3 then x1 fails at c=1 and passes at c=2
    chain = BranchingProgram(
        3, ((0, 1, 3), (1, 2, 1)), 0, 2
    )
    parts.append(("descending chain", not check_c_nsobdd(chain, (0, 1, 2), 1).ok
                  and check_c_nsobdd(chain, (0, 1, 2), 2).ok))
    # the only order-violating path reads x1 with both signs: exempt
    exempt = BranchingProgram(
        4,
        (
            (0, 1, 1),
            (1, 3, -1),
            (0, 2, 2),
            (2, 3, 0),
        ),
        0,
        3,
    )
    parts.append(("inconsistent path", check_c_nsobdd(exempt, (0, 1), 1).ok))
    ok = all(flag for _, flag in parts)
    verdict(11, ok, "semantic checker verdicts: "
            + ", ".join(f"{name} {'ok' if flag else 'WRONG'}" for name, flag in parts))


def test_criterion_12_blown_tree_matching_width():
    results = []
    ok = True
    for r, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        mw = matching_width_exact(ct_graph(r, k)).value
        need = (r * k + 1) // 2
        results.append(f"CT_{r},{k}: {mw} >= {need}")
        ok = ok and mw >= need
    verdict(12, ok, "; ".join(results))


def test_criterion_13_cli_determinism(tmp_path, capsys):
    g_file = str(tmp_path / "g.gr")
    (tmp_path / "g.gr").write_text(format_dimacs_graph(path_graph(4)))
    cnf_file = str(tmp_path / "g.cnf")
    bp_file = str(tmp_path / "g.bp")
    pd_file = str(tmp_path / "g.td")
    prep = [
        ("gen-cnf", "--graph", g_file, "--out", cnf_file),
        ("obdd-build", "--cnf", cnf_file, "--out", bp_file),
        ("pd-from-order", "--graph", g_file, "--order", "0 1 2 3",
         "--out", pd_file),
    ]
    for argv in prep:
        assert cli_main(list(argv)) in (0,)
        capsys.readouterr()
    commands = [
        ("gen-graph", "--kind", "random", "--n", "6", "--p", "0.4", "--seed", "11"),
        ("gen-cnf", "--r", "1", "--k", "2"),
        ("mw", "--graph", g_file, "--json"),
        ("pw", "--graph", g_file, "--json"),
        ("td-ctree", "--r", "2", "--k", "2", "--extended"),
        ("order-from-pd", "--graph", g_file, "--pd", pd_file, "--json"),
        ("pd-from-order", "--graph", g_file, "--order", "0 1 2 3"),
        ("obdd-build", "--cnf", cnf_file, "--json"),
        ("obdd-min", "--cnf", cnf_file, "--json"),
        ("check-cnsobdd", "--bp", bp_file, "--c", "1", "--json"),
        ("lb-experiment", "--graph", g_file, "--c", "1"),
    ]
    unstable = []
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            runs.append((code, out))
        if runs[0] != runs[1]:
            unstable.append(argv[0])
        if runs[0][1].startswith("{"):
            json.loads(runs[0][1])  # JSON commands emit parseable JSON
    verdict(13, not unstable,
            f"all {len(commands)} CLI commands byte-identical across runs "
            f"(unstable: {unstable or 'none'})")
