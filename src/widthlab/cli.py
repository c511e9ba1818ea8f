"""Command-line surface.

Exit codes: 0 success / checks passed, 1 a checked inequality or property
was falsified, 2 usage or input error.  JSON output (--json) is
byte-identical across runs for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bprog, decomposition, graph, instances, lbound, width
from .errors import (
    CapacityError,
    InputError,
    InvariantViolationError,
    ProgramIncorrectError,
    WidthlabError,
    WitnessNotFoundError,
    int_token,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_graph(path: str) -> graph.Graph:
    return graph.parse_dimacs_graph(Path(path).read_text())


def _parse_order(spec: str, n: int) -> graph.Ordering:
    parts = spec.replace(",", " ").split()
    seq = [int_token(p, "--order", InputError) for p in parts]
    if len(seq) != n:
        raise InputError(f"order has {len(seq)} entries, expected {n}")
    return graph.Ordering.make(seq)


def _parse_var_order(spec: str, m: int) -> tuple[int, ...]:
    o = tuple(int_token(p, "--order", InputError) for p in spec.replace(",", " ").split())
    if sorted(o) != list(range(m)):
        raise InputError(f"not a permutation of 0..{m - 1}: {o}")
    return o


def cmd_gen_graph(args) -> int:
    params = {"n": args.n, "p": args.p, "rows": args.rows, "cols": args.cols}
    params = {k: v for k, v in params.items() if v is not None}
    g = instances.generate(args.kind, params, seed=args.seed)
    comments = [f"generator {args.kind} seed {args.seed} params "
                + " ".join(f"{k}={params[k]}" for k in sorted(params))]
    _write_out(graph.format_dimacs_graph(g, comments), args.out)
    return EXIT_OK


def cmd_gen_cnf(args) -> int:
    if args.graph is not None:
        g = _load_graph(args.graph)
        f = instances.cnf_of_graph(g)
    elif args.r is not None and args.k is not None:
        f = instances.f_rk(args.r, args.k)
    else:
        raise InputError("gen-cnf needs --graph or both --r and --k")
    _write_out(instances.format_dimacs_cnf(f), args.out)
    return EXIT_OK


def cmd_mw(args) -> int:
    g = _load_graph(args.graph)
    if args.order is not None:
        report = width.mw_of_ordering(g, _parse_order(args.order, g.n))
        mode = "ordering"
    else:
        report = width.matching_width_exact(g, cap=args.cap)
        mode = "exact"
    if args.json:
        _write_out(_dump_json({
            "command": "mw",
            "mode": mode,
            "value": report.value,
            "witness_ordering": list(report.witness_ordering.seq),
            "witness_prefix": report.witness_prefix,
        }), args.out)
    else:
        _write_out(f"{report.value}\n", args.out)
    return EXIT_OK


def cmd_pw(args) -> int:
    g = _load_graph(args.graph)
    report = width.pathwidth_exact(g, cap=args.cap)
    if args.json:
        _write_out(_dump_json({
            "command": "pw",
            "value": report.value,
            "witness_ordering": list(report.witness_ordering.seq),
        }), args.out)
    else:
        _write_out(f"{report.value}\n", args.out)
    return EXIT_OK


def cmd_td_ctree(args) -> int:
    result = decomposition.ctree_decomposition(args.r, args.k)
    if args.extended:
        d = result.extended
        n = decomposition.ctree_primal_graph(args.r, args.k).n
    else:
        d = result.base
        n = instances.ct_graph(args.r, args.k).n
    _write_out(decomposition.format_pace(d, n), args.out)
    return EXIT_OK


def cmd_order_from_pd(args) -> int:
    g = _load_graph(args.graph)
    td, _ = decomposition.parse_pace(Path(args.pd).read_text())
    pd = decomposition.as_path_decomposition(td)
    ordering = decomposition.ordering_from_path_decomposition(g, pd)
    value = width.mw_of_ordering(g, ordering).value
    if args.json:
        _write_out(_dump_json({
            "command": "order-from-pd",
            "ordering": list(ordering.seq),
            "mw_of_ordering": value,
            "pd_width": pd.width,
        }), args.out)
    else:
        _write_out(" ".join(str(v) for v in ordering.seq) + "\n", args.out)
    return EXIT_OK


def cmd_pd_from_order(args) -> int:
    g = _load_graph(args.graph)
    sv = _parse_order(args.order, g.n)
    pd = decomposition.path_decomposition_from_ordering(g, sv)
    verdict = decomposition.validate_decomposition(g, pd)
    if not verdict.valid:
        raise InvariantViolationError(
            f"constructed decomposition invalid: {verdict.failed_property}"
        )
    _write_out(decomposition.format_pace(pd, g.n), args.out)
    return EXIT_OK


def cmd_obdd_build(args) -> int:
    f = instances.parse_dimacs_cnf(Path(args.cnf).read_text())
    order = (
        _parse_var_order(args.order, f.num_vars)
        if args.order is not None
        else tuple(range(f.num_vars))
    )
    z = bprog.build_obdd(f, order, cap=args.cap)
    if args.out is not None:
        Path(args.out).write_text(bprog.format_bp(z))
    if args.json:
        sys.stdout.write(_dump_json({
            "command": "obdd-build",
            "size": z.size,
            "order": list(order),
        }))
    else:
        sys.stdout.write(f"{z.size}\n")
    return EXIT_OK


def cmd_obdd_min(args) -> int:
    f = instances.parse_dimacs_cnf(Path(args.cnf).read_text())
    result = bprog.min_obdd_size_over_orders(f, cap=args.cap)
    if args.json:
        _write_out(_dump_json({
            "command": "obdd-min",
            "size": result.size,
            "order": list(result.order),
        }), args.out)
    else:
        _write_out(f"{result.size} {' '.join(str(v) for v in result.order)}\n", args.out)
    return EXIT_OK


def cmd_check_cnsobdd(args) -> int:
    z = bprog.parse_bp(Path(args.bp).read_text())
    m = (max(z.variables()) + 1) if z.variables() else 0
    order = (
        _parse_var_order(args.order, m)
        if args.order is not None
        else tuple(range(m))
    )
    verdict = bprog.check_c_nsobdd(z, order, args.c, path_cap=args.path_cap)
    payload = {
        "command": "check-cnsobdd",
        "c": args.c,
        "pass": verdict.ok,
        "segments_needed": verdict.segments_needed,
    }
    if args.json:
        _write_out(_dump_json(payload), args.out)
    else:
        _write_out(("pass" if verdict.ok else
                    f"fail: a path needs {verdict.segments_needed} segments") + "\n",
                   args.out)
    return EXIT_OK if verdict.ok else EXIT_FALSIFIED


def cmd_lb_experiment(args) -> int:
    g = _load_graph(args.graph)
    report = lbound.run_lb_experiment(g, args.c, t=args.t, min_size_cap=args.cap)
    _write_out(_dump_json(report), args.out)
    return EXIT_OK if report["pass"] else EXIT_FALSIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="Width parameters, path decompositions, graph CNFs and "
                    "decision-diagram size experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a test graph (DIMACS)")
    p.add_argument("--kind", required=True, choices=["path", "cycle", "grid", "random"])
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("gen-cnf", help="graph CNF as DIMACS")
    p.add_argument("--graph")
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_cnf)

    p = sub.add_parser("mw", help="matching width (exact or of an ordering)")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", help="explicit vertex ordering; omit for exact")
    p.add_argument("--cap", type=int, default=width.DEFAULT_SUBSET_DP_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mw)

    p = sub.add_parser("pw", help="exact pathwidth")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=int, default=width.DEFAULT_SUBSET_DP_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pw)

    p = sub.add_parser("td-ctree", help="decomposition of the clique-blown tree (PACE)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--extended", action="store_true",
                   help="extension covering the CNF's primal graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_td_ctree)

    p = sub.add_parser("order-from-pd", help="vertex ordering from a path decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--pd", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_order_from_pd)

    p = sub.add_parser("pd-from-order", help="path decomposition from a vertex ordering")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pd_from_order)

    p = sub.add_parser("obdd-build", help="build an OBDD from a DIMACS CNF")
    p.add_argument("--cnf", required=True)
    p.add_argument("--order", help="variable order, 0-based; default ascending")
    p.add_argument("--cap", type=int, default=bprog.DEFAULT_BUILD_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the program in branching-program text format")
    p.set_defaults(func=cmd_obdd_build)

    p = sub.add_parser("obdd-min", help="minimum OBDD size over variable orders")
    p.add_argument("--cnf", required=True)
    p.add_argument("--cap", type=int, default=bprog.DEFAULT_MIN_SIZE_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_obdd_min)

    p = sub.add_parser("check-cnsobdd", help="order-segmentation check of a program")
    p.add_argument("--bp", required=True)
    p.add_argument("--order", help="variable order, 0-based; default ascending")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--path-cap", type=int, default=bprog.DEFAULT_PATH_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_cnsobdd)

    p = sub.add_parser("lb-experiment", help="size lower-bound experiment (JSON)")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--cap", type=int, default=bprog.DEFAULT_MIN_SIZE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lb_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InputError, CapacityError, WitnessNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantViolationError, ProgramIncorrectError, WidthlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
