"""Command-line surface.

Exit codes: 0 success / checks passed, 1 a checked inequality or property
was falsified, 2 usage or input error, 3 an internal self-check failed (an
implementation bug).  JSON output (--json) is byte-identical across runs
for identical inputs and seeds.

`main` builds only the parser of the command it runs (all of them for
--help, no arguments or an unknown command): 0.2-0.3 ms instead of the full
parser's 1.4-1.9 ms per command (Python 3.11, shared 2-vCPU VM).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from . import bprog, decomposition, graph, instances, lbound, width
from .errors import CapacityError, InputError, InvariantViolationError, int_token

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3

# The most variables a generated CNF, or vertices plus edges a generated
# graph, may have.  gen-cnf, td-ctree and gen-graph check their output
# against it before they build anything per variable, vertex or edge.
MAX_GENERATED_VARS = 1 << 20


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_result(args, payload: dict, text: str) -> None:
    """Write the command's result to --out or stdout: `payload`, tagged with
    the command's name, as JSON under --json, else the line `text`."""
    if args.json:
        _write_out(_dump_json({"command": args.command, **payload}), args.out)
    else:
        _write_out(text + "\n", args.out)


def _read_input(path: str) -> str:
    """The text of an input file, decoded as UTF-8 after any byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_graph(path: str) -> graph.Graph:
    return graph.parse_dimacs_graph(_read_input(path))


def _parse_order(spec: str, n: int) -> tuple[int, ...]:
    """A comma- or space-separated permutation of 0..n-1."""
    o = tuple(int_token(p, "--order", InputError) for p in spec.replace(",", " ").split())
    if len(o) != n or sorted(o) != list(range(n)):
        raise InputError(f"--order is not a permutation of 0..{n - 1}: {o}")
    return o


def _check_generated_vars(num_vars: int, what: str = "variables") -> None:
    if num_vars > MAX_GENERATED_VARS:
        # A count past 64 bits is shown by its power of two: printing it in
        # full can pass Python's 4300-digit limit on int-to-str conversion.
        shown = num_vars if num_vars < 1 << 64 else f"at least 2^{num_vars.bit_length() - 1}"
        raise InputError(f"the output would have {shown} {what}, over the "
                         f"generator limit of {MAX_GENERATED_VARS}")


def _check_graph_size(args) -> None:
    """Check gen-graph's vertices plus edges (vertex pairs for random, as it
    draws one random number per pair whatever p is); the generators reject
    missing or bad parameters."""
    kind, n, p, rows, cols = args.kind, args.n, args.p, args.rows, args.cols
    size = 0
    if kind == "grid" and rows is not None and cols is not None and rows >= 1 and cols >= 1:
        size = 3 * rows * cols - rows - cols
    elif kind == "path" and n is not None and n >= 1:
        size = 2 * n - 1
    elif kind == "cycle" and n is not None and n >= 3:
        size = 2 * n
    elif kind == "random" and n is not None and n >= 0 and p is not None and 0 <= p <= 1:
        size = n + n * (n - 1) // 2
    _check_generated_vars(size, "vertices plus vertex pairs" if kind == "random"
                          else "vertices plus edges")


def _check_ctree_vars(r: int, k: int) -> None:
    """Check f_rk(r, k)'s variable count at height min(r, 64), a lower bound
    past 64 that already fails; the generators reject a bad r or k."""
    if r >= 0 and k >= 1:
        _check_generated_vars(instances.f_rk_num_vars(min(r, 64), k))


def cmd_gen_graph(args) -> int:
    _check_graph_size(args)
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
        _check_generated_vars(g.n + len(g.edges))
    elif args.r is not None and args.k is not None:
        _check_ctree_vars(args.r, args.k)
        g = instances.ct_graph(args.r, args.k)
    else:
        raise InputError("gen-cnf needs --graph or both --r and --k")
    f = instances.cnf_of_graph(g)
    _write_out(instances.format_dimacs_cnf(f, instances.graph_cnf_names(g)), args.out)
    return EXIT_OK


def cmd_mw(args) -> int:
    g = _load_graph(args.graph)
    if args.order is not None:
        report = width.mw_of_ordering(g, graph.Ordering(_parse_order(args.order, g.n)))
        mode = "ordering"
    else:
        report = width.matching_width_exact(g, cap=args.cap)
        mode = "exact"
    _write_result(args, {
        "mode": mode,
        "value": report.value,
        "witness_ordering": list(report.witness_ordering.seq),
        "witness_prefix": report.witness_prefix,
    }, str(report.value))
    return EXIT_OK


def cmd_pw(args) -> int:
    g = _load_graph(args.graph)
    report = width.pathwidth_exact(g, cap=args.cap)
    _write_result(args, {
        "value": report.value,
        "witness_ordering": list(report.witness_ordering.seq),
    }, str(report.value))
    return EXIT_OK


def cmd_td_ctree(args) -> int:
    _check_ctree_vars(args.r, args.k)
    result = decomposition.ctree_decomposition(args.r, args.k)
    d = result.extended if args.extended else result.base
    # Every vertex lies in a bag, so the largest bag entry is n - 1.
    _write_out(decomposition.format_pace(d, 1 + max(map(max, d.bags))), args.out)
    return EXIT_OK


def cmd_order_from_pd(args) -> int:
    g = _load_graph(args.graph)
    td, n = decomposition.parse_pace(_read_input(args.pd))
    if n != g.n:
        raise InputError(f"decomposition declares {n} vertices, but the graph has {g.n}")
    ordering = decomposition.ordering_from_path_decomposition(g, td)
    value = width.mw_of_ordering(g, ordering).value
    _write_result(args, {
        "ordering": list(ordering.seq),
        "mw_of_ordering": value,
        "pd_width": td.width,
    }, " ".join(str(v) for v in ordering.seq))
    return EXIT_OK


def cmd_pd_from_order(args) -> int:
    g = _load_graph(args.graph)
    sv = graph.Ordering(_parse_order(args.order, g.n))
    pd = decomposition.path_decomposition_from_ordering(g, sv)
    verdict = decomposition.validate_decomposition(g, pd)
    if not verdict.valid:
        raise InvariantViolationError(
            f"constructed decomposition invalid: {verdict.failed_property}"
        )
    _write_out(decomposition.format_pace(pd, g.n), args.out)
    return EXIT_OK


def cmd_obdd_build(args) -> int:
    if args.out == "-":
        raise InputError("obdd-build --out cannot be '-': stdout carries the size")
    f = instances.parse_dimacs_cnf(_read_input(args.cnf))
    order = (
        _parse_order(args.order, f.num_vars)
        if args.order is not None
        else range(f.num_vars)
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
    f = instances.parse_dimacs_cnf(_read_input(args.cnf))
    result = bprog.min_obdd_size_over_orders(f, cap=args.cap)
    bprog.build_obdd(f, result.order, min_size=result.size)  # raises if the sizes differ
    _write_result(args, {"size": result.size, "order": list(result.order)},
                  f"{result.size} {' '.join(str(v) for v in result.order)}")
    return EXIT_OK


def cmd_check_cnsobdd(args) -> int:
    z = bprog.parse_bp(_read_input(args.bp))
    order = (
        _parse_order(args.order, z.num_vars)
        if args.order is not None
        else tuple(sorted(z.variables))
    )
    verdict = bprog.check_c_nsobdd(z, order, args.c, path_cap=args.path_cap)
    _write_result(args, {
        "c": args.c,
        "pass": verdict.ok,
        "segments_needed": verdict.segments_needed,
    }, "pass" if verdict.ok else f"fail: a path needs {verdict.segments_needed} segments")
    return EXIT_OK if verdict.ok else EXIT_FALSIFIED


def cmd_lb_experiment(args) -> int:
    g = _load_graph(args.graph)
    report = lbound.run_lb_experiment(g, args.c, t=args.t, min_size_cap=args.cap)
    _write_out(_dump_json(report), args.out)
    return EXIT_OK if report["pass"] else EXIT_FALSIFIED


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a malformed command line as the one
    line `error: <message>` on stderr, without the usage block, and exits 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"error: {message}\n")


_JSON = ("--json", {"action": "store_true"})
_OUT = ("--out", {})
_ORDER = ("--order", {"help": "variable order, 0-based; default ascending"})

# Each command once: its name, handler, help and arguments with their
# argparse keywords, in the order --help lists them.
_COMMANDS = (
    ("gen-graph", cmd_gen_graph, "generate a test graph (DIMACS)", (
        ("--kind", {"required": True, "choices": ["path", "cycle", "grid", "random"]}),
        ("--n", {"type": int}), ("--p", {"type": float}), ("--rows", {"type": int}),
        ("--cols", {"type": int}), ("--seed", {"type": int, "default": 0}), _OUT)),
    ("gen-cnf", cmd_gen_cnf, "graph CNF as DIMACS", (
        ("--graph", {}), ("--r", {"type": int}), ("--k", {"type": int}), _OUT)),
    ("mw", cmd_mw, "matching width (exact or of an ordering)", (
        ("--graph", {"required": True}),
        ("--order", {"help": "explicit vertex ordering; omit for exact"}),
        ("--cap", {"type": int, "default": width.DEFAULT_SUBSET_DP_CAP}), _JSON, _OUT)),
    ("pw", cmd_pw, "exact pathwidth", (
        ("--graph", {"required": True}),
        ("--cap", {"type": int, "default": width.DEFAULT_SUBSET_DP_CAP}), _JSON, _OUT)),
    ("td-ctree", cmd_td_ctree, "decomposition of the clique-blown tree (PACE)", (
        ("--r", {"type": int, "required": True}), ("--k", {"type": int, "required": True}),
        ("--extended", {"action": "store_true",
                        "help": "extension covering the CNF's primal graph"}), _OUT)),
    ("order-from-pd", cmd_order_from_pd, "vertex ordering from a path decomposition", (
        ("--graph", {"required": True}), ("--pd", {"required": True}), _JSON, _OUT)),
    ("pd-from-order", cmd_pd_from_order, "path decomposition from a vertex ordering", (
        ("--graph", {"required": True}), ("--order", {"required": True}), _OUT)),
    ("obdd-build", cmd_obdd_build, "build an OBDD from a DIMACS CNF", (
        ("--cnf", {"required": True}), _ORDER,
        ("--cap", {"type": int, "default": bprog.DEFAULT_BUILD_CAP}), _JSON,
        ("--out", {"help": "write the program in branching-program text format"}))),
    ("obdd-min", cmd_obdd_min, "minimum OBDD size over variable orders", (
        ("--cnf", {"required": True}),
        ("--cap", {"type": int, "default": bprog.DEFAULT_MIN_SIZE_CAP}), _JSON, _OUT)),
    ("check-cnsobdd", cmd_check_cnsobdd, "order-segmentation check of a program", (
        ("--bp", {"required": True}), _ORDER, ("--c", {"type": int, "required": True}),
        ("--path-cap", {"type": int, "default": bprog.DEFAULT_PATH_CAP,
                        "help": "most paths enumerated while searching for a violating "
                                "path; a passing program is certified without enumeration"}),
        _JSON, _OUT)),
    ("lb-experiment", cmd_lb_experiment, "size lower-bound experiment (JSON)", (
        ("--graph", {"required": True}), ("--c", {"type": int, "required": True}),
        ("--t", {"type": int}),
        ("--cap", {"type": int, "default": bprog.DEFAULT_MIN_SIZE_CAP}), _OUT)),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone if it names a command, else of them all
    (for --help, no arguments or an unknown command)."""
    parser = _Parser(
        prog="widthlab",
        description="Width parameters, path decompositions, graph CNFs and "
                    "decision-diagram size experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, func, help_, arguments in [c for c in _COMMANDS if c[0] == command] or _COMMANDS:
        p = sub.add_parser(name, help=help_)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (InputError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory: the input or a cap is too large", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
