"""Instance ladders of the four workloads and the checks on their outputs.

Each workload is a fixed list of steps. A step is one `widthlab` CLI
command, run in-process through `cli.main(argv)`, or one library call
where the CLI has no command. All inputs are generated from the workload
seed and written to a scratch directory during set-up; the program under
test sees only those files and argv.

Every command takes well under a second, so a run repeats each one many
times and its fastest run is steady on a shared host. Seeds change the
inputs but not the amount of work, so that runs on different seeds measure
the same thing. Graphs are fixed (the random ones
drawn once with generator seed 0), and the seed relabels each by a random
permutation, carrying any vertex order along: an isomorphic instance costs
the subset DPs and the matching core the same. The CNFs of `obdd_compile`
are not relabelled, because OBDD size depends on the variable numbering;
there the seed draws the random variable orders, which leave the
truth-table build's cost unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from widthlab import bprog, decomposition, graph, instances, width

# The chain probe of obdd_compile checks a 3000-node path program. Its
# expected outcome is exit 0; while the checker's traversal is recursive,
# RecursionError escapes cli.main instead.
CHAIN_NODES = 3000


@dataclass
class Step:
    label: str
    argv: list[str] | None = None
    call: Callable[[], tuple[int, str]] | None = None  # library step: (exit, stdout)
    expect_exit: int = 0
    out: Path | None = None  # file the command writes through --out
    json_stdout: bool = False  # stdout is JSON and its digest is recorded
    known_defect: str | None = None  # exception type a probe raises while its defect stands


@dataclass
class Result:
    code: int | None  # None when an exception escaped
    error: str | None
    stdout: str
    out_bytes: bytes | None
    seconds: float

    def same_output(self, other: "Result") -> bool:
        return (self.code, self.error, self.stdout, self.out_bytes) == (
            other.code, other.error, other.stdout, other.out_bytes)


@dataclass
class Ladder:
    workload: str
    steps: list[Step]
    top_rung: str
    # (step label, check) pairs; a check returns a problem or None.
    checks: list[tuple[str, Callable[[dict[str, Result]], str | None]]]
    # Steps whose expected outcome the program does not reach yet. Each runs
    # once after the timed passes, untimed, and is reported on its own line.
    probes: list[Step] = field(default_factory=list)


def _relabel(g: graph.Graph, rng: random.Random, order=()):
    """An isomorphic copy of g under a seeded permutation, and `order`
    carried along with it."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = graph.Graph.make(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return h, [perm[v] for v in order]


def _write_graph(work: Path, name: str, g: graph.Graph) -> str:
    path = work / f"{name}.gr"
    path.write_text(graph.format_dimacs_graph(g))
    return str(path)


def _write_cnf(work: Path, name: str, f: instances.Cnf) -> str:
    path = work / f"{name}.cnf"
    path.write_text(instances.format_dimacs_cnf(f))
    return str(path)


def _order_arg(seq) -> str:
    return ",".join(str(v) for v in seq)


def _json(r: Result) -> dict:
    return json.loads(r.stdout)


def _complete_graph(n: int) -> graph.Graph:
    return graph.Graph.make(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _star_graph(leaves: int) -> graph.Graph:
    return graph.Graph.make(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def exact_width(seed: int, work: Path) -> Ladder:
    rng = random.Random(seed)
    graphs = {
        "random14_p0.2": instances.random_graph(14, 0.2, 0),
        "random14_p0.5": instances.random_graph(14, 0.5, 0),
        "grid2x7": instances.grid_graph(2, 7),
        "cycle14": instances.cycle_graph(14),
        "random13_p0.3": instances.random_graph(13, 0.3, 0),
    }
    graphs = {name: _relabel(g, rng)[0] for name, g in graphs.items()}
    steps, checks = [], []
    for name, g in graphs.items():
        path = _write_graph(work, name, g)
        mw, pw = f"mw {name}", f"pw {name}"
        steps.append(Step(mw, ["mw", "--graph", path, "--json"], json_stdout=True))
        steps.append(Step(pw, ["pw", "--graph", path, "--json"], json_stdout=True))
        checks.append((mw, _check_witness(g, mw)))
        checks.append((pw, _check_sandwich(mw, pw)))
    return Ladder("exact_width", steps, "mw random14_p0.5", checks)


def _check_witness(g: graph.Graph, label: str):
    def check(res: dict[str, Result]) -> str | None:
        out = _json(res[label])
        seq = out["witness_ordering"]
        if sorted(seq) != list(range(g.n)):
            return "witness is not an ordering of the graph"
        if width.mw_of_ordering(g, graph.Ordering(tuple(seq))).value != out["value"]:
            return "witness ordering does not attain the reported value"
        return None
    return check


def _check_sandwich(mw_label: str, pw_label: str):
    def check(res: dict[str, Result]) -> str | None:
        mw, pw = _json(res[mw_label])["value"], _json(res[pw_label])["value"]
        if not mw <= pw + 1 <= 2 * mw + 1:
            return f"mw={mw}, pw={pw} break mw <= pw+1 <= 2mw+1"
        return None
    return check


def lower_bound(seed: int, work: Path) -> Ladder:
    rng = random.Random(seed)
    graphs = {
        "K4": _complete_graph(4),
        "C5": instances.cycle_graph(5),
        "P6": instances.path_graph(6),
        "grid2x2": instances.grid_graph(2, 2),
        "star1_5": _star_graph(5),
        "C6": instances.cycle_graph(6),
    }
    graphs = {name: _relabel(g, rng)[0] for name, g in graphs.items()}
    paths = {name: _write_graph(work, name, g) for name, g in graphs.items()}
    c6_cnf = instances.cnf_of_graph(graphs["C6"])
    c6_cnf_path = _write_cnf(work, "C6", c6_cnf)
    steps = [
        Step(f"lb-experiment c1 {name}",
             ["lb-experiment", "--graph", path, "--c", "1"], json_stdout=True)
        for name, path in paths.items()
    ]
    steps.append(Step("lb-experiment c2 C6",
                      ["lb-experiment", "--graph", paths["C6"], "--c", "2"],
                      json_stdout=True))
    steps.append(Step("obdd-min C6", ["obdd-min", "--cnf", c6_cnf_path, "--json"],
                      json_stdout=True))
    checks = [(s.label, _check_lb_pass(s.label)) for s in steps[:-1]]
    checks.append(("obdd-min C6", _check_min_order(c6_cnf, "obdd-min C6",
                                                   "lb-experiment c1 C6")))
    return Ladder("lower_bound", steps, "lb-experiment c1 C6", checks)


def _check_lb_pass(label: str):
    def check(res: dict[str, Result]) -> str | None:
        return None if _json(res[label])["pass"] is True else "report has pass != true"
    return check


def _check_min_order(f: instances.Cnf, label: str, lb_label: str):
    def check(res: dict[str, Result]) -> str | None:
        out = _json(res[label])
        built = bprog.build_obdd(f, out["order"]).size
        if built != out["size"]:
            return f"building along the reported order gives {built}, not {out['size']}"
        if _json(res[lb_label])["measured_size"] != out["size"]:
            return "obdd-min and lb-experiment disagree on the minimum size"
        return None
    return check


def obdd_compile(seed: int, work: Path) -> Ladder:
    rng = random.Random(seed)
    steps, checks = [], []
    builds = [("C9", instances.cycle_graph(9), True),
              ("grid2x4", instances.grid_graph(2, 4), True),
              ("C10", instances.cycle_graph(10), True),
              ("C11", instances.cycle_graph(11), False)]
    for name, g, shuffled in builds:
        f = instances.cnf_of_graph(g)
        cnf = _write_cnf(work, name, f)
        orders = [("ascending", list(range(f.num_vars)))]
        if shuffled:
            order = list(range(f.num_vars))
            rng.shuffle(order)
            orders.append(("random", order))
        for kind, order in orders:
            label = f"obdd-build {name} {kind}"
            out = work / f"{name}-{kind}.bp"
            argv = ["obdd-build", "--cnf", cnf, "--json", "--out", str(out)]
            if kind == "random":
                argv += ["--order", _order_arg(order)]
            steps.append(Step(label, argv, out=out, json_stdout=True))
            checks.append((label, _check_build(label, order)))

    for name, g in (("P5", instances.path_graph(5)), ("C5", instances.cycle_graph(5)),
                    ("P6", instances.path_graph(6))):
        f = instances.cnf_of_graph(g)
        cnf = Path(_write_cnf(work, name, f))
        bp = work / f"{name}.bp"
        bp.write_text(bprog.format_bp(bprog.build_obdd(f, range(f.num_vars))))
        steps.append(Step(f"equivalence_vs_cnf {name}", call=_equivalence_call(bp, cnf)))

    # Reads the program that the C9 ascending build wrote earlier in the pass.
    c9 = str(work / "C9-ascending.bp")
    steps.append(Step("check-cnsobdd c1 C9 own order",
                      ["check-cnsobdd", "--bp", c9, "--c", "1", "--json"],
                      json_stdout=True))
    steps.append(Step("check-cnsobdd c2 C9 reversed",
                      ["check-cnsobdd", "--bp", c9, "--c", "2", "--json",
                       "--order", _order_arg(reversed(range(18)))],
                      expect_exit=1, json_stdout=True))
    chain = work / "chain.bp"
    chain.write_text(_chain_program(CHAIN_NODES))
    probe = Step(f"check-cnsobdd c1 chain{CHAIN_NODES}",
                 ["check-cnsobdd", "--bp", str(chain), "--c", "1", "--json"],
                 known_defect="RecursionError")
    for s in steps[-2:] + [probe]:
        checks.append((s.label, _check_verdict(s.label, s.expect_exit == 0)))
    return Ladder("obdd_compile", steps, "obdd-build C11 ascending", checks, [probe])


def _chain_program(n: int) -> str:
    """A path of n nodes whose i-th edge tests variable i positively."""
    lines = [bprog.BP_HEADER, f"bp {n} 1 {n}"]
    lines.extend(f"{i} {i + 1} {i}" for i in range(1, n))
    return "\n".join(lines) + "\n"


def _equivalence_call(bp: Path, cnf: Path):
    """Exit 0 and a JSON verdict when equivalent, exit 1 otherwise."""
    def call() -> tuple[int, str]:
        z = bprog.parse_bp(bp.read_text())
        f = instances.parse_dimacs_cnf(cnf.read_text())
        verdict = bprog.equivalence_vs_cnf(z, f)
        return (0 if verdict.equivalent else 1), json.dumps(
            {"equivalent": verdict.equivalent}) + "\n"
    return call


def _check_build(label: str, order: list[int]):
    def check(res: dict[str, Result]) -> str | None:
        out = _json(res[label])
        if out["order"] != order:
            return "reported order differs from the requested one"
        z = bprog.parse_bp(res[label].out_bytes.decode())
        if z.num_nodes != out["size"]:
            return f"--out program has {z.num_nodes} nodes, stdout says {out['size']}"
        return None
    return check


def _check_verdict(label: str, expect_pass: bool):
    def check(res: dict[str, Result]) -> str | None:
        if _json(res[label])["pass"] is not expect_pass:
            return f"expected pass={expect_pass}"
        return None
    return check


def ordering_convert(seed: int, work: Path) -> Ladder:
    rng = random.Random(seed)
    random250 = instances.random_graph(250, 0.03, 0)
    random_order = list(range(random250.n))
    random.Random(0).shuffle(random_order)
    cases = [("grid25x25", instances.grid_graph(25, 25), list(range(625))),
             ("random250_p0.03", random250, random_order)]
    steps, checks = [], []
    for name, g, order in cases:
        g, order = _relabel(g, rng, order)
        path = _write_graph(work, name, g)
        pd = work / f"{name}.pd"
        mw, to_pd, from_pd = (f"mw --order {name}", f"pd-from-order {name}",
                              f"order-from-pd {name}")
        steps.append(Step(mw, ["mw", "--graph", path, "--order", _order_arg(order),
                               "--json"], json_stdout=True))
        steps.append(Step(to_pd, ["pd-from-order", "--graph", path, "--order",
                                  _order_arg(order), "--out", str(pd)], out=pd))
        steps.append(Step(from_pd, ["order-from-pd", "--graph", path, "--pd", str(pd),
                                    "--json"], json_stdout=True))
        checks.append((to_pd, _check_pd(g, to_pd, mw)))
        checks.append((from_pd, _check_order_from_pd(from_pd)))
    steps.append(Step("td-ctree r5 k2 extended",
                      ["td-ctree", "--r", "5", "--k", "2", "--extended"]))
    checks.append(("td-ctree r5 k2 extended",
                   _check_ctree(decomposition.ctree_primal_graph(5, 2),
                                "td-ctree r5 k2 extended")))
    return Ladder("ordering_convert", steps, "mw --order random250_p0.03", checks)


def _check_pd(g: graph.Graph, label: str, mw_label: str):
    def check(res: dict[str, Result]) -> str | None:
        td, _ = decomposition.parse_pace(res[label].out_bytes.decode())
        pd = decomposition.as_path_decomposition(td)
        verdict = decomposition.validate_decomposition(g, pd)
        if not verdict.valid:
            return f"decomposition violates {verdict.failed_property}"
        mw = _json(res[mw_label])["value"]
        if pd.width > 2 * mw:
            return f"width {pd.width} exceeds 2 * mw_of_ordering = {2 * mw}"
        return None
    return check


def _check_order_from_pd(label: str):
    def check(res: dict[str, Result]) -> str | None:
        out = _json(res[label])
        if out["mw_of_ordering"] > out["pd_width"] + 1:
            return f"mw_of_ordering {out['mw_of_ordering']} > pd_width+1"
        return None
    return check


def _check_ctree(g: graph.Graph, label: str):
    def check(res: dict[str, Result]) -> str | None:
        td, n = decomposition.parse_pace(res[label].stdout)
        if n != g.n or not decomposition.validate_decomposition(g, td).valid:
            return "extended decomposition does not decompose the primal graph"
        return None
    return check


BY_NAME = {
    "exact_width": exact_width,
    "lower_bound": lower_bound,
    "obdd_compile": obdd_compile,
    "ordering_convert": ordering_convert,
}
WORKLOADS = tuple(BY_NAME)
