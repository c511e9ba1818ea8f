"""Imports of the library modules.

Every name a library module imports is used in that module.  A name counts
as used when the module's code loads it, including inside annotations,
whether written as expressions or as strings.  A name imported under
`if TYPE_CHECKING:` counts as used only where an annotation names it.

numpy is imported in one function, `tables.order_tables`, the level walk
of the minimum OBDD, so the commands that do not run it never load it:
`obdd-build` among them, whose truth table is one Python int.  `obdd-min`
must load it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import widthlab

MODULES = sorted(
    p for p in Path(widthlab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def imported_names(nodes) -> set[str]:
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def annotation_names(tree: ast.Module) -> set[str]:
    """Names the annotations load, written as expressions or as strings."""
    used = set()
    for ann in annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Name):
                used.add(c.id)
            elif isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(tree: ast.Module) -> list[str]:
    """The names imported but never used.  An import under `if TYPE_CHECKING:`
    exists only for annotations, so only an annotation can use its name."""
    guarded = {
        node
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name)
        and block.test.id == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    in_annotations = annotation_names(tree)
    loaded = in_annotations | {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unguarded = [node for node in ast.walk(tree) if node not in guarded]
    return sorted(
        (imported_names(unguarded) - loaded) | (imported_names(guarded) - in_annotations)
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def numpy_holders(tree: ast.Module) -> list[str | None]:
    """For each import of numpy in tree, the innermost function holding it,
    or None for one outside every function."""
    holder = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.partition(".")[0] == "numpy" for m in modules):
            holder[node] = None
    for fn in ast.walk(tree):  # breadth first: an outer function before its inner ones
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if node in holder:
                    holder[node] = fn.name
    return list(holder.values())


def test_numpy_is_imported_in_one_function():
    package = sorted(Path(widthlab.__file__).parent.glob("*.py"))
    found = {p.stem: numpy_holders(ast.parse(p.read_text())) for p in package}
    assert {stem: fns for stem, fns in found.items() if fns} == {"tables": ["order_tables"]}


# numpy imported for the type checker, and again, for running, in a function.
GUARDED_NUMPY = """
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def zeros():
    import numpy as np
    return np.zeros(1)
"""


def test_a_type_checking_import_is_used_only_by_an_annotation():
    assert unused_imports(ast.parse(GUARDED_NUMPY)) == ["np"]
    annotated = GUARDED_NUMPY.replace("def zeros():", "def zeros() -> np.ndarray:")
    assert unused_imports(ast.parse(annotated)) == []


# A fresh interpreter runs every command that builds no numpy table, `pw`
# and `obdd-build` (with --json and --out) among them, `equivalence_vs_cnf`
# in-process, and `obdd-build` and `obdd-min` on inputs above their caps,
# which they must reject before loading numpy; then it reports whether numpy
# is loaded, runs `obdd-min` on a small CNF and reports again.
NUMPY_CHILD = r"""
import sys
from widthlab import bprog, cli, instances

d, seq = sys.argv[1], ",".join(map(str, range(9)))


def run(*argv, expect=0):
    if "--out" not in argv:
        argv += ("--out", f"{d}/{argv[0]}.out")
    code = cli.main(list(argv))
    if code != expect:
        sys.exit(f"{argv[0]} exited {code}")


run("gen-graph", "--kind", "grid", "--rows", "3", "--cols", "3", "--out", f"{d}/g.gr")
run("gen-cnf", "--graph", f"{d}/g.gr")
run("mw", "--graph", f"{d}/g.gr")
run("mw", "--graph", f"{d}/g.gr", "--order", seq)
run("pw", "--graph", f"{d}/g.gr")
run("pd-from-order", "--graph", f"{d}/g.gr", "--order", seq, "--out", f"{d}/g.td")
run("order-from-pd", "--graph", f"{d}/g.gr", "--pd", f"{d}/g.td")
run("td-ctree", "--r", "2", "--k", "2", "--extended")
run("check-cnsobdd", "--bp", f"{d}/and.bp", "--c", "1")
run("obdd-build", "--cnf", f"{d}/and.cnf", "--json")
with open(f"{d}/and.bp") as bp, open(f"{d}/and.cnf") as cnf:
    z, f = bprog.parse_bp(bp.read()), instances.parse_dimacs_cnf(cnf.read())
if not bprog.equivalence_vs_cnf(z, f).equivalent:
    sys.exit("equivalence_vs_cnf: AND program differs from its CNF")
run("pw", "--graph", f"{d}/big.gr", expect=2)
run("obdd-build", "--cnf", f"{d}/big.cnf", expect=2)
run("obdd-min", "--cnf", f"{d}/big.cnf", expect=2)
print("numpy" in sys.modules)
run("obdd-min", "--cnf", f"{d}/and.cnf")
print("numpy" in sys.modules)
"""

# x0 AND x1 as an OBDD: nodes 1 and 2 test x0 and x1, 3 accepts, 4 rejects.
AND_BP = "bp 4 1 3\n1 2 1\n1 4 -1\n2 3 2\n2 4 -2\n"


def test_only_the_table_kernels_load_numpy(tmp_path):
    (tmp_path / "and.bp").write_text(AND_BP)
    (tmp_path / "and.cnf").write_text("p cnf 2 2\n1 0\n2 0\n")
    (tmp_path / "big.gr").write_text("p edge 21 0\n")  # pw's cap is 20 vertices
    (tmp_path / "big.cnf").write_text("p cnf 25 0\n")  # caps: build 24, min 16
    src = str(Path(widthlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stderr == (
        "error: pathwidth: n=21 exceeds subset DP cap 20\n"
        "error: OBDD build: 25 variables exceeds cap 24\n"
        "error: order minimization: 25 variables exceeds cap 16\n"
    )
    assert proc.returncode == 0
    # obdd-build writes the program to --out and its JSON to stdout.
    build_json = ('{\n  "command": "obdd-build",\n'
                  '  "order": [\n    0,\n    1\n  ],\n  "size": 4\n}\n')
    assert proc.stdout == build_json + "False\nTrue\n"
    assert (tmp_path / "obdd-build.out").read_text() == "c widthlab branching-program format v1\n" + AND_BP
