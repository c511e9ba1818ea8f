"""The command line run as `python -m widthlab` in a fresh interpreter.
`tests/test_imports.py` checks, also in a fresh interpreter, that `pw`
loads no numpy."""

import os
import subprocess
import sys
from pathlib import Path

import widthlab
from widthlab.graph import format_dimacs_graph
from widthlab.instances import grid_graph


def widthlab_module(*argv, cwd):
    """Run `python -m widthlab argv` in a fresh process."""
    src = str(Path(widthlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "widthlab", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def test_pw_on_the_4x5_grid(tmp_path):
    (tmp_path / "grid4x5.gr").write_text(format_dimacs_graph(grid_graph(4, 5)))
    proc = widthlab_module("pw", "--graph", "grid4x5.gr", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4\n", "")
