"""The command line run as `python -m widthlab` in a fresh interpreter, and
README's quick taste.  `tests/test_imports.py` checks, also in a fresh
interpreter, that `mw` and `pw` load no numpy."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import widthlab
from widthlab.graph import format_dimacs_graph
from widthlab.instances import grid_graph

README = Path(__file__).resolve().parents[1] / "README.md"


def widthlab_module(*argv, cwd):
    """Run `python -m widthlab argv` in a fresh process."""
    src = str(Path(widthlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "widthlab", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


@pytest.mark.parametrize("command", ["mw", "pw"])
def test_width_of_the_4x5_grid(tmp_path, command):
    (tmp_path / "grid4x5.gr").write_text(format_dimacs_graph(grid_graph(4, 5)))
    proc = widthlab_module(command, "--graph", "grid4x5.gr", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4\n", "")


def test_readme_quick_taste():
    block = re.search(r"^Quick taste:\n\n```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    exec(compile(block.group(1), str(README), "exec"), {})
