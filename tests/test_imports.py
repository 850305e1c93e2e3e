"""An unused import in src/opinv fails the suite; no linter is a dependency,
so the check reads the source with ``ast``.  Only reaction-diffusion may
load ``scipy.sparse``: the guard runs each problem in a fresh interpreter."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opinv"


def unused_imports(source: str) -> list:
    """(line, name) of every module-level import that no ``ast.Name`` in the
    module reads, unless the name is in ``__all__`` or its line carries
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, name))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from .observe import (\n"
              "    misfit,\n"
              "    observe,\n"
              "    observe_state,  # noqa: F401\n"
              ")\n"
              "from .grf import Grid2D\n"
              "__all__ = ['Grid2D']\n"
              "x = np.zeros(misfit)\n")
    assert unused_imports(source) == [(2, "os"), (6, "observe")]


def _sparse_loaded_after(problems) -> list:
    """Whether scipy.sparse is in sys.modules of a fresh interpreter after
    ``import opinv.cli``, then after one full forward batch on each desk
    Bench of ``problems`` in turn.  Runs in ``src/``, which ``python -c``
    puts first on its import path."""
    script = (
        "import sys\n"
        "import opinv.cli\n"
        "from opinv.config import preset\n"
        "from opinv.harness import Bench, prior_params\n"
        "print('scipy.sparse' in sys.modules)\n"
        f"for name in {list(problems)!r}:\n"
        "    bench = Bench(preset(name).resolved())\n"
        "    bench.full_forward(prior_params(bench.cfg, 3), 'probe')\n"
        "    print('scipy.sparse' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, cwd=SRC.parent)
    return [line == "True" for line in out.stdout.split()]


def test_only_reaction_diffusion_loads_scipy_sparse():
    # the CLI and the Darcy and heat-equation solvers leave scipy.sparse
    # (~2.4 MB resident) unloaded; the reaction-diffusion stepper loads it
    assert _sparse_loaded_after(["darcy", "heat-field", "heat-loc", "reaction-diffusion"]) \
        == [False, False, False, False, True]
