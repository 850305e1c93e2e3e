"""An unused import in src/opinv fails the suite; no linter is a dependency,
so the check reads the source with ``ast``.  So does a use of scipy's
checked LAPACK wrappers, which the solvers call directly, or any import of
``scipy.sparse``.  No problem's run may load ``scipy.sparse`` or
scipy.linalg's package: the guard runs each problem in a fresh interpreter,
as do the checks that the solvers' LAPACK routines are scipy's own."""

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


# scipy.linalg wrappers around dpbsv, dpotrf and dpotrs: their input checks
# cost more than the Darcy row solves and small Cholesky solves they wrap
WRAPPERS = frozenset({"solveh_banded", "cho_factor", "cho_solve"})


def _is_sparse(module: str) -> bool:
    return module == "scipy.sparse" or module.startswith("scipy.sparse.")


def wrapper_uses(source: str) -> list:
    """(line, name) of every name, attribute or from-import of ``WRAPPERS``,
    and of every import of ``scipy.sparse``, one of its submodules, or the
    attribute ``scipy.sparse``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names if _is_sparse(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if _is_sparse(node.module or ""):
                out.append((node.lineno, node.module))
            elif node.module == "scipy":
                out += [(node.lineno, "scipy.sparse") for a in node.names
                        if a.name == "sparse"]
            out += [(node.lineno, a.name) for a in node.names if a.name in WRAPPERS]
        elif isinstance(node, ast.Name) and node.id in WRAPPERS:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in WRAPPERS:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "scipy.sparse":
            out.append((node.lineno, "scipy.sparse"))  # scipy loads it on access
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_lapack_wrapper(path):
    assert wrapper_uses(path.read_text()) == []


def test_wrapper_checker_flags_planted_calls():
    source = ("import scipy.linalg\n"
              "from scipy.linalg import solveh_banded as banded\n"
              "from scipy.linalg.lapack import dpbsv\n"
              "def f(a, b):\n"
              "    cf = scipy.linalg.cho_factor(a)\n"
              "    return cho_solve(cf, b), dpbsv(a, b), banded(a, b)\n")
    assert wrapper_uses(source) == [(2, "solveh_banded"), (5, "cho_factor"),
                                    (6, "cho_solve")]


def test_wrapper_checker_flags_scipy_sparse_imports():
    source = ("import scipy\n"
              "import scipy.sparse as sp\n"
              "from scipy import sparse, linalg\n"
              "def f():\n"
              "    import scipy.sparse.linalg\n"
              "    from scipy.sparse.linalg import splu\n"
              "    from scipy.linalg import lapack\n"
              "    return scipy.sparse.eye(2), scipy.linalg\n")
    assert wrapper_uses(source) == [(2, "scipy.sparse"), (3, "scipy.sparse"),
                                    (5, "scipy.sparse.linalg"), (6, "scipy.sparse.linalg"),
                                    (8, "scipy.sparse")]


# modules that no problem's run may load: scipy.sparse, and scipy.linalg's
# package, whose array-API layer imports numpy.f2py and the rest of numpy
HEAVY = ("scipy.sparse", "scipy.linalg", "numpy.f2py")


def _fresh(script: str) -> list:
    """The printed lines of ``script`` run in a fresh interpreter in ``src/``,
    which ``python -c`` puts first on its import path."""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, cwd=SRC.parent)
    return out.stdout.split()


def _heavy_loaded_after(problems) -> list:
    """Which of ``HEAVY`` are in sys.modules of a fresh interpreter after
    ``import opinv.cli``, then after one full forward batch on each desk
    Bench of ``problems`` in turn."""
    script = (
        "import sys\n"
        "import opinv.cli\n"
        "from opinv.config import preset\n"
        "from opinv.harness import Bench, prior_params\n"
        "def loaded():\n"
        f"    print(','.join(m for m in {HEAVY!r} if m in sys.modules) or '-')\n"
        "loaded()\n"
        f"for name in {list(problems)!r}:\n"
        "    bench = Bench(preset(name).resolved())\n"
        "    bench.full_forward(prior_params(bench.cfg, 3), 'probe')\n"
        "    loaded()\n")
    return [() if line == "-" else tuple(line.split(",")) for line in _fresh(script)]


def test_no_problem_loads_heavy_modules():
    # the CLI and all four solvers leave scipy.sparse (~2.4 MB resident) and
    # scipy.linalg's package (~25 MB with the numpy submodules it imports)
    # unloaded
    assert _heavy_loaded_after(["darcy", "heat-field", "heat-loc", "reaction-diffusion"]) \
        == [(), (), (), (), ()]


@pytest.mark.parametrize("opinv_first", [True, False], ids=["opinv-first", "scipy-first"])
def test_solvers_call_scipys_lapack_routines(opinv_first):
    # opinv._lapack registers the extension it loads under scipy's name, so
    # either import order leaves one _flapack module and one set of routines
    imports = ["from opinv import forward, observe, uki",
               "import scipy.linalg.lapack as lapack"]
    script = "\n".join([
        "import gc, sys, types",
        *(imports if opinv_first else imports[::-1]),
        "print(forward.dpbsv is lapack.dpbsv)",
        "print(uki.dpotrf is observe.dpotrf is lapack.dpotrf)",
        "print(uki.dpotrs is observe.dpotrs is lapack.dpotrs)",
        "print(lapack._flapack is sys.modules['scipy.linalg._flapack'])",
        "print(sum(isinstance(m, types.ModuleType) and m.__name__ == 'scipy.linalg._flapack'",
        "          for m in gc.get_objects()))"])
    assert _fresh(script) == ["True", "True", "True", "True", "1"]


def test_lapack_loader_falls_back_to_scipy_linalg(monkeypatch, tmp_path):
    from scipy.linalg import lapack

    from opinv import _lapack
    flapack = sys.modules["scipy.linalg._flapack"]
    assert _lapack.flapack(tmp_path) is flapack
    # with nothing loaded and no _flapack file in the directory, the
    # routines come from scipy.linalg.lapack
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    routines = _lapack.flapack(tmp_path)
    assert routines is lapack
    assert routines.dpbsv is flapack.dpbsv
