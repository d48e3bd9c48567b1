"""Every name a module imports is used in that module.

Package ``__init__.py`` files are exempt (their imports are re-exports), and
so are ``from __future__`` imports.  No module of the package imports
scipy, and importing the CLI loads no scipy module: importing
``scipy.sparse`` alone costs about 0.3 s of every run.  Every
``tests/*_oracle.py`` is imported by a ``tests/test_*.py``, directly or
through another oracle, so no reference outlives the tests it served.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/biharmfem", "tests")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nfrom a import b, c as d\nb(os)\n")
    assert unused_imports(source) == ["d", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_out_scipy_special():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, biharmfem.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_out_numpy_polynomial():
    # the Gauss-Legendre rules come from Tricomi's nodes and Newton's
    # method on the three-term recurrence, not leggauss
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, biharmfem.cli; print(sorted(m "
         "for m in sys.modules if m.startswith('numpy.polynomial')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def imported_modules(source):
    """The top-level package of every module a source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scanner_finds_imported_packages():
    source = ("import scipy.sparse as sp\nfrom numpy import linalg\n"
              "from . import fem\nimport os, json\n")
    assert imported_modules(source) == {"scipy", "numpy", "os", "json"}


def test_every_oracle_is_imported_by_a_test():
    imports = {p.stem: imported_modules(p.read_text())
               for p in (ROOT / "tests").glob("*.py")}
    oracles = {name for name in imports if name.endswith("_oracle")}
    todo = [name for name in imports if name.startswith("test_")]
    reached = set()
    while todo:
        found = imports[todo.pop()] & (oracles - reached)
        reached |= found
        todo += found
    assert sorted(oracles - reached) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src/biharmfem").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    assert "scipy" not in imported_modules(path.read_text())


# The Poisson factor pages in LAPACK's Cholesky and inverse; the first call
# of any other np.linalg routine (eigvalsh, det, solve) or of np.einsum
# pages in more library code, which the peak RSS of a small study counts.
LINALG_ALLOWED = {"cholesky", "inv", "norm", "LinAlgError"}


def numpy_calls_outside_factor(source):
    """The ``np.linalg`` names other than ``LINALG_ALLOWED``, and
    ``np.einsum``, that a source refers to or imports from numpy."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Attribute) and base.attr == "linalg"
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "np"
                    and node.attr not in LINALG_ALLOWED):
                found.add(f"np.linalg.{node.attr}")
            elif (isinstance(base, ast.Name) and base.id == "np"
                  and node.attr == "einsum"):
                found.add("np.einsum")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.name
                if node.module == "numpy.linalg" and name not in LINALG_ALLOWED:
                    found.add(f"np.linalg.{name}")
                elif node.module == "numpy" and name in ("einsum", "linalg"):
                    found.add(f"np.{name}")
    return sorted(found)


def test_scanner_finds_numpy_calls_outside_factor():
    source = ("x = np.linalg.eigvalsh(a) + np.linalg.det(a)\n"
              "L = np.linalg.inv(np.linalg.cholesky(a))\n"
              "y = np.linalg.norm(np.einsum('kd,kd->k', a, a))\n"
              "f, e = np.linalg.solve, np.linalg.LinAlgError\n"
              "from numpy.linalg import cholesky, lstsq\n"
              "from numpy import einsum\n")
    assert numpy_calls_outside_factor(source) == [
        "np.einsum", "np.linalg.det", "np.linalg.eigvalsh", "np.linalg.lstsq",
        "np.linalg.solve"]


@pytest.mark.parametrize("path", sorted((ROOT / "src/biharmfem").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_calls_no_linalg_beyond_the_factor(path):
    assert numpy_calls_outside_factor(path.read_text()) == []
