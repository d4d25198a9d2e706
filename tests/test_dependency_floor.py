"""gssm uses no NumPy or SciPy name newer than the floors in pyproject.toml.

pyproject allows numpy >= 1.24 and scipy >= 1.10, while the tests run on
whatever is installed, so a call that exists only in newer releases would
pass here and fail on the floor.  The sources of src/gssm are read as
text (AST), never imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gssm"
NUMPY_ALIASES = {"np", "numpy"}
# NumPy 2.0 names
NUMPY_TOO_NEW = {"vecdot", "concat", "pow", "unstack", "matrix_transpose",
                 "permute_dims"}
# keywords of SciPy functions newer than 1.10: nnls's atol (1.12)
SCIPY_TOO_NEW = {"nnls": {"atol"}}


def _called_name(func):
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _too_new(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_TOO_NEW \
                and getattr(node.value, "id", None) in NUMPY_ALIASES:
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in NUMPY_TOO_NEW:
                    yield node.lineno, f"from numpy import {alias.name}"
        elif isinstance(node, ast.Call):
            name = _called_name(node.func)
            for kw in node.keywords:
                if kw.arg in SCIPY_TOO_NEW.get(name, ()):
                    yield node.lineno, f"{name}(..., {kw.arg}=)"


def test_no_name_newer_than_the_dependency_floors():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _too_new(ast.parse(path.read_text()))]
    assert found == []


def test_the_scan_sees_each_kind_of_use():
    code = ("import numpy as np\nfrom numpy import concat\n"
            "x = np.vecdot(a, b) + numpy.pow(a, 2)\n"
            "y = nnls(a, b, atol=1e-9) + optimize.nnls(a, b, maxiter=3)\n"
            "z = np.power(a, 2) + np.concatenate([a])\n")
    assert sorted(what for _, what in _too_new(ast.parse(code))) == [
        "from numpy import concat", "nnls(..., atol=)", "np.vecdot",
        "numpy.pow"]
