"""Every name imported in src/gssm and tests/ is read somewhere in its file.

An import that nothing reads is a dependency nobody uses: it hides which
modules a file really needs and keeps deleted code looking alive.  The
sources are read as text (AST), never imported.  A name counts as read
when it appears as a loaded name anywhere in the file, quoted annotations
included.  An import line marked ``# noqa: F401`` is kept on purpose (for
instance a module attribute that a tracer wraps) and is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "gssm", ROOT / "tests")


def _imported(tree, lines):
    """(line number, bound name) of each import outside the exempt lines."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield node.lineno, alias.asname or alias.name.split(".")[0]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(path):
    """(line number, name) of each import in the file that nothing reads."""
    text = path.read_text()
    tree = ast.parse(text)
    read = _read_names(tree)
    return sorted((line, name) for line, name in
                  _imported(tree, text.splitlines()) if name not in read)


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for directory in SCANNED
              for path in sorted(directory.glob("*.py"))
              for line, name in unused_imports(path)]
    assert unused == []


def test_scanner_finds_an_unused_import_and_honours_the_marker(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from __future__ import annotations\n"
                   "import os\n"
                   "import os.path\n"
                   "import numpy as np\n"
                   "from typing import List, Union\n"
                   "from math import pi  # noqa: F401\n"
                   "from json import (dumps,  # noqa: F401\n"
                   "                  loads)\n"
                   "def f(x: 'List[int]') -> None:\n"
                   "    return np.sum(x)\n")
    assert unused_imports(src) == [(2, "os"), (3, "os"), (5, "Union")]
