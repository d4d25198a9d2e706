"""Every parameter with a default in gssm is set by some call.

A default that no call overrides is a constant spelled as an option: it
doubles the configurations the tests must cover and never varies.  The
sources of src/gssm, tests/ and perfbench/ are read as text (AST), never
imported.  Calls are matched to definitions by the called name alone
(``f(...)``, ``obj.f(...)``; a class name stands for its ``__init__``); a
call sets a parameter by keyword, by positional index after ``self`` or
``cls``, or wholesale through ``*args`` / ``**kwargs``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gssm"
CALLERS = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _trees(directory):
    for path in sorted(directory.glob("*.py")):
        yield path, ast.parse(path.read_text())


def _defined_options():
    """(where, called name, parameter, positional index or None) of every
    parameter with a default."""
    for path, tree in _trees(PACKAGE):
        classes = {id(item): node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name == "__init__" and id(node) in classes:
                name = classes[id(node)]
            args = node.args
            positional = args.posonlyargs + args.args
            skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
            first_default = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first_default:], first_default):
                yield (f"{path.name}:{node.name}", name, arg.arg, i - skip)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield (f"{path.name}:{node.name}", name, arg.arg, None)


def _calls():
    """called name -> (keywords set, positional count, wholesale)."""
    seen = {}
    for directory in CALLERS:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name is None:
                    continue
                kws, count, wholesale = seen.get(name, (set(), 0, False))
                kws |= {k.arg for k in node.keywords if k.arg is not None}
                wholesale |= any(k.arg is None for k in node.keywords) or \
                    any(isinstance(a, ast.Starred) for a in node.args)
                seen[name] = (kws, max(count, len(node.args)), wholesale)
    return seen


def unset_options():
    calls = _calls()
    out = []
    for where, name, param, index in _defined_options():
        kws, count, wholesale = calls.get(name, (set(), 0, False))
        if not (wholesale or param in kws or
                (index is not None and index < count)):
            out.append(f"{where}({param})")
    return sorted(out)


def test_the_scan_sees_definitions_and_calls():
    names = {name for _, name, _, _ in _defined_options()}
    assert {"integrate_reduced", "pade_multivariate",
            "fit_rational_field"} <= names
    assert "n_out" in _calls()["integrate_reduced"][0]


def test_every_option_has_a_caller():
    assert unset_options() == []
