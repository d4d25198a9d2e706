"""The pipeline sets every option of gssm and names every public function
and class.

src/gssm exists to run the pipeline, and perfbench/ runs it as the
benchmark; tests check what they run and do not count as callers.  The
sources of src/gssm and perfbench/ are read as text (AST), never imported.

Options: every parameter and dataclass field with a default is set by some
call.  A default that no call overrides is a constant spelled as an option:
it doubles the configurations the tests must cover and never varies.
Calls are matched to definitions by the called name alone (``f(...)``,
``obj.f(...)``; a class name stands for its ``__init__`` or, for a
dataclass, its generated constructor, and ``cls(...)`` inside a class
stands for that class); a call sets a parameter by keyword, by positional
index after ``self`` or ``cls``, or wholesale through ``*args`` /
``**kwargs``.  A dataclass field declared with ``field(init=False)`` is
not a constructor parameter.

Public names: every module-level function or class of src/gssm whose name
does not start with an underscore, and every method or property without
one in the body of such a class, is named outside its own definition's
lines, as a name, an attribute or a string literal equal to it (cli.main
looks its handlers up by name).  A string literal "Owner.member" names
member (perfbench's tracer names its targets so).  Members are matched by
name alone, so a member shares the mentions of every name it spells.
Code that only tests call lives in tests/; ALLOWED names the exceptions,
each with the open ROADMAP item that gives it a caller.

The command line follows the same rule with its own callers: every
subcommand and option string of cli.py's add_parser and add_argument calls
is named by a string literal in a test or in perfbench/workloads.py.
README examples do not count, since nothing runs them, and neither do
perfbench's own command lines.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gssm"
CALLERS = (PACKAGE, ROOT / "perfbench")
# public names without a pipeline caller yet, by the ROADMAP item that
# gives each one
ALLOWED = {
    "pade.taylor_of_rational": "item 21: the data-driven normal form",
    "reduced.foliation_forcing": "item 5: O(eps) forcing in the CLI",
}
# this file's own lists of names would satisfy the check, so it is left out
CLI_CALLERS = [path for path in sorted((ROOT / "tests").glob("*.py"))
               if path.name != Path(__file__).name] + \
    [ROOT / "perfbench" / "workloads.py"]


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
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for i, (field, has_default) in enumerate(_init_fields(node)):
                    if has_default:
                        yield (f"{path.name}:{node.name}", node.name, field, i)


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def _init_fields(node):
    """(name, has a default) of each constructor field of a dataclass, in
    order."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and
                isinstance(item.target, ast.Name)):
            continue
        value = item.value
        kws = {}
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            kws = {k.arg: k.value for k in value.keywords}
            init = kws.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
        has_default = value is not None and \
            (not kws or "default" in kws or "default_factory" in kws)
        yield item.target.id, has_default


def _calls():
    """called name -> (keywords set, positional count, wholesale)."""
    seen = {}
    for directory in CALLERS:
        for _, tree in _trees(directory):
            owner = {id(inner): node.name for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name == "cls":
                    name = owner.get(id(node))
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
    options = {(name, param) for _, name, param, _ in _defined_options()}
    names = {name for name, _ in options}
    assert {"integrate_reduced", "lyapunov_estimate",
            "fit_rational_field"} <= names
    assert {("RegressionProblem", "margin"), ("ReducedField", "forcing"),
            ("RationalFit", "flags")} <= options
    assert ("FRCBranch", "points") not in options
    calls = _calls()
    assert "n_out" in calls["integrate_reduced"][0]
    # ReducedField is only built as cls(...) in its classmethods
    assert {"rationals", "forcing"} <= calls["ReducedField"][0]


def test_every_option_has_a_caller():
    assert unset_options() == []


def _public_definitions():
    """(path, name, first line, last line) of each module-level function or
    class of src/gssm whose name has no leading underscore, and of each
    such method or property of those classes, named Class.member."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def lines(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list]), \
            node.end_lineno

    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, functions + (ast.ClassDef,)) or \
                    node.name.startswith("_"):
                continue
            yield (path, node.name) + lines(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and \
                            not item.name.startswith("_"):
                        yield (path, f"{node.name}.{item.name}") + lines(item)


def _mentions():
    """word -> {(path, line)} of every name, attribute and string literal."""
    seen = defaultdict(set)
    for directory in CALLERS:
        for path, tree in _trees(directory):
            for node in ast.walk(tree):
                word = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else \
                    node.value if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) else None
                if word is None:
                    continue
                seen[word].add((path, node.lineno))
                owner, _, member = word.rpartition(".")
                if owner.isidentifier() and member.isidentifier():
                    seen[member].add((path, node.lineno))
    return seen


def uncalled_public_names():
    mentions = _mentions()
    return sorted(f"{path.stem}.{name}"
                  for path, name, first, last in _public_definitions()
                  if all(where == path and first <= line <= last
                         for where, line in mentions[name.split(".")[-1]]))


def test_the_name_scan_sees_definitions_and_uses():
    defined = {f"{path.stem}.{name}" for path, name, _, _ in
               _public_definitions()}
    assert {"reduced.integrate_reduced", "series.MultiSeries",
            "cli.cmd_ssm", "cli.main"} <= defined
    assert "series.MultiSeries.evaluate_many" in defined
    assert not {"reduced._run", "reduced._Jets"} & defined
    mentions = _mentions()
    # cli.main runs a handler named by the string set in build_parser
    assert any(path.name == "cli.py" for path, _ in mentions["cmd_ssm"])
    assert any(path.parent.name == "perfbench"
               for path, _ in mentions["lyapunov_estimate"])


def test_every_public_name_has_a_caller():
    # an allowed name leaves ALLOWED once its item gives it a caller
    assert uncalled_public_names() == sorted(ALLOWED)


def cli_names():
    """Subcommand names and option strings of cli.py's parser."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Attribute) and
                node.func.attr in ("add_parser", "add_argument")):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                    and (node.func.attr == "add_parser" or
                         arg.value.startswith("-")):
                names.add(arg.value)
    return names


def unset_cli_names():
    literals = {node.value for path in CLI_CALLERS
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(cli_names() - literals)


def test_the_cli_scan_sees_subcommands_and_options():
    names = cli_names()
    assert {"ssm", "analyze", "frc", "singularity", "scan"} <= names
    assert {"--out", "--model", "--rho-max", "--f-amp"} <= names
    # positionals and dest names are not option strings
    assert not {"action", "rho_max"} & names


def test_every_cli_option_has_a_caller():
    assert unset_cli_names() == []
