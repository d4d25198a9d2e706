"""The gssm names the benchmark harness in perfbench/ depends on.

perfbench/tracer.py wraps every (module, attribute) of its TARGETS table,
and perfbench/workloads.py calls gssm through module attributes such as
``reduced.lyapunov_estimate``, then reads attributes of the results (listed
in RESULT_ATTRIBUTES).  Renaming or deleting one of them breaks the
benchmark run; these tests make it break the test suite first.  The files
are read as source, never imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_MODULES = ("cli", "datadriven", "pade", "reduced", "ssm", "systems")


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def tracer_targets():
    """(module, attribute) of each TARGETS row of tracer.py."""
    for node in ast.walk(_tree("tracer.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(row.elts[1].value, row.elts[2].value)
                    for row in node.value.elts]
    raise AssertionError("tracer.py has no TARGETS table")


def workload_attributes():
    """Sorted (gssm module, attribute) pairs that workloads.py reads."""
    return sorted({(f"gssm.{node.value.id}", node.attr)
                   for node in ast.walk(_tree("workloads.py"))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in WORKLOAD_MODULES})


def _resolve(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # the tracer wraps a method in the class's own __dict__
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), f"{module}.{attr}"
    else:
        assert hasattr(owner, attr), f"{module}.{attr}"


def test_tables_are_found():
    assert len(tracer_targets()) >= 30
    assert len(workload_attributes()) >= 20
    assert ("gssm.reduced", "solve_ivp") in tracer_targets()


@pytest.mark.parametrize("module, attr", tracer_targets(),
                         ids=lambda x: x)
def test_tracer_target_resolves(module, attr):
    _resolve(module, attr)


@pytest.mark.parametrize("module, attr", workload_attributes(),
                         ids=lambda x: x)
def test_workload_attribute_resolves(module, attr):
    _resolve(module, attr)


# (gssm module, class, attribute) of each result attribute perfbench reads
RESULT_ATTRIBUTES = [
    ("gssm.ssm", "ResidualStats", "slope"),          # tracer.py:61, workloads.py:290
    ("gssm.trajectory", "TrajectoryData", "n_samples"),  # tracer.py:82
    ("gssm.trajectory", "TrajectoryData", "values"),  # workloads.py:279, 357, 392
    ("gssm.pade", "RationalMap", "type_tag"),         # tracer.py:31, 184
    ("gssm.pade", "RationalMap", "numerator"),        # workloads.py:78, 103, 181
    ("gssm.pade", "RationalMap", "denominator"),      # workloads.py:79, 104, 182
    ("gssm.datadriven", "RationalFit", "restart_den_ranges"),  # tracer.py:97
    ("gssm.datadriven", "RationalFit", "min_denominator"),     # workloads.py:388
    ("gssm.datadriven", "RationalFit", "error"),               # workloads.py:390
    ("gssm.datadriven", "RationalFit", "stage1_error"),        # workloads.py:390
    ("gssm.datadriven", "RationalFit", "rational"),            # workloads.py:360
    ("gssm.datadriven", "RegressionProblem", "margin"),  # tracer.py:97, workloads.py:369
    ("gssm.reduced", "LyapunovEstimate", "value"),    # workloads.py:364
    ("gssm.reduced", "FRCPoint", "residual"),         # workloads.py:302, 319
    ("gssm.reduced", "FRCPoint", "amplitude"),        # workloads.py:307
    ("gssm.reduced", "FRCPoint", "Omega"),            # workloads.py:308
]


@pytest.mark.parametrize("module, cls_name, attr", RESULT_ATTRIBUTES,
                         ids=lambda x: x)
def test_result_attribute_exists(module, cls_name, attr):
    cls = getattr(importlib.import_module(module), cls_name)
    fields = {f.name for f in dataclasses.fields(cls)} \
        if dataclasses.is_dataclass(cls) else set()
    assert attr in fields or isinstance(vars(cls).get(attr), property), \
        f"{module}.{cls_name}.{attr}"
