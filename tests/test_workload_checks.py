"""The benchmark's workloads run and pass their own checks.

Each workload of perfbench/workloads.py goes through inputs -> setup ->
warm-up op -> oracle -> op -> check in process, as one benchmark run
does, and its check must then refuse the op's output after `corrupt`.
An output change that the benchmark would refuse as incorrect thus fails
the test suite first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workload_module():
    # workloads.py imports its oracles module by its bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["manifold_build", "frc_sweep", "chaos_fit",
                                  "cli_pipeline"])
def test_workload_passes_its_check_and_refuses_a_corrupt_output(
        workload_module, tmp_path, name, seed):
    wl = workload_module.WORKLOADS[name](tmp_path)
    params = wl.inputs(seed)
    state = wl.setup(params)
    ref = wl.oracle(params, state, wl.op(state))
    out = wl.op(state)
    problems, _ = wl.check(ref, out)
    assert problems == []
    problems, _ = wl.check(ref, wl.corrupt(out))
    assert problems


def test_no_test_module_shares_a_name_with_a_perfbench_module():
    # workloads.py imports its sibling modules by bare name; a tests/ module
    # of the same name, once imported, would stand in for the sibling
    tests = {path.stem for path in Path(__file__).parent.glob("*.py")}
    assert tests & {path.stem for path in PERFBENCH.glob("*.py")} == set()
