"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

smoke:    every workload with tracing off and on, one timed op each; every
          metric of BENCHMARK.json must print with its unit and every op
          must pass its check.
negative: every workload with --corrupt, which damages each op's output
          before the check (a perturbed Pade coefficient, a tampered
          frc.csv, ...); every op must then count as failed, so fail_ratio
          is 1, and the run must still finish with a result.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SelfTestError(AssertionError):
    pass


def expect(cond, msg):
    if not cond:
        raise SelfTestError(msg)


def bench(workload, trace, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    expect(proc.returncode == 0, f"{argv} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            printed[parts[0]] = (float(parts[1]), parts[2])
    return json.loads(lines[-1]), printed


def smoke(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, printed = bench(workload, trace)
        expect(result["correct"] and result["failed"] == 0,
               f"{workload} trace={trace}: {result['failed']} failed ops")
        for spec in SPEC[key]:
            name, unit = spec["name"], spec["unit"]
            got = result["metrics"].get(name)
            expect(got is not None and got["unit"] == unit,
                   f"{workload}: {name} missing from the result")
            expect(printed.get(name, (None, None))[1] == unit,
                   f"{workload}: {name} not printed with unit {unit}")
        expect(set(result["metrics"]) == {s["name"] for s in SPEC[key]},
               f"{workload}: unexpected metrics in the result")
        if trace == 0:
            expect(printed["fail_ratio"][0] == 0.0, f"{workload}: fail_ratio")


def negative(workload):
    result, printed = bench(workload, 0, "--corrupt")
    expect(not result["correct"], f"{workload}: corrupted output passed")
    expect(result["failed"] == result["attempted"] >= 1,
           f"{workload}: {result['failed']} of {result['attempted']} failed")
    expect(printed["fail_ratio"][0] == 1.0,
           f"{workload}: fail_ratio {printed['fail_ratio'][0]}")


def main():
    for wl in SPEC["workloads"]:
        for test in (smoke, negative):
            test(wl["name"])
            print(f"ok  {test.__name__:8s} {wl['name']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
