"""gssm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a child process whose
BLAS and OpenMP pools are pinned to one thread before numpy loads.  The
child's report is passed through, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  Workloads and metrics are described in README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                  "VECLIB_MAXIMUM_THREADS": "1"}
TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(argv):
    """Run the worker on argv; return (exit code, stdout lines)."""
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("GSSM_THREADS", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: no {spec_path}", file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads(spec_path.read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt every op's output before its check "
                         "(negative self-test)")
    args = ap.parse_args(argv)
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        worker_argv.append("--corrupt")
    code, lines = run(worker_argv)
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines), file=sys.stderr)
        print(f"perfbench: worker exited {code} without a result",
              file=sys.stderr)
        return code or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
