"""One workload run in its own process; started by run.py.

Setup is timed from the first line of this file, so setup_s includes the
imports.  Ops run back to back with one client (closed loop) within the
requested seconds, and every op's output is checked against
its oracle; an exception or a failed check is a failed op.  The last line
of stdout is the JSON result; details go to .bench_out/.

Every reported time is in reference seconds: `probe.SpeedProbe` ticks
through the whole run and rescales each timed interval to a fixed machine
speed, so the drift of a shared host does not read as a change of the
program.  The wall times are printed and recorded beside them.
"""

import time

T_START = time.perf_counter()

import probe

PROBE = probe.SpeedProbe()
PROBE.start()
IMPORT_MARK = PROBE.mark(T_START)

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_OPS = 1


def _import_program():
    if not (SRC / "gssm" / "__init__.py").is_file():
        PROBE.stop()
        sys.exit(f"perfbench: no gssm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gssm
    if Path(gssm.__file__).resolve().parent != SRC / "gssm":
        PROBE.stop()
        sys.exit(f"perfbench: imported gssm from {gssm.__file__}, not {SRC}")


_import_program()

import numpy as np
import scipy

import tracer as tracing
import workloads

IMPORT_WALL_S, IMPORT_S = PROBE.window(IMPORT_MARK)


def _tail(times):
    """(time, percentile): the highest percentile with at least ten ops
    beyond it.  Below 21 ops that percentile is at or under the median, so
    the max is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, n_ops):
    # a checkout that is not itself a git work tree has no commit, even
    # when it sits inside another repository
    top = _git("rev-parse", "--show-toplevel")
    commit = _git("rev-parse", "HEAD") if top == str(ROOT) else None
    status = _git("status", "--porcelain") if commit else None
    pins = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "commit": commit, "dirty": bool(status) if commit else None,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "thread_pins": pins,
        "blas_threads": _blas_threads(), "seed": args.seed,
        "workload": args.workload, "ops": n_ops, "trace": args.trace,
        "seconds": args.seconds,
    }


class Runner:
    """Runs ops of one workload and keeps their times and verdicts:
    `times` in reference seconds, `walls` in wall seconds without the
    probe's ticks."""

    def __init__(self, wl, ref, state, corrupt):
        self.wl, self.ref, self.state, self.corrupt = wl, ref, state, corrupt
        self.times, self.walls, self.failed, self.accuracy = [], [], 0, {}

    def one(self, tracer=None):
        if tracer:
            tracer.begin_op(len(self.times))
        mark = PROBE.mark()
        try:
            out = self.wl.op(self.state)
        except Exception:  # an op that raises is a failed op, not a crash
            out = None
            traceback.print_exc(file=sys.stderr)
        wall, ref_s = PROBE.window(mark)
        self.times.append(ref_s)
        self.walls.append(wall)
        if tracer:
            tracer.end_op(self.wl.layer_counts(out) if out else {})
        if out is None:
            self.failed += 1
            return
        if self.corrupt:
            out = self.wl.corrupt(out)
        try:
            problems, acc = self.wl.check(self.ref, out)
        except Exception:
            problems, acc = [traceback.format_exc()], {}
        for key, val in acc.items():
            self.accuracy.setdefault(key, []).append(val)
        if problems:
            self.failed += 1
            print(f"perfbench: op {len(self.times)} failed: {problems}",
                  file=sys.stderr)

    def loop(self, seconds, tracer=None):
        """Run ops back to back within `seconds`, at least MIN_OPS; return
        (reference times, wall times).  An op starts only if, at the
        loop's mean pace so far, it ends in time, so a run lasts at most
        its set-up plus `seconds` however long one op takes."""
        start = time.perf_counter()
        first = len(self.times)
        while True:
            done = len(self.times) - first
            elapsed = time.perf_counter() - start
            if done >= MIN_OPS and elapsed * (done + 1) / done > seconds:
                break
            self.one(tracer)
        return self.times[first:], self.walls[first:]


def _median_metrics(op_metrics, specs):
    out = {}
    for spec in specs:
        vals = [m.get(spec["name"], 0.0) for m in op_metrics]
        out[spec["name"]] = statistics.median(vals) if vals else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](OUT)
    reps = []
    for _ in range(SETUP_REPS):
        mark = PROBE.mark()
        params = wl.inputs(args.seed)
        state = wl.setup(params)
        reps.append(PROBE.window(mark))
    # one warm-up op: repeating it would time warm ops, not the first call
    mark = PROBE.mark()
    warm = wl.op(state)
    warm_wall_s, warm_s = PROBE.window(mark)
    setup_s = IMPORT_S + statistics.median(r for _, r in reps) + warm_s
    setup_wall_s = (IMPORT_WALL_S + statistics.median(w for w, _ in reps)
                    + warm_wall_s)
    ref = wl.oracle(params, state, warm)

    runner = Runner(wl, ref, state, args.corrupt)
    ticks_before = len(PROBE.ticks)
    times, walls = runner.loop(args.seconds)
    ticks = PROBE.ticks[ticks_before:]
    speed = probe.REF_KERNEL_S * len(ticks) / sum(ticks) if ticks else 0.0
    p50 = statistics.median(times)
    tail, tail_pct = _tail(times)
    values = {
        "op_p50_s": p50, "op_tail_s": tail,
        "ops_per_s": (len(times) - runner.failed) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tracer = None
    if args.trace:
        # no ticks inside traced ops: they would land in whichever span is
        # open, so traced times and the overhead are wall seconds
        PROBE.stop()
        tracer = tracing.Tracer()
        tracer.install()
        _, traced = runner.loop(args.seconds, tracer)
        coverage = min(m["trace.coverage"] for m in tracer.op_metrics)
        if coverage < tracing.COVERAGE_MIN:
            raise RuntimeError(f"layer spans cover only {coverage:.3f} of an "
                               f"op, below {tracing.COVERAGE_MIN}")
        layer = _median_metrics(tracer.op_metrics, spec["per_layer"])
        layer["trace.op_p50_s"] = statistics.median(traced)
        layer["trace.overhead_s"] = (layer["trace.op_p50_s"]
                                     - statistics.median(walls))
        layer["trace.coverage_min"] = coverage
        metric_specs, metric_values = spec["per_layer"], layer
    else:
        metric_specs, metric_values = spec["end_to_end"], values
    PROBE.stop()

    attempted = len(runner.times)
    extras = {"fail_ratio": (runner.failed / attempted, "1"),
              "op_tail_pct": (tail_pct, "%"), "op_count": (len(times), "count"),
              "op_p50_wall_s": (statistics.median(walls), "s"),
              "setup_wall_s": (setup_wall_s, "s"),
              "probe_speed": (speed, "1")}
    for key, vals in runner.accuracy.items():
        extras[key] = (statistics.median(v for v, _ in vals), vals[0][1])

    metrics = {s["name"]: {"value": metric_values[s["name"]], "unit": s["unit"]}
               for s in metric_specs}
    prov = provenance(args, attempted)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={attempted} failed={runner.failed} "
          f"blas_threads={prov['blas_threads']} nproc={prov['nproc']} "
          f"commit={prov['commit']} dirty={prov['dirty']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, (val, unit) in extras.items():
            print(f"  {name:44s} {val:.6g} {unit}")
    record = {
        "provenance": prov, "metrics": metrics,
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "end_to_end": values, "op_times_s": runner.times,
        "op_walls_s": runner.walls, "setup_reps_s": reps,
        "import_s": [IMPORT_WALL_S, IMPORT_S],
        "warm_up_s": [warm_wall_s, warm_s],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json")
    print(json.dumps({"correct": runner.failed == 0, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
