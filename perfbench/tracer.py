"""Spans around the public functions of each gssm layer.

`Tracer.install` replaces every gssm module attribute (and class method)
that binds a traced function with a wrapper that records a span: name,
start, end, parent span and op id.  Modules import names directly
(``from .series import multiply_truncated``), so one function can have
several aliases; all of them are wrapped and `install` verifies that none
is left.  Leaves called ~1e5 times per op are aggregated per parent span
instead of stored one by one.  Wrappers pass straight through outside an
op, so checks and oracles are never traced.
"""

import importlib
import itertools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# top-level layer spans must cover at least this share of each op's wall
# time; the rest is benchmark glue between the calls
COVERAGE_MIN = 0.9


def _maps(result):
    if isinstance(result, list):
        return result
    return [result] if hasattr(result, "type_tag") else []


def _restarts(args, kwargs):
    return kwargs.get("restarts", args[1] if len(args) > 1 else 1)


# (span name, defining module, attribute, aggregate per parent, counters);
# a counter maps (args, kwargs, result) to {metric name: amount}; "pade"
# selects Tracer._count_pade, which needs per-op state
TARGETS = [
    ("series.construct", "gssm.series", "MultiSeries.__init__", True, None),
    ("series.multiply_truncated", "gssm.series", "multiply_truncated", True,
     lambda a, k, r: {"series.multiply_truncated.term_pairs":
                      len(a[0].coeffs) * len(a[1].coeffs)}),
    ("series.compose_truncated", "gssm.series", "compose_truncated", False,
     None),
    ("series.invert_map", "gssm.series", "invert_map", False, None),
    ("series.evaluate", "gssm.series", "MultiSeries.evaluate", True,
     lambda a, k, r: {"series.evaluate.terms": len(a[0].coeffs)}),
    ("series.evaluate_many", "gssm.series", "MultiSeries.evaluate_many",
     True, lambda a, k, r: {"series.evaluate_many.points": len(a[1])}),
    ("ssm.compute_ssm", "gssm.ssm", "compute_ssm", False, None),
    ("ssm.realify_parametrization", "gssm.ssm", "realify_parametrization",
     False, None),
    ("ssm.extract_polar", "gssm.ssm", "extract_polar", False, None),
    ("ssm.to_coordinate_graph", "gssm.ssm", "to_coordinate_graph", False,
     None),
    ("ssm.invariance_residual", "gssm.ssm", "invariance_residual", False,
     lambda a, k, r: {"ssm.invariance_residual.nan_slope":
                      int(math.isnan(r.slope))}),
    ("ssm.text", "gssm.ssm", "model_to_text", False,
     lambda a, k, r: {"ssm.text.bytes": len(r)}),
    ("ssm.text", "gssm.ssm", "model_from_text", False,
     lambda a, k, r: {"ssm.text.bytes": len(a[0])}),
    ("pade.pade_univariate", "gssm.pade", "pade_univariate", False, "pade"),
    ("pade.pade_multivariate", "gssm.pade", "pade_multivariate", False,
     "pade"),
    ("singularity.denominator_zero_scan", "gssm.singularity",
     "denominator_zero_scan", False,
     lambda a, k, r: {
         "singularity.denominator_zero_scan.grid_points":
             int(np.prod([np.size(ax) for ax in a[1]])),
         "singularity.denominator_zero_scan.flagged": len(r)}),
    ("reduced.rhs", "gssm.reduced", "ReducedField.rhs", True, None),
    ("reduced.solve_ivp", "gssm.reduced", "solve_ivp", False,
     lambda a, k, r: {"reduced.solve_ivp.nfev": r.nfev}),
    ("reduced.integrate_reduced", "gssm.reduced", "integrate_reduced", False,
     None),
    ("reduced.lift", "gssm.reduced", "lift", False,
     lambda a, k, r: {} if type(a[0]).__name__ == "SSMModel"
     else {"reduced.lift.samples": r.n_samples}),
    ("reduced.forced_response", "gssm.reduced", "forced_response", False,
     lambda a, k, r: {"reduced.forced_response.rho_points":
                      int(np.size(a[3]))}),
    ("reduced.backbone", "gssm.reduced", "backbone", False, None),
    ("reduced.lyapunov_estimate", "gssm.reduced", "lyapunov_estimate", False,
     None),
    ("reduced.psd_estimate", "gssm.reduced", "psd_estimate", False, None),
    ("datadriven.minimize", "gssm.datadriven", "minimize", False,
     lambda a, k, r: {"datadriven.minimize.nfev": r.nfev}),
    ("datadriven.fit_rational_field", "gssm.datadriven",
     "fit_rational_field", False,
     lambda a, k, r: {
         "datadriven.restarts.tried": _restarts(a, k),
         "datadriven.restarts.kept": sum(
             lo >= a[0].margin - 1e-9 for lo, _ in r.restart_den_ranges)}),
    ("datadriven.prep", "gssm.datadriven", "delay_embed", False, None),
    ("datadriven.prep", "gssm.datadriven", "tangent_space_pca", False, None),
    ("datadriven.prep", "gssm.datadriven", "estimate_derivatives", False,
     None),
    ("datadriven.predict", "gssm.datadriven", "predict", False, None),
    ("cli.ssm", "gssm.cli", "cmd_ssm", False, None),
    ("cli.pade", "gssm.cli", "cmd_pade", False, None),
    ("cli.analyze-frc", "gssm.cli", "cmd_frc", False, None),
    ("cli.analyze-backbone", "gssm.cli", "cmd_backbone", False, None),
    ("cli.ladder", "gssm.cli", "_ladder", False,
     lambda a, k, r: {"cli.ladder.tried": len(r[2]),
                      "cli.ladder.accepted": int(r[0] is not None)}),
]

# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "pade.degree_reduced_ratio": ("pade.degree_reduced", "pade.maps"),
    "cli.ladder.accept_ratio": ("cli.ladder.accepted", "cli.ladder.tried"),
    "datadriven.restarts_kept_ratio": ("datadriven.restarts.kept",
                                       "datadriven.restarts.tried"),
}


def _gssm_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "gssm" or n.startswith("gssm.")]


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent, op, self_s)
        self.leaves = {}       # (op, parent, name) -> [calls, total, self]
        self.op_metrics = []   # per-op metric dicts, in op order
        self._stack = []       # open frames: [name, start, child time, id]
        self._ids = itertools.count(1)
        self._op = None
        self._counts = None
        self._seen_maps = None
        self._wrapped = []     # (original, wrapper) for module attributes
        self._methods = []     # (class, method name, wrapper)

    # ---- installation -----------------------------------------------------

    def install(self):
        modules = _gssm_modules()
        for name, modname, attr, hot, counter in TARGETS:
            owner = importlib.import_module(modname)
            if counter == "pade":
                counter = self._count_pade
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                wrapper = self._wrap(name, cls.__dict__[meth], hot, counter)
                setattr(cls, meth, wrapper)
                self._methods.append((cls, meth, wrapper))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hot, counter)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
            self._wrapped.append((original, wrapper))
        self.verify()

    def verify(self):
        """Every alias of every traced function is wrapped."""
        for mod in _gssm_modules():
            for key, val in vars(mod).items():
                if any(val is orig for orig, _ in self._wrapped):
                    raise RuntimeError(f"{mod.__name__}.{key} is not wrapped")
        for cls, meth, wrapper in self._methods:
            if cls.__dict__[meth] is not wrapper:
                raise RuntimeError(f"{cls.__name__}.{meth} is not wrapped")
        for orig, wrapper in self._wrapped:
            if not any(v is wrapper for mod in _gssm_modules()
                       for v in vars(mod).values()):
                raise RuntimeError(f"{orig.__name__} has no wrapped alias")

    def _count_pade(self, args, kwargs, result):
        # count each returned map once, at the innermost call that made it
        n, m = args[1:3]
        out = defaultdict(int)
        for rat in _maps(result):
            if id(rat) not in self._seen_maps:
                self._seen_maps[id(rat)] = rat
                out["pade.maps"] += 1
                out["pade.degree_reduced"] += int(tuple(rat.type_tag) != (n, m))
        return out

    def _wrap(self, name, fn, hot, counter):
        stack, clock, tracer = self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0, 0.0, None if hot else next(tracer._ids)]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[2] += dur
                if hot:
                    key = (tracer._op, parent[3], name)
                    acc = tracer.leaves.get(key)
                    if acc is None:
                        acc = tracer.leaves[key] = [0, 0.0, 0.0]
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += dur - frame[2]
                else:
                    tracer.spans.append((frame[3], name, start, end,
                                         parent[3], tracer._op,
                                         dur - frame[2]))
            if counter is not None:
                counts = tracer._counts
                for key, val in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + val
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ---- ops ------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._counts = {}
        self._seen_maps = {}
        self._first_span = len(self.spans)
        self._stack.append(["op", time.perf_counter(), 0.0, next(self._ids)])

    def end_op(self, extra_counts):
        name, start, covered, sid = self._stack.pop()
        end = time.perf_counter()
        self.spans.append((sid, name, start, end, None, self._op,
                           end - start - covered))
        metrics = self._op_metrics(self.spans[self._first_span:-1])
        metrics.update(self._counts)
        metrics.update(extra_counts)
        for ratio, (num, den) in RATIOS.items():
            if metrics.get(den):
                metrics[ratio] = metrics.get(num, 0) / metrics[den]
        metrics["trace.coverage"] = covered / (end - start)
        self.op_metrics.append(metrics)
        self._op = None
        return metrics

    def _op_metrics(self, spans):
        out = defaultdict(float)
        open_names = {}
        for sid, name, start, end, parent, _, self_s in spans:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_s
            open_names[sid] = (name, parent)
        # total time counts a span only when no enclosing span has its name,
        # so recursion (pade_multivariate per component) is not doubled
        for sid, name, start, end, parent, _, _ in spans:
            chain = parent
            while chain in open_names and open_names[chain][0] != name:
                chain = open_names[chain][1]
            if chain not in open_names:
                out[name + ".total_s"] += end - start
        for (op, _, name), (calls, total, self_s) in self.leaves.items():
            if op == self._op:
                out[name + ".calls"] += calls
                out[name + ".total_s"] += total
                out[name + ".self_s"] += self_s
        return out

    def write(self, path):
        """All spans and aggregated leaves as JSON."""
        names = ("id", "name", "start", "end", "parent", "op", "self_s")
        doc = {"spans": [dict(zip(names, s)) for s in self.spans],
               "leaves": [{"op": op, "parent": parent, "name": name,
                           "calls": c, "total_s": t, "self_s": s}
                          for (op, parent, name), (c, t, s)
                          in self.leaves.items()]}
        path.write_text(json.dumps(doc))
