"""Command-line workflow around the library.

Subcommands follow the four-step recipe: pick or import a system, compute
the manifold model, globalize it with rational approximants, and analyze
the reduced dynamics. A run that writes artifacts also writes a
manifest.json recording the resolved options, sha256 hashes of the input
files and the names of the artifacts, so identical invocations produce
identical artifacts. It does so also when the run then fails numerically
(exit 3), but not on a malformed request (exit 2), and `systems` writes
nothing.

Exit codes: 0 success, 2 malformed request, 3 numerical failure (resonance,
pole, blowup). The last stdout line is always machine readable:
"gssm: status=<ok|validation-error|numerical-error> key=value ...".
"""

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .datadriven import (EmbeddingConfig, RegressionProblem, chart_from_text,
                         chart_to_text, delay_embed, estimate_derivatives,
                         fit_polynomial_field, fit_rational_field, predict,
                         tangent_space_pca)
from .errors import NumericalError, ValidationError
from .pade import (RationalMap, evaluate_rational_many, pade_multivariate,
                   rational_from_text, rationals_from_text, rationals_to_text)
from .reduced import (Forcing, ReducedField, backbone, double_well_field,
                      forced_response, forcing_projection, integrate_reduced,
                      lift, lyapunov_estimate, poincare_sample, psd_estimate)
from .series import (MultiSeries, format_float, series_from_text,
                     series_to_text, write_csv)
from .singularity import (classify_sign_pattern, denominator_zero_scan,
                          estimate_radius)
from .ssm import (SSMModel, compute_ssm, extract_polar, model_from_text,
                  model_to_text, realify_parametrization, realify_reduced,
                  spectral_analysis)
from .systems import SYSTEM_IDS, make_system
from .trajectory import TrajectoryData, trajectory_from_csv, trajectory_to_csv

# ---- plumbing ----------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Where one command writes its artifacts.  The output directory is
    created on the first write, and every name written is recorded for the
    manifest.  A body sets failed for a flagged result that exits 3."""

    def __init__(self, out: str):
        self.dir = Path(out)
        self.outputs = []
        self.failed = False

    def path(self, name: str) -> Path:
        if not self.outputs:
            self.dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.dir / name

    def write(self, name: str, text: str) -> None:
        self.path(name).write_text(text)


def _command(body):
    """Turn body(args, run) -> status fields into a handler(args) -> exit
    code.  manifest.json records the options, the sha256 of each input file
    the command declares and the outputs.  It is written whenever the body
    wrote an artifact, also when a NumericalError followed, and never after
    a ValidationError, when inputs may be missing.  The status line comes
    last: ok (exit 0), or numerical-error (exit 3) when run.failed is set."""

    def write_manifest(args, run):
        if not run.outputs:
            return
        options = {k: v for k, v in sorted(vars(args).items())
                   if k not in ("handler", "inputs", "out")}
        files = {str(getattr(args, k)) for k in args.inputs if getattr(args, k)}
        manifest = {
            "command": args.command,
            "options": options,
            "inputs": {f: _sha256(Path(f)) for f in sorted(files)},
            "outputs": sorted(run.outputs),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True, default=str)
        (run.dir / "manifest.json").write_text(text + "\n")

    @functools.wraps(body)
    def handler(args) -> int:
        run = _Run(args.out or os.environ.get("GSSM_OUT") or ".")
        try:
            fields = body(args, run)
        except NumericalError:
            write_manifest(args, run)
            raise
        write_manifest(args, run)
        parts = [f"gssm: status={'numerical-error' if run.failed else 'ok'} "
                 f"command={args.command}"]
        for k, v in fields.items():
            v = str(v)
            parts.append(f"{k}={json.dumps(v) if ' ' in v else v}")
        print(" ".join(parts))
        return 3 if run.failed else 0

    return handler


def _flags(flags) -> str:
    return ";".join(flags) or "none"


def _trajectory_status(run: _Run, traj: TrajectoryData) -> dict:
    """Status fields of an integrated trajectory; a flagged one exits 3."""
    run.failed = bool(traj.flags)
    return {"samples": traj.n_samples, "flags": _flags(traj.flags)}


def _floats(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise ValidationError(f"cannot parse float list {text!r}") from exc


def _ints(text: str):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse integer list {text!r}") from exc


def _read(path) -> str:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"no such file: {path}")
    return p.read_text()


def _load_traj(path) -> TrajectoryData:
    if not Path(path).is_file():
        raise ValidationError(f"no such file: {path}")
    return trajectory_from_csv(str(path))


def _load_model(path) -> SSMModel:
    return model_from_text(_read(path))


def _parse_forcing(args, dim: int):
    if args.f_amp is None:
        if args.f_freq is not None or args.f_vector is not None:
            raise ValidationError("--f-freq and --f-vector need --f-amp")
        return None
    if args.f_freq is None:
        raise ValidationError("--f-amp needs --f-freq")
    vec = _floats(args.f_vector) if args.f_vector else np.eye(dim)[-1]
    if vec.shape != (dim,):
        raise ValidationError(f"forcing vector must have {dim} entries")
    return Forcing(args.f_amp, args.f_freq, vec)


def _load_field(args) -> ReducedField:
    sources = [s for s in ("rationals", "model", "double_well")
               if getattr(args, s, None)]
    if len(sources) != 1:
        raise ValidationError(
            "exactly one of --rationals, --model, --double-well is required")
    if sources[0] == "double_well":
        if (args.f_amp, args.f_freq, args.f_vector) != (None, None, None):
            raise ValidationError("--double-well has its own forcing; "
                                  "--f-amp, --f-freq and --f-vector do not "
                                  "apply")
        return double_well_field()
    if sources[0] == "rationals":
        maps = rationals_from_text(_read(args.rationals))
        dim = sum(r.dim_out for r in maps)
        return ReducedField.from_rationals(maps,
                                           forcing=_parse_forcing(args, dim))
    model = _load_model(args.model)
    series = realify_reduced(model)
    return ReducedField.from_series(series,
                                    forcing=_parse_forcing(args, series.dim_in))


# ---- systems -----------------------------------------------------------------


@_command
def cmd_systems(args, run):
    for sid in SYSTEM_IDS:
        ns = make_system(sid)
        params = " ".join(f"{k}={v:g}" for k, v in sorted(ns.parameters.items()))
        print(f"{sid}: dim={ns.realization.dim}" + (f" {params}" if params else ""))
    return {"count": len(SYSTEM_IDS)}


# ---- ssm ---------------------------------------------------------------------


@_command
def cmd_ssm(args, run):
    if (args.system is None) == (args.import_model is None):
        raise ValidationError("exactly one of --system or --import-model "
                              "is required")
    if args.import_model:
        model = _load_model(args.import_model)
    else:
        params = {}
        for kv in args.param or []:
            if "=" not in kv:
                raise ValidationError(f"--param expects name=value, got {kv!r}")
            key, val = kv.split("=", 1)
            params[key] = float(val)
        ns = make_system(args.system, **params)
        master = _ints(args.master) if args.master else None
        spec = spectral_analysis(ns.realization, args.d, master_indices=master)
        model = compute_ssm(ns.realization, spec, args.order, style=args.style)
    run.write(args.model_out, model_to_text(model))
    return {"file": args.model_out, "n": model.n, "d": model.d,
            "style": model.style, "order": model.order,
            "flags": len(model.flags)}


# ---- pade --------------------------------------------------------------------


def _scan_axes(dim: int, radius: float, points: int, nonnegative: bool):
    lo = 0.0 if nonnegative else -radius
    return [np.linspace(lo, radius, points)] * dim


def _pade_targets(model: SSMModel):
    """(name, series, nonnegative scan domain) triples for a model."""
    targets = [("W", realify_parametrization(model), False)]
    if not model.is_oscillatory_pair():
        targets.append(("R", realify_reduced(model), False))
    elif model.style == "normal-form":
        polar = extract_polar(model)
        targets.append(("kappa", polar.kappa_series(), True))
        targets.append(("omega", polar.omega_series(), True))
    return targets


def _ladder(series: MultiSeries, n0: int, m0: int, radius: float,
            points: int, nonnegative: bool):
    """Walk [N/M] -> [N/M-1] -> [N-1/M-1] until the zero scan is clean."""
    rungs = []
    for n_, m_ in ((n0, m0), (n0, m0 - 1), (n0 - 1, m0 - 1)):
        if n_ >= 0 and m_ >= 0 and (n_, m_) not in rungs:
            rungs.append((n_, m_))
    report = []
    for n_, m_ in rungs:
        if n_ + m_ > series.order:
            report.append((n_, m_, -1))
            continue
        maps = pade_multivariate(series, n_, m_)
        if isinstance(maps, RationalMap):
            maps = [maps]
        axes = _scan_axes(series.dim_in, radius, points, nonnegative)
        n_flags = sum(len(denominator_zero_scan(r, axes)) for r in maps)
        report.append((n_, m_, n_flags))
        if n_flags == 0:
            return maps, (n_, m_), report
    return None, None, report


@_command
def cmd_pade(args, run):
    model = _load_model(args.model)
    n0 = args.N if args.N is not None else model.order // 2
    m0 = args.M if args.M is not None else model.order // 2
    wanted = args.targets.split(",") if args.targets else None
    fields = {}
    for name, series, nonneg in _pade_targets(model):
        if wanted and name not in wanted:
            continue
        maps, orders, report = _ladder(series, n0, m0, args.radius,
                                       args.scan_points, nonneg)
        if maps is None:
            lines = [f"target {name}: no pole-free approximant in the ladder"]
            for n_, m_, cnt in report:
                what = "series too short" if cnt < 0 else f"{cnt} flagged points"
                lines.append(f"  [{n_}/{m_}]: {what}")
            run.write(f"pade_{name}_report.txt", "\n".join(lines) + "\n")
            raise NumericalError(
                f"no pole-free [{n0}/{m0}] ladder member for {name}; "
                f"see pade_{name}_report.txt")
        run.write(f"pade_{name}.txt", rationals_to_text(maps))
        fields[name] = f"[{orders[0]}/{orders[1]}]"
        if orders != (n0, m0):
            fields[f"{name}_fallback_from"] = f"[{n0}/{m0}]"
    if not fields:
        raise ValidationError(f"no matching targets among {args.targets!r}")
    return fields


# ---- analyze -----------------------------------------------------------------


@_command
def cmd_integrate(args, run):
    field = _load_field(args)
    ic = _floats(args.ic)
    traj = integrate_reduced(field, ic, (args.t0, args.t1), n_out=args.n_out)
    trajectory_to_csv(traj, str(run.path("trajectory.csv")))
    if args.lift_model:
        model = _load_model(args.lift_model)
        lifted = lift(model, traj)
        trajectory_to_csv(lifted, str(run.path("lifted.csv")))
    return _trajectory_status(run, traj)


def _curve_reps(args, model=None):
    """kappa and omega representations: the --kappa/--omega rationals, or
    else the polar normal form of the model (read from --model if not
    given)."""
    if args.kappa or args.omega:
        if not (args.kappa and args.omega):
            raise ValidationError("--kappa and --omega go together")
        return (rational_from_text(_read(args.kappa)),
                rational_from_text(_read(args.omega)))
    if model is None:
        if not args.model:
            raise ValidationError("need --model or --kappa/--omega")
        model = _load_model(args.model)
    polar = extract_polar(model)
    return polar, polar


@_command
def cmd_backbone(args, run):
    kappa_rep, omega_rep = _curve_reps(args)
    grid = np.linspace(0.0, args.rho_max, args.points)
    components = ("omega", "kappa") if args.component == "both" \
        else (args.component,)
    for comp in components:
        rep = omega_rep if comp == "omega" else kappa_rep
        curve = backbone(rep, grid, component=comp)
        write_csv(run.path(f"backbone_{comp}.csv"), ["rho", comp], curve)
    return {"components": ",".join(components), "points": args.points}


def _lift_amplitude(model: SSMModel, component: int, grid: np.ndarray):
    """Lookup rho -> max |W_component| over 64 angles, for every rho of the
    grid, from one evaluation of the realified W on the whole block."""
    wr = realify_parametrization(model).component(component)
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ring = np.column_stack([np.cos(thetas), np.sin(thetas)])
    vals = wr.evaluate_many((grid[:, None, None] * ring).reshape(-1, 2)).real
    amps = np.max(np.abs(vals.reshape(len(grid), -1)), axis=1)
    return dict(zip(grid.tolist(), amps.tolist())).__getitem__


@_command
def cmd_frc(args, run):
    model = _load_model(args.model)
    vec = _floats(args.forcing_vector)
    eps_f = forcing_projection(model, vec, args.eps)
    kappa_rep, omega_rep = _curve_reps(args, model)
    grid = np.linspace(args.rho_min, args.rho_max, args.points)
    amp_fn = _lift_amplitude(model, args.amp_component, grid) \
        if args.amplitude == "lift" else None
    branch = forced_response(kappa_rep, omega_rep, eps_f, grid,
                             amplitude_fn=amp_fn)
    write_csv(run.path("frc.csv"), ["rho", "Omega", "amp", "stable"],
              ((p.rho, p.Omega, p.amplitude, "1" if p.stable else "0")
               for p in branch.points))
    fields = {"eps_f": f"{eps_f:.6g}", "points": len(branch.points)}
    if branch.points:
        arr = branch.as_array()
        peak = arr[np.argmax(arr[:, 2])]
        fields.update(peak_amp=f"{peak[2]:.6g}", peak_freq=f"{peak[1]:.6g}")
    return fields


@_command
def cmd_poincare(args, run):
    field = _load_field(args)
    traj = poincare_sample(field, _floats(args.ic), args.n_periods,
                           skip=args.skip, omega=args.omega)
    trajectory_to_csv(traj, str(run.path("poincare.csv")))
    return _trajectory_status(run, traj)


@_command
def cmd_lyapunov(args, run):
    field = _load_field(args)
    est = lyapunov_estimate(field, _floats(args.ic),
                            perturbation_size=args.perturbation,
                            horizon=args.horizon,
                            renorm_interval=args.renorm_interval,
                            transient=args.transient)
    growth = TrajectoryData(est.times, est.log_growth)
    trajectory_to_csv(growth, str(run.path("lyapunov_growth.csv")),
                      names=["log_growth"])
    return {"value": f"{est.value:.6g}", "fit_error": f"{est.fit_error:.3g}",
            "flags": _flags(est.flags)}


@_command
def cmd_psd(args, run):
    traj = _load_traj(args.data)
    freq, power = psd_estimate(traj, component=args.component)
    write_csv(run.path("psd.csv"), ["freq", "power"],
              np.column_stack([freq, power]))
    peak = freq[int(np.argmax(power))] if len(freq) else float("nan")
    return {"bins": len(freq), "peak_freq": f"{peak:.6g}"}


# ---- singularity -------------------------------------------------------------


def _coefficients_from(args) -> np.ndarray:
    sources = [s for s in ("coeffs", "series", "model") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ValidationError(
            "exactly one of --coeffs, --series, --model is required")
    if sources[0] == "coeffs":
        return _floats(",".join(_read(args.coeffs).split()))
    if sources[0] == "series":
        s = series_from_text(_read(args.series))
        if s.dim_in != 1:
            raise ValidationError("singularity analysis needs a univariate series")
        return s.univariate_coeffs().real
    polar = extract_polar(_load_model(args.model))
    series = polar.omega_series() if args.rep == "omega" \
        else polar.kappa_series()
    return series.univariate_coeffs().real


def _write_singularity_report(run, radius, angle, pattern, confidence,
                              flags) -> None:
    lines = [f"radius {format_float(radius)}",
             f"theta {format_float(angle)}",
             f"pattern {pattern}",
             f"confidence {format_float(confidence)}"]
    lines += [f"flag {f}" for f in flags]
    run.write("singularity.txt", "\n".join(lines) + "\n")


@_command
def cmd_sing_radius(args, run):
    est = estimate_radius(_coefficients_from(args))
    _write_singularity_report(run, est.radius, float("nan"), "-",
                              float("nan"), est.flags)
    return {"radius": f"{est.radius:.6g}",
            "fit_residual": f"{est.fit_residual:.3g}",
            "flags": _flags(est.flags)}


@_command
def cmd_sing_pattern(args, run):
    coeffs = _coefficients_from(args)
    pat = classify_sign_pattern(coeffs)
    try:
        radius = estimate_radius(coeffs).radius
    except ValidationError:
        radius = float("nan")
    _write_singularity_report(run, radius, pat.angle, pat.pattern,
                              pat.confidence, pat.flags)
    return {"radius": f"{radius:.6g}", "theta": f"{pat.angle:.6g}",
            "pattern": pat.pattern, "confidence": f"{pat.confidence:.4f}"}


@_command
def cmd_sing_scan(args, run):
    rmap = rationals_from_text(_read(args.rationals))[0]
    lo, hi = _floats(args.min), _floats(args.max)
    pts = _ints(args.points)
    if not (len(lo) == len(hi) == len(pts) == rmap.dim_in):
        raise ValidationError("--min/--max/--points must match the map "
                              f"dimension {rmap.dim_in}")
    axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, pts)]
    flags = denominator_zero_scan(rmap, axes, floor=args.floor)
    coords = [f"x{i + 1}" for i in range(rmap.dim_in)]
    write_csv(run.path("scan.csv"), coords + ["denominator", "reason"],
              ((*fl.point.tolist(), fl.value, fl.reason) for fl in flags))
    return {"flagged": len(flags), "floor": f"{args.floor:g}"}


# ---- regress / predict -------------------------------------------------------


def _pointwise_error(field, eta, zeta) -> float:
    if isinstance(field, RationalMap):
        pred = evaluate_rational_many(field, eta).real
    else:
        pred = field.evaluate_many(eta).real
    return float(np.sum((pred - zeta) ** 2))


@_command
def cmd_regress(args, run):
    if args.poly_order is None:  # on args, so the manifest records it
        args.poly_order = args.N + args.M + 1
    series = _load_traj(args.data)
    cfg = EmbeddingConfig(args.delays, args.lag, args.observable)
    cfg.check_for_dimension(args.d)
    emb = delay_embed(series, cfg)
    chart = tangent_space_pca(emb, args.d)
    eta = chart.project(emb.values)
    zeta = estimate_derivatives(TrajectoryData(emb.times, eta),
                                smooth_window=args.smooth_window).values
    n_hold = int(round(args.holdout * len(eta)))
    n_train = len(eta) - n_hold
    prob = RegressionProblem(eta[:n_train], zeta[:n_train], args.N, args.M,
                             margin=args.margin)
    rat = fit_rational_field(prob, restarts=args.restarts, seed=args.seed,
                             constrained=not args.unconstrained)
    poly = fit_polynomial_field(eta[:n_train], zeta[:n_train], args.poly_order)

    report = [f"samples: {n_train} train, {n_hold} held out",
              "", f"rational [{args.N}/{args.M}]", rat.summary()]
    status = {"rat_error": f"{rat.error:.6g}", "poly_error": f"{poly.error:.6g}"}
    if n_hold:
        rat_hold = _pointwise_error(rat.rational, eta[n_train:], zeta[n_train:])
        poly_hold = _pointwise_error(poly.series, eta[n_train:], zeta[n_train:])
        report.append(f"held-out error: {rat_hold:.6e}")
        status["rat_holdout"] = f"{rat_hold:.6g}"
        status["poly_holdout"] = f"{poly_hold:.6g}"
    report += ["", f"polynomial order {args.poly_order}", poly.summary()]
    if n_hold:
        report.append(f"held-out error: {poly_hold:.6e}")

    run.write("rational_fit.txt", rationals_to_text([rat.rational]))
    run.write("poly_fit.txt", series_to_text(poly.series))
    run.write("chart.txt", chart_to_text(chart, cfg))
    run.write("report.txt", "\n".join(report) + "\n")
    return dict(status, rat_params=rat.n_parameters,
                poly_params=poly.n_parameters)


@_command
def cmd_predict(args, run):
    chart, cfg = chart_from_text(_read(args.chart))
    if (args.fit is None) == (args.poly is None):
        raise ValidationError("exactly one of --fit or --poly is required")
    if args.fit:
        fitted = rational_from_text(_read(args.fit))
    else:
        fitted = series_from_text(_read(args.poly))
    window = _load_traj(args.data)
    traj = predict(chart, fitted, window, cfg, args.horizon,
                   n_out=args.n_out)
    trajectory_to_csv(traj, str(run.path("prediction.csv")), names=["y"])
    return _trajectory_status(run, traj)


# ---- parser ------------------------------------------------------------------


def _add_field_flags(p) -> None:
    p.add_argument("--rationals", help="reduced field as rational blocks")
    p.add_argument("--model", help="manifold model file (uses its R)")
    p.add_argument("--double-well", dest="double_well", action="store_true",
                   help="built-in forced double-well fixture")
    p.add_argument("--f-amp", dest="f_amp", type=float)
    p.add_argument("--f-freq", dest="f_freq", type=float)
    p.add_argument("--f-vector", dest="f_vector")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged).  Each command names its handler, a function of this module
    looked up when main runs it, and its inputs: the options that name
    input files, which the manifest hashes."""
    top = argparse.ArgumentParser(prog="gssm")
    top.add_argument("--out", help="output directory (or env GSSM_OUT)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("systems", help="list built-in systems")
    p.add_argument("action", nargs="?", default="list", choices=["list"])
    p.set_defaults(handler="cmd_systems")

    p = sub.add_parser("ssm", help="compute or import a manifold model")
    p.add_argument("--system", choices=SYSTEM_IDS)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--import-model", dest="import_model")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--order", type=int, default=7)
    p.add_argument("--style", choices=["normal-form", "graph"],
                   default="normal-form")
    p.add_argument("--master", help="comma list of eigenvalue positions")
    p.add_argument("--model-out", dest="model_out", default="model.txt")
    p.set_defaults(handler="cmd_ssm", inputs=("import_model",))

    p = sub.add_parser("pade", help="rational approximants with zero-scan "
                                    "gating and the [N/M] fallback ladder")
    p.add_argument("--model", required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--scan-points", dest="scan_points", type=int, default=41)
    p.add_argument("--targets", help="comma subset of W,R,kappa,omega")
    p.set_defaults(handler="cmd_pade", inputs=("model",))

    pa = sub.add_parser("analyze", help="reduced-model analyses")
    asub = pa.add_subparsers(dest="mode", required=True)

    p = asub.add_parser("integrate")
    _add_field_flags(p)
    p.add_argument("--ic", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--n-out", dest="n_out", type=int, default=1001)
    p.add_argument("--lift-model", dest="lift_model")
    p.set_defaults(handler="cmd_integrate", command="analyze-integrate",
                   inputs=("rationals", "model", "lift_model"))

    p = asub.add_parser("backbone")
    p.add_argument("--model")
    p.add_argument("--kappa")
    p.add_argument("--omega")
    p.add_argument("--rho-max", dest="rho_max", type=float, required=True)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--component", choices=["omega", "kappa", "both"],
                   default="both")
    p.set_defaults(handler="cmd_backbone", command="analyze-backbone",
                   inputs=("model", "kappa", "omega"))

    p = asub.add_parser("frc")
    p.add_argument("--model", required=True)
    p.add_argument("--kappa")
    p.add_argument("--omega")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--forcing-vector", dest="forcing_vector", required=True)
    p.add_argument("--rho-min", dest="rho_min", type=float, default=1e-4)
    p.add_argument("--rho-max", dest="rho_max", type=float, required=True)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--amplitude", choices=["rho", "lift"], default="rho")
    p.add_argument("--amp-component", dest="amp_component", type=int, default=0)
    p.set_defaults(handler="cmd_frc", command="analyze-frc",
                   inputs=("model", "kappa", "omega"))

    p = asub.add_parser("poincare")
    _add_field_flags(p)
    p.add_argument("--ic", required=True)
    p.add_argument("--n-periods", dest="n_periods", type=int, default=100)
    p.add_argument("--skip", type=int, default=20)
    p.add_argument("--omega", type=float)
    p.set_defaults(handler="cmd_poincare", command="analyze-poincare",
                   inputs=("rationals", "model"))

    p = asub.add_parser("lyapunov")
    _add_field_flags(p)
    p.add_argument("--ic", required=True)
    p.add_argument("--perturbation", type=float, default=1e-7)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--renorm-interval", dest="renorm_interval", type=float,
                   default=1.0)
    p.add_argument("--transient", type=float, default=50.0)
    p.set_defaults(handler="cmd_lyapunov", command="analyze-lyapunov",
                   inputs=("rationals", "model"))

    p = asub.add_parser("psd")
    p.add_argument("--data", required=True)
    p.add_argument("--component", type=int, default=0)
    p.set_defaults(handler="cmd_psd", command="analyze-psd", inputs=("data",))

    ps = sub.add_parser("singularity", help="convergence diagnostics")
    ssub = ps.add_subparsers(dest="mode", required=True)

    p = ssub.add_parser("radius")
    p.add_argument("--coeffs")
    p.add_argument("--series")
    p.add_argument("--model")
    p.add_argument("--rep", choices=["omega", "kappa"], default="omega")
    p.set_defaults(handler="cmd_sing_radius", command="singularity-radius",
                   inputs=("coeffs", "series", "model"))

    p = ssub.add_parser("pattern")
    p.add_argument("--coeffs")
    p.add_argument("--series")
    p.add_argument("--model")
    p.add_argument("--rep", choices=["omega", "kappa"], default="omega")
    p.set_defaults(handler="cmd_sing_pattern", command="singularity-pattern",
                   inputs=("coeffs", "series", "model"))

    p = ssub.add_parser("scan")
    p.add_argument("--rationals", required=True)
    p.add_argument("--min", required=True)
    p.add_argument("--max", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--floor", type=float, default=1e-6)
    p.set_defaults(handler="cmd_sing_scan", command="singularity-scan",
                   inputs=("rationals",))

    p = sub.add_parser("regress", help="data-driven reduced model")
    p.add_argument("--data", required=True)
    p.add_argument("--observable", type=int, default=0)
    p.add_argument("--delays", type=int, required=True)
    p.add_argument("--lag", type=int, default=1)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--poly-order", dest="poly_order", type=int, default=None)
    p.add_argument("--margin", type=float, default=1e-3)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--smooth-window", dest="smooth_window", type=int)
    p.add_argument("--unconstrained", action="store_true")
    p.set_defaults(handler="cmd_regress", inputs=("data",))

    p = sub.add_parser("predict", help="closed-loop observable prediction")
    p.add_argument("--chart", required=True)
    p.add_argument("--fit")
    p.add_argument("--poly")
    p.add_argument("--data", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--n-out", dest="n_out", type=int, default=1001)
    p.set_defaults(handler="cmd_predict",
                   inputs=("chart", "fit", "poly", "data"))

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except ValidationError as exc:
        print(f"gssm: status=validation-error message={json.dumps(str(exc))}")
        return 2
    except NumericalError as exc:
        print(f"gssm: status=numerical-error message={json.dumps(str(exc))}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
