"""The benchmark's four workloads.

Each workload turns a seed into inputs, builds what its ops share, runs one
op, and checks the op's output against an oracle from `oracles.py`.  Ops
call gssm through module attributes (``ssm.compute_ssm``), never through
names imported here, so the tracer's wrappers on those attributes see
every call.  Why each workload exists is in README.md.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp
from scipy.signal import convolve

from gssm import cli, datadriven, pade, reduced, ssm, systems
from gssm.trajectory import TrajectoryData

import oracles

SP_C = oracles.SHAW_PIERRE_DEFAULTS["c"]
DAUCHOT_DEFAULTS = {"s1": -0.038, "s2": -1.0}
REEXPANSION_TOL = 1e-8


def _shaw_pierre_params(rng):
    """k and gamma within 10% and 20% of the defaults; seed 0 gets them."""
    if rng is None:
        return {"k": 3.0, "gamma": 0.5}
    return {"k": 3.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0)),
            "gamma": 0.5 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0))}


def _seed_rng(seed):
    return None if seed == 0 else np.random.default_rng(seed)


def _interleave(even_coeffs):
    """Coefficients of sum c_n rho^(2n) as a flat series in rho."""
    out = np.zeros(2 * len(even_coeffs) - 1)
    out[::2] = even_coeffs
    return out


# ---- re-expansion oracle on dense coefficient arrays ------------------------


def _dense(series, size, dim):
    arr = np.zeros((size,) * dim, dtype=complex)
    for idx, vec in series.coeffs.items():
        if all(i < size for i in idx):
            arr[idx] = vec[0]
    return arr


def _graded(dim, order):
    return sorted((idx for idx in np.ndindex(*(order + 1,) * dim)
                   if sum(idx) <= order), key=lambda k: (sum(k), k))


def reexpansion_error(target, rational, order):
    """max |taylor(p/q) - target| through `order`, relative to max |target|.

    target is a scalar series or a flat coefficient array; the reciprocal
    of q comes from its own recurrence here, not from the library.
    """
    if isinstance(target, np.ndarray):
        dim, f = 1, np.zeros(order + 1, dtype=complex)
        f[:min(len(target), order + 1)] = target[:order + 1]
    else:
        dim = target.dim_in
        f = _dense(target, order + 1, dim)
    p = _dense(rational.numerator, order + 1, dim)
    q = _dense(rational.denominator, order + 1, dim)
    q_terms = [(k, q[k]) for k in _graded(dim, order) if q[k] != 0 and any(k)]
    r = np.zeros_like(q)
    for idx in _graded(dim, order):
        acc = 1.0 + 0j if not any(idx) else 0j
        for k, qk in q_terms:
            diff = tuple(a - b for a, b in zip(idx, k))
            if min(diff) >= 0:
                acc -= qk * r[diff]
        r[idx] = acc / q[(0,) * dim]
    back = convolve(r, p, method="direct")[(slice(0, order + 1),) * dim]
    mask = np.add.outer(*[np.arange(order + 1)] * 2) <= order if dim == 2 \
        else np.ones(order + 1, dtype=bool)
    err = np.max(np.abs(back - f)[mask])
    return float(err / max(np.max(np.abs(f)), 1e-300))


def matching_error(target, rational, order):
    """Padé conditions (target * q - p)_k = 0 for k <= order, univariate.

    Each residual is relative to the magnitudes that cancel in it, so the
    check stays meaningful when double rounding rules out `reexpansion_error`.
    """
    f = _dense(target, order + 1, 1)
    p = _dense(rational.numerator, order + 1, 1)
    q = _dense(rational.denominator, order + 1, 1)
    res = np.convolve(f, q)[:order + 1] - p
    scale = np.convolve(np.abs(f), np.abs(q))[:order + 1] + np.abs(p)
    return float(np.max(np.abs(res) / np.maximum(scale, 1e-300)))


class Workload:
    """Interface: inputs(seed) -> params, setup(params) -> state,
    op(state) -> output, oracle(params, state, warm-up output) -> reference,
    check(reference, output) -> (problems, accuracy metrics), and
    corrupt(output) -> output for the benchmark's negative self-test."""

    name = ""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)

    def layer_counts(self, out):
        """Per-op work counts the tracer cannot see from call arguments."""
        return {}


# ---- manifold_build ----------------------------------------------------------


class ManifoldBuild(Workload):
    """Order-21 Shaw-Pierre and order-26 Dauchot-Manneville to rationals."""

    name = "manifold_build"
    SP_ORDER, SP_PADE = 21, 10
    DM_ORDER, DM_PADE = 26, 12
    DM_BOX = (-1.2, 0.05)

    def inputs(self, seed):
        rng = _seed_rng(seed)
        params = _shaw_pierre_params(rng)
        if rng is None:
            params.update(DAUCHOT_DEFAULTS)
        else:
            # criterion 5's ranges narrowed to where s2/s1 stays clear of
            # the order-26 resonances s2 = k s1
            params["s1"] = float(rng.uniform(-0.037, -0.034))
            params["s2"] = float(rng.uniform(-1.15, -1.0))
        return params

    def setup(self, params):
        return {"params": params}

    def op(self, state):
        p = state["params"]
        sp = systems.make_system("shaw_pierre", k=p["k"], gamma=p["gamma"])
        spec = ssm.spectral_analysis(sp.realization, 2)
        model = ssm.compute_ssm(sp.realization, spec, self.SP_ORDER,
                                style="normal-form")
        w_real = ssm.realify_parametrization(model)
        polar = ssm.extract_polar(model)
        n = self.SP_PADE
        kappa = _interleave(polar.kappa)
        omega = _interleave(polar.omega)
        kappa_rat = pade.pade_univariate(kappa, n, n)
        omega_rat = pade.pade_univariate(omega, n, n)
        w_rats = pade.pade_multivariate(w_real, n, n)

        dm = systems.make_system("dauchot_manneville", s1=p["s1"], s2=p["s2"])
        dspec = ssm.spectral_analysis(dm.realization, 1)
        dmodel = ssm.compute_ssm(dm.realization, dspec, self.DM_ORDER,
                                 style="graph")
        h = ssm.to_coordinate_graph(dmodel, [0]).parametrization.component(1)
        h_rat = pade.pade_univariate(h, self.DM_PADE, self.DM_PADE)
        return {"omega0": float(polar.omega[0]),
                "pairs": [(kappa, kappa_rat), (omega, omega_rat)]
                + [(w_real.component(j), r) for j, r in enumerate(w_rats)],
                "h": (h, h_rat),
                "fixed_points": self._fixed_points(h_rat, p["s1"])}

    def _fixed_points(self, rat, s1):
        """Criterion 6's root step: x' = s1 x + (1 + x) y on y = p/q."""
        num = rat.numerator.univariate_coeffs().real
        den = rat.denominator.univariate_coeffs().real
        psi = npoly.polyadd(s1 * npoly.polymul([0.0, 1.0], den),
                            npoly.polymul([1.0, 1.0], num))
        poles = np.roots(den[::-1])
        lo, hi = self.DM_BOX
        out = []
        for root in np.roots(psi[::-1]):
            x = root.real
            if abs(root.imag) >= 1e-7 or not lo <= x <= hi:
                continue
            # zero/pole pairs annihilate; only free roots are genuine
            if len(poles) and np.min(np.abs(x - poles)) <= 1e-4 * (1 + abs(x)):
                continue
            slope = npoly.polyval(x, npoly.polyder(psi)) / npoly.polyval(x, den)
            out.append((float(x), "stable" if slope < 0 else "saddle"))
        return sorted(out)

    def oracle(self, params, state, warm):
        return {"omega0": oracles.shaw_pierre_omega0(params["k"], SP_C),
                "fixed_points": oracles.dauchot_fixed_points(
                    params["s1"], params["s2"], self.DM_BOX)}

    def check(self, ref, out):
        problems = []
        if abs(out["omega0"] - ref["omega0"]) > 1e-10:
            problems.append(f"omega0 {out['omega0']!r} != {ref['omega0']!r}")
        n = self.SP_PADE
        for i, (series, rat) in enumerate(out["pairs"]):
            err = reexpansion_error(series, rat, 2 * n)
            if not err <= REEXPANSION_TOL:
                problems.append(f"rational {i} re-expands with error {err:.2e}")
        # the Dauchot graph diverges (|c_24| ~ 4e34), so re-expanding its
        # [12/12] in doubles cancels away every digit above order ~9; its
        # Padé conditions are checked in backward-error form instead
        err = matching_error(*out["h"], 2 * self.DM_PADE)
        if not err <= REEXPANSION_TOL:
            problems.append(f"Dauchot [12/12] conditions fail by {err:.2e}")
        got, want = out["fixed_points"], ref["fixed_points"]
        fp_err = float("nan")
        if len(got) != len(want):
            problems.append(f"{len(got)} fixed points, oracle has {len(want)}")
        else:
            fp_err = max(abs(g[0] - w[0]) for g, w in zip(got, want))
            if not fp_err < 1e-2 or [g[1] for g in got] != [w[1] for w in want]:
                problems.append(f"fixed points {got} vs oracle {want}")
        return problems, {"fixed_point_abs_err": (fp_err, "1")}

    def corrupt(self, out):
        _, rat = out["pairs"][2]
        coeffs = rat.numerator.coeffs
        idx = max(coeffs, key=lambda k: abs(coeffs[k][0]))
        coeffs[idx] = coeffs[idx] * (1 + 1e-3)
        return out


# ---- frc_sweep ---------------------------------------------------------------


class FrcSweep(Workload):
    """Criterion 9's reduced forced response with the rational-chart lift."""

    name = "frc_sweep"
    ORDER, PADE = 11, 5
    RHO = (0.05, 8.0, 400)
    N_ANGLES = 64

    def inputs(self, seed):
        return {"eps": oracles.FRC_EPS[seed % len(oracles.FRC_EPS)]}

    def setup(self, params):
        ns = systems.make_system("shaw_pierre")
        spec = ssm.spectral_analysis(ns.realization, 2)
        model = ssm.compute_ssm(ns.realization, spec, self.ORDER,
                                style="normal-form")
        polar = ssm.extract_polar(model)
        n = self.PADE
        rho = np.linspace(*self.RHO)
        theta = np.linspace(0.0, 2.0 * np.pi, self.N_ANGLES, endpoint=False)
        rr, tt = np.meshgrid(rho, theta, indexing="ij")
        pts = np.column_stack([(rr * np.cos(tt)).ravel(),
                               (rr * np.sin(tt)).ravel()])
        return {
            "system": ns.realization, "model": model, "rho": rho,
            "kappa": pade.pade_univariate(_interleave(polar.kappa), n, n),
            "omega": pade.pade_univariate(_interleave(polar.omega), n, n),
            "chart": pade.pade_multivariate(
                ssm.realify_parametrization(model), n, n)[0],
            "eps_f": reduced.forcing_projection(model, [0.0, 1.0, 0.0, 0.0],
                                                params["eps"]),
            # the whole (rho, angle) grid is lifted in every op, so the work
            # does not depend on how many rho the seed's eps makes feasible
            "samples": TrajectoryData(np.arange(len(pts), dtype=float), pts),
        }

    def op(self, state):
        rho = state["rho"]
        lifted = reduced.lift(state["chart"], state["samples"])
        amps = np.max(np.abs(lifted.values[:, 0].reshape(len(rho), -1)),
                      axis=1)
        amp_of = dict(zip(rho.tolist(), amps.tolist()))
        branch = reduced.forced_response(state["kappa"], state["omega"],
                                         state["eps_f"], rho,
                                         amplitude_fn=amp_of.__getitem__)
        grid = np.linspace(0.0, self.RHO[1], 201)
        curves = (reduced.backbone(state["kappa"], grid, "kappa"),
                  reduced.backbone(state["omega"], grid, "omega"))
        res = ssm.invariance_residual(state["system"], state["model"])
        return {"branch": branch, "nan_rows": int(np.isnan(amps).sum()),
                "curves": curves, "slope": res.slope}

    def oracle(self, params, state, warm):
        return oracles.frc_oracle(params["eps"],
                                  self.out_dir / "frc_oracle_cache.json")

    def check(self, ref, out):
        om_star, amp_star = ref
        problems = []
        points = out["branch"].points
        if not points:
            return ["empty response branch"], {}
        worst = max(abs(p.residual) for p in points)
        if not worst < 1e-10:
            problems.append(f"FRC residual {worst:.2e}")
        if out["nan_rows"]:
            problems.append(f"{out['nan_rows']} lifted rows are NaN")
        peak = max(points, key=lambda p: p.amplitude)
        freq_err = abs(peak.Omega - om_star) / om_star
        if not freq_err <= 0.05:
            problems.append(f"peak Omega off by {freq_err:.3f}")
        if not out["slope"] >= self.ORDER + 0.75:
            problems.append(f"residual slope {out['slope']}")
        return problems, {
            "frc_peak_freq_relerr": (freq_err, "1"),
            "frc_peak_amp_relerr": (abs(peak.amplitude - amp_star) / amp_star,
                                    "1")}

    def corrupt(self, out):
        out["branch"].points[0].residual = 1e-6
        return out


# ---- chaos_fit ---------------------------------------------------------------


class ChaosFit(Workload):
    """Rational field fit of a Hopf cycle plus criterion 13's diagnostics."""

    name = "chaos_fit"
    DT, T_TRAIN = 0.02, 60.0
    HORIZON = 10.0 * np.pi
    PERTURBATIONS = (1e-6, 1e-7, 1e-8)

    def inputs(self, seed):
        rng = _seed_rng(seed)
        if rng is None:
            return {"ic": [0.4, 0.0]}
        r, phi = rng.uniform(0.3, 0.5), rng.uniform(0.0, 2.0 * np.pi)
        return {"ic": [float(r * np.cos(phi)), float(r * np.sin(phi))]}

    def setup(self, params):
        t = np.arange(0.0, self.T_TRAIN + self.DT / 2, self.DT)
        sol = solve_ivp(oracles.hopf_rhs, (0.0, self.T_TRAIN), params["ic"],
                        t_eval=t, rtol=1e-10, atol=1e-12, dense_output=True)
        return {"series": TrajectoryData(t, sol.y[0]),
                "window": TrajectoryData(t[:60], sol.y[0][:60]),
                "solution": sol.sol,
                "cfg": datadriven.EmbeddingConfig(5, 10),
                "field": reduced.double_well_field()}

    def op(self, state):
        cfg = state["cfg"]
        emb = datadriven.delay_embed(state["series"], cfg)
        chart = datadriven.tangent_space_pca(emb, 2, center=np.zeros(5))
        eta = chart.project(emb.values)
        zeta = datadriven.estimate_derivatives(
            TrajectoryData(emb.times, eta)).values
        problem = datadriven.RegressionProblem(eta, zeta, 3, 2)
        fit = datadriven.fit_rational_field(problem, restarts=3, seed=0)
        pred = datadriven.predict(chart, fit.rational, state["window"], cfg,
                                  self.HORIZON)
        f = state["field"]
        lyap = [reduced.lyapunov_estimate(f, [0.1, 0.1],
                                          perturbation_size=e).value
                for e in self.PERTURBATIONS]
        traj = reduced.integrate_reduced(f, [0.1, 0.1], (0.0, 400.0),
                                         n_out=8192)
        _, power = reduced.psd_estimate(traj)
        return {"fit": fit, "margin": problem.margin, "pred": pred,
                "lyap": np.array(lyap), "power": power}

    def oracle(self, params, state, warm):
        times = warm["pred"].times
        ref = solve_ivp(oracles.hopf_rhs, (times[0], times[-1]),
                        state["solution"](times[0]), t_eval=times,
                        rtol=1e-10, atol=1e-12)
        return ref.y[0]

    def check(self, ref, out):
        problems = []
        lyap, fit = out["lyap"], out["fit"]
        spread = float(np.ptp(lyap) / np.mean(lyap))
        if not (np.all(lyap > 0) and spread <= 0.1):
            problems.append(f"Lyapunov estimates {lyap}")
        power = out["power"]
        if not np.max(power) < 0.9 * np.sum(power):
            problems.append("PSD is not broadband")
        if not fit.min_denominator >= out["margin"] - 1e-9:
            problems.append(f"denominator {fit.min_denominator:.3e} on data")
        if not fit.error <= fit.stage1_error + 1e-12:
            problems.append("refined fit is worse than stage 1")
        pred = out["pred"].values[:, 0]
        if pred.shape != ref.shape:
            return problems + ["prediction has the wrong length"], {}
        rel = float(np.linalg.norm(pred - ref) / np.linalg.norm(ref))
        if not rel < 0.1:
            problems.append(f"prediction error {rel:.3f}")
        return problems, {"lyapunov_rel_spread": (spread, "1"),
                          "predict_rel_err": (rel, "1")}

    def corrupt(self, out):
        out["pred"].values[:, 0] += 0.5
        return out


# ---- cli_pipeline ------------------------------------------------------------


class CliPipeline(Workload):
    """ssm -> pade -> analyze frc -> analyze backbone through gssm.cli.main."""

    name = "cli_pipeline"
    OUT_TAG = "<out>"

    def inputs(self, seed):
        return _shaw_pierre_params(_seed_rng(seed)) if seed else {}

    def setup(self, params):
        return {"params": params}

    def _commands(self, out, params):
        ssm_cmd = ["ssm", "--system", "shaw_pierre", "--d", "2",
                   "--order", "21"]
        for key, val in sorted(params.items()):
            ssm_cmd += ["--param", f"{key}={val!r}"]
        model = f"{out}/model.txt"
        return [
            ssm_cmd,
            ["pade", "--model", model, "--N", "10", "--M", "10"],
            ["analyze", "frc", "--model", model,
             "--kappa", f"{out}/pade_kappa.txt",
             "--omega", f"{out}/pade_omega.txt", "--eps", "0.05",
             "--forcing-vector", "0,1,0,0", "--rho-max", "8",
             "--amplitude", "lift"],
            ["analyze", "backbone", "--model", model, "--rho-max", "8"],
        ]

    def op(self, state):
        out = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)
        try:
            runs = []
            for argv in self._commands(out, state["params"]):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["--out", out] + argv)
                runs.append((argv[0], code, buf.getvalue()))
            artifacts = {}
            for path in sorted(Path(out).iterdir()):
                data = path.read_bytes()
                if path.name == "manifest.json":
                    data = data.replace(out.encode(), self.OUT_TAG.encode())
                artifacts[path.name] = data
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"runs": runs, "artifacts": artifacts}

    def oracle(self, params, state, warm):
        k = params.get("k", 3.0)
        return {"omega0": oracles.shaw_pierre_omega0(k, SP_C),
                "artifacts": dict(warm["artifacts"])}

    def check(self, ref, out):
        problems = []
        for name, code, text in out["runs"]:
            last = text.strip().splitlines()[-1] if text.strip() else ""
            if code != 0 or "status=ok" not in last:
                problems.append(f"{name} exited {code}: {last}")
        arts = out["artifacts"]
        try:
            ssm.model_from_text(arts["model.txt"].decode())
            for target in ("W", "kappa", "omega"):
                pade.rationals_from_text(arts[f"pade_{target}.txt"].decode())
            rows = arts["backbone_omega.csv"].decode().splitlines()
            omega0 = float(rows[1].split(",")[1])
        except (KeyError, ValueError, IndexError) as exc:
            return problems + [f"artifact does not parse: {exc!r}"], {}
        if abs(omega0 - ref["omega0"]) > 1e-6:
            problems.append(f"backbone omega(0) {omega0!r}")
        if arts != ref["artifacts"]:
            changed = sorted(set(arts) ^ set(ref["artifacts"]) |
                             {k for k in arts if arts[k] !=
                              ref["artifacts"].get(k)})
            problems.append(f"artifacts differ from the warm-up op: {changed}")
        return problems, {}

    def layer_counts(self, out):
        return {"cli.bytes_written": sum(map(len, out["artifacts"].values()))}

    def corrupt(self, out):
        data = bytearray(out["artifacts"]["frc.csv"])
        data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
        out["artifacts"]["frc.csv"] = bytes(data)
        return out


WORKLOADS = {w.name: w for w in (ManifoldBuild, FrcSweep, ChaosFit,
                                  CliPipeline)}
