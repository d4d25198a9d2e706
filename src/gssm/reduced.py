"""Running and analyzing the reduced dynamics.

A ReducedField is the right-hand side of the reduced model in one of two
forms: a real polynomial series or rational maps (the globalized model).
The analysis routines (backbone, forced response, Poincare sections,
Lyapunov exponent, PSD) operate on these fields; everything returns plain
arrays or TrajectoryData so the outputs can be dumped to CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.signal import periodogram

from .errors import NumericalError, ValidationError
from .pade import (DEFAULT_POLE_FLOOR, RationalMap, pade_univariate,
                   rational_parts)
from .series import MultiSeries
from .ssm import (PolarNormalForm, PolySystem, SpectralData, SSMModel,
                  _conjugate_row, foliation_projection,
                  realify_parametrization)
from .trajectory import TrajectoryData

FIELD_KINDS = ("series", "rational")
DEFAULT_BLOWUP_FACTOR = 1e6
DEFAULT_POLE_EVENT_FLOOR = 1e-6
DEFAULT_RTOL, DEFAULT_ATOL = 1e-9, 1e-12


@dataclass
class Forcing:
    """Harmonic forcing eps * vector * cos(frequency t) in reduced coordinates."""

    amplitude: float
    frequency: float
    vector: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.frequency <= 0 and self.amplitude != 0:
            raise ValidationError("forcing frequency must be positive")
        if self.vector is not None:
            self.vector = np.asarray(self.vector, dtype=float).reshape(-1)


@dataclass
class ReducedField:
    kind: str
    dim: int
    series: Optional[MultiSeries] = None
    rationals: Optional[List[RationalMap]] = None
    forcing: Optional[Forcing] = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValidationError(f"kind must be one of {FIELD_KINDS}")
        if self.kind == "series":
            if self.series is None or self.series.dim_in != self.dim \
                    or self.series.dim_out != self.dim:
                raise ValidationError("series field must map dim -> dim")
        else:
            if not self.rationals:
                raise ValidationError("rational field needs rational maps")
            total = sum(r.dim_out for r in self.rationals)
            if total != self.dim or any(r.dim_in != self.dim
                                        for r in self.rationals):
                raise ValidationError("rational maps must cover dim components")
        if self.forcing is not None:
            if self.forcing.vector is None or \
                    self.forcing.vector.shape != (self.dim,):
                raise ValidationError("forcing vector must have the field dim")

    @classmethod
    def from_series(cls, series: MultiSeries,
                    forcing: Optional[Forcing] = None) -> "ReducedField":
        return cls("series", series.dim_in, series=series, forcing=forcing)

    @classmethod
    def from_rationals(cls, rationals: Union[RationalMap, Sequence[RationalMap]],
                       forcing: Optional[Forcing] = None) -> "ReducedField":
        if isinstance(rationals, RationalMap):
            rationals = [rationals]
        rationals = list(rationals)
        dim = sum(r.dim_out for r in rationals)
        return cls("rational", dim, rationals=rationals, forcing=forcing)

    def autonomous_rhs(self, u: np.ndarray) -> np.ndarray:
        """The field at a state (dim,) or at stacked states (m, dim)."""
        u = np.asarray(u)
        pts = u.reshape(-1, self.dim)
        if self.kind == "series":
            out = self.series.evaluate_many(pts).real
        else:
            out = np.hstack([num.real / den.real[:, None] for num, den in
                             (rational_parts(r, pts) for r in self.rationals)])
        return out.reshape(u.shape)

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        """Forced field at time t; u is one state or stacked states."""
        out = self.autonomous_rhs(u)
        if self.forcing is None or self.forcing.amplitude == 0.0:
            return out
        eps, omega = self.forcing.amplitude, self.forcing.frequency
        return out + eps * self.forcing.vector * math.cos(omega * t)

    def min_denominator(self, u: np.ndarray) -> float:
        if self.kind != "rational":
            return 1.0
        pts = np.reshape(u, (1, self.dim))
        return min(abs(rational_parts(r, pts)[1][0].real)
                   for r in self.rationals)


def _initial_state(field: ReducedField, ic) -> np.ndarray:
    """ic as a state of the field; ValidationError unless it has the
    field's dim, is finite and lies off the pole floor."""
    y0 = np.asarray(ic, dtype=float).reshape(-1)
    if y0.shape != (field.dim,):
        raise ValidationError(f"initial condition must have dim {field.dim}")
    if not np.all(np.isfinite(y0)):
        raise ValidationError("initial condition must be finite")
    if field.kind == "rational" and \
            field.min_denominator(y0) < DEFAULT_POLE_EVENT_FLOOR:
        raise ValidationError("initial condition is within the pole floor")
    return y0


def _run(rhs, y0, t_span, rtol: float, atol: float,
         field: Optional[ReducedField] = None,
         t_eval: Optional[np.ndarray] = None):
    """One RK45 solve of y' = rhs(t, y): (times, states, stop), with the
    states at the solver's steps or at t_eval.

    With a field, y0 must pass _initial_state, and the run stops where the
    state norm passes DEFAULT_BLOWUP_FACTOR * max(1, |y0|) or a rational
    field's denominator falls to DEFAULT_POLE_EVENT_FLOOR; stop is then
    (flag, t_stop, u_stop), else None.  Without a field (a stacked pair)
    nothing is checked or watched.  Solver failure raises NumericalError.
    """
    events = None
    if field is None:
        y0 = np.asarray(y0, dtype=float).reshape(-1)
    else:
        y0 = _initial_state(field, y0)
        bound = DEFAULT_BLOWUP_FACTOR * max(1.0, float(np.linalg.norm(y0)))

        def blowup_event(t, u):
            return np.linalg.norm(u) - bound

        def pole_event(t, u):
            return field.min_denominator(u) - DEFAULT_POLE_EVENT_FLOOR

        blowup_event.terminal = pole_event.terminal = True
        events = [blowup_event]
        if field.kind == "rational":
            events.append(pole_event)
    sol = solve_ivp(rhs, t_span, y0, method="RK45", rtol=rtol, atol=atol,
                    t_eval=t_eval, events=events)
    stop = None
    if sol.status == 1:
        if len(sol.t_events[0]):
            t_stop, u_stop = sol.t_events[0][0], sol.y_events[0][0]
            flag = (f"blowup at t={t_stop:.6g}: state norm exceeded "
                    f"{bound:.3g}")
        else:
            t_stop, u_stop = sol.t_events[1][0], sol.y_events[1][0]
            flag = (f"pole crossing at t={t_stop:.6g}, "
                    f"u={np.array2string(u_stop, precision=6)}")
        stop = (flag, t_stop, u_stop)
    elif sol.status != 0:
        raise NumericalError(f"integration failed: {sol.message}")
    # with t_eval, sol.t and sol.y are empty lists if no point was reached
    return np.asarray(sol.t), np.reshape(sol.y, (len(y0), -1)).T, stop


def integrate_reduced(f: ReducedField, ic, t_span: Tuple[float, float],
                      rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                      n_out: int = 1001) -> TrajectoryData:
    """Adaptive integration with blowup and pole-crossing termination.

    Finite-time blowup of truncated Taylor fields is expected behavior: the
    run stops at the threshold and the trajectory carries a flag instead of
    the solver erroring out.
    """
    times, values, stop = _run(f.rhs, ic, t_span, rtol, atol, f,
                               np.linspace(t_span[0], t_span[1], n_out))
    if stop is None:
        return TrajectoryData(times, values)
    flag, t_stop, u_stop = stop
    return TrajectoryData(np.append(times, t_stop), np.vstack([values, u_stop]),
                          [flag])


def lift(chart, traj: TrajectoryData) -> TrajectoryData:
    """Map a reduced trajectory to ambient space through the parametrization.

    chart may be an SSMModel (lifted through realify_parametrization, so a
    model whose W does not realify raises NumericalError), a real
    MultiSeries, or a RationalMap.  Pole-adjacent samples of a rational
    chart turn into NaN rows with a flag, so one bad sample does not discard
    the rest of the trajectory.
    """
    if isinstance(chart, SSMModel):
        return lift(realify_parametrization(chart), traj)
    flags = list(traj.flags)
    if isinstance(chart, MultiSeries):
        rows = chart.evaluate_many(traj.values).real
    elif isinstance(chart, RationalMap):
        num, den = rational_parts(chart, traj.values)
        bad = np.abs(den.real) < DEFAULT_POLE_FLOOR
        rows = num.real / np.where(bad, np.nan, den.real)[:, None]
        if np.any(bad):
            flags.append(f"{np.count_nonzero(bad)} samples within the pole "
                         "floor lifted as NaN")
    else:
        raise ValidationError("chart must be SSMModel, MultiSeries, "
                              "or RationalMap")
    return TrajectoryData(traj.times, rows, flags)


# ---- backbone and forced response --------------------------------------------


def backbone(rep, rho_grid, component: str = "omega") -> np.ndarray:
    """Pairs (rho, omega(rho)) (or kappa) for a polar or rational model."""
    if component not in ("omega", "kappa"):
        raise ValidationError("component must be 'omega' or 'kappa'")
    grid = np.asarray(rho_grid, dtype=float).reshape(-1)
    if np.any(grid < 0):
        raise ValidationError("rho grid must be nonnegative")
    vals = _univariate_value_and_deriv(rep, grid, component)[0]
    return np.column_stack([grid, vals])


def _univariate_value_and_deriv(rep, rho: np.ndarray,
                                component: str) -> Tuple[np.ndarray,
                                                         np.ndarray]:
    if isinstance(rep, PolarNormalForm):
        rep = RationalMap.polynomial(rep.omega_series() if component == "omega"
                                     else rep.kappa_series())
    if not isinstance(rep, RationalMap):
        raise ValidationError("curve representation must be PolarNormalForm "
                              "or RationalMap")
    val, deriv = _rational_value_and_deriv(rep, rho)
    return val.real, deriv.real


def _rational_value_and_deriv(rat: RationalMap, x):
    """Complex value and derivative of a univariate rational at x (a float
    or an array)."""
    pts = np.reshape(x, (-1, 1))
    num, d = rational_parts(rat, pts)
    n = num[:, 0]
    np_, dp = (s.derivative(0).evaluate_many(pts)[:, 0]
               for s in (rat.numerator, rat.denominator))
    shape = np.shape(x)
    return ((n / d).reshape(shape)[()],
            ((np_ * d - n * dp) / d ** 2).reshape(shape)[()])


@dataclass
class FRCPoint:
    rho: float
    Omega: float
    amplitude: float
    stable: bool
    residual: float
    psi: Optional[float] = None


@dataclass
class FRCBranch:
    eps_f: float
    points: List[FRCPoint] = field(default_factory=list, init=False)

    def as_array(self) -> np.ndarray:
        return np.array([[p.rho, p.Omega, p.amplitude, float(p.stable)]
                         for p in self.points]).reshape(-1, 4)


@dataclass
class ModalForcing:
    """Resonant part of the O(eps) reduced forcing eps * L(p) F cos(Omega t).

    With z = rho e^{i theta} the master coordinate and psi = theta - Omega t,
    averaging over the fast phase leaves the forcing term
    (eps/2) (g(rho) e^{-i psi} + h(rho) e^{i psi}) in rho' + i rho psi'.
    g and h are complex rational functions of u = rho^2.
    """

    eps: float
    g: RationalMap
    h: RationalMap

    @classmethod
    def polynomial(cls, eps: float, g_coeffs, h_coeffs=(0.0,)
                   ) -> "ModalForcing":
        """g and h from coefficients of u^0, u^1, ... (u = rho^2)."""
        return cls(eps, *(RationalMap.polynomial(MultiSeries.from_univariate(c))
                          for c in (g_coeffs, h_coeffs)))

    @property
    def leading_order(self) -> float:
        """(eps/2) |g(0)|, the scalar eps_f of forcing_projection."""
        return float(self.eps * abs(self.g.numerator.get((0,))[0]) / 2.0)

    def at(self, rho):
        """g, dg/drho, h, dh/drho at rho (a float or an array)."""
        g, gu = _rational_value_and_deriv(self.g, rho * rho)
        h, hu = _rational_value_and_deriv(self.h, rho * rho)
        return g, 2.0 * rho * gu, h, 2.0 * rho * hu


def _globalize_in_u(coeffs) -> RationalMap:
    """Pade approximant of a series in u at the type N <= M using every term.

    Raises NumericalError if degree reduction leaves N > M or if the
    denominator has a zero with Re u >= 0.
    """
    if not coeffs:
        return RationalMap.polynomial(MultiSeries.zero(1, 1, 0))
    m = len(coeffs) // 2
    rat = pade_univariate(coeffs, len(coeffs) - 1 - m, m)
    if rat.type_tag[0] > rat.type_tag[1]:
        raise NumericalError(f"forcing approximant has type {list(rat.type_tag)}"
                             f" after degree reduction ({'; '.join(rat.flags)})"
                             "; a numerator degree above the denominator's "
                             "outgrows the damping")
    poles = np.roots(rat.denominator.univariate_coeffs()[::-1])
    if np.any(poles.real >= 0):
        raise NumericalError(f"forcing approximant [{rat.type_tag[0]}/"
                             f"{rat.type_tag[1]}] has a pole at u = "
                             f"{poles[np.argmax(poles.real)]:.6g} with "
                             "Re u >= 0")
    return rat


def foliation_forcing(sys: PolySystem, spec: SpectralData, model: SSMModel,
                      forcing_vector, eps: float) -> ModalForcing:
    """O(eps) reduced forcing projected along the invariant foliation.

    G = (L~ V^-1 F)_+ is the master-row forcing with coefficients G_(a,b)
    on z^a zbar^b (L~ from ssm.foliation_projection, through order - 1).
    Its resonant parts g(rho) = sum G_(n,n) rho^2n and h(rho) = sum
    G_(n+2,n) rho^(2n+2) are globalized by pade_univariate in u = rho^2:
    g directly and h as u times a rational in u.  Each type uses every
    available coefficient with N <= M ([2/3] for g and [2/2] for h/u at
    order 11): a numerator degree above the denominator's makes the forcing
    outgrow the damping at large rho and plants a false resonance peak.
    NumericalError is raised where an approximant breaks that rule after
    pade_univariate's degree reduction, where it has a pole with
    Re u >= 0, the half-plane that holds every amplitude u = rho^2, or
    where the zbar row of R does not mirror the z row (ssm._conjugate_row).
    """
    vec = np.asarray(forcing_vector, dtype=complex).reshape(-1)
    if vec.shape != (model.n,):
        raise ValidationError("forcing vector must have the ambient dim")
    lmap = foliation_projection(sys, spec, model)
    plus = _conjugate_row(model)
    forcing = lmap.linear_transform(np.kron(np.eye(model.d)[plus], vec)[None, :])

    def coeff(a: int, b: int) -> complex:
        return forcing.get((a, b) if plus == 0 else (b, a))[0]

    half = lmap.order // 2
    g_c = [coeff(k, k) for k in range(half + 1)]
    h_c = [coeff(k + 2, k) for k in range(half)]

    g = _globalize_in_u(g_c)
    h = _globalize_in_u(h_c)
    h = RationalMap(MultiSeries(1, 1, h.numerator.order + 1,
                                {(k[0] + 1,): c
                                 for k, c in h.numerator.coeffs.items()}),
                    h.denominator, (h.type_tag[0] + 1, h.type_tag[1]),
                    h.flags)
    return ModalForcing(eps, g, h)


def forced_response(kappa_rep, omega_rep, eps_f, rho_grid,
                    amplitude_fn: Optional[Callable[[float], float]] = None
                    ) -> FRCBranch:
    """Both frequency branches of the steady-state response at each rho.

    eps_f is either the scalar modal forcing of forcing_projection or a
    ModalForcing.  The steady state of the averaged polar equations solves

        (kappa(rho) + i (omega(rho) - Omega)) rho
            + (eps/2) (g(rho) e^{-i psi} + h(rho) e^{i psi}) = 0,

    where a scalar eps_f stands for a constant g with (eps/2)|g| = eps_f and
    h = 0, and the equation reduces to
    (Omega - omega(rho))^2 = (eps_f/rho)^2 - kappa(rho)^2.  Per rho the real
    part is one sinusoid in psi and the imaginary part then gives Omega, so
    both are closed form; grid points without a real solution are simply
    infeasible and produce no output.  Stability comes from the 2x2
    Jacobian of the (rho, psi) system at the fixed point; each FRCPoint
    records its phase psi.
    """
    forcing = eps_f
    if not isinstance(forcing, ModalForcing):
        if eps_f <= 0:
            raise ValidationError("eps_f must be positive")
        forcing = ModalForcing.polynomial(2.0, [eps_f])
    # rho' = kappa rho + (eps/2) Re(s e^{-i psi}),        s = g + conj(h)
    # psi' = omega - Omega + (eps/2 rho) Im(q e^{-i psi}), q = g - conj(h)
    eps = forcing.eps
    if eps <= 0:
        raise ValidationError("forcing amplitude must be positive")
    grid = np.asarray(rho_grid, dtype=float).reshape(-1)
    if np.any(grid <= 0):
        raise ValidationError("rho grid must be positive")
    branch = FRCBranch(forcing.leading_order)
    curves = (_univariate_value_and_deriv(kappa_rep, grid, "kappa")
              + _univariate_value_and_deriv(omega_rep, grid, "omega")
              + forcing.at(grid))
    columns = [c.tolist() for c in curves]
    for rho, k, kp, w, wp, g, gp, h, hp in zip(grid.tolist(), *columns):
        s, sp = g + np.conj(h), gp + np.conj(hp)
        q, qp = g - np.conj(h), gp - np.conj(hp)
        reach = eps * abs(s) / (2.0 * rho)
        disc = reach ** 2 - k ** 2
        if disc < 0 or reach == 0.0:
            continue
        root = math.sqrt(disc)
        amp = amplitude_fn(rho) if amplitude_fn is not None else rho
        for sign in (1.0, -1.0):
            # e^{i(psi - arg s)} = (-kappa - i sign root) / reach; for h = 0
            # this puts Omega = omega + sign root, the scalar equation's roots
            e_plus = s / abs(s) * complex(-k, -sign * root) / reach
            e_minus = 1.0 / e_plus
            forcing_term = 0.5 * eps * (g * e_minus + h * e_plus)
            omega_resp = w + forcing_term.imag / rho
            j11 = kp * rho + k + 0.5 * eps * (sp * e_minus).real
            j12 = 0.5 * eps * (s * e_minus).imag
            j21 = wp + 0.5 * eps * ((qp * e_minus).imag
                                    - (q * e_minus).imag / rho) / rho
            j22 = -0.5 * eps * (q * e_minus).real / rho
            stable = (j11 + j22) < 0 and (j11 * j22 - j12 * j21) > 0
            residual = abs(complex(k, w - omega_resp) + forcing_term / rho)
            branch.points.append(FRCPoint(rho, omega_resp, amp, stable,
                                          residual,
                                          float(np.angle(e_plus))))
            if root == 0.0:
                break
    return branch


def forcing_projection(model: SSMModel, forcing_vector, eps: float) -> float:
    """Modal forcing amplitude eps_f from the ambient forcing direction.

    The ambient forcing eps * v * cos(Omega t) projects onto the master mode
    through the left eigenvector; the rotating resonant half carries the
    factor 1/2.  The value is gauge-dependent and consistent with this
    module's unit-norm eigenvector convention.

    This is the rho^0 term of the O(eps) reduced forcing only: it drops the
    amplitude dependence that foliation_forcing keeps.  On Shaw-Pierre the
    resulting peak amplitude is already 3.7% off the full system at
    eps = 0.01 and 30% off at eps = 0.05.
    """
    if model.master_left is None:
        raise ValidationError("model carries no left eigenvectors")
    v = np.asarray(forcing_vector, dtype=complex).reshape(-1)
    if v.shape != (model.n,):
        raise ValidationError("forcing vector must have the ambient dim")
    return float(eps * abs(np.dot(model.master_left[0], v)) / 2.0)


# ---- stroboscopic sampling, Lyapunov exponent, PSD ---------------------------


def poincare_sample(f: ReducedField, ic, n_periods: int,
                    skip: int = 20, omega: Optional[float] = None
                    ) -> TrajectoryData:
    """States at multiples of the driving period, after a transient skip.

    A blowup or pole crossing ends the samples there, with its flag.
    """
    if omega is None:
        if f.forcing is None:
            raise ValidationError("no forcing frequency to sample at; "
                                  "pass omega explicitly")
        omega = f.forcing.frequency
    if omega <= 0 or n_periods < 1:
        raise ValidationError("need omega > 0 and n_periods >= 1")
    period = 2.0 * math.pi / omega
    stamps = (skip + np.arange(1, n_periods + 1)) * period
    times, values, stop = _run(f.rhs, ic, (0.0, stamps[-1]), DEFAULT_RTOL,
                               DEFAULT_ATOL, f, stamps)
    if len(times) == 0:
        raise NumericalError(f"trajectory ended before the first section: "
                             f"{stop[0]}")
    return TrajectoryData(times, values, [stop[0]] if stop else [])


@dataclass
class LyapunovEstimate:
    value: float
    fit_error: float
    log_growth: np.ndarray
    times: np.ndarray
    flags: List[str] = field(default_factory=list)


def lyapunov_estimate(f: ReducedField, ic, perturbation_size: float = 1e-7,
                      horizon: float = 200.0, renorm_interval: float = 1.0,
                      transient: float = 50.0) -> LyapunovEstimate:
    """Largest Lyapunov exponent by two-trajectory renormalization.

    The cumulative log separation is fitted against time by least squares;
    renormalization after every interval keeps the pair inside the linear
    regime.  If the very first interval already saturates (separation
    comparable to the state scale) the estimate is flagged as unreliable.
    The initial condition is checked as in integrate_reduced, and a blowup
    or pole crossing in the transient raises NumericalError; the
    renormalization intervals are not watched.
    """
    if perturbation_size <= 0:
        raise ValidationError("perturbation_size must be positive")
    u, t0 = _initial_state(f, ic), 0.0
    if transient > 0:
        _, states, stop = _run(f.rhs, u, (0.0, transient), DEFAULT_RTOL,
                               DEFAULT_ATOL, f)
        if stop is not None:
            raise NumericalError(f"transient integration stopped: {stop[0]}")
        u, t0 = states[-1], transient
    direction = np.ones_like(u) / math.sqrt(len(u))
    v = u + perturbation_size * direction

    n_steps = int(round(horizon / renorm_interval))
    times = np.zeros(n_steps)
    log_growth = np.zeros(n_steps)
    total = 0.0
    flags: List[str] = []

    def pair_rhs(t, z):
        return f.rhs(t, z.reshape(2, -1)).ravel()

    for k in range(n_steps):
        t1 = t0 + renorm_interval
        z = _run(pair_rhs, np.concatenate([u, v]), (t0, t1), DEFAULT_RTOL,
                 DEFAULT_ATOL)[1][-1]
        u, v = z[:len(u)], z[len(u):]
        dist = np.linalg.norm(v - u)
        if dist == 0.0:
            raise NumericalError("trajectories collapsed to machine identity")
        scale = max(np.linalg.norm(u), 1.0)
        if k == 0 and dist > 0.1 * scale:
            flags.append("separation saturated within one interval; "
                         "shorten renorm_interval or the horizon")
        total += math.log(dist / perturbation_size)
        times[k] = t1 - transient
        log_growth[k] = total
        v = u + (v - u) * (perturbation_size / dist)
        t0 = t1

    if n_steps >= 3:
        coeffs, diag = np.polyfit(times, log_growth, 1, cov=True)
        slope = float(coeffs[0])
        fit_error = float(math.sqrt(max(diag[0, 0], 0.0)))
    else:
        slope = float(log_growth[-1] / times[-1])
        fit_error = float("nan")
        flags.append("too few intervals for a fit-error estimate")
    return LyapunovEstimate(slope, fit_error, log_growth, times, flags)


def psd_estimate(traj: TrajectoryData, component: int = 0
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram of a component, mean removed."""
    dt = traj.uniform_dt()
    x = traj.component(component)
    x = x - np.mean(x)
    freq, power = periodogram(x, fs=1.0 / dt)
    return freq, power


def double_well_field(amplitude: float = 0.5) -> ReducedField:
    """Forced double-well (Duffing) field, chaotic at the default amplitude.

    x' = v, v' = x - x^3 - 0.3 v + amplitude cos(1.2 t).
    """
    g = MultiSeries(2, 2, 3, {
        (0, 1): [1.0, -0.3],
        (1, 0): [0.0, 1.0],
        (3, 0): [0.0, -1.0],
    })
    forcing = Forcing(amplitude, 1.2, np.array([0.0, 1.0]))
    return ReducedField.from_series(g, forcing=forcing)
