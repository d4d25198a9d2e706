"""Reference values the benchmark checks the program against.

Nothing here imports gssm: each oracle is a closed form or a direct
computation on the full system, so a defect in the library cannot leak
into its own reference.

Run as a script to regenerate the forced-response table:

    python3 perfbench/oracles.py
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

HERE = Path(__file__).resolve().parent
FRC_TABLE = HERE / "frc_oracle.json"

# forcing amplitudes of the frc_sweep workload; seed s uses FRC_EPS[s % 7],
# so seed 0 is the eps=0.05 setting of acceptance criterion 9
FRC_EPS = (0.05, 0.045, 0.04, 0.035, 0.03, 0.025, 0.02)
SHAW_PIERRE_DEFAULTS = {"k": 3.0, "c": 0.003, "gamma": 0.5}


def shaw_pierre_linear(k, c):
    """Linear part of the two-mass oscillator, state (q1, q1', q2, q2')."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-2.0 * k, -2.0 * c, k, c],
        [0.0, 0.0, 0.0, 1.0],
        [k, c, -2.0 * k, -2.0 * c],
    ])


def shaw_pierre_omega0(k, c):
    """Imaginary part of the slow eigenvalue pair, Im lambda_+."""
    lam = np.linalg.eigvals(shaw_pierre_linear(k, c))
    slow = lam[np.argmax(lam.real)]
    return float(abs(slow.imag))


def shooting_peak(eps, k=3.0, c=0.003, gamma=0.5):
    """Peak (Omega*, amp*) of the full-system response branch.

    Periodic orbits are fixed points of the period map, found by Newton
    with the variational-equation Jacobian; the branch is continued upward
    in Omega with a secant predictor and step halving until the cyclic
    fold, where a frequency sweep loses it.  amp* is max |q1| on the orbit.
    """
    a = shaw_pierre_linear(k, c)
    eye = np.eye(4)

    def rhs(t, z, om):
        x = z[:4]
        phi = z[4:].reshape(4, 4)
        dx = a @ x
        dx[1] += eps * np.cos(om * t) - gamma * x[0] ** 3
        jac = a.copy()
        jac[1, 0] -= 3.0 * gamma * x[0] ** 2
        return np.concatenate([dx, (jac @ phi).ravel()])

    def period_map(x0, om):
        z0 = np.concatenate([x0, eye.ravel()])
        sol = solve_ivp(rhs, (0.0, 2.0 * np.pi / om), z0, args=(om,),
                        rtol=1e-9, atol=1e-11)
        return sol.y[:4, -1], sol.y[4:, -1].reshape(4, 4)

    def orbit(x0, om):
        x = x0.copy()
        for _ in range(12):
            px, dp = period_map(x, om)
            res = np.linalg.norm(px - x)
            if res < 1e-9:
                return x
            step = np.linalg.solve(dp - eye, x - px)
            lam = 1.0
            for _ in range(5):
                trial = x + lam * step
                if np.linalg.norm(period_map(trial, om)[0] - trial) < res:
                    break
                lam *= 0.5
            x = x + lam * step
        return None

    om = 1.70
    x = orbit(np.zeros(4), om)
    if x is None:
        raise RuntimeError("no periodic orbit at the start of the sweep")
    hist = [(om, x)]
    step = 0.01
    while step > 2e-4:
        om_try = om + step
        if len(hist) >= 2:
            (o1, x1), (o2, x2) = hist[-2], hist[-1]
            guess = x2 + (x2 - x1) * (om_try - o2) / (o2 - o1)
        else:
            guess = x
        xn = orbit(guess, om_try)
        if xn is None:
            step *= 0.5
            continue
        om, x = om_try, xn
        hist = (hist + [(om, xn)])[-4:]
    if np.linalg.norm(x) <= 1.0:
        raise RuntimeError("continuation ended on the small-amplitude branch")
    period = 2.0 * np.pi / om
    sol = solve_ivp(lambda t, y: rhs(t, np.concatenate([y, eye.ravel()]),
                                     om)[:4],
                    (0.0, period), x, rtol=1e-9, atol=1e-11,
                    t_eval=np.linspace(0.0, period, 400))
    return float(om), float(np.max(np.abs(sol.y[0])))


def _eps_key(eps):
    return f"{eps:.6g}"


def frc_oracle(eps, cache_path):
    """(Omega*, amp*) at the default oscillator parameters.

    Looks the value up in the committed table first, then in a per-checkout
    cache, and computes (about 16 s) only when neither has it.
    """
    key = _eps_key(eps)
    table = json.loads(FRC_TABLE.read_text()) if FRC_TABLE.is_file() else {}
    if key in table:
        return tuple(table[key])
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    if key not in cache:
        cache[key] = shooting_peak(eps, **SHAW_PIERRE_DEFAULTS)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True))
    return tuple(cache[key])


def dauchot_fixed_points(s1, s2, box=(-1.2, 0.05)):
    """Fixed points of x' = s1 x + y + x y, y' = s2 y - x^2 in closed form.

    y = x^2/s2 on the nullcline, so x = 0 or x^2 + x + s1 s2 = 0.  Returns
    sorted (x, label) pairs inside the box, labelled from the Jacobian.
    """
    disc = 1.0 - 4.0 * s1 * s2
    xs = [0.0]
    if disc >= 0.0:
        xs += [(-1.0 - np.sqrt(disc)) / 2.0, (-1.0 + np.sqrt(disc)) / 2.0]
    out = []
    for x in sorted(xs):
        if not box[0] <= x <= box[1]:
            continue
        y = x * x / s2
        eigs = np.linalg.eigvals(np.array([[s1 + y, 1.0 + x],
                                           [-2.0 * x, s2]]))
        if np.all(eigs.real < 0):
            label = "stable"
        elif np.all(eigs.real > 0):
            label = "unstable"
        else:
            label = "saddle"
        out.append((float(x), label))
    return out


def hopf_rhs(t, s):
    """Normal form of a supercritical Hopf bifurcation, unit limit cycle."""
    x, y = s
    r2 = x * x + y * y
    return [x - y - x * r2, x + y - y * r2]


def main():
    table = {}
    for eps in FRC_EPS:
        table[_eps_key(eps)] = shooting_peak(eps, **SHAW_PIERRE_DEFAULTS)
        print(eps, table[_eps_key(eps)], flush=True)
    FRC_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
