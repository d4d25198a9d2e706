"""End-to-end checks of the command line interface.

Every test drives gssm.cli.main in-process and inspects exit codes, the
machine-readable status line, and the files left in the output directory.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gssm.cli import main
from gssm.pade import RationalMap, rational_from_text, rational_to_text, \
    rationals_from_text, rationals_to_text
from gssm.series import MultiSeries, series_to_text
from gssm.singularity import estimate_radius
from gssm.ssm import (compute_ssm, extract_polar, model_from_text,
                      model_to_text, spectral_analysis, SSMModel)
from gssm.systems import imaginary_sing_model, make_system
from gssm.trajectory import TrajectoryData, trajectory_from_csv, \
    trajectory_to_csv


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines and lines[-1].startswith("gssm: "), out
    return rc, out, parse_status(lines[-1])


def parse_status(line):
    fields = {}
    for tok in shlex.split(line[len("gssm: "):]):
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def graph_model(r_series):
    """Minimal importable 1-d graph-style model with W = (x, x^2)."""
    order = r_series.order
    w = MultiSeries(1, 2, order, {(1,): [1.0, 0.0], (2,): [0.0, 1.0]})
    lam = complex(r_series.coeffs[(1,)][0])
    return SSMModel(n=2, d=1, style="graph", order=order,
                    master_eigenvalues=np.array([lam]),
                    master_right=np.array([[1.0], [0.0]], dtype=complex),
                    W=w, R=r_series)


def test_systems_list(capsys):
    rc, out, fields = run_cli(capsys, "systems")
    assert rc == 0
    assert fields["status"] == "ok" and fields["command"] == "systems"
    for sid in ("euler", "dauchot_manneville", "imaginary_sing",
                "shaw_pierre"):
        assert any(ln.startswith(sid + ":") for ln in out.splitlines())
    assert not any(ln.startswith("custom:") for ln in out.splitlines())


def test_ssm_write_and_import_roundtrip(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rc, _, fields = run_cli(capsys, "--out", d1, "ssm", "--system", "euler",
                            "--d", 1, "--order", 7)
    assert rc == 0 and fields["file"] == "model.txt"
    model = model_from_text((d1 / "model.txt").read_text())
    assert model.n == 2 and model.d == 1 and model.order == 7

    rc, _, _ = run_cli(capsys, "--out", d2, "ssm",
                       "--import-model", d1 / "model.txt")
    assert rc == 0
    assert (d2 / "model.txt").read_text() == (d1 / "model.txt").read_text()


def test_ssm_requires_one_source(capsys):
    rc, _, fields = run_cli(capsys, "ssm")
    assert rc == 2 and fields["status"] == "validation-error"


def test_module_entry_point_lists_systems(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gssm", "systems"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith("gssm: status=ok")


def test_ssm_param_sets_a_system_parameter(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "ssm", "--system",
                       "shaw_pierre", "--param", "k=2.5", "--order", 3)
    assert rc == 0
    model = model_from_text((tmp_path / "model.txt").read_text())
    # the in-phase pair of Shaw-Pierre has modulus sqrt(k)
    assert np.allclose(np.abs(model.master_eigenvalues), np.sqrt(2.5),
                       atol=1e-6)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["options"]["param"] == ["k=2.5"]

    for bad in ("k", "k=abc"):
        rc, _, fields = run_cli(capsys, "--out", tmp_path / "bad", "ssm",
                                "--system", "shaw_pierre", "--param", bad)
        assert rc == 2 and fields["status"] == "validation-error"
        assert "name=value" in fields["message"]
        assert not (tmp_path / "bad").exists()


def test_pade_fallback_ladder(tmp_path, capsys):
    # [2/2] of x + x^3 has a denominator zero at x = 1 inside the scan box,
    # so the ladder must retreat to the pole-free [2/1].
    r = MultiSeries(1, 1, 5, {(1,): [1.0], (3,): [1.0]})
    mfile = tmp_path / "model.txt"
    mfile.write_text(model_to_text(graph_model(r)))

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "pade",
                            "--model", mfile, "--N", 2, "--M", 2,
                            "--radius", 1.2)
    assert rc == 0
    assert fields["W"] == "[2/2]"
    assert fields["R"] == "[2/1]"
    assert fields["R_fallback_from"] == "[2/2]"
    rat = rationals_from_text((tmp_path / "pade_R.txt").read_text())[0]
    x = np.linspace(0.0, 1.2, 7).reshape(-1, 1)
    num = rat.numerator.evaluate_many(x).real[:, 0]
    den = rat.denominator.evaluate_many(x).real[:, 0]
    assert np.allclose(den, 1.0, atol=1e-12)
    assert np.allclose(num, x[:, 0], atol=1e-12)


def test_pade_ladder_exhaustion(tmp_path, capsys):
    # truncated x / (1 - 2 x): every rung reproduces the pole at x = 0.5
    coeffs = {(k,): [2.0 ** (k - 1)] for k in range(1, 6)}
    r = MultiSeries(1, 1, 5, coeffs)
    mfile = tmp_path / "model.txt"
    mfile.write_text(model_to_text(graph_model(r)))

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "pade",
                            "--model", mfile, "--N", 2, "--M", 2,
                            "--radius", 1.2, "--targets", "R")
    assert rc == 3
    assert fields["status"] == "numerical-error"
    assert "pade_R_report.txt" in fields["message"]
    report = (tmp_path / "pade_R_report.txt").read_text()
    for rung in ("[2/2]", "[2/1]", "[1/1]"):
        assert rung in report
    assert "flagged points" in report
    assert not (tmp_path / "pade_R.txt").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "pade_R_report.txt" in manifest["outputs"]


def test_pade_targets_build_only_the_requested_series(tmp_path, capsys):
    # W carries an imaginary part at (2, 1), so W alone fails to realify
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "ssm", "--system",
                       "shaw_pierre", "--d", 2, "--order", 11)
    assert rc == 0
    model = model_from_text((tmp_path / "model.txt").read_text())
    model.W.coeffs[(2, 1)] = model.W.get((2, 1)) + 1e-3j
    mfile = tmp_path / "complex_w.txt"
    mfile.write_text(model_to_text(model))

    rc, _, fields = run_cli(capsys, "--out", tmp_path / "all", "pade",
                            "--model", mfile)
    assert rc == 3 and "does not realify" in fields["message"]
    rc, _, fields = run_cli(capsys, "--out", tmp_path / "polar", "pade",
                            "--model", mfile, "--targets", "kappa,omega")
    assert rc == 0
    assert {"kappa", "omega"} <= set(fields) and "W" not in fields
    assert sorted(p.name for p in (tmp_path / "polar").iterdir()) == \
        ["manifest.json", "pade_kappa.txt", "pade_omega.txt"]


def test_manifest_is_deterministic(tmp_path, capsys):
    r = MultiSeries(1, 1, 5, {(1,): [1.0], (3,): [1.0]})
    mfile = tmp_path / "model.txt"
    mfile.write_text(model_to_text(graph_model(r)))
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    for d in (d1, d2):
        rc, _, _ = run_cli(capsys, "--out", d, "pade", "--model", mfile,
                           "--N", 2, "--M", 2, "--radius", 1.2)
        assert rc == 0
    for name in ("manifest.json", "pade_W.txt", "pade_R.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["command"] == "pade"
    assert str(mfile) in manifest["inputs"]
    assert len(manifest["inputs"][str(mfile)]) == 64
    assert manifest["outputs"] == ["pade_R.txt", "pade_W.txt"]
    assert "out" not in manifest["options"]


def test_integrate_blowup_exit_code(tmp_path, capsys):
    num = MultiSeries(1, 1, 2, {(2,): [1.0]})
    den = MultiSeries(1, 1, 0, {(0,): [1.0]})
    rfile = tmp_path / "field.txt"
    rfile.write_text(rationals_to_text([RationalMap(num, den, (2, 0))]))

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "analyze", "integrate",
                            "--rationals", rfile, "--ic", "1.0", "--t1", 10,
                            "--n-out", 101)
    assert rc == 3
    assert fields["status"] == "numerical-error"
    assert fields["flags"] != "none"
    traj = trajectory_from_csv(str(tmp_path / "trajectory.csv"))
    assert traj.n_samples > 1


def test_integrate_with_lift(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "ssm", "--system", "euler",
                       "--d", 1, "--order", 7)
    assert rc == 0
    mfile = tmp_path / "model.txt"
    rc, _, fields = run_cli(capsys, "--out", tmp_path, "analyze", "integrate",
                            "--model", mfile, "--ic", "0.1", "--t1", 2.0,
                            "--n-out", 51, "--lift-model", mfile)
    assert rc == 0 and fields["flags"] == "none"
    lifted = trajectory_from_csv(str(tmp_path / "lifted.csv"))
    assert lifted.n_components == 2
    assert lifted.n_samples == 51


@pytest.mark.parametrize("vector, forced", [("1,0", 0), (None, 1)],
                         ids=["f-vector", "default-vector"])
def test_integrate_forced_rational_field(tmp_path, capsys, vector, forced):
    # x' = -x, y' = -y from rest, forced by A cos(W t) along one component;
    # the default vector is the last unit vector
    decay = RationalMap(MultiSeries(2, 2, 1, {(1, 0): [-1.0, 0.0],
                                              (0, 1): [0.0, -1.0]}),
                        MultiSeries.constant([1.0], 2, 0), (1, 0))
    rfile = tmp_path / "field.txt"
    rfile.write_text(rationals_to_text([decay]))
    amp, freq = 0.5, 2.0
    argv = ["--out", tmp_path, "analyze", "integrate", "--rationals", rfile,
            "--ic", "0,0", "--t1", 5, "--n-out", 51, "--f-amp", amp,
            "--f-freq", freq]
    rc, _, fields = run_cli(capsys, *argv + (["--f-vector", vector]
                                             if vector else []))
    assert rc == 0 and fields["flags"] == "none"
    traj = trajectory_from_csv(str(tmp_path / "trajectory.csv"))
    t = traj.times
    exact = amp / (1 + freq ** 2) * (np.cos(freq * t) + freq * np.sin(freq * t)
                                     - np.exp(-t))
    assert np.allclose(traj.component(forced), exact, atol=1e-6)
    assert np.all(traj.component(1 - forced) == 0.0)


def test_validation_exit_codes(tmp_path, capsys):
    rc, _, fields = run_cli(capsys, "pade", "--model", tmp_path / "nope.txt")
    assert rc == 2 and fields["status"] == "validation-error"
    assert "no such file" in fields["message"]

    rc, _, fields = run_cli(capsys, "analyze", "integrate", "--double-well",
                            "--ic", "one,two", "--t1", 1)
    assert rc == 2 and "float list" in fields["message"]

    rc, _, fields = run_cli(capsys, "analyze", "integrate", "--ic", "0.1",
                            "--t1", 1)
    assert rc == 2


MODEL_BAD_EIGENVALUE = """ssm 2 1 graph 3
EIGENVALUES
1 x
EIGENVECTORS
1 0
0 0
W
1 1 0 0 0
R
1 -1 0
"""


# a valid model; malformed cases below repeat its R section or R row
MODEL_GRAPH_ORDER_1 = """ssm 2 1 graph 1
EIGENVALUES
-1 0
EIGENVECTORS
1 0
0 0
W
1 1 0 0 0
R
1 -1 0
"""


@pytest.mark.parametrize("text, argv", [
    ("series 1 1 3\n0 abc 0\n",
     ["singularity", "radius", "--series"]),
    ("series 1 1 2\n0 1 0\n5 1 0\n",
     ["singularity", "radius", "--series"]),
    ("pade 1 1 0 1\nNUMERATOR\n0 1 0\nDENOMINATOR\n0 1 0\n1 -1.0.5 0\n",
     ["singularity", "scan", "--min", "0", "--max", "1", "--points", "5",
      "--rationals"]),
    (MODEL_BAD_EIGENVALUE,
     ["analyze", "backbone", "--rho-max", "1", "--model"]),
    ("chart 5 2 5 1 0\nCENTER\n",
     ["predict", "--fit", "fit.txt", "--data", "data.csv", "--horizon", "1",
      "--chart"]),
    ("1 0.5 abc 0.125\n", ["singularity", "radius", "--coeffs"]),
    ("t,x1\n0,1\n1,2,3\n2,3\n", ["analyze", "psd", "--data"]),
    (MODEL_GRAPH_ORDER_1 + "R\n1 -1 0\n", ["ssm", "--import-model"]),
    (MODEL_GRAPH_ORDER_1.replace("R\n", "R\n1 -1 0\n"),
     ["ssm", "--import-model"]),
    ("pade 1 1 0 1\nNUMERATOR\n0 1 0\nNUMERATOR\n0 1 0\n"
     "DENOMINATOR\n0 1 0\n1 -1 0\n",
     ["singularity", "scan", "--min", "0", "--max", "0.5", "--points", "5",
      "--rationals"]),
    ("chart 2 1 2 1 0\nCENTER\n0 0\n0 0\nBASIS\n1\n0\n",
     ["predict", "--fit", "fit.txt", "--data", "data.csv", "--horizon", "1",
      "--chart"]),
    (MODEL_GRAPH_ORDER_1 + "POLAR\ngarbage\n", ["ssm", "--import-model"]),
    ("chart 2 1 2 1 1\nCENTER\n0 0\nBASIS\n1\n0\n",
     ["predict", "--fit", "fit.txt", "--data", "data.csv", "--horizon", "1",
      "--chart"]),
    ("chart 2 1 2 1 -1\nCENTER\n0 0\nBASIS\n1\n0\n",
     ["predict", "--fit", "fit.txt", "--data", "data.csv", "--horizon", "1",
      "--chart"]),
], ids=["series-token", "series-index-above-order", "pade-float",
        "model-eigenvalue", "chart-truncated", "coeffs-token",
        "trajectory-ragged", "model-repeated-section", "model-repeated-row",
        "pade-repeated-section", "chart-two-center-rows",
        "model-polar-section", "chart-observable-past-the-data",
        "chart-observable-negative"])
def test_malformed_text_inputs_exit_2(tmp_path, capsys, text, argv):
    path = tmp_path / "input.txt"
    path.write_text(text)
    if argv[0] == "predict":
        # a valid fit and data window, so the exit 2 comes from the chart
        _write_predict_inputs(tmp_path, d=int(text.split()[2]))
        argv = [str(tmp_path / a) if a in ("fit.txt", "data.csv") else a
                for a in argv]
    rc, _, fields = run_cli(capsys, "--out", tmp_path, *argv, path)
    assert rc == 2 and fields["status"] == "validation-error"
    assert "no such file" not in fields["message"]


@pytest.mark.parametrize("argv, names", [
    (["lyapunov", "--horizon", "0.2"], "horizon"),
    (["lyapunov", "--renorm-interval", "0"], "renorm_interval"),
    (["lyapunov", "--horizon", "-5"], "horizon"),
    (["lyapunov", "--transient", "-1"], "transient"),
    (["integrate", "--t1", "1", "--n-out", "-3"], "n_out"),
    (["integrate", "--t1", "1", "--n-out", "0"], "n_out"),
    (["integrate", "--t1", "0"], "t0 != t1"),
    (["poincare", "--skip", "-5"], "skip"),
], ids=["lyapunov-horizon-below-one-interval", "lyapunov-renorm-interval-0",
        "lyapunov-horizon-negative", "lyapunov-transient-negative",
        "integrate-n-out-negative", "integrate-n-out-0",
        "integrate-zero-length-span", "poincare-skip-negative"])
def test_out_of_range_run_parameters_exit_2(tmp_path, capsys, argv, names):
    rc, _, fields = run_cli(capsys, "--out", tmp_path / "out", "analyze",
                            argv[0], "--double-well", "--ic", "0.1,0.1",
                            *argv[1:])
    assert rc == 2 and fields["status"] == "validation-error"
    assert names in fields["message"]
    assert not (tmp_path / "out").exists()


FRC_LIFT = ["analyze", "frc", "--model", "model.txt", "--eps", "0.01",
            "--forcing-vector", "0,1,0,0", "--rho-max", "0.3", "--points",
            "5", "--amplitude", "lift", "--amp-component"]
PSD = ["analyze", "psd", "--data", "data.csv", "--component"]
REGRESS = ["regress", "--data", "data.csv", "--delays", "3", "--d", "1",
           "--N", "1", "--M", "0", "--restarts", "1", "--observable"]


@pytest.mark.parametrize("argv", [
    FRC_LIFT + ["7"], FRC_LIFT + ["-1"], PSD + ["5"], PSD + ["-1"],
    REGRESS + ["3"], REGRESS + ["-1"],
], ids=["frc-amp-component-past-the-states", "frc-amp-component-negative",
        "psd-component-past-the-data", "psd-component-negative",
        "regress-observable-past-the-data", "regress-observable-negative"])
def test_out_of_range_component_indices_exit_2(tmp_path, capsys, argv):
    # a 4-state model and a one-column trajectory; only the index is wrong
    sp = make_system("shaw_pierre").realization
    model = compute_ssm(sp, spectral_analysis(sp, 2), 3)
    (tmp_path / "model.txt").write_text(model_to_text(model))
    t = np.linspace(0.0, 3.0, 61)
    trajectory_to_csv(TrajectoryData(t, np.exp(-t)), str(tmp_path / "data.csv"))
    argv = [str(tmp_path / a) if a in ("model.txt", "data.csv") else a
            for a in argv]
    rc, _, fields = run_cli(capsys, "--out", tmp_path / "out", *argv)
    assert rc == 2 and fields["status"] == "validation-error"
    assert "out of range" in fields["message"]
    assert not (tmp_path / "out").exists()


def _write_predict_inputs(tmp_path, d):
    """fit.txt, the decay eta' = -eta in d variables, and data.csv, a
    decaying window."""
    decay = RationalMap(MultiSeries(d, d, 1, {tuple(e): -e for e in
                                              np.eye(d, dtype=int)}),
                        MultiSeries.constant([1.0], d, 0), (1, 0))
    (tmp_path / "fit.txt").write_text(rational_to_text(decay))
    t = np.linspace(0.0, 3.0, 61)
    trajectory_to_csv(TrajectoryData(t, np.exp(-t)), str(tmp_path / "data.csv"))


def test_gssm_out_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GSSM_OUT", str(tmp_path))
    cfile = tmp_path / "coeffs.txt"
    cfile.write_text(" ".join(str(0.5 ** n) for n in range(26)))
    rc, _, fields = run_cli(capsys, "singularity", "radius", "--coeffs", cfile)
    assert rc == 0
    assert abs(float(fields["radius"]) - 2.0) < 0.05
    assert (tmp_path / "singularity.txt").is_file()
    assert (tmp_path / "manifest.json").is_file()


def test_singularity_pattern_cli(tmp_path, capsys):
    cfile = tmp_path / "coeffs.txt"
    cfile.write_text(" ".join(str((-0.5) ** n) for n in range(26)))
    rc, _, fields = run_cli(capsys, "--out", tmp_path, "singularity",
                            "pattern", "--coeffs", cfile)
    assert rc == 0
    assert fields["pattern"] == "alternating"
    assert abs(float(fields["theta"]) - np.pi / 2) < 1e-4
    assert abs(float(fields["radius"]) - 2.0) < 0.05
    text = (tmp_path / "singularity.txt").read_text()
    assert "pattern alternating" in text


def test_singularity_scan_cli(tmp_path, capsys):
    num = MultiSeries(1, 1, 0, {(0,): [1.0]})
    den = MultiSeries(1, 1, 1, {(0,): [1.0], (1,): [-1.0]})
    rfile = tmp_path / "rat.txt"
    rfile.write_text(rationals_to_text([RationalMap(num, den, (0, 1))]))
    rc, _, fields = run_cli(capsys, "--out", tmp_path, "singularity", "scan",
                            "--rationals", rfile, "--min", "0", "--max", "2",
                            "--points", "41", "--floor", "1e-2")
    assert rc == 0
    assert int(fields["flagged"]) >= 1
    rows = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(rows) == int(fields["flagged"]) + 1

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "singularity", "scan",
                            "--rationals", rfile, "--min", "0,0",
                            "--max", "1,1", "--points", "5,5")
    assert rc == 2 and "dimension" in fields["message"]


def test_regress_then_predict_roundtrip(tmp_path, capsys):
    t = np.linspace(0.0, 3.0, 601)
    trajectory_to_csv(TrajectoryData(t, np.exp(-t)),
                      str(tmp_path / "data.csv"))
    rc, _, fields = run_cli(capsys, "--out", tmp_path, "regress",
                            "--data", tmp_path / "data.csv", "--delays", 3,
                            "--lag", 2, "--d", 1, "--N", 1, "--M", 0,
                            "--restarts", 1)
    assert rc == 0
    assert float(fields["rat_error"]) < 1e-8
    for name in ("rational_fit.txt", "poly_fit.txt", "chart.txt",
                 "report.txt"):
        assert (tmp_path / name).is_file()
    report = (tmp_path / "report.txt").read_text()
    assert "held-out error" in report

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "predict",
                            "--chart", tmp_path / "chart.txt",
                            "--fit", tmp_path / "rational_fit.txt",
                            "--data", tmp_path / "data.csv",
                            "--horizon", 2.0, "--n-out", 201)
    assert rc == 0
    pred = trajectory_from_csv(str(tmp_path / "prediction.csv"))
    assert np.allclose(pred.values[:, 0], np.exp(-pred.times), atol=1e-5)

    rc, _, _ = run_cli(capsys, "--out", tmp_path, "predict",
                       "--chart", tmp_path / "chart.txt",
                       "--poly", tmp_path / "poly_fit.txt",
                       "--data", tmp_path / "data.csv",
                       "--horizon", 2.0, "--n-out", 201)
    assert rc == 0

    rc, _, fields = run_cli(capsys, "predict",
                            "--chart", tmp_path / "chart.txt",
                            "--fit", tmp_path / "rational_fit.txt",
                            "--poly", tmp_path / "poly_fit.txt",
                            "--data", tmp_path / "data.csv", "--horizon", 1.0)
    assert rc == 2


def test_backbone_and_frc_cli(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "ssm", "--system",
                       "shaw_pierre", "--d", 2, "--order", 5)
    assert rc == 0
    mfile = tmp_path / "model.txt"

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "analyze", "backbone",
                            "--model", mfile, "--rho-max", 0.3,
                            "--points", 16)
    assert rc == 0 and fields["components"] == "omega,kappa"
    arr = np.loadtxt(tmp_path / "backbone_omega.csv", delimiter=",",
                     skiprows=1)
    assert arr.shape[0] == 16
    assert abs(arr[0, 1] - np.sqrt(3.0)) < 1e-6

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "analyze", "frc",
                            "--model", mfile, "--eps", 0.01,
                            "--forcing-vector", "0,1,0,0",
                            "--rho-max", 0.3, "--points", 30)
    assert rc == 0
    assert float(fields["eps_f"]) > 0.0
    rows = (tmp_path / "frc.csv").read_text().splitlines()
    assert rows[0] == "rho,Omega,amp,stable"
    assert len(rows) == int(fields["points"]) + 1 > 1
    assert {row.split(",")[3] for row in rows[1:]} <= {"0", "1"}


def test_frc_lift_amplitude_from_pade_curves(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "ssm", "--system",
                       "shaw_pierre", "--d", 2, "--order", 5)
    assert rc == 0
    mfile = tmp_path / "model.txt"
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "pade", "--model", mfile,
                       "--targets", "kappa,omega")
    assert rc == 0
    rows = {}
    for amplitude in ("rho", "lift"):
        rc, _, _ = run_cli(capsys, "--out", tmp_path / amplitude, "analyze",
                           "frc", "--model", mfile, "--eps", 0.01,
                           "--forcing-vector", "0,1,0,0", "--rho-max", 0.3,
                           "--points", 30, "--amplitude", amplitude,
                           "--kappa", tmp_path / "pade_kappa.txt",
                           "--omega", tmp_path / "pade_omega.txt")
        assert rc == 0
        rows[amplitude] = np.loadtxt(tmp_path / amplitude / "frc.csv",
                                     delimiter=",", skiprows=1, ndmin=2)
    rho, lifted = rows["rho"], rows["lift"]
    assert len(rho) > 1 and np.array_equal(rho[:, [0, 1, 3]],
                                           lifted[:, [0, 1, 3]])
    assert np.array_equal(rho[:, 2], rho[:, 0])
    # to leading order the realified W_0 is 2 Re(v_0 (a + ib)), so the lift
    # of the smallest rho is 2 |v_0| rho, up to the 64-angle sampling
    v0 = abs(model_from_text(mfile.read_text()).master_right[0, 0])
    first = np.argmin(lifted[:, 0])
    assert lifted[first, 0] < 1e-3
    ratio = lifted[first, 2] / (2 * v0 * lifted[first, 0])
    assert np.cos(np.pi / 64) - 1e-6 < ratio < 1 + 1e-6


def test_singularity_radius_of_series_and_model_files(tmp_path, capsys):
    sfile = tmp_path / "series.txt"
    sfile.write_text(series_to_text(MultiSeries(
        1, 1, 25, {(n,): [0.5 ** n] for n in range(26)})))
    rc, _, fields = run_cli(capsys, "--out", tmp_path, "singularity",
                            "radius", "--series", sfile)
    assert rc == 0 and abs(float(fields["radius"]) - 2.0) < 0.05

    rc, _, _ = run_cli(capsys, "--out", tmp_path, "ssm", "--system",
                       "shaw_pierre", "--order", 13)
    assert rc == 0
    mfile = tmp_path / "model.txt"
    polar = extract_polar(model_from_text(mfile.read_text()))
    for rep, series in (("omega", polar.omega_series()),
                        ("kappa", polar.kappa_series())):
        rc, _, fields = run_cli(capsys, "--out", tmp_path, "singularity",
                                "radius", "--model", mfile, "--rep", rep)
        expected = estimate_radius(series.univariate_coeffs().real).radius
        assert rc == 0 and fields["radius"] == f"{expected:.6g}"


def test_poincare_and_lyapunov_cli(tmp_path, capsys):
    rc, _, fields = run_cli(capsys, "--out", tmp_path, "analyze", "poincare",
                            "--double-well", "--ic", "0.1,0.1",
                            "--n-periods", 25, "--skip", 5)
    assert rc == 0 and int(fields["samples"]) == 25
    traj = trajectory_from_csv(str(tmp_path / "poincare.csv"))
    assert traj.n_components == 2

    rc, _, fields = run_cli(capsys, "--out", tmp_path, "analyze", "lyapunov",
                            "--double-well", "--ic", "0.1,0.1",
                            "--horizon", 40, "--transient", 10)
    assert rc == 0
    float(fields["value"])
    assert (tmp_path / "lyapunov_growth.csv").is_file()


def test_psd_cli(tmp_path, capsys):
    t = np.linspace(0.0, 100.0, 4001)
    trajectory_to_csv(TrajectoryData(t, np.sin(2.0 * np.pi * 0.5 * t)),
                      str(tmp_path / "data.csv"))
    rc, _, fields = run_cli(capsys, "--out", tmp_path, "analyze", "psd",
                            "--data", tmp_path / "data.csv")
    assert rc == 0
    assert abs(float(fields["peak_freq"]) - 0.5) < 0.02
    header = (tmp_path / "psd.csv").read_text().splitlines()[0]
    assert header == "freq,power"


def test_repeated_section_inputs_load_once_the_repeat_is_gone(tmp_path, capsys):
    # controls for the repeated-section and repeated-row cases of
    # test_malformed_text_inputs_exit_2: without the repeat they load
    model = tmp_path / "model.txt"
    model.write_text(MODEL_GRAPH_ORDER_1)
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "ssm", "--import-model",
                       model)
    assert rc == 0
    rat = tmp_path / "rat.txt"
    rat.write_text("pade 1 1 0 1\nNUMERATOR\n0 1 0\n"
                   "DENOMINATOR\n0 1 0\n1 -1 0\n")
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "singularity", "scan",
                       "--min", "0", "--max", "0.5", "--points", "5",
                       "--rationals", rat)
    assert rc == 0
    # the chart-two-center-rows case with one CENTER row predicts
    chart = tmp_path / "chart.txt"
    chart.write_text("chart 2 1 2 1 0\nCENTER\n0 0\nBASIS\n1\n0\n")
    _write_predict_inputs(tmp_path, d=1)
    rc, _, _ = run_cli(capsys, "--out", tmp_path, "predict", "--fit",
                       tmp_path / "fit.txt", "--data", tmp_path / "data.csv",
                       "--horizon", "1", "--chart", chart)
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "lyapunov", "--double-well", "--f-amp", "0.1",
     "--f-freq", "2.0", "--ic", "0.1,0.1", "--horizon", "20"],
    ["analyze", "poincare", "--double-well", "--f-vector", "0,1",
     "--ic", "0.1,0.1", "--n-periods", "5"],
    ["analyze", "integrate", "--rationals", "field.txt", "--f-freq", "2.0",
     "--ic", "0.5", "--t1", "1"],
    ["analyze", "integrate", "--rationals", "field.txt", "--f-vector", "1",
     "--ic", "0.5", "--t1", "1"],
], ids=["double-well-amp-freq", "double-well-vector", "freq-without-amp",
        "vector-without-amp"])
def test_forcing_flags_that_would_be_ignored_exit_2(tmp_path, capsys, argv):
    decay = RationalMap(MultiSeries(1, 1, 1, {(1,): [-1.0]}),
                        MultiSeries.constant([1.0], 1, 0), (1, 0))
    (tmp_path / "field.txt").write_text(rationals_to_text([decay]))
    argv = [str(tmp_path / a) if a == "field.txt" else a for a in argv]
    rc, _, fields = run_cli(capsys, "--out", tmp_path / "out", *argv)
    assert rc == 2 and fields["status"] == "validation-error"
    assert not (tmp_path / "out").exists()


def test_lift_failure_keeps_a_manifest_of_the_trajectory(tmp_path, capsys):
    # the model of test_lift_refuses_a_model_that_does_not_realify: its
    # reduced field integrates, but lift refuses it
    model = imaginary_sing_model(7)
    w = dict(model.W.coeffs)
    w[(3,)] = model.W.get((3,)) + np.array([0.0, 0.3j])
    model.W = MultiSeries(1, 2, model.order, w)
    mfile = tmp_path / "m.txt"
    mfile.write_text(model_to_text(model))
    out = tmp_path / "out"
    rc, _, fields = run_cli(capsys, "--out", out, "analyze", "integrate",
                            "--model", mfile, "--lift-model", mfile,
                            "--ic", "0.1", "--t1", 1)
    assert rc == 3 and fields["status"] == "numerical-error"
    assert "does not realify" in fields["message"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["trajectory.csv"]
    assert list(manifest["inputs"]) == [str(mfile)]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                     "trajectory.csv"]


FILE_OPTIONS = {"--import-model", "--model", "--lift-model", "--rationals",
                "--kappa", "--omega", "--data", "--coeffs", "--chart",
                "--fit", "--poly"}


def test_every_manifest_lists_exactly_the_files_of_its_run(tmp_path, capsys):
    ins = tmp_path / "in"
    ins.mkdir()
    graph = ins / "graph.txt"
    graph.write_text(model_to_text(graph_model(
        MultiSeries(1, 1, 5, {(1,): [1.0], (3,): [1.0]}))))
    pole = ins / "pole.txt"
    pole.write_text(model_to_text(graph_model(
        MultiSeries(1, 1, 5, {(k,): [2.0 ** (k - 1)] for k in range(1, 6)}))))
    blowup = ins / "blowup.txt"
    blowup.write_text(rationals_to_text([RationalMap(
        MultiSeries(1, 1, 2, {(2,): [1.0]}),
        MultiSeries(1, 1, 0, {(0,): [1.0]}), (2, 0))]))
    rat = ins / "rat.txt"
    rat.write_text(rationals_to_text([RationalMap(
        MultiSeries(1, 1, 0, {(0,): [1.0]}),
        MultiSeries(1, 1, 1, {(0,): [1.0], (1,): [-1.0]}), (0, 1))]))
    coeffs = ins / "coeffs.txt"
    coeffs.write_text(" ".join(str((-0.5) ** n) for n in range(26)))
    t = np.linspace(0.0, 100.0, 4001)
    trajectory_to_csv(TrajectoryData(t, np.sin(np.pi * t)),
                      str(ins / "sin.csv"))
    t = np.linspace(0.0, 3.0, 601)
    trajectory_to_csv(TrajectoryData(t, np.exp(-t)), str(ins / "exp.csv"))

    euler, sp = tmp_path / "r0" / "model.txt", tmp_path / "r2" / "model.txt"
    reg = tmp_path / "r14"
    runs = [
        (0, ["ssm", "--system", "euler", "--d", 1, "--order", 7]),
        (0, ["ssm", "--import-model", euler]),
        (0, ["ssm", "--system", "shaw_pierre", "--d", 2, "--order", 5]),
        (0, ["pade", "--model", graph, "--N", 2, "--M", 2, "--radius", 1.2]),
        (3, ["pade", "--model", pole, "--N", 2, "--M", 2, "--radius", 1.2]),
        (0, ["analyze", "backbone", "--model", sp, "--rho-max", 0.3,
             "--points", 16]),
        (0, ["analyze", "frc", "--model", sp, "--eps", 0.01,
             "--forcing-vector", "0,1,0,0", "--rho-max", 0.3,
             "--points", 30]),
        (3, ["analyze", "integrate", "--rationals", blowup, "--ic", "1.0",
             "--t1", 10, "--n-out", 101]),
        (0, ["analyze", "integrate", "--model", euler, "--ic", "0.1",
             "--t1", 2.0, "--n-out", 51, "--lift-model", euler]),
        (0, ["analyze", "poincare", "--double-well", "--ic", "0.1,0.1",
             "--n-periods", 25, "--skip", 5]),
        (0, ["analyze", "lyapunov", "--double-well", "--ic", "0.1,0.1",
             "--horizon", 40, "--transient", 10]),
        (0, ["analyze", "psd", "--data", ins / "sin.csv"]),
        (0, ["singularity", "radius", "--coeffs", coeffs]),
        (0, ["singularity", "pattern", "--coeffs", coeffs]),
        (0, ["regress", "--data", ins / "exp.csv", "--delays", 3, "--lag", 2,
             "--d", 1, "--N", 1, "--M", 0, "--restarts", 1]),
        (0, ["predict", "--chart", reg / "chart.txt",
             "--fit", reg / "rational_fit.txt", "--data", ins / "exp.csv",
             "--horizon", 2.0, "--n-out", 201]),
        (0, ["predict", "--chart", reg / "chart.txt",
             "--poly", reg / "poly_fit.txt", "--data", ins / "exp.csv",
             "--horizon", 2.0, "--n-out", 201]),
        (0, ["singularity", "scan", "--rationals", rat, "--min", "0",
             "--max", "2", "--points", "41", "--floor", "1e-2"]),
    ]
    for i, (code, argv) in enumerate(runs):
        out = tmp_path / f"r{i}"
        rc, _, _ = run_cli(capsys, "--out", out, *argv)
        assert rc == code, argv
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(manifest["outputs"] + ["manifest.json"]), argv
        passed = {str(argv[j + 1]) for j, a in enumerate(argv)
                  if a in FILE_OPTIONS}
        assert set(manifest["inputs"]) == passed, argv
        assert not {"handler", "inputs", "out"} & set(manifest["options"])

    rc, _, _ = run_cli(capsys, "--out", tmp_path / "none", "systems")
    assert rc == 0 and not (tmp_path / "none").exists()
