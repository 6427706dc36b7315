"""Exit-code contract and file outputs of the command-line front end."""

import os
import subprocess
import sys

import numpy as np
import pytest

import orliczkit as ok
from orliczkit.cli import main

FAMILY_P2 = """\
family = power
p.kind = constant
p.coeffs = 2
"""

SOLVE_CONFIG = """\
family.family = power
family.p.kind = constant
family.p.coeffs = 4
reaction.example = power
reaction.q.kind = constant
reaction.q.coeffs = 2
lambda = 1.0
grid.dim = 1
grid.extents = 0 1
grid.nodes = 101
u0.kind = constant
u0.value = 0.3
"""


@pytest.fixture()
def family_file(tmp_path):
    p = tmp_path / "powI_p2.cfg"
    p.write_text(FAMILY_P2)
    return str(p)


@pytest.fixture()
def solve_config(tmp_path):
    p = tmp_path / "energy.cfg"
    p.write_text(SOLVE_CONFIG)
    return str(p)


def test_norm_constant(family_file, capsys):
    code = main(["norm", "--family", family_file, "--const", "2",
                 "--domain", "0", "1", "--nodes", "101"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, abs=1e-8)


def test_modular_constant(family_file, capsys):
    code = main(["modular", "--family", family_file, "--const", "2",
                 "--domain", "0", "1", "--nodes", "101"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, rel=1e-12)


def test_conjugate_constant(family_file, capsys):
    # conjugate of t^2 is s^2/4, so the conjugate norm of u = 2 is 1
    code = main(["conjugate", "--family", family_file, "--const", "2",
                 "--domain", "0", "1", "--nodes", "101"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-7)


def test_norm_missing_family_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    code = main(["norm", "--family", missing, "--const", "1",
                 "--domain", "0", "1", "--nodes", "11"])
    assert code == 3
    assert "nope.cfg" in capsys.readouterr().err


def test_norm_function_file(family_file, tmp_path, capsys):
    g = ok.make_grid(1, [(0.0, 1.0)], [51])
    u = ok.random_function(g, 3, 1.0, 2)
    path = tmp_path / "field.dat"
    ok.save_function(u, path)
    code = main(["norm", "--family", family_file, "--function", str(path)])
    assert code == 0
    fam = ok.power_family(ok.ExponentField.constant(2.0))
    expected = ok.luxemburg_norm(fam, u)
    assert float(capsys.readouterr().out.strip()) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("lam", ["0", "-1"])
def test_solve_rejects_non_positive_lambda_flag(solve_config, capsys, lam):
    assert main(["solve", "--config", solve_config, "--lambda", lam]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lam must be positive")


def test_solve_constant_recovery(solve_config, tmp_path, capsys):
    sol = tmp_path / "sol.dat"
    traj = tmp_path / "traj.csv"
    rep = tmp_path / "report.txt"
    code = main(["solve", "--config", solve_config, "--out", str(sol),
                 "--trajectory", str(traj), "--report", str(rep)])
    assert code == 0
    u = ok.load_function(sol)
    assert np.max(np.abs(u.values - 2.0 ** -0.5)) <= 1e-4
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,residual_sup"
    energies = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    summary = rep.read_text()
    assert "converged = True" in summary
    counts = dict(ln.split(" = ") for ln in summary.splitlines()
                  if ln.startswith(("energy_evals", "residual_evals")))
    assert int(counts["residual_evals"]) == len(energies)
    assert int(counts["energy_evals"]) >= len(energies)


@pytest.mark.parametrize("file_lambda", ["lambda = 0\n", ""], ids=["invalid", "missing"])
def test_solve_lambda_flag_replaces_file_lambda(tmp_path, capsys, file_lambda):
    path = tmp_path / "energy.cfg"
    path.write_text(SOLVE_CONFIG.replace("lambda = 1.0\n", file_lambda))
    assert main(["solve", "--config", str(path), "--lambda", "1"]) == 0
    assert "converged = True" in capsys.readouterr().out


@pytest.mark.parametrize("file_lambda", ["lambda = 0\n", "lambda = x\n", ""],
                         ids=["invalid", "malformed", "missing"])
def test_sweep_does_not_read_file_lambda(tmp_path, capsys, file_lambda):
    path = tmp_path / "energy.cfg"
    path.write_text(SOLVE_CONFIG.replace("lambda = 1.0\n", file_lambda))
    assert main(["sweep", "--config", str(path), "--lambdas", "2"]) == 0
    assert capsys.readouterr().out.startswith("lambda_star_formula = ")


def test_solve_nonconvergence_exit(solve_config):
    code = main(["solve", "--config", solve_config, "--max-iters", "1",
                 "--tol-res", "1e-12"])
    assert code == 2


def test_solve_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("family.family = power\n")   # missing everything else
    assert main(["solve", "--config", str(bad)]) == 3


def test_sweep(solve_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", solve_config,
                 "--lambdas", "0.5,2,6", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,min_energy,residual_sup,solution_norm,nontrivial_flag,iterations"
    energies = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_verify_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv = tmp_path / "summary.csv"
    code = main(["verify", "--samples", "2", "--seed", "0",
                 "--families", "power", "--out", str(out), "--csv", str(csv)])
    assert code == 0
    assert '"overall": true' in out.read_text()
    assert csv.read_text().startswith("property,samples,passes,worst_margin")
    assert "overall = True" in capsys.readouterr().out


def test_verify_negative_control(capsys):
    code = main(["verify", "--samples", "2", "--families", "broken-delta2"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_zero_samples():
    assert main(["verify", "--samples", "0"]) == 3


def test_unknown_family_name():
    assert main(["verify", "--samples", "1", "--families", "mystery"]) == 3


def test_usage_error_maps_to_bad_input(capsys):
    assert main(["norm"]) == 3      # missing required --family


BAD_FAMILY_CONSTANT_NO_COEFFS = "family = power\np.kind = constant\n"
BAD_FAMILY_AFFINE_ONE_COEFF = "family = power\np.kind = affine\np.coeffs = 2\n"
BAD_REACTION_AFFINE_ONE_COEFF = SOLVE_CONFIG.replace(
    "reaction.q.kind = constant", "reaction.q.kind = affine")


@pytest.mark.parametrize("family_text, config_text, argv", [
    (BAD_FAMILY_CONSTANT_NO_COEFFS, None,
     ["--const", "1", "--domain", "0", "1", "--nodes", "11"]),
    (BAD_FAMILY_AFFINE_ONE_COEFF, None,
     ["--const", "1", "--domain", "0", "1", "--nodes", "11"]),
    (None, BAD_REACTION_AFFINE_ONE_COEFF, []),
    (FAMILY_P2, None, ["--const", "1", "--domain", "0", "1", "--nodes", "11", "11"]),
    (FAMILY_P2, None, ["--const", "1", "--domain", "0", "1", "0", "1", "--nodes", "11"]),
], ids=["constant-no-coeffs", "affine-one-coeff", "reaction-affine-one-coeff",
        "nodes-2d-domain-1d", "nodes-1d-domain-2d"])
def test_malformed_input_exits_3(tmp_path, capsys, family_text, config_text, argv):
    if config_text is not None:
        path = tmp_path / "energy.cfg"
        path.write_text(config_text)
        argv = ["solve", "--config", str(path)] + argv
    else:
        path = tmp_path / "fam.cfg"
        path.write_text(family_text)
        argv = ["norm", "--family", str(path)] + argv
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("family_text, config_text, argv, key", [
    (FAMILY_P2.replace("constant", "affine").replace("= 2", "= 2 1")
     + "p.x1_range = 0 inf\n", None,
     ["norm", "--const", "1", "--domain", "0", "1", "--nodes", "11"], "p.x1_range"),
    (None, SOLVE_CONFIG.replace("lambda = 1.0", "lambda = inf"), ["solve"], "lambda"),
    (None, SOLVE_CONFIG, ["solve", "--lambda", "inf"], "--lambda"),
    (None, SOLVE_CONFIG, ["sweep", "--lambdas", "1,nan"], "lambdas"),
], ids=["family-x1-range", "config-lambda", "flag-lambda", "flag-lambdas"])
def test_non_finite_input_exits_3(tmp_path, capsys, family_text, config_text, argv, key):
    if config_text is not None:
        path = tmp_path / "energy.cfg"
        path.write_text(config_text)
        argv = argv[:1] + ["--config", str(path)] + argv[1:]
    else:
        path = tmp_path / "fam.cfg"
        path.write_text(family_text)
        argv = argv[:1] + ["--family", str(path)] + argv[1:]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: '{key}' must be finite")


@pytest.mark.parametrize("command, argv, message", [
    ("solve", ["--tol-res", "inf"], "must be positive and finite"),
    ("solve", ["--tol-res", "nan"], "must be positive and finite"),
    ("norm", ["--const", "1", "--domain", "0", "inf", "--nodes", "11"],
     "extents must be finite"),
], ids=["flag-tol-res-inf", "flag-tol-res-nan", "flag-domain-inf"])
def test_non_finite_solver_or_grid_flag_exits_3(family_file, solve_config, capsys,
                                                command, argv, message):
    source = ["--config", solve_config] if command == "solve" else ["--family", family_file]
    assert main([command] + source + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Warning" not in captured.err


def test_solver_flag_defaults_match_solver_options():
    from orliczkit.cli import _build_parser, _solver_options
    for command in ("solve", "sweep"):
        args = _build_parser().parse_args([command, "--config", "x.cfg"])
        assert _solver_options(args) == ok.SolverOptions()


@pytest.mark.parametrize("command, argv", [
    ("solve", ["--armijo", "0.1"]),
    ("solve", ["--backtrack", "0.3"]),
    ("solve", ["--step", "0.5"]),
    ("sweep", ["--strategy", "all"]),
], ids=["armijo", "backtrack", "step", "strategy"])
def test_retired_solver_flags_exit_3(solve_config, capsys, command, argv):
    assert main([command, "--config", solve_config] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err


def test_sweep_nonconvergence_exit(tmp_path, capsys):
    # u = 0 is critical for every lambda, so a trivial seed would report
    # these unconverged solves as converged rows and exit 0
    path = tmp_path / "energy.cfg"
    path.write_text(SOLVE_CONFIG.replace("nodes = 101", "nodes = 41"))
    assert main(["sweep", "--config", str(path), "--lambdas", "1,2", "--max-iters", "1"]) == 2
    rows = capsys.readouterr().out.splitlines()[-2:]
    assert [row.split(",")[0] for row in rows] == ["1.0", "2.0"]
    assert all(float(row.split(",")[1]) != 0.0 for row in rows)


@pytest.mark.parametrize("edit, code", [
    (("u0.value = 0.3", "u0.value = 1e150"), 3),
    (("lambda = 1.0", "lambda = 1e300"), 2),
    (("lambda = 1.0", "lambda = 1e308"), 2),
], ids=["huge-initial-guess", "huge-lambda", "lambda-g-prime-overflows"])
def test_solve_overflow_is_silent(tmp_path, edit, code):
    # overflow inside the solve prints no numpy warning; a non-finite
    # initial guess is reported as such
    path = tmp_path / "energy.cfg"
    path.write_text(SOLVE_CONFIG.replace("nodes = 101", "nodes = 11").replace(*edit))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ok.__file__)))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "orliczkit.cli", "solve",
                           "--config", str(path)], env=env, capture_output=True, text=True)
    assert proc.returncode == code
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error: the initial guess")


def test_import_loads_no_scipy():
    # scipy is imported only where it runs: scipy.integrate by adaptive
    # quadrature, scipy.linalg by the first 1-d Newton step
    code = ("import sys, orliczkit, orliczkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ok.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
