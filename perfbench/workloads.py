"""The benchmark's workloads: fixed, seeded op lists with output checks.

Each builder takes the workload seed and returns the list of ``Op``s that
one pass of the workload runs.  Everything random is drawn here, from the
seed, so the library only ever receives the generated inputs.  Importing
this module imports ``orliczkit``; ``run.py`` starts the set-up clock just
before that import.

An ``Op`` has three callables:

* ``run()`` is the timed call into the library;
* ``fingerprint(result)`` reduces the output to an exactly comparable value,
  used to check that a repeated (or traced) op reproduces it bit for bit;
* ``check(result)`` is the correctness check; it returns ``None`` on success
  or a one-line reason.  It runs outside the timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.optimize

import orliczkit as ok
import orliczkit.cli


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    fingerprint: Callable[[object], object]
    check: Callable[[object], str | None]


def _children(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2 ** 62))


# ---------------------------------------------------------------------------
# solve: one op is one minimize call
# ---------------------------------------------------------------------------

SOLVE_NODES_1D = 101
SOLVE_NODES_2D = 33
# criterion 08 runs this case on 101 nodes, where it takes ~28.6k descent
# iterations (~15 s); 41 nodes keeps it mesh-sensitive (~4k iterations)
# while a pass of the whole list stays a few seconds long
SMALL_LAMBDA_NODES = 41


def _solve_fingerprint(rep):
    return (rep.final_u.values.tobytes(), rep.final_energy, rep.residual_sup,
            rep.iterations, rep.converged, rep.trajectory.tobytes())


def _solve_common_failure(rep, tol_res):
    if not rep.converged:
        return f"not converged: {rep.message}"
    if not rep.residual_sup <= tol_res:
        return f"residual_sup {rep.residual_sup:.3e} > tol_res {tol_res:g}"
    energies = rep.trajectory[:, 0]
    if np.any(np.diff(energies) > 0.0):
        return "energy trajectory increases"
    return None


def _constant_energy(config, measure):
    """|Omega| (Phi(c) - lam c^2) at the root c > 0 of phi(c) = 2 lam c.

    The families used with it have constant p, so the x argument is moot.
    """
    fam, lam = config.family, config.lam
    c = scipy.optimize.brentq(lambda t: fam.phi(0.5, t) - 2.0 * lam * t,
                              1e-3, 10.0, xtol=1e-15, rtol=1e-15)
    return measure * (fam.Phi(0.5, c) - lam * c * c)


def _constant_solution_op(name, config, u0, tol_res):
    target = _constant_energy(config, u0.grid.measure)

    def check(rep):
        reason = _solve_common_failure(rep, tol_res)
        if reason is None and abs(rep.final_energy - target) > 1e-6 * abs(target):
            reason = (f"energy {rep.final_energy!r} differs from the constant "
                      f"solution's {target!r}")
        return reason

    return Op(name, lambda: ok.minimize(config, u0), _solve_fingerprint, check)


def build_solve(seed: int, out_dir: Path) -> list[Op]:
    child = _children(seed)
    tol_res = ok.SolverOptions().tol_res
    q2 = ok.power_reaction(ok.ExponentField.constant(2.0))
    g1 = ok.make_grid(1, [(0.0, 1.0)], [SOLVE_NODES_1D])
    g2 = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [SOLVE_NODES_2D] * 2)
    families = [
        ("power p=4", ok.power_family(ok.ExponentField.constant(4.0))),
        ("log-quotient p=4", ok.log_quotient_family(ok.ExponentField.constant(4.0))),
        ("log-weight p=3", ok.log_weight_family(ok.ExponentField.constant(3.0), 1.0)),
    ]
    # A start of pure smoothed noise needs 1.5k-6.3k iterations on 101 nodes
    # (350-1400 on 33^2) depending on the draw, so the run time would follow
    # the seed, not the code.  A fixed low mode carries the slow part of the
    # descent and the seeded noise on top changes every input (iteration
    # spread ~1%).
    base = 0.5 + 0.3 * np.cos(np.pi * g1.axis_coords(0))
    ops = []
    for label, fam in families:
        noise = ok.random_function(g1, next(child), 0.1, 0)
        u0 = ok.GridFunction(g1, base + noise.values)
        ops.append(_constant_solution_op(
            f"1d-{SOLVE_NODES_1D} {label} random start",
            ok.EnergyConfig(fam, q2, 1.0), u0, tol_res))

    power4 = families[0][1]
    x, y = g2.axis_coords(0)[:, None], g2.axis_coords(1)[None, :]
    base = 0.5 + 0.3 * (np.cos(np.pi * x) + np.cos(np.pi * y))
    u0 = ok.GridFunction(g2, base + ok.random_function(g2, next(child), 0.1, 0).values)
    ops.append(_constant_solution_op(
        f"2d-{SOLVE_NODES_2D}^2 power p=4 random start",
        ok.EnergyConfig(power4, q2, 1.0), u0, tol_res))

    # acceptance criterion 08 at lambda_star: p = 3 + x, q = 2, bump seed
    g_small = ok.make_grid(1, [(0.0, 1.0)], [SMALL_LAMBDA_NODES])
    fam = ok.power_family(ok.ExponentField.affine(3.0, 1.0))
    c1 = ok.estimate_embedding_constant(fam, q2.q, g_small, samples=50, seed=0)
    rho = min(0.5, 0.9 / c1)
    lam_star = ok.lambda_star_formula(rho, q2.C2, c1, fam.phi_sup, q2.q.p_minus)
    config = ok.EnergyConfig(fam, q2, lam_star)
    u0 = ok.bump_seed(config, g_small)

    def check_small_lambda(rep):
        reason = _solve_common_failure(rep, tol_res)
        if reason is None and not rep.final_energy < 0.0:
            reason = f"small-lambda energy {rep.final_energy!r} is not negative"
        if reason is None:
            norm = ok.sobolev_norm(fam, rep.final_u)
            if not norm > 1e-6:
                reason = f"small-lambda solution is trivial (norm {norm!r})"
        return reason

    ops.append(Op(f"1d-{SMALL_LAMBDA_NODES} power p=3+x small lambda, bump seed",
                  lambda: ok.minimize(config, u0), _solve_fingerprint,
                  check_small_lambda))
    return ops


# ---------------------------------------------------------------------------
# norms-2d: one op is one norm call on the 129^2 square
# ---------------------------------------------------------------------------

NORMS_NODES = 129
AMPLITUDES = (0.1, 1.0, 10.0)
UNIT_MODULAR_TOL = 1e-7

# norm function -> the modular it inverts
_NORM_MODULAR = {
    "luxemburg_norm": "modular",
    "conjugate_norm": "conjugate_modular",
    "sobolev_norm": "sobolev_modular",
}


def _norm_op(label, norm_name, fam, u):
    modular_name = _NORM_MODULAR[norm_name]

    def run():
        return getattr(ok, norm_name)(fam, u)

    def check(N):
        if not (math.isfinite(N) and N > 0.0):
            return f"norm {N!r} is not positive"
        rho = getattr(ok, modular_name)(fam, (1.0 / N) * u)
        if abs(rho - 1.0) > UNIT_MODULAR_TOL:
            return f"{modular_name}(u/N) = {rho!r}, not 1 within {UNIT_MODULAR_TOL:g}"
        return None

    return Op(f"{norm_name} {label}", run, lambda N: N, check)


def build_norms_2d(seed: int, out_dir: Path) -> list[Op]:
    child = _children(seed)
    grid = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [NORMS_NODES] * 2)
    families = [
        ("power p=2+x", ok.power_family(ok.ExponentField.affine(2.0, 1.0))),
        ("log-quotient p=3+x", ok.log_quotient_family(ok.ExponentField.affine(3.0, 1.0))),
        ("log-weight p=2+x", ok.log_weight_family(ok.ExponentField.affine(2.0, 1.0), 1.0)),
    ]
    fields = [(amp, ok.random_function(grid, next(child), amp, 2)) for amp in AMPLITUDES]
    return [_norm_op(f"{label} amplitude {amp:g}", norm_name, fam, u)
            for label, fam in families
            for amp, u in fields
            for norm_name in _NORM_MODULAR]


# ---------------------------------------------------------------------------
# verify-cli: one op is one in-process `orliczkit verify` invocation
# ---------------------------------------------------------------------------

VERIFY_SAMPLES = 25
VERIFY_INVOCATIONS = 2
# per-property sample counts of `verify --samples 25` with the CLI's three
# default families and three reactions
EXPECTED_SAMPLES = {
    "conjugate_bound": 1200, "delta2_explicit_constant": 21600,
    "ftc_consistency": 24, "gradient_check": 54, "growth_lower_bound": 1200,
    "holder_inequality": 75, "modular_convergence": 75,
    "modular_parallelogram": 75, "norm_equivalences": 75,
    "norm_homogeneity": 75, "norm_modular_relations": 75, "phi_odd": 1200,
    "reaction_growth_envelopes": 1200, "reaction_primitive_consistency": 1200,
    "scaling_bounds": 1200, "sobolev_modular_bounds": 75,
    "sqrt_convexity": 9480, "triangle_inequality": 75,
    "unit_ball_identity": 75, "young_inequality": 1200,
}


def _verify_op(index, verify_seed, out_dir):
    json_path = out_dir / f"verify-{index}.json"
    csv_path = out_dir / f"verify-{index}.csv"
    argv = ["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(verify_seed),
            "--out", str(json_path), "--csv", str(csv_path)]

    def take_reports():
        # read and remove the reports, so the next invocation's are its own
        # and a report it fails to write reads as None, not as an older one
        texts = tuple(path.read_text() if path.exists() else None
                      for path in (json_path, csv_path))
        json_path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
        return texts

    take_reports()

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = orliczkit.cli.main(argv)
        # the reports are attached untimed, by fingerprint()
        return [code, stdout.getvalue()]

    def fingerprint(result):
        if len(result) == 2:
            result.extend(take_reports())
        return tuple(result)

    def check(result):
        code, _, report_json, report_csv = fingerprint(result)
        if code != 0:
            return f"exit code {code}"
        if report_json is None or report_csv is None:
            return "the JSON or CSV report was not written"
        report = json.loads(report_json)
        if report.get("overall") is not True:
            return "report overall is not true"
        counts = {p["name"]: p["samples"] for p in report["properties"]}
        if counts != EXPECTED_SAMPLES:
            return f"per-property sample counts differ: {counts}"
        return None

    return Op(f"verify --samples {VERIFY_SAMPLES} --seed {verify_seed}",
              run, fingerprint, check)


def build_verify_cli(seed: int, out_dir: Path) -> list[Op]:
    child = _children(seed)
    return [_verify_op(k, next(child), out_dir)
            for k in range(VERIFY_INVOCATIONS)]


BUILDERS = {
    "solve": build_solve,
    "norms-2d": build_norms_2d,
    "verify-cli": build_verify_cli,
}
