"""Command-line front end.

Subcommands: ``norm``, ``modular``, ``conjugate`` (evaluate a Luxemburg-type
norm, the modular, or the conjugate-function norm of a field), ``solve`` and
``sweep`` (energy minimization), and ``verify`` (the property suite).

Exit codes: 0 success, 1 verification failure, 2 solver non-convergence,
3 malformed input.  ``sweep`` and ``verify``, the commands that draw random
numbers, take ``--seed`` so that their runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import config as cfg
from .errors import DomainError, InputError, NumericsError
from .exponents import ExponentField
from .families import (custom_family, log_quotient_family, log_weight_family,
                       power_family)
from .energy import power_log_reaction, power_reaction, power_sin_reaction
from .grid import GridFunction, make_grid, save_function, load_function
from .solver import SolverOptions, minimize, sweep_lambda
from .spaces import conjugate_norm, luxemburg_norm, modular
from .verify import run_property_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_INPUT = 3


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# ---------------------------------------------------------------------------
# evaluation commands
# ---------------------------------------------------------------------------

def _load_field_args(args):
    family = cfg.family_from_kv_or_file(cfg.read_kv_file(args.family), prefix="")
    if args.function is not None:
        u = load_function(args.function)
    else:
        if args.const is None or args.domain is None or args.nodes is None:
            raise InputError("need --function FILE or --const C with --domain/--nodes")
        grid = make_grid(len(args.nodes), args.domain, args.nodes)
        u = GridFunction.constant(grid, args.const)
    return family, u


def _cmd_value(args) -> int:
    family, u = _load_field_args(args)
    value = args.evaluate(family, u)
    print(_fmt(value))
    if args.csv:
        with open(args.csv, "a") as fh:
            fh.write(f"{args.command},{value!r}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve / sweep
# ---------------------------------------------------------------------------

def _solver_options(args) -> SolverOptions:
    return SolverOptions(max_iters=args.max_iters, tol_res=args.tol_res)


def _cmd_solve(args) -> int:
    lam = None if args.lam is None else cfg.finite_float(args.lam, "--lambda")
    config, grid, u0, _ = cfg.load_energy_setup(args.config, lam)
    report = minimize(config, u0, _solver_options(args))
    if args.out:
        save_function(report.final_u, args.out)
    if args.trajectory:
        with open(args.trajectory, "w") as fh:
            fh.write("iteration,energy,residual_sup\n")
            for k, (e, r) in enumerate(report.trajectory):
                fh.write(f"{k},{float(e)!r},{float(r)!r}\n")
    summary = (f"converged = {report.converged}\n"
               f"iterations = {report.iterations}\n"
               f"final_energy = {report.final_energy!r}\n"
               f"residual_sup = {report.residual_sup!r}\n"
               f"message = {report.message}\n"
               f"energy_evals = {report.energy_evals}\n"
               f"step_probes = {report.step_probes}\n"
               f"doubled_steps = {report.doubled_steps}\n"
               f"residual_evals = {report.residual_evals}\n"
               f"cg_products = {report.cg_products}\n")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(summary)
    print(summary, end="")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_sweep(args) -> int:
    family, reaction, grid, kv = cfg.load_problem(args.config)
    lam_text = args.lambdas or kv.get("lambdas")
    if not lam_text:
        raise InputError("sweep needs --lambdas or a 'lambdas' config entry")
    lams = [cfg.finite_float(v, "lambdas") for v in lam_text.replace(",", " ").split()]
    report = sweep_lambda(family, reaction, grid, lams, opts=_solver_options(args),
                          seed=args.seed)
    if args.out:
        report.save_csv(args.out)
    lines = [
        f"lambda_star_formula = {report.lambda_star_formula_value!r}",
        f"lambda_star_empirical = {report.lambda_star_empirical!r}",
        f"lambda_upper_empirical = {report.lambda_upper_empirical!r}",
        f"lambda_upper_root = {report.lambda_upper_root!r}",
        f"c1_lower_estimate = {report.c1_lower_estimate!r}",
    ]
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(report.csv_text(), end="")
    all_converged = all(r.converged for r in report.rows)
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _default_families(names):
    table = {
        "power": lambda: power_family(ExponentField.affine(2.0, 1.0)),
        "log-quotient": lambda: log_quotient_family(ExponentField.affine(3.0, 1.0)),
        "log-weight": lambda: log_weight_family(ExponentField.affine(2.0, 1.0), 1.0),
        # diagnostic fixture with a deliberately broken doubling bound:
        # phi = sinh grows too fast for the declared ratio bounds
        "broken-delta2": lambda: custom_family(
            phi_fn=lambda x, t: np.sinh(np.clip(t, -700, 700)),
            Phi_fn=lambda x, t: np.cosh(np.clip(t, -700, 700)) - 1.0,
            phi0=2.0, phi_sup=3.0, label="broken-delta2"),
    }
    out = []
    for name in names:
        if name not in table:
            raise InputError(f"unknown family name {name!r}")
        out.append(table[name]())
    return out


def _cmd_verify(args) -> int:
    families = _default_families([s.strip() for s in args.families.split(",") if s.strip()])
    reactions = [power_reaction(ExponentField.constant(2.0)),
                 power_log_reaction(ExponentField.constant(4.0)),
                 power_sin_reaction(ExponentField.constant(3.0))]
    grids = [make_grid(1, [(0.0, 1.0)], [65]),
             make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [17, 17])]
    report = run_property_suite(families, reactions, grids, args.samples, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.json_text())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.csv_text())
    for p in report.properties:
        status = "pass" if p.passed else "FAIL"
        print(f"{status}  {p.name}: {p.passes}/{p.samples} "
              f"worst_margin={_fmt(p.worst_margin)}")
    print(f"overall = {report.overall}")
    return EXIT_OK if report.overall else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orliczkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, evaluate in (("norm", luxemburg_norm), ("modular", modular),
                           ("conjugate", conjugate_norm)):
        p = sub.add_parser(name, help=f"evaluate the {name} of a field")
        p.add_argument("--family", required=True, help="family descriptor file")
        p.add_argument("--function", help="solution-format field file")
        p.add_argument("--const", type=float, help="constant field value")
        p.add_argument("--domain", type=float, nargs="+",
                       help="lo hi [lo2 hi2] extents for --const")
        p.add_argument("--nodes", type=int, nargs="+", help="nodes per axis")
        p.add_argument("--csv", help="append 'command,value' to this CSV")
        p.set_defaults(func=_cmd_value, evaluate=evaluate)

    p = sub.add_parser("solve", help="minimize the energy from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="solution file")
    p.add_argument("--trajectory", help="per-iteration CSV")
    p.add_argument("--report", help="summary text file")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="minimize across a list of parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--lambdas", help="comma or space separated values")
    p.add_argument("--out", help="sweep CSV file")
    p.add_argument("--report", help="threshold summary file")
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON report file")
    p.add_argument("--csv", help="CSV summary file")
    p.add_argument("--families", default="power,log-quotient,log-weight")
    p.set_defaults(func=_cmd_verify)
    return parser


def _add_solver_flags(p):
    defaults = SolverOptions()
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--tol-res", type=float, default=defaults.tol_res)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report them as bad input
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InputError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
