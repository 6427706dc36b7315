"""Descent solver, thresholds, probes, and the parameter sweep."""

import dataclasses
import math

import numpy as np
import pytest

import orliczkit as ok
from orliczkit.errors import InputError
from orliczkit.solver import SolverOptions, _default_rho


@pytest.fixture(scope="module")
def config_p4_q2():
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    return ok.EnergyConfig(fam, react, 1.0)


def test_minimize_constant_recovery(config_p4_q2, grid_1d):
    rep = ok.minimize(config_p4_q2, ok.GridFunction.constant(grid_1d, 0.3))
    assert rep.converged
    assert np.max(np.abs(rep.final_u.values - 2.0 ** -0.5)) <= 1e-4
    assert rep.final_energy == pytest.approx(-0.25, abs=1e-4)
    assert rep.residual_sup <= 1e-6


def test_minimize_stays_at_zero(config_p4_q2, grid_1d):
    rep = ok.minimize(config_p4_q2, ok.GridFunction.constant(grid_1d, 0.0))
    assert rep.converged
    assert rep.iterations == 0
    assert np.all(rep.final_u.values == 0.0)


def test_minimize_energy_nonincreasing(config_p4_q2, grid_1d):
    rep = ok.minimize(config_p4_q2, ok.random_function(grid_1d, 4, 0.5, 3))
    energies = rep.trajectory[:, 0]
    assert np.all(np.diff(energies) <= 0.0)
    # strict decrease while unconverged
    active = rep.trajectory[:-1, 1] > 1e-6
    assert np.all(np.diff(energies)[active[: len(energies) - 1]] < 0.0)


def test_minimize_max_iters_reports_nonconvergence(config_p4_q2, grid_1d):
    opts = SolverOptions(max_iters=1, tol_res=1e-12)
    rep = ok.minimize(config_p4_q2, ok.GridFunction.constant(grid_1d, 0.3), opts)
    assert not rep.converged
    assert "max_iters" in rep.message


@pytest.mark.parametrize("rough, initial_step", [(True, 1.0), (False, 0.5)],
                         ids=["rough-backtracked", "constant-first-trial"])
def test_first_step_is_armijo_backtracked_steepest_descent(config_p4_q2, grid_1d,
                                                           rough, initial_step):
    # without history the L-BFGS direction is -r: the single step must be
    # the Armijo backtrack along -r from u0 that starts at initial_step,
    # computed here by hand.  The rough start backtracks ~23 times; on the
    # constant start the first trial (0.5) and twice it both pass Armijo.
    opts = SolverOptions(max_iters=1, tol_res=1e-12, initial_step=initial_step)
    u0 = (ok.random_function(grid_1d, 4, 0.5, 3) if rough
          else ok.GridFunction.constant(grid_1d, 0.3))
    rep = ok.minimize(config_p4_q2, u0, opts)
    w = ok.quad_weights(grid_1d)
    r = ok.residual(config_p4_q2, u0).values
    J0 = ok.energy(config_p4_q2, u0)
    slope = -float(np.sum(w * r * r))
    t = opts.initial_step
    while (ok.energy(config_p4_q2, ok.GridFunction(grid_1d, u0.values - t * r))
           > J0 + opts.armijo_c1 * t * slope):
        t *= opts.backtrack
    assert rep.iterations == 1
    np.testing.assert_array_equal(rep.final_u.values, u0.values - t * r)
    assert rep.final_energy == ok.energy(config_p4_q2, rep.final_u)
    assert rep.trajectory[0, 0] == J0


def _cosine_start(grid, seed):
    x = grid.axis_coords(0)
    noise = ok.random_function(grid, seed, 0.1, 0).values
    return ok.GridFunction(grid, 0.5 + 0.3 * np.cos(np.pi * x) + noise)


@pytest.mark.parametrize("nodes", [201, 401])
def test_minimize_converges_on_fine_grids(config_p4_q2, nodes):
    grid = ok.make_grid(1, [(0.0, 1.0)], [nodes])
    rep = ok.minimize(config_p4_q2, _cosine_start(grid, nodes))
    assert rep.converged
    assert rep.residual_sup <= 1e-6
    assert rep.final_energy == pytest.approx(-0.25, abs=1e-6)


def test_small_lambda_solve_converges_on_201_nodes():
    # the criterion-08 case at lambda_star, on twice the acceptance grid
    grid = ok.make_grid(1, [(0.0, 1.0)], [201])
    fam = ok.power_family(ok.ExponentField.affine(3.0, 1.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    c1 = ok.estimate_embedding_constant(fam, react.q, grid, samples=50, seed=0)
    lam_star = ok.lambda_star_formula(_default_rho(c1), react.C2, c1, fam.phi_sup,
                                      react.q.p_minus)
    config = ok.EnergyConfig(fam, react, lam_star)
    rep = ok.minimize(config, ok.bump_seed(config, grid))
    assert rep.converged
    assert rep.final_energy < 0.0
    assert np.all(np.diff(rep.trajectory[:, 0]) < 0.0)


def test_solver_options_validation():
    with pytest.raises(InputError):
        SolverOptions(armijo_c1=1.5)
    with pytest.raises(InputError):
        SolverOptions(backtrack=1.0)
    with pytest.raises(InputError):
        SolverOptions(max_iters=0)


@pytest.mark.parametrize("key", ["tol_res", "initial_step"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_solver_options_reject_non_finite(key, value):
    # an infinite step never backtracks below its floor, an infinite
    # tolerance reports any iterate as converged, and a NaN one never does
    with pytest.raises(InputError, match="positive and finite"):
        SolverOptions(**{key: value})


def test_settings_objects_are_frozen(config_p4_q2):
    opts = SolverOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.max_iters = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        config_p4_q2.lam = 2.0
    assert config_p4_q2.lam == 1.0 and opts.max_iters == SolverOptions().max_iters
    # a changed lam is a new config, validated like any other
    assert dataclasses.replace(config_p4_q2, lam=2.0).lam == 2.0
    with pytest.raises(InputError, match="lam must be positive"):
        dataclasses.replace(config_p4_q2, lam=0.0)


def test_critical_point_certificate(config_p4_q2, grid_1d):
    rep = ok.minimize(config_p4_q2, ok.GridFunction.constant(grid_1d, 0.3))
    for seed in range(20):
        v = ok.random_function(grid_1d, 300 + seed, 1.0, seed % 4)
        dd = ok.directional_derivative(config_p4_q2, rep.final_u, v)
        norm_v = ok.sobolev_norm(config_p4_q2.family, v)
        assert abs(dd) <= 1e-6 * norm_v * (1.0 + grid_1d.measure)


def test_lambda_star_formula_values():
    assert ok.lambda_star_formula(0.5, 1.0, 1.0, 4.0, 2.0) == pytest.approx(0.125)
    v1 = ok.lambda_star_formula(0.5, 1.0, 1.0, 4.0, 2.0)
    v2 = ok.lambda_star_formula(0.5, 2.0, 1.0, 4.0, 2.0)
    assert v2 == pytest.approx(v1 / 2.0)


def test_lambda_star_formula_guards():
    with pytest.raises(InputError):
        ok.lambda_star_formula(0.9, 1.0, 2.0, 3.0, 2.0)     # rho >= 1/c1
    with pytest.raises(InputError):
        ok.lambda_star_formula(1.2, 1.0, 0.5, 3.0, 2.0)     # rho outside (0,1)
    with pytest.raises(InputError):
        ok.lambda_star_formula(0.5, -1.0, 1.0, 3.0, 2.0)


def test_embedding_ratio_constant_fields(family_power_p2, grid_1d):
    # for constants on a measure-1 domain both norms equal |c|
    q2 = ok.power_family(ok.ExponentField.constant(2.0))
    c = ok.GridFunction.constant(grid_1d, 0.37)
    num = ok.luxemburg_norm(q2, c)
    den = ok.sobolev_norm(family_power_p2, c)
    assert num / den == pytest.approx(1.0, abs=1e-7)


def test_embedding_estimate_deterministic_and_monotone(family_power_affine, grid_1d):
    q = ok.ExponentField.constant(2.0)
    a = ok.estimate_embedding_constant(family_power_affine, q, grid_1d, 10, seed=5)
    b = ok.estimate_embedding_constant(family_power_affine, q, grid_1d, 10, seed=5)
    assert a == b
    c = ok.estimate_embedding_constant(family_power_affine, q, grid_1d, 30, seed=5)
    assert c >= a


def test_default_rho_constraint():
    for c1 in (0.3, 1.0, 2.4, 10.0):
        rho = _default_rho(c1)
        assert 0.0 < rho < 1.0
        assert rho < 1.0 / c1


def test_small_t_probe_finds_negative(config_p4_q2, grid_1d):
    theta = ok.bump_function(grid_1d)
    rep = ok.small_t_probe(config_p4_q2, theta, np.geomspace(1e-4, 0.1, 20))
    assert rep.any_negative
    assert rep.first_negative_t <= 0.1
    # spot check: t = 0.01 already gives negative energy
    assert ok.energy(config_p4_q2, 0.01 * theta) < 0.0


def test_small_t_probe_zero_is_zero(config_p4_q2, grid_1d):
    theta = ok.bump_function(grid_1d)
    rep = ok.small_t_probe(config_p4_q2, theta, [0.0, 0.01])
    assert rep.energies[0] == 0.0


def test_small_t_probe_reversed_control(grid_1d):
    # q > phi_sup: the reaction term is higher order, small t stay positive
    fam = ok.power_family(ok.ExponentField.constant(2.0))
    react = ok.power_reaction(ok.ExponentField.constant(4.0))
    config = ok.EnergyConfig(fam, react, 1.0)
    theta = ok.bump_function(grid_1d)
    rep = ok.small_t_probe(config, theta, np.geomspace(1e-4, 0.1, 20))
    assert not rep.any_negative
    assert math.isnan(rep.first_negative_t)


def test_small_t_probe_rejects_bad_theta(config_p4_q2, grid_1d):
    with pytest.raises(InputError):
        ok.small_t_probe(config_p4_q2, ok.GridFunction.constant(grid_1d, -1.0), [0.01])
    with pytest.raises(InputError):
        ok.small_t_probe(config_p4_q2, ok.GridFunction.constant(grid_1d, 0.0), [0.01])


def _directions(grid):
    return [ok.GridFunction.constant(grid, 1.0), ok.bump_function(grid),
            ok.random_function(grid, 17, 1.0, 3)]


def test_coercivity_probe_passes(config_p4_q2, grid_1d):
    rep = ok.coercivity_probe(config_p4_q2, _directions(grid_1d))
    assert rep.passed


def test_coercivity_probe_negative_control(grid_1d):
    fam = ok.power_family(ok.ExponentField.constant(2.0))
    react = ok.power_reaction(ok.ExponentField.constant(4.0))
    config = ok.EnergyConfig(fam, react, 1.0)
    rep = ok.coercivity_probe(config, _directions(grid_1d))
    assert not rep.passed


def test_coercivity_probe_lambda_scaling(grid_1d):
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    for lam in (1.0, 10.0):
        config = ok.EnergyConfig(fam, react, lam)
        assert ok.coercivity_probe(config, _directions(grid_1d)).passed


def test_sweep_basics(grid_1d):
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    lams = [0.5, 2.0, 4.4, 6.0]
    report = ok.sweep_lambda(fam, react, grid_1d, lams, seed=1)
    assert [r.lam for r in report.rows] == lams
    # J_lambda(u) is affine decreasing in lambda, so the minima are too
    energies = [r.min_energy for r in report.rows]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    # analytic zero crossing of the constant seed u = 2: Lambda/“G” = 2^{4-2}
    assert report.lambda_upper_root == pytest.approx(4.0, abs=1e-6)
    assert report.lambda_upper_empirical == pytest.approx(4.4)
    assert all(r.converged for r in report.rows)
    above = [r for r in report.rows if r.lam > report.lambda_upper_root]
    assert all(r.nontrivial and r.min_energy < 0.0 for r in above)


def test_sweep_rejects_bad_lambdas(grid_1d):
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    with pytest.raises(InputError):
        ok.sweep_lambda(fam, react, grid_1d, [0.0, 1.0])
    with pytest.raises(InputError):
        ok.sweep_lambda(fam, react, grid_1d, [2.0, 1.0])
    with pytest.raises(InputError):
        ok.sweep_lambda(fam, react, grid_1d, [1.0], u0_strategy="nope")


def test_sweep_csv_format(grid_1d):
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    report = ok.sweep_lambda(fam, react, grid_1d, [1.0, 5.0], seed=3)
    text = report.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,min_energy,residual_sup,solution_norm,nontrivial_flag,iterations"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert first[4] in ("0", "1")
