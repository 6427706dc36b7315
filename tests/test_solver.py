"""Descent solver, thresholds, probes, and the parameter sweep."""

import dataclasses
import math

import numpy as np
import pytest

import orliczkit as ok
from orliczkit.errors import InputError
from orliczkit.solver import _ARMIJO_C1, _BACKTRACK, _C_FLOOR, SolverOptions, _default_rho


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


def _dense_newton_direction(config, u):
    """-H^{-1} r from the dense clipped Newton model, assembled column by
    column through the gradient stencil (1-d)."""
    grid = u.grid
    w = ok.quad_weights(grid)
    x = grid.coords_first
    D = np.stack([ok.gradient(ok.GridFunction(grid, e))[0] for e in np.eye(grid.size)],
                 axis=1)
    fam = config.family
    c = fam.dphi(x, u.values) - config.lam * config.reaction.dg(x, u.values)
    c = np.maximum(c, _C_FLOOR * max(1.0, np.max(np.abs(c))))
    H = D.T @ np.diag(w * fam.dphi(x, D @ u.values)) @ D + np.diag(w * c)
    r = ok.residual(config, u).values
    return np.linalg.solve(H, -w * r), r


@pytest.mark.parametrize("rough", [True, False], ids=["rough", "constant"])
def test_first_step_is_armijo_backtracked_newton_step(config_p4_q2, rough):
    # the single step must be the Armijo backtrack, from the unit step, along
    # the Newton direction of the dense clipped model, computed here by hand
    grid = ok.make_grid(1, [(0.0, 1.0)], [21])
    opts = SolverOptions(max_iters=1, tol_res=1e-12)
    u0 = (ok.random_function(grid, 4, 0.5, 3) if rough
          else ok.GridFunction.constant(grid, 0.3))
    rep = ok.minimize(config_p4_q2, u0, opts)
    d, r = _dense_newton_direction(config_p4_q2, u0)
    w = ok.quad_weights(grid)
    J0 = ok.energy(config_p4_q2, u0)
    slope = float(np.sum(w * r * d))
    assert slope < 0.0
    t, trials = 1.0, 1
    while (ok.energy(config_p4_q2, ok.GridFunction(grid, u0.values + t * d))
           > J0 + _ARMIJO_C1 * t * slope):
        t *= _BACKTRACK
        trials += 1
    assert rep.iterations == 1
    assert rep.energy_evals == 1 + trials and rep.residual_evals == 2
    np.testing.assert_allclose(rep.final_u.values, u0.values + t * d, rtol=1e-10, atol=1e-14)
    assert rep.final_energy == ok.energy(config_p4_q2, rep.final_u)
    assert rep.trajectory[0, 0] == J0


def test_rough_start_accepts_an_early_trial(config_p4_q2, grid_1d):
    # steepest descent backtracked 23 times from this start; the Newton step
    # is accepted at its first or second trial
    u0 = ok.random_function(grid_1d, 4, 0.5, 3)
    rep = ok.minimize(config_p4_q2, u0, SolverOptions(max_iters=1, tol_res=1e-12))
    assert rep.iterations == 1
    assert rep.energy_evals <= 3
    assert rep.final_energy < ok.energy(config_p4_q2, u0)


def _cosine_start(grid, seed):
    x = grid.axis_coords(0)
    noise = ok.random_function(grid, seed, 0.1, 0).values
    return ok.GridFunction(grid, 0.5 + 0.3 * np.cos(np.pi * x) + noise)


def _cosine_start_2d(grid, seed):
    x, y = grid.axis_coords(0)[:, None], grid.axis_coords(1)[None, :]
    noise = ok.random_function(grid, seed, 0.1, 0).values
    return ok.GridFunction(grid, 0.5 + 0.3 * (np.cos(np.pi * x) + np.cos(np.pi * y)) + noise)


@pytest.mark.parametrize("nodes", [201, 401, 1601])
def test_minimize_converges_on_fine_grids(config_p4_q2, nodes):
    grid = ok.make_grid(1, [(0.0, 1.0)], [nodes])
    rep = ok.minimize(config_p4_q2, _cosine_start(grid, nodes))
    assert rep.converged
    assert rep.residual_sup <= 1e-6
    assert rep.final_energy == pytest.approx(-0.25, abs=1e-6)


@pytest.mark.parametrize("coarse, fine, start", [
    ((101,), (1601,), _cosine_start),
    ((33, 33), (65, 65), _cosine_start_2d),
], ids=["1d-101-1601", "2d-33-65"])
def test_newton_iterations_are_mesh_independent(config_p4_q2, coarse, fine, start):
    iterations = []
    for nodes in (coarse, fine):
        grid = ok.make_grid(len(nodes), [(0.0, 1.0)] * len(nodes), nodes)
        rep = ok.minimize(config_p4_q2, start(grid, nodes[0]))
        assert rep.converged
        iterations.append(rep.iterations)
    assert iterations[1] <= 2 * iterations[0]


def test_minimize_custom_family_reaches_power_minimizer(config_p4_q2, grid_1d):
    # phi = 4|t|^2 t is power p = 4 without its closed-form phi', so the
    # Newton model runs on the central-difference fallback
    custom = ok.custom_family(lambda x, t: 4.0 * np.abs(t) ** 2 * t,
                              Phi_fn=lambda x, t: np.abs(t) ** 4,
                              p=ok.ExponentField.constant(4.0))
    config = dataclasses.replace(config_p4_q2, family=custom)
    u0 = _cosine_start(grid_1d, 7)
    rep = ok.minimize(config, u0)
    ref = ok.minimize(config_p4_q2, u0)
    assert rep.converged and ref.converged
    np.testing.assert_allclose(rep.final_u.values, ref.final_u.values, atol=1e-7)
    assert np.max(np.abs(rep.final_u.values - 2.0 ** -0.5)) <= 1e-7
    assert rep.final_energy == pytest.approx(-0.25, abs=1e-12)


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
        SolverOptions(max_iters=0)
    with pytest.raises(InputError):
        SolverOptions(tol_res=0.0)


@pytest.mark.parametrize("key", ["tol_res"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_solver_options_reject_non_finite(key, value):
    # an infinite tolerance reports any iterate as converged, and a NaN one
    # never does
    with pytest.raises(InputError, match="positive and finite"):
        SolverOptions(**{key: value})


@pytest.mark.parametrize("retired", ["armijo_c1", "backtrack", "initial_step"])
def test_line_search_settings_are_not_options(retired):
    # the unit first trial, halving and c1 = 1e-4 are fixed
    with pytest.raises(TypeError):
        SolverOptions(**{retired: 0.5})
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["max_iters", "tol_res"]


def test_minimize_rejects_initial_guess_with_non_finite_energy(config_p4_q2, grid_1d):
    # Phi(1e150) = 1e600 overflows; the error names the initial guess
    with pytest.raises(InputError, match="initial guess"):
        ok.minimize(config_p4_q2, ok.GridFunction.constant(grid_1d, 1e150))


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
    with pytest.raises(TypeError):      # the seeds are fixed: bump, then constant
        ok.sweep_lambda(fam, react, grid_1d, [1.0], u0_strategy="all")


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
