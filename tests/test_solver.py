"""Descent solver, thresholds, probes, and the parameter sweep."""

import dataclasses
import math

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import solver
from orliczkit.errors import DomainError, InputError
from orliczkit.grid import _neumann_modes
from orliczkit.solver import SolverOptions, _default_rho, _fast_diagonalization, _shifted_step


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


def _dense_shifted_step(config, u, mu):
    """d with (H + mu S) d = -r, S = M + D^T M D, from the dense Hessian H of
    the discrete energy, assembled column by column through the gradient
    stencil (1-d); also the decrease its quadratic model predicts and
    c = phi'(|u|) - lam g'(u).  d is None when H + mu S is not positive
    definite."""
    grid = u.grid
    w = ok.quad_weights(grid)
    x = grid.coords_first
    D = np.stack([ok.gradient(ok.GridFunction(grid, e))[0] for e in np.eye(grid.size)],
                 axis=1)
    fam = config.family
    c = fam.dphi(x, u.values) - config.lam * config.reaction.dg(x, u.values)
    H = D.T @ np.diag(w * fam.dphi(x, D @ u.values)) @ D + np.diag(w * c)
    S = np.diag(w) + D.T @ np.diag(w) @ D
    A = H + mu * S
    wr = w * ok.residual(config, u).values
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None, math.nan, c
    d = np.linalg.solve(A, -wr)
    return d, -(wr @ d) - 0.5 * d @ H @ d, c


@pytest.mark.parametrize("rough", [True, False], ids=["rough", "constant"])
def test_first_step_is_shifted_newton_step(config_p4_q2, rough):
    # the single step must be the first accepted trial of the trust region,
    # mu = 1, 4, 16, ... (or -min c), on the dense shifted Newton system,
    # or the doubled step u0 + 2d when its energy is lower still
    grid = ok.make_grid(1, [(0.0, 1.0)], [21])
    opts = SolverOptions(max_iters=1, tol_res=1e-12)
    u0 = (ok.random_function(grid, 4, 0.5, 3) if rough
          else ok.GridFunction.constant(grid, 0.3))
    rep = ok.minimize(config_p4_q2, u0, opts)
    J0 = ok.energy(config_p4_q2, u0)
    mu, trials = 1.0, 0
    while True:
        d, pred, c = _dense_shifted_step(config_p4_q2, u0, mu)
        if d is not None:
            trials += 1
            J1 = ok.energy(config_p4_q2, ok.GridFunction(grid, u0.values + d))
            if J0 - J1 > 0.1 * pred:
                break
        mu = max(4.0 * mu, -np.min(c))
    J2 = ok.energy(config_p4_q2, ok.GridFunction(grid, u0.values + 2.0 * d))
    kept = 2.0 * d if J2 < J1 else d
    assert rep.iterations == 1
    # every trial evaluates J at u0 + d and u0 + 2d as one 2-row stack, and
    # energy_evals counts rows: the start, then two per trial
    assert rep.step_probes == trials and rep.doubled_steps == int(J2 < J1)
    assert rep.energy_evals == 1 + 2 * trials and rep.residual_evals == 2
    assert rep.cg_products == 0         # 1-d steps are banded Cholesky solves
    np.testing.assert_allclose(rep.final_u.values, u0.values + kept, rtol=1e-10, atol=1e-14)
    assert rep.final_energy == ok.energy(config_p4_q2, rep.final_u)
    assert rep.trajectory[0, 0] == J0


def test_step_energies_evaluate_the_rows_alone_when_one_overflows():
    # one 2-row stack gives J(u + d) and J(u + 2d), each row bit for bit its
    # own energy call; here u + d has |grad| = 1e154 (Phi = s^2 = 1e308) and
    # u + 2d has |grad|^2 = 4e308, which overflows, so the stack raises
    # DomainError and the rows are evaluated one at a time
    q2 = ok.power_reaction(ok.ExponentField.constant(2.0))
    config = ok.EnergyConfig(ok.power_family(ok.ExponentField.constant(2.0)), q2, 1.0)
    grid = ok.make_grid(1, [(0.0, 1.0)], [11])
    u = ok.GridFunction.constant(grid, 0.3)
    d = np.zeros(grid.shape)
    d[5] = 2e153                    # D d = +-1e154 at nodes 4 and 6
    with np.errstate(over="ignore", invalid="ignore"):    # as in minimize
        with pytest.raises(DomainError):
            ok.energy(config, ok.GridFunction(grid, u.values + 2.0 * d))
        J1 = ok.energy(config, ok.GridFunction(grid, u.values + d))
        steps = solver._step_energies(config, u, d)
        assert math.isfinite(J1)
        assert [v.tobytes() for v, _ in steps] == [(u.values + d).tobytes(),
                                                   (u.values + 2.0 * d).tobytes()]
        assert steps[0][1] == J1 and steps[1][1] == math.inf
        # finite rows: both equal their single energy calls
        d = ok.random_function(grid, 3, 0.2, 1).values.copy()
        assert [J for _, J in solver._step_energies(config, u, d)] == [
            ok.energy(config, ok.GridFunction(grid, u.values + t * d)) for t in (1.0, 2.0)]
        # a point that is not finite is not evaluated: u + 2d overflows here
        # (the trial's gradient overflows too, so it reads inf), and no point
        # of a non-finite or missing d is
        d[5] = 1e308
        steps = solver._step_energies(config, u, d)
        assert len(steps) == 1 and steps[0][1] == math.inf
        d[5] = math.nan
        assert solver._step_energies(config, u, d) == []
        assert solver._step_energies(config, u, None) == []


def test_minimize_at_max_iters_records_the_returned_iterate(config_p4_q2):
    # the trajectory ends at the state the report returns, also when the
    # solve stops at max_iters (it used to end one iterate earlier)
    grid = ok.make_grid(1, [(0.0, 1.0)], [21])
    rep = ok.minimize(config_p4_q2, ok.random_function(grid, 4, 0.5, 3),
                      SolverOptions(max_iters=3))
    assert not rep.converged and rep.iterations == 3
    assert rep.trajectory.shape == (rep.iterations + 1, 2)
    assert tuple(rep.trajectory[-1]) == (rep.final_energy, rep.residual_sup)
    assert np.all(np.diff(rep.trajectory[:, 0]) < 0.0)


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


_LADDER_STARTS_2D = {
    "1+0.5coscos": lambda grid: ok.GridFunction.from_callable(
        grid, lambda x, y: 1.0 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)),
    "perturbed-cos": lambda grid: ok.GridFunction(
        grid, ok.GridFunction.from_callable(
            grid, lambda x, y: 0.5 + 0.3 * (np.cos(np.pi * x) + np.cos(np.pi * y))).values
        + ok.random_function(grid, 7, 0.1, 0).values),
}
# Newton iterations of the unpreconditioned CG solver on 33^2/65^2/129^2,
# which took 81/199/483 and 175/344/741 CG products
_LADDER_ITERATIONS_2D = {"1+0.5coscos": (16, 18, 22), "perturbed-cos": (20, 26, 33)}


@pytest.mark.parametrize("rung, nodes", enumerate([33, 65, 129]))
@pytest.mark.parametrize("start", list(_LADDER_STARTS_2D))
def test_2d_linear_work_is_mesh_independent(config_p4_q2, start, rung, nodes):
    # the fast-diagonalization preconditioner keeps the CG products per
    # Newton step bounded under refinement (4.0 at most on these rungs)
    grid = ok.make_grid(2, [(0.0, 1.0)] * 2, [nodes] * 2)
    rep = ok.minimize(config_p4_q2, _LADDER_STARTS_2D[start](grid), SolverOptions(max_iters=500))
    assert rep.converged
    assert rep.final_energy == pytest.approx(-0.25, abs=1e-6)
    assert rep.iterations <= _LADDER_ITERATIONS_2D[start][rung]
    assert 0 < rep.cg_products <= 6 * rep.iterations
    assert np.all(np.diff(rep.trajectory[:, 0]) <= 0.0)


def test_2d_solve_with_negative_zeroth_order_term(config_p4_q2):
    # the bench's seed-20071 33^2 start, where c = phi'(|u|) - lam g'(u) < 0
    # on part of the grid for the first trials; without the preconditioner
    # it took 20 iterations and 173 CG products
    grid = ok.make_grid(2, [(0.0, 1.0)] * 2, [33, 33])
    base = ok.GridFunction.from_callable(
        grid, lambda x, y: 0.5 + 0.3 * (np.cos(np.pi * x) + np.cos(np.pi * y)))
    u0 = base + ok.random_function(grid, 3421598712668413635, 0.1, 0)
    rep = ok.minimize(config_p4_q2, u0)
    assert rep.converged
    assert rep.iterations <= 16
    assert np.all(np.diff(rep.trajectory[:, 0]) <= 0.0)


@pytest.mark.parametrize("c", [-1.0, -10.0])
def test_2d_step_rejects_a_shift_that_is_not_positive_definite(c):
    # c + mu <= 0 makes H + mu S singular or negative on the constant mode,
    # and CG meets that curvature at once; the floor on c_bar keeps P
    # invertible where <c>_w + mu = 0
    grid = ok.make_grid(2, [(0.0, 1.0)] * 2, [9, 9])
    ones = np.ones(grid.shape)
    model = (c * ones, ones, ones, np.stack([ones, 0.0 * ones]))
    d, pred, products = _shifted_step(grid, model, ones, 1.0, _neumann_modes(grid))
    assert d is None and math.isnan(pred) and products == 1


def test_fast_diagonalization_inverts_the_dense_metric(rng):
    # P = c_bar W + a_bar (K_x (x) W_y + W_x (x) K_y) in matrix form, with
    # K_k = D_k^T W_k D_k of each axis's stencil; P^{-1} v solves P z = W v
    grid = ok.make_grid(2, [(0.0, 1.0), (-1.0, 1.5)], [9, 9])
    w = ok.quad_weights(grid)
    Wk, Kk = [], []
    for lo_hi, n in zip(grid.extents, grid.nodes):
        g1 = ok.make_grid(1, [lo_hi], [n])
        D = np.stack([ok.gradient(ok.GridFunction(g1, e))[0] for e in np.eye(n)], axis=1)
        Wk.append(np.diag(ok.quad_weights(g1)))
        Kk.append(D.T @ Wk[-1] @ D)
    for c_bar, a_bar in [(1.0, 1.0), (1e-3, 2.5), (3.0, 1e-2)]:
        P = c_bar * np.kron(*Wk) + a_bar * (np.kron(Kk[0], Wk[1]) + np.kron(Wk[0], Kk[1]))
        precondition = _fast_diagonalization(_neumann_modes(grid), w, c_bar, a_bar)
        # the dense solve itself is only good to about eps cond(P)
        tol = 1e-15 * np.linalg.cond(P)
        for _ in range(3):
            v = rng.standard_normal(grid.shape)
            z = np.linalg.solve(P, (w * v).ravel()).reshape(grid.shape)
            np.testing.assert_allclose(precondition(v), z, rtol=0.0, atol=tol * np.max(np.abs(z)))


_LADDER_STARTS = {
    "0.5+0.3cos": lambda config, grid: ok.GridFunction(
        grid, 0.5 + 0.3 * np.cos(np.pi * grid.axis_coords(0))),
    "1+0.5cos": lambda config, grid: ok.GridFunction(
        grid, 1.0 + 0.5 * np.cos(np.pi * grid.axis_coords(0))),
    "cos": lambda config, grid: ok.GridFunction(grid, np.cos(np.pi * grid.axis_coords(0))),
    "bump-p3+x": lambda config, grid: ok.bump_seed(config, grid),
}


@pytest.mark.parametrize("nodes", [101, 401, 1601, 6401])
@pytest.mark.parametrize("start", list(_LADDER_STARTS))
def test_minimize_work_is_mesh_independent(config_p4_q2, start, nodes):
    # p = 4, q = 2, lam = 1 from three starts and the criterion-08 family
    # p = 3 + x from its bump seed: every rung converges in bounded work
    config = config_p4_q2
    if start == "bump-p3+x":
        config = dataclasses.replace(
            config_p4_q2, family=ok.power_family(ok.ExponentField.affine(3.0, 1.0)))
    grid = ok.make_grid(1, [(0.0, 1.0)], [nodes])
    rep = ok.minimize(config, _LADDER_STARTS[start](config, grid), SolverOptions(max_iters=500))
    assert rep.converged
    assert rep.iterations <= 60 and rep.energy_evals <= 70
    assert np.all(np.diff(rep.trajectory[:, 0]) <= 0.0)


@pytest.mark.parametrize("nodes", [101, 401, 1601, 6401])
def test_degenerate_regime_converges_in_few_newton_steps(config_p4_q2, nodes):
    # where the p = 4 gradient term dominates, J is nearly 4-homogeneous
    # along the Newton direction d: u + d covers a third of the way, and the
    # residual fell by (2/3)^3 = 0.30 per step (15/19/24/26 iterations on
    # these rungs) until the probe of u + 2d
    grid = ok.make_grid(1, [(0.0, 1.0)], [nodes])
    u0 = _LADDER_STARTS["0.5+0.3cos"](config_p4_q2, grid)
    rep = ok.minimize(config_p4_q2, u0, SolverOptions(max_iters=500))
    assert rep.converged
    assert rep.iterations <= 10
    assert np.all(np.diff(rep.trajectory[:, 0]) <= 0.0)


_BENCH_FAMILIES = {
    "power-p4": ok.power_family(ok.ExponentField.constant(4.0)),
    "log-quotient-p4": ok.log_quotient_family(ok.ExponentField.constant(4.0)),
    "log-weight-p3": ok.log_weight_family(ok.ExponentField.constant(3.0), 1.0),
}
# noise seeds of the benchmark's 101-node solve ops for workload seeds 1
# and 20071, one per family in the order above
_BENCH_NOISE_SEEDS = {1: (2360360630558964031, 4383240139369130521, 664818870401041971),
                      20071: (4067044889057621627, 4017691335911052356, 159948792917608203)}


def _bench_start(grid, noise_seed):
    x = grid.axis_coords(0)
    noise = ok.random_function(grid, noise_seed, 0.1, 0).values
    return ok.GridFunction(grid, 0.5 + 0.3 * np.cos(np.pi * x) + noise)


@pytest.mark.parametrize("seed", list(_BENCH_NOISE_SEEDS))
@pytest.mark.parametrize("family", list(_BENCH_FAMILIES))
def test_bench_random_starts_converge_in_few_newton_steps(config_p4_q2, family, seed):
    # the benchmark's 101-node random starts took 18-20 iterations before
    # the probe of the doubled step
    grid = ok.make_grid(1, [(0.0, 1.0)], [101])
    config = dataclasses.replace(config_p4_q2, family=_BENCH_FAMILIES[family])
    noise_seed = _BENCH_NOISE_SEEDS[seed][list(_BENCH_FAMILIES).index(family)]
    rep = ok.minimize(config, _bench_start(grid, noise_seed))
    assert rep.converged
    assert rep.iterations <= 12
    assert np.all(np.diff(rep.trajectory[:, 0]) <= 0.0)


def test_accepted_steps_probe_the_doubled_step(config_p4_q2):
    # one probe row of u + 2d per trial, counted in energy_evals too; on this
    # start no trial is rejected and some probes are kept
    grid = ok.make_grid(1, [(0.0, 1.0)], [101])
    rep = ok.minimize(config_p4_q2, _bench_start(grid, _BENCH_NOISE_SEEDS[1][0]))
    assert rep.converged
    assert 1 <= rep.doubled_steps <= rep.step_probes <= rep.iterations
    assert rep.energy_evals == 1 + 2 * rep.step_probes


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


def test_small_lambda_solves_spend_at_most_two_energy_calls_per_step(grid_1d):
    # criterion 08's three parameters from the bump seed: rejected trials are
    # rare, so a step costs at most two trial energy rows on average, besides
    # the probe row of the doubled step that each trial evaluates with it
    fam = ok.power_family(ok.ExponentField.affine(3.0, 1.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    c1 = ok.estimate_embedding_constant(fam, react.q, grid_1d, samples=50, seed=0)
    lam_star = ok.lambda_star_formula(_default_rho(c1), react.C2, c1, fam.phi_sup,
                                      react.q.p_minus)
    for lam in (lam_star, lam_star / 2.0, lam_star / 10.0):
        config = ok.EnergyConfig(fam, react, lam)
        rep = ok.minimize(config, ok.bump_seed(config, grid_1d))
        assert rep.converged
        assert rep.energy_evals - rep.step_probes <= 2 * rep.iterations


@pytest.mark.parametrize("lam", [1e300, 1e308])
def test_huge_lambda_ends_at_once_as_trust_region_failure(config_p4_q2, lam):
    # c = phi'(u) - lam g'(u) is -2e300, so the first shift exceeds the cap,
    # or lam g'(u) overflows and there is no finite model: no trial energy
    # is evaluated
    grid = ok.make_grid(1, [(0.0, 1.0)], [11])
    rep = ok.minimize(dataclasses.replace(config_p4_q2, lam=lam),
                      ok.GridFunction.constant(grid, 0.3))
    assert not rep.converged
    assert rep.energy_evals <= 2
    assert "trust-region" in rep.message


def test_solver_options_validation():
    with pytest.raises(InputError):
        SolverOptions(max_iters=0)
    with pytest.raises(InputError):
        SolverOptions(tol_res=0.0)
    # these constructed, then minimize died in range() or ran one iteration
    for max_iters in (2.5, math.inf, True):
        with pytest.raises(InputError, match="max_iters"):
            SolverOptions(max_iters=max_iters)
    with pytest.raises(InputError, match="tol_res"):
        SolverOptions(tol_res="x")


@pytest.mark.parametrize("key", ["tol_res"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_solver_options_reject_non_finite(key, value):
    # an infinite tolerance reports any iterate as converged, and a NaN one
    # never does
    with pytest.raises(InputError, match="positive and finite"):
        SolverOptions(**{key: value})


@pytest.mark.parametrize("retired", ["armijo_c1", "backtrack", "initial_step"])
def test_line_search_settings_are_not_options(retired):
    # the retired line-search settings stay retired; the trust-region rule is fixed
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


def test_lambda_star_formula_rejects_nan_constants():
    # a NaN C2 or c1 fails no comparison and would come back as a NaN threshold
    with pytest.raises(InputError, match="C2 and c1"):
        ok.lambda_star_formula(0.5, math.nan, 1.0, 3.0, 2.0)
    with pytest.raises(InputError, match="C2 and c1"):
        ok.lambda_star_formula(0.5, 1.0, math.nan, 3.0, 2.0)


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


@pytest.mark.parametrize("kwargs", [
    {"samples": 2.5}, {"samples": math.nan}, {"samples": 0}, {"seed": 1.5}, {"seed": -1},
], ids=["samples-2.5", "samples-nan", "samples-0", "seed-1.5", "seed-negative"])
def test_embedding_estimate_rejects_bad_samples_and_seed(family_power_affine, grid_1d, kwargs):
    # each raised TypeError or numpy's ValueError, except samples = 0
    name = next(iter(kwargs))
    with pytest.raises(InputError, match=name):
        ok.estimate_embedding_constant(family_power_affine, ok.ExponentField.constant(2.0),
                                       grid_1d, **{"samples": 10, "seed": 0, **kwargs})


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


def test_small_t_probe_rejects_empty_t_list(config_p4_q2, grid_1d):
    with pytest.raises(InputError, match="t_list"):
        ok.small_t_probe(config_p4_q2, ok.bump_function(grid_1d), [])


def _directions(grid):
    return [ok.GridFunction.constant(grid, 1.0), ok.bump_function(grid),
            ok.random_function(grid, 17, 1.0, 3)]


def test_coercivity_probe_passes(config_p4_q2, grid_1d):
    rep = ok.coercivity_probe(config_p4_q2, _directions(grid_1d))
    assert rep.passed


def test_coercivity_probe_rejects_no_directions(config_p4_q2):
    # an empty probe would certify coercivity along no ray at all
    with pytest.raises(InputError, match="direction"):
        ok.coercivity_probe(config_p4_q2, [])


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


def test_sweep_rejects_bad_lambdas(grid_1d, monkeypatch):
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))

    def no_solve(*args, **kwargs):
        raise AssertionError("a bad parameter list must be rejected before any solve")

    monkeypatch.setattr(solver, "minimize", no_solve)
    for lams, message in (([0.0, 1.0], "positive"), ([1.0, np.nan], "finite"),
                          ([1.0, np.inf], "finite")):
        with pytest.raises(InputError, match=f"lam must be {message}"):
            ok.sweep_lambda(fam, react, grid_1d, lams)
    with pytest.raises(InputError):
        ok.sweep_lambda(fam, react, grid_1d, [2.0, 1.0])
    with pytest.raises(InputError):
        ok.sweep_lambda(fam, react, grid_1d, [])
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
