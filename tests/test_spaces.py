"""Modular/norm computations against independent oracles and the
norm-modular inequality family."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate as si
import scipy.optimize

import orliczkit as ok
from orliczkit import grid as grid_module, spaces
from orliczkit.spaces import (conjugate_norm, luxemburg_norm, modular,
                              sobolev_modular, sobolev_norm, sobolev_norms)


def _randoms(grid, n, seed0=100, amplitudes=(0.1, 1.0, 10.0)):
    return [ok.random_function(grid, seed0 + k, amplitudes[k % 3], k % 4)
            for k in range(n)]


def test_modular_zero(family_power_affine, grid_1d):
    assert modular(family_power_affine, ok.GridFunction.constant(grid_1d, 0.0)) == 0.0


def test_modular_constant_one_variable_exponent(family_power_affine, grid_1d):
    # 1^{p(x)} = 1 on a measure-1 domain
    u = ok.GridFunction.constant(grid_1d, 1.0)
    assert modular(family_power_affine, u) == pytest.approx(1.0, rel=1e-13)


def test_modular_constant_power(family_power_p2, grid_1d):
    u = ok.GridFunction.constant(grid_1d, 2.0)
    assert modular(family_power_p2, u) == pytest.approx(4.0, rel=1e-13)


def test_luxemburg_constant_cases(family_power_p2):
    g1 = ok.make_grid(1, [(0.0, 1.0)], [101])
    assert luxemburg_norm(family_power_p2, ok.GridFunction.constant(g1, 2.0)) \
        == pytest.approx(2.0, abs=1e-8)
    g4 = ok.make_grid(1, [(0.0, 4.0)], [101])
    assert luxemburg_norm(family_power_p2, ok.GridFunction.constant(g4, 1.0)) \
        == pytest.approx(2.0, abs=1e-8)


def test_luxemburg_variable_exponent_oracle(family_power_affine, grid_1d):
    # independent oracle: bisection + adaptive quadrature on the continuum
    # modular of the constant field u = 2 with p(x) = 2 + x
    def cont_modular(mu):
        val, _ = si.quad(lambda x: (2.0 / mu) ** (2.0 + x), 0.0, 1.0, epsabs=1e-13)
        return val - 1.0

    oracle = scipy.optimize.brentq(cont_modular, 1e-6, 1e6, xtol=1e-12)
    u = ok.GridFunction.constant(grid_1d, 2.0)
    assert luxemburg_norm(family_power_affine, u) == pytest.approx(oracle, abs=1e-6)


def test_luxemburg_zero_field(all_families, grid_1d):
    z = ok.GridFunction.constant(grid_1d, 0.0)
    for fam in all_families:
        assert luxemburg_norm(fam, z) == 0.0


def test_unit_ball_identity(all_families, grid_1d):
    for fam in all_families:
        for u in _randoms(grid_1d, 6):
            N = luxemburg_norm(fam, u)
            assert modular(fam, (1.0 / N) * u) == pytest.approx(1.0, abs=1e-7)


def test_absolute_homogeneity(all_families, grid_1d):
    for fam in all_families:
        for k, u in enumerate(_randoms(grid_1d, 4)):
            c = (-3.7, 0.2, 11.0, -0.01)[k]
            assert luxemburg_norm(fam, c * u) == pytest.approx(
                abs(c) * luxemburg_norm(fam, u), rel=1e-7)


def test_triangle_inequality(all_families, grid_1d):
    for fam in all_families:
        us = _randoms(grid_1d, 4)
        for u, v in zip(us[::2], us[1::2]):
            assert luxemburg_norm(fam, u + v) <= \
                luxemburg_norm(fam, u) + luxemburg_norm(fam, v) + 1e-7


def test_norm_modular_relations_both_branches(all_families, grid_1d, grid_2d):
    for fam in all_families:
        for grid in (grid_1d, grid_2d):
            for u in _randoms(grid, 9):
                N = luxemburg_norm(fam, u)
                rho = modular(fam, u)
                if N > 1.0 + 1e-12:
                    assert rho >= N ** fam.phi0 - 1e-8
                    assert rho <= N ** fam.phi_sup + 1e-8
                elif N < 1.0 - 1e-12:
                    assert rho >= N ** fam.phi_sup - 1e-8
                    assert rho <= N ** fam.phi0 + 1e-8


def test_sobolev_modular_cases(family_power_p2, grid_1d):
    z = ok.GridFunction.constant(grid_1d, 0.0)
    assert sobolev_modular(family_power_p2, z) == 0.0
    c = ok.GridFunction.constant(grid_1d, 1.7)
    assert sobolev_modular(family_power_p2, c) == \
        pytest.approx(modular(family_power_p2, c), rel=0, abs=0)
    u = ok.GridFunction.from_callable(grid_1d, lambda x: x)
    h = grid_1d.spacing[0]
    # 1/3 from the mass term, 1 from the gradient, short of one boundary cell
    assert abs(sobolev_modular(family_power_p2, u) - (1.0 / 3.0 + 1.0)) <= 2.0 * h


def test_sobolev_norms_trivial(family_power_p2, grid_1d, all_families):
    z = ok.GridFunction.constant(grid_1d, 0.0)
    for fam in all_families:
        assert sobolev_norms(fam, z) == (0.0, 0.0, 0.0)
    u = ok.GridFunction.constant(grid_1d, 2.0)
    n1, n2, n = sobolev_norms(family_power_p2, u)
    assert n1 == pytest.approx(2.0, abs=1e-7)
    assert n2 == pytest.approx(2.0, abs=1e-7)
    assert n == pytest.approx(2.0, abs=1e-7)


def test_norm_equivalences_factor_two(all_families, grid_1d, grid_2d):
    for fam in all_families:
        for grid in (grid_1d, grid_2d):
            for u in _randoms(grid, 6):
                n1, n2, n = sobolev_norms(fam, u)
                assert 2.0 * n2 >= n1 - 1e-8
                assert n1 >= n2 - 1e-8
                assert 2.0 * n >= n1 - 1e-8
                assert 2.0 * n2 >= n - 1e-8


def test_sobolev_modular_lower_bounds(all_families, grid_1d):
    for fam in all_families:
        for u in _randoms(grid_1d, 9):
            n = sobolev_norm(fam, u)
            mod = sobolev_modular(fam, u)
            if n > 1.0 + 1e-12:
                assert mod >= n ** fam.phi0 - 1e-8
            elif n < 1.0 - 1e-12:
                assert mod >= n ** fam.phi_sup - 1e-8


def test_modular_parallelogram(all_families, grid_1d):
    for fam in all_families:
        us = _randoms(grid_1d, 6)
        for u, v in zip(us[::2], us[1::2]):
            lhs = 0.5 * (modular(fam, u) + modular(fam, v))
            rhs = modular(fam, 0.5 * (u + v)) + modular(fam, 0.5 * (u - v))
            assert lhs >= rhs - 1e-8


def test_holder_inequality(all_families, grid_1d):
    for fam in all_families:
        us = _randoms(grid_1d, 6)
        for u, v in zip(us[::2], us[1::2]):
            pairing = abs(ok.integrate(ok.GridFunction(grid_1d, u.values * v.values)))
            assert pairing <= 2.0 * luxemburg_norm(fam, u) * conjugate_norm(fam, v) + 1e-8


def test_conjugate_norm_power_closed_form(family_power_p2, grid_1d):
    # conjugate of t^2 is s^2/4, so the conjugate norm of a constant c is c/2
    u = ok.GridFunction.constant(grid_1d, 2.0)
    assert conjugate_norm(family_power_p2, u) == pytest.approx(1.0, abs=1e-7)


def test_modular_norm_convergence_linked(all_families, grid_1d):
    # along u_n = u + 2^{-n} v both the norm and the modular of u_n - u
    # decrease geometrically to zero
    for fam in all_families:
        v = ok.random_function(grid_1d, 77, 1.0, 2)
        rhos = [modular(fam, (2.0 ** -k) * v) for k in range(13)]
        norms = [luxemburg_norm(fam, (2.0 ** -k) * v) for k in range(13)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert rhos[-1] <= 2.0 ** (-12 * fam.phi0) * rhos[0] * (1.0 + 1e-9)
        assert norms[-1] == pytest.approx(2.0 ** -12 * norms[0], rel=1e-7)


def _recorded_solves(monkeypatch):
    """A list that receives (rho, scales) for every unit-modular solve made
    after the call: its modular-of-scale map and the scales it was
    evaluated at."""
    solves = []
    solve = spaces.solve_unit_modular

    def recording(rho, *args, **kwargs):
        scales = []
        solves.append((rho, scales))

        def counted(mu):
            scales.append(mu)
            return rho(mu)
        return solve(counted, *args, **kwargs)

    monkeypatch.setattr(spaces, "solve_unit_modular", recording)
    return solves


@pytest.mark.parametrize("amplitude", [1e-3, 1.0, 1e3])
def test_luxemburg_solve_takes_few_modular_evaluations(
        monkeypatch, family_power_p4, family_logquot_affine, family_logweight,
        grid_2d, amplitude):
    # Halley on the exact log-slope and log-curvature: exact in one step for
    # a constant-p power law, two steps for the log families
    solves = _recorded_solves(monkeypatch)
    u = ok.random_function(grid_2d, 8, amplitude, 2)
    for fam, cap in ((family_power_p4, 2), (family_logquot_affine, 3),
                     (family_logweight, 3)):
        solves.clear()
        N = luxemburg_norm(fam, u)
        assert len(solves) == 1 and len(solves[0][1]) <= cap
        assert modular(fam, (1.0 / N) * u) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("amplitude", [0.1, 1.0, 10.0])
def test_every_norm_takes_at_most_three_modular_evaluations(monkeypatch, all_families,
                                                            grid_2d, amplitude):
    # the families, norms and amplitudes of the norms-2d benchmark workload
    solves = _recorded_solves(monkeypatch)
    u = ok.random_function(grid_2d, 21, amplitude, 2)
    for fam in all_families:
        for norm, mod in ((luxemburg_norm, modular), (conjugate_norm, ok.conjugate_modular),
                          (sobolev_norm, sobolev_modular)):
            solves.clear()
            N = norm(fam, u)
            assert len(solves) == 1 and len(solves[0][1]) <= 3, (fam.label, norm.__name__)
            assert mod(fam, (1.0 / N) * u) == pytest.approx(1.0, abs=1e-7)


def _cubic_plus_square():
    # phi = 3t|t| + t: elasticity (6t + 1)/(3t + 1) runs from 1 to 2
    return ok.custom_family(phi_fn=lambda x, t: 3.0 * t * np.abs(t) + t,
                            Phi_fn=lambda x, t: np.abs(t) ** 3 + 0.5 * t * t,
                            phi0=2.0, phi_sup=3.0)


def test_custom_elasticity_takes_phi_from_the_modular(grid_1d):
    # a modular evaluation of a custom Luxemburg norm calls phi_fn once for
    # phi and twice for the central difference of its elasticity, which
    # takes phi from the first call: 3 evaluations, 9 calls (12 when the
    # elasticity evaluated phi again)
    calls = []

    def phi_fn(x, t):
        calls.append(np.size(t))
        return 3.0 * t * np.abs(t) + t

    fam = ok.custom_family(phi_fn=phi_fn, Phi_fn=lambda x, t: np.abs(t) ** 3 + 0.5 * t * t,
                           phi0=2.0, phi_sup=3.0)
    u = ok.random_function(grid_1d, 7, 1.0, 2)
    calls.clear()
    N = luxemburg_norm(fam, u)
    assert len(calls) == 9
    assert N == luxemburg_norm(_cubic_plus_square(), u)


@pytest.mark.parametrize("norm", [luxemburg_norm, sobolev_norm, conjugate_norm])
def test_modular_curvature_matches_slope_difference(monkeypatch, all_families, grid_2d,
                                                    norm):
    # F'' returned by rho against a central difference of its F' in
    # m = log mu, on a field that vanishes at every fifth node (t = 0 for
    # Phi, s = 0 for the conjugate); a wrong psi' still converges under the
    # safeguards, so only this sees it
    solves = _recorded_solves(monkeypatch)
    u = ok.random_function(grid_2d, 31, 1.0, 2)
    values = u.values.copy()
    values.ravel()[::5] = 0.0
    u = ok.GridFunction(grid_2d, values)
    h = 1e-4
    for fam in all_families + [_cubic_plus_square()]:
        solves.clear()
        N = norm(fam, u)
        rho = solves[0][0]
        # the solve evaluates rho under this errstate: the elasticity may be
        # 0/0 at t = 0, where it is not used
        with np.errstate(divide="ignore", invalid="ignore"):
            for mu in N * np.array([0.25, 1.0, 4.0]):
                _, slope, curvature = rho(np.array([mu]))
                up, down = (rho(np.array([mu * math.exp(d)]))[1] for d in (h, -h))
                fd = (up - down) / (2.0 * h)
                assert abs(curvature[0] - fd[0]) <= 1e-8 * (1.0 + abs(slope[0])), (
                    fam.label, mu / N, curvature[0], fd[0])


@pytest.mark.parametrize("norm, mod", [(luxemburg_norm, modular),
                                       (conjugate_norm, ok.conjugate_modular),
                                       (sobolev_norm, sobolev_modular)])
def test_modular_equals_its_norm_rho_at_scale_one(monkeypatch, all_families, grid_1d,
                                                  grid_2d, norm, mod):
    # each modular is the same code as the R of its norm's unit-modular
    # solve (the same first coordinate, Young function and sum order), so
    # R(1) is the modular bit for bit
    solves = _recorded_solves(monkeypatch)
    for g in (grid_1d, grid_2d):
        u = ok.random_function(g, 12, 1.0, 2)
        for fam in all_families:
            solves.clear()
            norm(fam, u)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                R = solves[0][0](np.array([1.0]))[0]
            assert R == mod(fam, u), (fam.label, g.dim)


def test_stack_norms_equal_single_norms(monkeypatch, family_logquot_affine, grid_1d,
                                        grid_2d):
    # one vector solve for a stack, each row with its own bracket, equals
    # the norm of each field alone bit for bit, also when the stack is split
    # into chunks of one or two rows; a zero field has norm 0
    for g in (grid_1d, grid_2d):
        fields = [ok.random_function(g, 5, 1e-3, 0), ok.GridFunction.constant(g, 0.0),
                  ok.random_function(g, 6, 1e3, 3), ok.random_function(g, 7, 1.0, 1)]
        U = np.stack([u.values for u in fields])
        for stack_fn, single in ((spaces._stack_luxemburg_norm, luxemburg_norm),
                                 (spaces._stack_conjugate_norm, conjugate_norm),
                                 (spaces._stack_sobolev_norm, sobolev_norm),
                                 (spaces._stack_modular, modular),
                                 (spaces._stack_conjugate_modular, ok.conjugate_modular)):
            expected = [single(family_logquot_affine, u) for u in fields]
            assert expected[1] == 0.0
            for budget in (grid_module._NODE_BUDGET, g.size, 2 * g.size):
                monkeypatch.setattr(grid_module, "_NODE_BUDGET", budget)
                assert stack_fn(family_logquot_affine, g, U).tolist() == expected
            monkeypatch.undo()


def test_stack_sobolev_norm_holds_one_chunk_of_magnitudes(family_logquot_affine):
    # |U| and |grad U| are formed per chunk of rows: a 65-row stack on 129^2
    # (8.7 MB) is solved without a temporary the size of the stack
    g = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [129, 129])
    U = np.stack([ok.random_function(g, k, 1.0, 3).values for k in range(65)])
    spaces._stack_sobolev_norm(family_logquot_affine, g, U[:2])
    tracemalloc.start()
    try:
        spaces._stack_sobolev_norm(family_logquot_affine, g, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < U.nbytes / 2, peak


def test_solve_unit_modular_rows_are_independent():
    # R(mu) = (c/mu)^p per row, overflowing to inf below c/1e3 and 0 above
    # 1e3 c: each row escapes the bad scales by its own x64 steps, converges
    # to c, and gives the same scale alone as inside the batch; log R is
    # linear in log mu, so its curvature is 0
    c = np.array([1e-6, 0.3, 2.0, 5e4])
    p = np.array([2.0, 3.5, 4.0, 2.5])
    mu0 = np.array([1e-12, 1e9, 2.0, 1.0])

    def make_rho(rows):
        def rho(mu):
            r = (c[rows] / mu) ** p[rows]
            r = np.where(mu < c[rows] / 1e3, np.inf, np.where(mu > 1e3 * c[rows], 0.0, r))
            return r, np.full(mu.shape, -p[rows]), np.zeros(mu.shape)
        return rho

    together = spaces.solve_unit_modular(make_rho(slice(None)), 2.0, 4.0, mu0=mu0)
    assert together == pytest.approx(c, rel=1e-8)
    for k in range(c.size):
        alone = spaces.solve_unit_modular(make_rho(slice(k, k + 1)), 2.0, 4.0, mu0=mu0[k])
        assert alone.tolist() == [together[k]]
