"""Independent high-precision oracles for the trickiest numerical paths.

These cross-check the production routes with deliberately different methods:
the Luxemburg solve against arbitrary-precision bisection on a literal
transcription of the discrete modular, the stationarity-based conjugate
against a brute-force grid maximization of the defining supremum, and the
panel-quadrature Phi of the log families against mpmath quadrature of phi.
"""

import mpmath
import numpy as np
import pytest

import orliczkit as ok


def test_luxemburg_nonconstant_field_against_mpmath():
    # tiny grid so the high-precision transcription stays cheap
    grid = ok.make_grid(1, [(0.0, 1.0)], [7])
    fam = ok.power_family(ok.ExponentField.affine(2.0, 1.0))
    values = np.array([0.3, -1.7, 2.2, 0.0, -0.4, 1.1, 3.0])
    u = ok.GridFunction(grid, values)

    mpmath.mp.dps = 50
    xs = [mpmath.mpf(i) / 6 for i in range(7)]
    h = mpmath.mpf(1) / 6
    w = [h / 2] + [h] * 5 + [h / 2]

    def rho(mu):
        total = mpmath.mpf(0)
        for wi, xi, vi in zip(w, xs, values):
            total += wi * (abs(mpmath.mpf(vi)) / mu) ** (2 + xi)
        return total

    lo, hi = mpmath.mpf("1e-6"), mpmath.mpf("1e6")
    for _ in range(200):
        mid = (lo + hi) / 2
        if rho(mid) > 1:
            lo = mid
        else:
            hi = mid
    oracle = float((lo + hi) / 2)
    assert ok.luxemburg_norm(fam, u) == pytest.approx(oracle, abs=2e-8)


def test_sobolev_norm_nonconstant_against_mpmath():
    grid = ok.make_grid(1, [(0.0, 1.0)], [5])
    fam = ok.power_family(ok.ExponentField.constant(2.0))
    values = np.array([1.0, 0.5, -0.25, 2.0, 1.5])
    u = ok.GridFunction(grid, values)

    mpmath.mp.dps = 50
    h = mpmath.mpf(1) / 4
    vals = [mpmath.mpf(v) for v in values]
    # the same reflected-ghost central differences as the production stencil
    grads = [mpmath.mpf(0)]
    for i in (1, 2, 3):
        grads.append((vals[i + 1] - vals[i - 1]) / (2 * h))
    grads.append(mpmath.mpf(0))
    w = [h / 2, h, h, h, h / 2]

    def rho(mu):
        return sum(wi * ((abs(v) / mu) ** 2 + (abs(g) / mu) ** 2)
                   for wi, v, g in zip(w, vals, grads))

    lo, hi = mpmath.mpf("1e-6"), mpmath.mpf("1e6")
    for _ in range(200):
        mid = (lo + hi) / 2
        if rho(mid) > 1:
            lo = mid
        else:
            hi = mid
    oracle = float((lo + hi) / 2)
    assert ok.sobolev_norm(fam, u) == pytest.approx(oracle, abs=2e-8)


@pytest.mark.parametrize("s", [0.01, 0.6, 3.0, 40.0])
def test_conjugate_matches_grid_search_sup(all_families, s):
    # brute-force the defining supremum of s*t - Phi(x,t) over a dense grid,
    # independently of the stationarity route used in production
    for fam in all_families:
        for x in (0.0, 0.8):
            t = np.geomspace(1e-8, 1e6, 40_000)
            sup = float(np.max(s * t - np.asarray(fam.Phi(np.full_like(t, x), t))))
            sup = max(sup, 0.0)
            val = float(fam.conjugate(x, s))
            assert val == pytest.approx(sup, rel=5e-7, abs=1e-10)
            assert val >= sup - 1e-12   # grid search can only undershoot


def test_phi_inv_extreme_arguments(family_logquot_p3, family_logweight_p2):
    for fam in (family_logquot_p3, family_logweight_p2):
        for s in (1e-250, 1e-12, 1e12, 1e30, 1e250):
            t = float(fam.phi_inv(0.0, s))
            assert np.isfinite(t) and t > 0
            assert float(fam.phi(0.0, t)) == pytest.approx(s, rel=1e-9, abs=0.0)


def _mp_phi_inv(fam, x, s):
    # bisection in log t on a literal transcription of the two log kernels
    p = mpmath.mpf(float(fam.p(x)))
    if fam.family_id == "log-quotient":
        def log_phi(z):
            return mpmath.log(p) + (p - 1) * z - mpmath.log(mpmath.log1p(mpmath.exp(z)))
    else:
        kappa = 1 + mpmath.mpf(fam.alpha)

        def log_phi(z):
            return mpmath.log(p) + (p - 1) * z + mpmath.log(mpmath.log(kappa + mpmath.exp(z)))
    target = mpmath.log(mpmath.mpf(s))
    lo, hi = mpmath.mpf(-800), mpmath.mpf(800)
    for _ in range(120):
        mid = (lo + hi) / 2
        if log_phi(mid) < target:
            lo = mid
        else:
            hi = mid
    return mpmath.exp((lo + hi) / 2)


def test_phi_inv_against_mpmath(family_logquot_affine, family_logweight):
    mpmath.mp.dps = 40
    s = 10.0 ** np.arange(-250, 251, 50)
    for fam in (family_logquot_affine, family_logweight):
        for x in (0.0, 0.37, 1.0):
            t = np.asarray(fam.phi_inv(np.full_like(s, x), s))
            for si, ti in zip(s, t):
                oracle = _mp_phi_inv(fam, x, si)
                assert abs((ti - oracle) / oracle) <= 1e-13


def _mp_Phi(fam, x, t):
    # integral of a literal transcription of phi in z = log s; the integrand
    # is scaled by its value at the top end, as mpmath's tolerance is absolute
    p = mpmath.mpf(float(fam.p(x)))
    if fam.family_id == "log-quotient":
        def g(z):
            return p * mpmath.exp(p * z) / mpmath.log1p(mpmath.exp(z))
    else:
        kappa = 1 + mpmath.mpf(fam.alpha)

        def g(z):
            return p * mpmath.log(kappa + mpmath.exp(z)) * mpmath.exp(p * z)
    top = mpmath.log(mpmath.mpf(t))
    scale = g(top)
    return scale * mpmath.quad(lambda u: g(top + u) / scale,
                               [mpmath.ninf, -40, -10, -3, -1, 0])


def test_log_Phi_against_mpmath(family_logquot_affine, family_logweight):
    ts = np.concatenate([np.geomspace(1e-6, 1e6, 13), [1e-12, 1e12, 1e60]])
    with mpmath.workdps(20):
        for fam in (family_logquot_affine, family_logweight):
            # x = 0.1023 (p = 3.1023 for log-quotient) lies between the
            # exponents where the head rule is most and least accurate
            for x in (0.0, 0.1023, 0.37, 1.0):
                Phi = np.asarray(fam.Phi(np.full_like(ts, x), ts))
                for t, value in zip(ts, Phi):
                    oracle = _mp_Phi(fam, x, t)
                    assert abs((value - oracle) / oracle) <= 1e-13


@pytest.mark.parametrize("p", [5.0, 6.0, 7.0, 8.0])
def test_log_Phi_at_large_constant_p_against_mpmath(p):
    # at the head's cut, where the head covers all of [0, cut], and a decade
    # either side, for exponents beyond the p = 3 + x of the other oracles
    families = (ok.log_quotient_family(ok.ExponentField.constant(p)),
                ok.log_weight_family(ok.ExponentField.constant(p), 1.0))
    with mpmath.workdps(20):
        for fam, cut in zip(families, (np.e - 1.0, 2.0)):
            ts = cut * np.array([0.1, 1.0, 10.0])
            Phi = np.asarray(fam.Phi(np.full_like(ts, 0.5), ts))
            for t, value in zip(ts, Phi):
                oracle = _mp_Phi(fam, 0.5, t)
                assert abs((value - oracle) / oracle) <= 1e-13, (fam.label, t)


def test_log_quotient_Phi_of_a_wide_exponent_range_against_mpmath():
    # p = 3 + 17x: at both ends of the range (p = 3 and 20) the head series
    # has the 60 terms that p+ = 20 needs
    fam = ok.log_quotient_family(ok.ExponentField.affine(3.0, 17.0))
    ts = np.array([1e-6, 1e-2, 0.5, np.e - 1.0, 10.0, 1e3, 1e12])
    with mpmath.workdps(20):
        for x in (0.0, 1.0):
            Phi = np.asarray(fam.Phi(np.full_like(ts, x), ts))
            for t, value in zip(ts, Phi):
                oracle = _mp_Phi(fam, x, t)
                assert abs((value - oracle) / oracle) <= 1e-13, (x, t)


@pytest.mark.parametrize("p", [8.0, 12.0, 16.0, 20.0])
def test_log_weight_Phi_tail_at_large_p_against_mpmath(p):
    # the tail's integrand grows like e^{(p+1) w} in w = log s, so its panel
    # count grows with p (with log(t/kappa)/6 panels Phi was off by 1.7e-11
    # at p = 8 and by 1.1e-6 at p = 20)
    with mpmath.workdps(20):
        for alpha in (0.5, 2.0):
            fam = ok.log_weight_family(ok.ExponentField.constant(p), alpha)
            ts = np.append((1.0 + alpha) * np.array([1.5, 3.0, 30.0, 1e3, 1e6]), 1e12)
            Phi = np.asarray(fam.Phi(np.full_like(ts, 0.5), ts))
            for t, value in zip(ts, Phi):
                oracle = _mp_Phi(fam, 0.5, t)
                assert abs((value - oracle) / oracle) <= 1e-13, (alpha, t)


def test_log_weight_Phi_past_the_tail_overflow_against_mpmath(family_logweight):
    # s^{p+1} overflows inside the correction integral at these t, while
    # Phi = log(2 + t) t^p - int_0^t s^p/(2 + s) ds is finite
    with mpmath.workdps(20):
        for x, t in ((1.0, 1e100), (0.37, 1e120), (0.0, 1e150)):
            value = float(family_logweight.Phi(x, t))
            oracle = _mp_Phi(family_logweight, x, t)
            assert abs((value - oracle) / oracle) <= 1e-13, (x, t)


def test_custom_family_phi_inv_takes_newton_steps():
    # the central-difference elasticity gives Newton steps in log t, which
    # end at rounding from either end of the representable range
    fam = ok.custom_family(lambda x, t: 3.0 * np.abs(t) * t, lambda x, t: np.abs(t) ** 3)
    s = np.array([0.0, 1e-200, 3e-4, 12.0, 1e200])
    t = np.asarray(fam.phi_inv(np.zeros_like(s), s))
    assert t[0] == 0.0
    np.testing.assert_allclose(t[1:], np.sqrt(s[1:] / 3.0), rtol=1e-14)


def test_minimize_constant_recovery_2d():
    grid = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [17, 17])
    config = ok.EnergyConfig(
        ok.power_family(ok.ExponentField.constant(4.0)),
        ok.power_reaction(ok.ExponentField.constant(2.0)), 1.0)
    rep = ok.minimize(config, ok.GridFunction.constant(grid, 0.3))
    assert rep.converged
    assert np.max(np.abs(rep.final_u.values - 2.0 ** -0.5)) <= 1e-4
    assert rep.final_energy == pytest.approx(-0.25, abs=1e-4)


def test_luxemburg_extreme_amplitudes(all_families, grid_1d):
    # positive homogeneity across twelve orders of magnitude
    base = ok.random_function(grid_1d, 55, 1.0, 2)
    for fam in all_families:
        n1 = ok.luxemburg_norm(fam, base)
        assert ok.luxemburg_norm(fam, 1e6 * base) == pytest.approx(1e6 * n1, rel=1e-7)
        assert ok.luxemburg_norm(fam, 1e-6 * base) == pytest.approx(1e-6 * n1, rel=1e-7)
