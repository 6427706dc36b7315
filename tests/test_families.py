"""Pointwise family operations against closed-form and quadrature oracles."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate as si

import orliczkit as ok
from orliczkit.errors import DomainError, InputError, NumericsError
from orliczkit import families
from orliczkit.families import check_structure, exponent_bounds

# frozen oracle values
PHI_II_P3_AT_1 = 4.328085122666891          # 3 / log(2)
G3_AT_1 = 1.7456241416655579                # 1 + sin(sin(1)), used in test_energy
LOGWEIGHT_PHI_SUP = 3.369326799013649       # p = 2 + x, alpha = 1 (the CLI default)


def _counting_phi(monkeypatch, fam):
    """fam rebuilt on a kernel whose phi records the size of every evaluation
    made after the rebuild."""
    sizes = []
    kernel = families._KERNELS[fam.family_id]

    def phi(family, x1, t):
        sizes.append(np.size(t))
        return kernel.phi(family, x1, t)

    monkeypatch.setitem(families._KERNELS, fam.family_id, dataclasses.replace(kernel, phi=phi))
    counted = dataclasses.replace(fam)
    sizes.clear()           # the evaluations of the rebuild's own estimates
    return counted, sizes


def test_phi_power_example(family_power_p2):
    assert family_power_p2.phi(0.3, 3.0) == pytest.approx(6.0, abs=0)


def test_phi_zero_any_family(all_families):
    for fam in all_families:
        assert fam.phi(0.5, 0.0) == 0.0


def test_phi_logquotient_example(family_logquot_p3):
    assert family_logquot_p3.phi(0.0, 1.0) == pytest.approx(3.0 / np.log(2.0), rel=1e-14)
    assert family_logquot_p3.phi(0.0, 1.0) == pytest.approx(PHI_II_P3_AT_1, rel=1e-12)


def test_phi_oddness_exact(all_families, rng):
    ts = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), 200))
    xs = rng.uniform(0.0, 1.0, 200)
    for fam in all_families:
        plus = np.asarray(fam.phi(xs, ts))
        minus = np.asarray(fam.phi(xs, -ts))
        assert np.all(plus + minus == 0.0)


def test_Phi_power_examples(family_power_p2):
    assert family_power_p2.Phi(0.1, 3.0) == pytest.approx(9.0, abs=0)
    assert family_power_p2.Phi(0.1, 0.0) == 0.0


def test_Phi_logweight_quadrature_oracle(family_logweight_p2):
    # closed form: log(3) - integral_0^1 s^2/(2+s) ds, checked two ways
    corr, err = si.quad(lambda s: s * s / (2.0 + s), 0.0, 1.0, epsabs=1e-14)
    assert err < 1e-12
    analytic = 0.5 - 2.0 + 4.0 * np.log(1.5)
    assert corr == pytest.approx(analytic, abs=1e-13)
    expected = np.log(3.0) - corr
    assert family_logweight_p2.Phi(0.0, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("t", [1e-3, 0.037, 0.9, 3.7, 19.0])
def test_Phi_matches_quadrature_of_phi(all_families, t):
    # fundamental-theorem consistency at 1e-10 absolute
    for fam in all_families:
        for x in (0.0, 0.37, 1.0):
            ref, _ = si.quad(lambda s: float(fam.phi(np.asarray(x), np.asarray(s))),
                             0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert float(fam.Phi(x, t)) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("name", ["family_logquot_affine", "family_logweight"])
def test_log_Phi_is_elementwise(request, name):
    # each element sizes its own quadrature, so its batch cannot change it
    fam = request.getfixturevalue(name)
    x = np.array([0.3, 0.9, 0.3, 0.6, 0.3])
    t = np.array([30.0, 1e3, 1e8, 0.5, 2.5])
    batch = np.asarray(fam.Phi(x, t))
    for xi, ti, bi in zip(x, t, batch):
        assert fam.Phi(xi, ti) == bi
    # across the head series' coefficient blocks: head-only elements,
    # elements past the cut (some on each side of a block boundary) and
    # zeros, each against a batch of one
    block = families._P_BLOCK
    cut = np.e - 1.0 if fam.alpha is None else 1.0 + fam.alpha
    rng = np.random.default_rng(11)
    n = 3 * block + 17
    x = rng.uniform(0.0, 1.0, n)
    t = rng.uniform(0.0, 0.9 * cut, n)
    far = np.union1d(np.arange(0, n, 7), [k * block + d for k in (1, 2, 3) for d in (-1, 0)])
    t[far] = cut * np.geomspace(1.5, 1e6, far.size)
    t[::11] = 0.0
    batch = np.asarray(fam.Phi(x, t))
    single = np.concatenate([fam.Phi(x[i:i + 1], t[i:i + 1]) for i in range(n)])
    assert np.count_nonzero(batch == 0.0) == np.count_nonzero(t == 0.0)
    assert np.array_equal(batch, single)


def test_scalar_values_equal_batch_values(all_families):
    # a 0-d (x, t) is evaluated as a batch of one, not by numpy's scalar
    # power, so it gets its batch element's value to the last bit
    rng = np.random.default_rng(3089)
    n = 400
    x = rng.uniform(0.0, 1.0, n)
    t = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), n))
    t[::37] = 0.0
    for fam in all_families:
        for name in ("phi", "dphi", "Phi", "phi_inv", "conjugate"):
            method = getattr(fam, name)
            single = [method(xi, ti) for xi, ti in zip(x, t)]
            assert all(type(v) is float for v in single), (fam.label, name)
            np.testing.assert_array_equal(single, method(x, t), err_msg=f"{fam.label} {name}")


@pytest.mark.parametrize("name", ["family_logquot_affine", "family_logweight"])
def test_log_Phi_tail_sees_only_elements_past_the_cut(monkeypatch, request, name):
    fam = request.getfixturevalue(name)
    # the tail starts at log(1+|t|) = 1 resp. |t| = 1 + alpha
    cut = np.e - 1.0 if fam.alpha is None else 1.0 + fam.alpha
    sizes = []
    inner = families.panel_gauss

    def recording(fn, a, b, panels, *params):
        sizes.append(np.size(b))
        return inner(fn, a, b, panels, *params)

    monkeypatch.setattr(families, "panel_gauss", recording)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, (129, 129))
    t = rng.uniform(0.0, 0.9 * cut, (129, 129))
    k = 37
    t.flat[rng.choice(t.size, k, replace=False)] = cut * np.geomspace(1.5, 1e6, k)
    Phi = np.asarray(fam.Phi(x, t))
    assert np.all(np.isfinite(Phi)) and np.all(Phi > 0.0)
    assert sizes == [k]


@pytest.mark.parametrize("name", ["family_logquot_affine", "family_logweight"])
def test_log_Phi_temporaries_stay_small(request, name):
    # the head rule runs in row blocks, so a 129^2 field allocates about 1 MB
    # (its own (129^2,) arrays); (129^2, 16) temporaries would be 2.1 MB each
    fam = request.getfixturevalue(name)
    cut = np.e - 1.0 if fam.alpha is None else 1.0 + fam.alpha
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, (129, 129))
    t = rng.uniform(0.0, 0.9 * cut, (129, 129))
    t.flat[rng.choice(t.size, 37, replace=False)] = cut * np.geomspace(1.5, 1e6, 37)
    fam.Phi(x, t)
    tracemalloc.start()
    try:
        fam.Phi(x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


def _mp_log_quotient_head(c, p):
    # integral_0^c expm1(v)^p / v^2 dv in v = c y, scale-free for mpmath
    c, p = mpmath.mpf(c), mpmath.mpf(p)
    return c ** (p - 1) * mpmath.quad(
        lambda y: y ** (p - 2) * (mpmath.expm1(c * y) / (c * y)) ** p, [0, 0.5, 1])


def _mp_log_weight_head(c, p, kappa):
    # integral_0^c s^p / (kappa + s) ds in s = c y
    c, p = mpmath.mpf(c), mpmath.mpf(p)
    return c ** (p + 1) * mpmath.quad(lambda y: y ** p / (kappa + c * y), [0, 0.5, 1])


@pytest.mark.parametrize("p", [2.0, 3.0, 3.0781, 4.0, 8.0])
def test_log_head_series_against_mpmath(p):
    # the heads alone (c at or below the cut, so no tail) at 40 digits; the
    # log-quotient series with the terms of a constant p and with those of
    # an exponent range up to p+ >= 4
    kappa = 2.0
    with mpmath.workdps(40):
        for p_plus in (p, max(p, 4.0)):
            for c in (1e-12, 1e-4, 0.3, 1.0):
                value = families._corr_log_quotient(np.array([c]), np.array([p]), p_plus)[0]
                oracle = _mp_log_quotient_head(c, p)
                assert abs(value - oracle) <= 1e-15 * oracle, (p_plus, c)
        for c in (1e-12, 1e-4, 0.3, kappa):
            oracle = _mp_log_weight_head(c, p, kappa)
            scaled = families._corr_log_weight_scaled(np.array([c]), np.array([p]), kappa)[0]
            assert abs(scaled * mpmath.mpf(c) ** p - oracle) <= 1e-15 * oracle, c


def test_log_quotient_head_of_a_wide_exponent_range_against_mpmath():
    # p from 3 to 20 under one exponent range: every exponent takes the
    # recurrence with the 60 terms of p+ = 20, at both ends of the range
    # and in between
    with mpmath.workdps(40):
        for p in (3.0, 3.2, 3.5, 3.8, 4.0, 11.5, 19.2, 19.8, 20.0):
            value = families._corr_log_quotient(np.array([1e-4, 0.3, 1.0]), np.full(3, p), 20.0)
            for c, v in zip((1e-4, 0.3, 1.0), value):
                oracle = _mp_log_quotient_head(c, p)
                assert abs(v - oracle) <= 1e-15 * oracle, (p, c)


@pytest.mark.parametrize("name", ["family_logquot_p3", "family_logweight_p2",
                                  "family_logquot_affine", "family_logweight"])
def test_log_Phi_result_has_the_broadcast_shape(request, name):
    # a t with fewer elements than x, below and past the cut: the result
    # has the shape of x and t broadcast, element by element the scalar calls
    fam = request.getfixturevalue(name)
    cut = np.e - 1.0 if fam.alpha is None else 1.0 + fam.alpha
    x = np.linspace(0.0, 1.0, 5)
    for t in (0.0, 0.5 * cut, 2.0 * cut, np.array([0.5, 3.0]) * cut):
        xs, ts = (x, t) if np.ndim(t) == 0 else (x[:, None], t)
        Phi = fam.Phi(xs, ts)
        assert np.shape(Phi) == np.broadcast_shapes(np.shape(xs), np.shape(ts))
        pairs = zip(*(a.ravel() for a in np.broadcast_arrays(xs, ts)))
        single = [fam.Phi(xi, ti) for xi, ti in pairs]
        assert np.array_equal(np.ravel(Phi), single), t


@pytest.mark.parametrize("name", ["family_logquot_affine", "family_logweight"])
def test_log_Phi_column_x_equals_full_shape_x_and_scalars(request, name):
    # the series coefficients are built once per row of a column x and once
    # per node of a full-shape x, in blocks of families._P_BLOCK exponents:
    # every element equals its scalar call either way, bit for bit
    fam = request.getfixturevalue(name)
    cut = np.e - 1.0 if fam.alpha is None else 1.0 + fam.alpha
    rng = np.random.default_rng(17)
    n0, n1 = 40, 33                     # 1320 nodes: six coefficient blocks
    x = np.linspace(0.0, 1.0, n0)[:, None]
    t = rng.uniform(0.0, 0.9 * cut, (2, n0, n1))
    t.flat[::5] = cut * np.geomspace(1.5, 1e6, t.size)[::5]
    t.flat[::13] = 0.0
    column = np.asarray(fam.Phi(x, t))
    full = np.asarray(fam.Phi(np.broadcast_to(x, (n0, n1)), t))
    assert column.shape == full.shape == t.shape
    assert np.array_equal(column, full)
    for xs in (np.broadcast_to(x, t.shape), rng.uniform(0.0, 1.0, (n0, n1))):
        batch = np.asarray(fam.Phi(xs, t))
        x3 = np.broadcast_to(xs, t.shape)
        single = [fam.Phi(xi, ti) for xi, ti in zip(x3.ravel(), t.ravel())]
        assert np.array_equal(np.reshape(single, t.shape), batch)


@pytest.mark.parametrize("name", ["family_logquot_affine", "family_logweight"])
def test_log_Phi_memo_hit_equals_a_cold_computation(request, name):
    # the coefficient blocks of a repeated call come from the memo; computed
    # afresh, they give the same values bit for bit
    fam = request.getfixturevalue(name)
    coeffs = families._log_quotient_coeffs if fam.alpha is None else families._log_weight_coeffs
    cut = np.e - 1.0 if fam.alpha is None else 1.0 + fam.alpha
    x = np.linspace(0.0, 1.0, families._P_BLOCK + 45)        # two blocks
    t = cut * np.geomspace(1e-3, 0.99, x.size)
    fam.Phi(x, t)
    hits = coeffs.cache_info().hits
    hit = np.asarray(fam.Phi(x, t))
    assert coeffs.cache_info().hits == hits + 2
    coeffs.cache_clear()
    cold = np.asarray(fam.Phi(x, t))
    assert coeffs.cache_info().misses == 2
    assert np.array_equal(hit, cold)


@pytest.mark.parametrize("p_plus", [4.0, 20.0])
def test_log_quotient_coeffs_do_not_depend_on_their_block(p_plus):
    # the recurrence is elementwise, so an exponent's coefficients are the
    # same alone and in a block of families._P_BLOCK (a BLAS product over
    # the block changed several thousand of the 60 x 256 in the last bit at
    # p+ = 20)
    p = np.linspace(3.0, p_plus, families._P_BLOCK)
    families._log_quotient_coeffs.cache_clear()
    block = families._log_quotient_coeffs(p_plus, p.tobytes())
    alone = [families._log_quotient_coeffs(p_plus, p[i:i + 1].tobytes())
             for i in range(p.size)]
    assert np.array_equal(block, np.concatenate(alone, axis=1))


def test_log_weight_Phi_overflows_to_inf(family_logweight):
    # Phi > 0 up to t = 1e300, +inf only where log(2 + t) t^p overflows, and
    # bit for bit the scaled form wherever that is finite and positive
    rng = np.random.default_rng(5)
    t = np.exp(rng.uniform(np.log(1e-6), np.log(1e300), 20_000))
    x = rng.uniform(0.0, 1.0, t.size)
    Phi = np.asarray(family_logweight.Phi(x, t))
    with np.errstate(over="ignore", invalid="ignore"):
        lead = np.log(2.0 + t) * t ** (2.0 + x)
        parts = t ** (2.0 + x) * (np.log(2.0 + t)
                                  - families._corr_log_weight_scaled(t, 2.0 + x, 2.0))
    assert np.all(Phi > 0.0)
    assert np.all(np.isfinite(Phi[np.isfinite(lead)]))
    assert np.all(Phi[np.isinf(lead)] > 0.5 * np.finfo(float).max)
    kept = np.isfinite(parts) & (parts > 0.0)
    assert np.count_nonzero(~kept) > t.size // 2     # most of these t overflow a part
    assert np.array_equal(Phi[kept], parts[kept])


def test_phi_inverse_examples(family_power_p2, family_logquot_p3):
    assert family_power_p2.phi_inv(0.0, 6.0) == pytest.approx(3.0, rel=1e-12)
    assert family_power_p2.phi_inv(0.7, 0.0) == 0.0
    assert family_logquot_p3.phi_inv(0.0, PHI_II_P3_AT_1) == pytest.approx(1.0, rel=1e-10)


def test_phi_inverse_round_trip(all_families):
    ts = np.geomspace(1e-3, 1e3, 40)
    xs = np.linspace(0.0, 1.0, 7)
    for fam in all_families:
        for x in xs:
            s = np.asarray(fam.phi(np.full_like(ts, x), ts))
            back = np.asarray(fam.phi_inv(np.full_like(ts, x), s))
            assert np.max(np.abs(back - ts) / ts) < 1e-10


def test_phi_inverse_monotone(family_logweight_p2):
    s = np.geomspace(1e-4, 1e4, 60)
    t = np.asarray(family_logweight_p2.phi_inv(np.zeros_like(s), s))
    assert np.all(np.diff(t) > 0)


def test_phi_elasticity_matches_log_difference(family_logquot_affine, family_logweight):
    # t phi'/phi against a central difference of log phi in log t
    ts = np.geomspace(1e-6, 1e6, 61)
    h = 1e-5
    for fam in (family_logquot_affine, family_logweight):
        for x in (0.0, 0.4, 1.0):
            xs = np.full_like(ts, x)
            up = np.log(np.asarray(fam.phi(xs, ts * np.exp(h))))
            down = np.log(np.asarray(fam.phi(xs, ts * np.exp(-h))))
            elasticity = fam.kernel.phi_elasticity(fam, xs, ts)
            assert np.max(np.abs(elasticity - (up - down) / (2.0 * h))) <= 1e-7


@pytest.mark.parametrize("x", [0.0, 0.37, 1.0])
def test_dphi_matches_central_difference(all_families, x):
    ts = np.geomspace(1e-6, 1e6, 61)
    h = 1e-6 * ts
    for fam in all_families:
        fd = (np.asarray(fam.phi(x, ts + h)) - np.asarray(fam.phi(x, ts - h))) / (2.0 * h)
        np.testing.assert_allclose(fam.dphi(x, ts), fd, rtol=1e-8)
        np.testing.assert_array_equal(fam.dphi(x, -ts), fam.dphi(x, ts))


def test_dphi_at_zero_is_the_limit(all_families):
    # the families' p(x) = p- + x is at p_min at x = 0, where phi'(0) > 0:
    # power p = 2 -> 2, log-quotient p = 3 -> 3, log-weight p = 2, alpha = 1
    # -> 2 log 2; above p_min phi'(0) = 0
    power, log_quotient, log_weight = all_families
    assert power.dphi(0.0, 0.0) == 2.0
    assert log_quotient.dphi(0.0, 0.0) == 3.0
    assert log_weight.dphi(0.0, 0.0) == pytest.approx(2.0 * np.log(2.0), rel=1e-15)
    for fam in all_families:
        assert fam.dphi(0.37, 0.0) == 0.0
    assert ok.power_family(ok.ExponentField.constant(4.0)).dphi(0.5, 0.0) == 0.0


def test_custom_dphi_is_a_central_difference():
    fam = ok.custom_family(lambda x, t: 4.0 * np.abs(t) ** 2 * t,
                           Phi_fn=lambda x, t: np.abs(t) ** 4,
                           p=ok.ExponentField.constant(4.0))
    ts = np.geomspace(1e-6, 1e6, 61)
    np.testing.assert_allclose(fam.dphi(0.5, ts), 12.0 * ts ** 2, rtol=1e-9)
    assert abs(fam.dphi(0.5, 0.0)) <= 1e-300


def test_phi_inv_batch_takes_few_phi_evaluations(monkeypatch, family_logquot_affine,
                                                 family_logweight):
    # one 129^2 batch: safeguarded Newton needs a handful of phi calls where
    # a log-space bisection to full precision needs over a hundred
    grid = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [129, 129])
    x1 = grid.coords_first
    for fam in (family_logquot_affine, family_logweight):
        counted, sizes = _counting_phi(monkeypatch, fam)
        for amplitude in (0.1, 1.0, 10.0):
            s = np.abs(ok.random_function(grid, 7, amplitude, 3).values)
            sizes.clear()
            t = np.asarray(counted.phi_inv(x1, s))
            assert len(sizes) <= 5
            back = np.asarray(fam.phi(x1, t))
            assert np.all(np.abs(back - s) <= 1e-12 * s)


def test_custom_phi_inv_batch_takes_few_phi_evaluations():
    # a custom family takes the same Newton steps, with the elasticity from a
    # central difference (two phi_fn calls besides the step's phi); a
    # bisection in log t to full precision takes about 60 phi_fn calls
    grid = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [129, 129])
    calls = []

    def phi_fn(x, t):
        calls.append(np.size(t))
        return 3.0 * np.abs(t) * t

    fam = ok.custom_family(phi_fn, lambda x, t: np.abs(t) ** 3)
    s = np.abs(ok.random_function(grid, 7, 1.0, 3).values)
    calls.clear()
    t = np.asarray(fam.phi_inv(grid.coords_first, s))
    assert s.size == 16641 and len(calls) <= 15
    np.testing.assert_allclose(t, np.sqrt(s / 3.0), rtol=1e-14)


def test_log_family_conjugate_norm_takes_few_phi_evaluations(monkeypatch, family_logquot_affine,
                                                              family_logweight):
    # three modular evaluations of one phi_inv batch each, with no phi call
    # beyond the Newton iterations
    grid = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [129, 129])
    for fam in (family_logquot_affine, family_logweight):
        counted, sizes = _counting_phi(monkeypatch, fam)
        for amplitude in (0.1, 1.0, 10.0):
            u = ok.random_function(grid, 7, amplitude, 3)
            sizes.clear()
            assert ok.conjugate_norm(counted, u) == ok.conjugate_norm(fam, u)
            assert len(sizes) <= 15


def test_phi_inv_beyond_range_raises_numerics_error():
    # phi = 1.1 t^0.1 reaches 1e200 only at t ~ 1e1999: the solve ends at the
    # top of its bracket, without overflowing on the way
    fam = ok.custom_family(lambda x, t: 1.1 * np.sign(t) * np.abs(t) ** 0.1,
                           lambda x, t: np.abs(t) ** 1.1, phi0=1.1, phi_sup=1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="beyond representable range"):
            fam.phi_inv(0.0, 1e200)


def test_phi_inv_step_brackets_an_overshooting_newton_step():
    # phi = 3 t|t| + t: log phi is convex in z = log t, so a Newton step from
    # below the root lands above it.  A step at a z above the root lowers the
    # top of the bracket to that z; the next step, from far below, would land
    # beyond that top, so it goes to the midpoint of the bracket instead
    fam = ok.custom_family(lambda x, t: 3.0 * np.abs(t) * t + t,
                           lambda x, t: np.abs(t) ** 3 + 0.5 * t * t, phi0=2.0, phi_sup=3.0)
    x1, s = np.zeros(1), np.array([310.0])                  # the root is t = 10
    lo, hi = (np.full(1, end) for end in families._PHI_INV_BRACKET)
    above, below = np.log([20.0]), np.log([1e-3])
    fam._phi_inv_step(x1, s, above, lo, hi)
    assert (lo[0], hi[0]) == (families._PHI_INV_BRACKET[0], above[0])
    step, _ = fam._phi_inv_step(x1, s, below, lo, hi)
    assert (lo[0], hi[0]) == (below[0], above[0])
    assert step[0] == 0.5 * (below[0] + above[0]) - below[0]


def test_conjugate_power_closed_form(family_power_p2):
    # Phi = t^2 has conjugate s^2/4
    assert family_power_p2.conjugate(0.0, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert family_power_p2.conjugate(0.0, 0.0) == 0.0
    s = np.linspace(0.1, 8.0, 23)
    vals = np.asarray(family_power_p2.conjugate(np.zeros_like(s), s))
    assert np.allclose(vals, s * s / 4.0, rtol=1e-12)


def test_young_inequality_spot(family_power_p2):
    # t*s = 6 <= Phi(3) + conj(2) = 9 + 1
    assert 2.0 * 3.0 <= family_power_p2.Phi(0.0, 3.0) + family_power_p2.conjugate(0.0, 2.0)


def test_young_inequality_sampled(all_families, rng):
    n = 500
    x = rng.uniform(0.0, 1.0, n)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    for fam in all_families:
        lhs = t * s
        rhs = np.asarray(fam.Phi(x, t)) + np.asarray(fam.conjugate(x, s))
        assert np.all(lhs <= rhs + 1e-8)


def test_conjugate_bound_sampled(all_families, rng):
    n = 300
    x = rng.uniform(0.0, 1.0, n)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    for fam in all_families:
        phi = np.asarray(fam.phi(x, t))
        conj = np.asarray(fam.conjugate(x, phi))
        assert np.all(conj <= fam.phi_sup * np.asarray(fam.Phi(x, t)) + 1e-8)


def test_scaling_bounds(all_families, rng):
    n = 400
    x = rng.uniform(0.0, 1.0, n)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    sigma = np.exp(rng.uniform(np.log(1.0 + 1e-9), np.log(50.0), n))
    tau = rng.uniform(1e-3, 1.0 - 1e-9, n)
    for fam in all_families:
        Pt = np.asarray(fam.Phi(x, t))
        Pst = np.asarray(fam.Phi(x, sigma * t))
        assert np.all(Pst <= sigma ** fam.phi_sup * Pt * (1.0 + 1e-9))
        assert np.all(Pst >= sigma ** fam.phi0 * Pt * (1.0 - 1e-9))
        Ptau = np.asarray(fam.Phi(x, t / tau))
        assert np.all(Pt <= tau ** fam.phi0 * Ptau * (1.0 + 1e-9))
        assert np.all(Pt >= tau ** fam.phi_sup * Ptau * (1.0 - 1e-9))


def test_exponent_bounds_power_affine(family_power_affine):
    lo, hi = exponent_bounds(family_power_affine, np.geomspace(1e-3, 1e3, 80))
    assert lo == pytest.approx(2.0, abs=1e-9)
    assert hi == pytest.approx(3.0, abs=1e-9)


def test_exponent_bounds_logquotient_floor():
    fam = ok.log_quotient_family(ok.ExponentField.constant(4.0))
    lo, hi = exponent_bounds(fam, np.geomspace(1e-4, 1e4, 160))
    assert lo >= 3.0 - 1e-9          # p- - 1
    assert lo < 3.3                  # approached as t -> 0
    assert hi <= 4.0 + 1e-9


def test_exponent_bounds_power_constant(family_power_p2):
    lo, hi = exponent_bounds(family_power_p2, np.geomspace(1e-2, 1e2, 30))
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def test_exponent_bounds_bracket_declared(all_families):
    for fam in all_families:
        lo, hi = exponent_bounds(fam, np.geomspace(1e-4, 1e4, 200))
        assert lo >= fam.phi0 - 1e-9
        assert hi <= fam.phi_sup + 1e-9


def test_exponent_bounds_rejects_bad_grid(family_power_p2):
    with pytest.raises(InputError):
        exponent_bounds(family_power_p2, np.array([]))
    with pytest.raises(InputError):
        exponent_bounds(family_power_p2, np.array([0.0, 1.0]))


def test_check_structure_families_pass(all_families):
    for fam in all_families:
        report = check_structure(fam)
        assert report.all_passed, [c for c in report.checks if not c.passed]


def test_check_structure_sqrt_convexity_logweight(family_logweight_p2):
    report = check_structure(family_logweight_p2)
    assert report["sqrt_convexity"].passed


def test_check_structure_delta2_power_margin(family_power_affine):
    # Phi(x,2t)/Phi(x,t) = 2^{p(x)} <= 2^{p+} identically
    report = check_structure(family_power_affine)
    assert report["delta2_explicit_constant"].passed
    assert report["delta2_explicit_constant"].worst_margin >= 0.0


def test_check_structure_broken_monotone_negative_control():
    # phi decreasing on (1, 2): slope 2 outside, -0.5 inside
    def phi_fn(x, t):
        at = np.abs(t)
        ramp = np.clip(at - 1.0, 0.0, 1.0)
        return np.sign(t) * (2.0 * at - 2.5 * ramp)

    fam = ok.custom_family(phi_fn, phi0=1.5, phi_sup=3.0, label="broken-monotone")
    report = check_structure(fam, t_samples=np.geomspace(1e-2, 10.0, 120))
    mono = report["phi_monotone"]
    assert not mono.passed
    assert 0.9 < abs(mono.witness["t"]) < 2.1
    assert not report.all_passed


def test_custom_family_quadrature_backend():
    fam = ok.custom_family(lambda x, t: np.asarray(t) ** 3, p=None,
                           phi0=4.0, phi_sup=4.0, label="cubic")
    assert float(fam.Phi(0.0, 2.0)) == pytest.approx(4.0, rel=1e-10)


def test_domain_errors(all_families):
    for fam in all_families:
        with pytest.raises(DomainError):
            fam.phi(0.0, np.nan)
        with pytest.raises(DomainError):
            fam.Phi(np.inf, 1.0)
        with pytest.raises(InputError):
            fam.phi_inv(0.0, -1.0)


def test_constructor_guards():
    with pytest.raises(InputError):
        ok.power_family(ok.ExponentField.constant(1.5))
    with pytest.raises(InputError):
        ok.log_quotient_family(ok.ExponentField.constant(2.5))
    with pytest.raises(InputError):
        ok.log_weight_family(ok.ExponentField.constant(2.0), 0.0)
    with pytest.raises(InputError):
        ok.ExponentField.constant(1.0)
    with pytest.raises(InputError):
        ok.ExponentField.affine(1.0, -2.0)     # dips below 1 on [0, 1]


@pytest.mark.parametrize("build", [
    lambda: ok.ExponentField.constant(np.inf),
    lambda: ok.ExponentField.affine(3.0, 0.0, (0.0, np.inf)),
    lambda: ok.ExponentField.affine(1e308, 1e308),          # p+ overflows
    lambda: ok.ExponentField("constant", (np.inf,)),
    lambda: ok.ExponentField("constant"),                    # no coefficient
    lambda: ok.ExponentField("tabulated", x1_range=(1.0, 0.0),
                             table_x1=(1.0, 0.0), table_values=(2.0, 3.0)),
    # the width overflowed, and so did the affine field's sample points
    lambda: ok.ExponentField.affine(3.0, 0.0, (-1e308, 1e308)),
], ids=["constant-inf", "affine-inf-range", "affine-p+-overflow", "direct-inf",
        "direct-no-coefficient", "direct-unsorted-table", "affine-range-width-overflow"])
def test_exponent_field_checks_every_construction(build):
    with pytest.raises(InputError):
        build()


def test_exponent_x1_range_needs_exactly_two_entries():
    # a one-entry range ended in an IndexError; a three-entry affine range
    # took p+ from its third point while sample_points covered the first two
    for kind, coeffs in (("constant", (3.0,)), ("affine", (3.0, 4.0))):
        for x1_range in ((0.0,), (0.0, 1.0, 5.0)):
            with pytest.raises(InputError, match="x1_range"):
                ok.ExponentField(kind, coeffs, x1_range)
    with pytest.raises(InputError, match="x1_range"):
        ok.ExponentField.affine(3.0, 4.0, (0.0, 1.0, 5.0))
    with pytest.raises(InputError, match="affine exponent needs 2 coefficient"):
        ok.ExponentField("affine", (3.0,))


def test_exponent_tables_are_read_only():
    tab = ok.ExponentField.tabulated([0.0, 0.5, 1.0], [3.0, 4.0, 5.0])
    with pytest.raises(TypeError):
        tab.table_values[0] = 0.5
    assert (tab.p_minus, float(tab(0.0))) == (3.0, 3.0)


@pytest.mark.parametrize("declared", [dict(phi0=2.0, phi_sup=np.inf),
                                      dict(phi0=2.0, phi_sup=2.0, M_lower=np.inf),
                                      dict(phi0=2.0, phi_sup=2.0, M_lower=np.nan)],
                         ids=["phi_sup-inf", "M_lower-inf", "M_lower-nan"])
def test_custom_family_rejects_non_finite_constants(declared):
    with pytest.raises(InputError):
        ok.custom_family(lambda x, t: 2.0 * t, lambda x, t: t * t, **declared)


def test_exponent_field_kinds():
    const = ok.ExponentField.constant(2.5)
    assert const(np.array([0.0, 0.7])).tolist() == [2.5, 2.5]
    aff = ok.ExponentField.affine(2.0, 1.0)
    assert aff(0.25) == pytest.approx(2.25)
    assert (aff.p_minus, aff.p_plus) == (2.0, 3.0)
    tab = ok.ExponentField.tabulated(np.linspace(0, 1, 5), [2.0, 2.5, 3.0, 2.5, 2.0])
    assert tab(0.26) == pytest.approx(2.5)
    assert (tab.p_minus, tab.p_plus) == (2.0, 3.0)


def test_family_serialization_round_trip(all_families):
    for fam in all_families:
        text = ok.family_to_text(fam)
        back = ok.family_from_text(text)
        assert back.family_id == fam.family_id
        assert back.p == fam.p
        assert back.alpha == fam.alpha
        assert back.phi0 == pytest.approx(fam.phi0, rel=0, abs=0)
        assert back.phi_sup == pytest.approx(fam.phi_sup, rel=0, abs=0)
        assert back.M_lower == pytest.approx(fam.M_lower, rel=0, abs=0)


def test_family_serialization_rejects_custom():
    fam = ok.custom_family(lambda x, t: np.asarray(t) ** 3, phi0=4.0, phi_sup=4.0)
    with pytest.raises(InputError):
        ok.family_to_text(fam)


def test_logquotient_records_shifted_growth_bound(family_logquot_p3):
    report = check_structure(family_logquot_p3)
    assert report["growth_lower_shifted"].passed


def test_logweight_phi_sup_is_estimate(family_logweight):
    assert "phi_sup" in family_logweight.estimated
    assert family_logweight.phi_sup > family_logweight.p.p_plus
    assert family_logweight.phi_sup == pytest.approx(LOGWEIGHT_PHI_SUP, rel=1e-14)


@pytest.mark.parametrize("p, M_lower", [(77.0, 0.10872584154847262), (80.0, 0.0), (100.0, 0.0)])
def test_log_quotient_family_of_a_large_exponent_builds_without_warnings(p, M_lower):
    # under the suite's error::RuntimeWarning filter: from p = 78 on, t^p
    # overflows at t = 1e4 in the M_lower estimate (from p = 100 on it also
    # underflows at t = 1e-4, with Phi), and a ratio that is not a number
    # gives M_lower = 0
    fam = ok.log_quotient_family(ok.ExponentField.constant(p))
    assert fam.M_lower == M_lower
    u = ok.GridFunction.constant(ok.make_grid(1, [(0.0, 1.0)], [17]), 2.0)
    norm = ok.luxemburg_norm(fam, u)
    assert 0.0 < norm < math.inf
    assert abs(ok.modular(fam, (1.0 / norm) * u) - 1.0) <= 1e-7


def test_descriptors_are_frozen(family_logweight, all_reactions):
    for descriptor, name in ((family_logweight, "phi_sup"),
                             (family_logweight, "M_lower"),
                             (all_reactions[1], "C2")):
        before = getattr(descriptor, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(descriptor, name, 123.0)
        assert getattr(descriptor, name) == before


def test_declared_constant_overrides_its_rule():
    fam = ok.family_from_text("family = log-quotient\np.kind = constant\n"
                              "p.coeffs = 3\nM_lower = 0.5\n")
    assert fam.M_lower == 0.5
    assert "M_lower" not in fam.estimated
    with pytest.raises(InputError):
        ok.family_from_text("family = power\np.kind = constant\np.coeffs = 3\n"
                            "M_lower = -1\n")


E = ok.ExponentField


@pytest.mark.parametrize("build, change, reference", [
    (lambda: ok.power_family(E.constant(4.0)), dict(p=E.constant(2.5)),
     lambda: ok.power_family(E.constant(2.5))),
    (lambda: ok.log_weight_family(E.constant(3.0), 1.0), dict(alpha=100.0),
     lambda: ok.log_weight_family(E.constant(3.0), 100.0)),
    (lambda: ok.MusielakFamily("log-quotient", E.constant(3.0), declared_M_lower=0.5),
     dict(p=E.constant(4.0)),
     lambda: ok.family_from_text("family = log-quotient\np.kind = constant\n"
                                 "p.coeffs = 4\nM_lower = 0.5\n")),
], ids=["power-p", "log-weight-alpha", "declared-M_lower-kept"])
def test_replace_rederives_every_undeclared_constant(build, change, reference):
    fam, ref = dataclasses.replace(build(), **change), reference()
    assert (fam.phi0, fam.phi_sup, fam.M_lower, fam.estimated) == \
        (ref.phi0, ref.phi_sup, ref.M_lower, ref.estimated)


@pytest.mark.parametrize("build", [
    lambda: ok.MusielakFamily("power", E.constant(1.5)),
    lambda: ok.MusielakFamily("power"),
    lambda: ok.MusielakFamily("log-weight", E.constant(3.0)),
    lambda: ok.MusielakFamily("log-weight", E.constant(3.0), alpha=np.inf),
    lambda: ok.MusielakFamily("power", E.constant(3.0), alpha=1.0),
    lambda: ok.MusielakFamily("custom", E.constant(3.0)),
    lambda: ok.MusielakFamily("power", E.constant(3.0), phi_fn=lambda x, t: t),
    lambda: ok.MusielakFamily("bogus", E.constant(3.0)),
    lambda: ok.MusielakFamily("power", E.constant(3.0), declared_phi0=np.nan),
    lambda: ok.MusielakFamily("power", E.constant(3.0), declared_phi_sup="4"),
    lambda: ok.MusielakFamily("power", E.constant(3.0), declared_phi0=3.5),
    lambda: ok.family_from_text("family = power\np.kind = constant\np.coeffs = 3\n"
                                "alpha = 1\n"),
], ids=["power-p1.5", "power-no-p", "log-weight-no-alpha", "log-weight-alpha-inf",
        "power-alpha", "custom-no-phi_fn", "power-phi_fn", "bogus-id", "declared-nan",
        "declared-text", "phi0-above-phi_sup", "text-power-alpha"])
def test_family_checks_every_construction(build):
    with pytest.raises(InputError):
        build()


def test_declared_log_weight_descriptor_runs_no_estimate(monkeypatch):
    def refuse(family):
        raise AssertionError("an estimate ran")

    kernel = families._KERNELS["log-weight"]
    monkeypatch.setitem(families._KERNELS, "log-weight", dataclasses.replace(
        kernel, estimates=tuple((names, refuse) for names, _ in kernel.estimates)))
    text = ("family = log-weight\np.kind = constant\np.coeffs = 3\nalpha = 1\n"
            "phi_sup = 3.5\nM_lower = 0.6\n")
    fam = ok.family_from_text(text)
    assert (fam.phi0, fam.phi_sup, fam.M_lower, fam.estimated) == (3.0, 3.5, 0.6, frozenset())
    with pytest.raises(AssertionError, match="an estimate ran"):
        ok.family_from_text(text.replace("M_lower = 0.6", "M_lower = estimate"))


def test_direct_construction_is_labelled_by_its_kind():
    fam = ok.MusielakFamily("power", E.constant(3.0))
    assert fam.label == "power"
    assert repr(fam).startswith("MusielakFamily('power'")
    assert check_structure(fam).family == "power"


def test_descriptor_text_keeps_the_declared_inputs():
    assert "phi0 = estimate" in ok.family_to_text(ok.power_family(E.constant(3.0)))
    fam = ok.MusielakFamily("log-quotient", E.constant(3.0), declared_M_lower=0.5)
    text = ok.family_to_text(fam)
    assert "M_lower = 0.5\n" in text and "phi_sup = estimate\n" in text
    back = ok.family_from_text(text)
    assert (back.declared_phi0, back.declared_phi_sup, back.declared_M_lower) == (None, None, 0.5)
    moved, moved_back = (dataclasses.replace(f, p=E.constant(4.0)) for f in (fam, back))
    assert (moved.phi0, moved.phi_sup, moved.M_lower, moved.estimated) == \
        (moved_back.phi0, moved_back.phi_sup, moved_back.M_lower, moved_back.estimated)
