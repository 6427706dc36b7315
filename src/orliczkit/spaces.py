"""Modulars, Luxemburg-type norms, and the Sobolev-level norms.

The modular of a nodal field u is rho(u) = integral of Phi(x, |u(x)|); the
norm is the unique mu > 0 with rho(u/mu) = 1 (the doubling property makes
mu -> rho(u/mu) continuous and strictly decreasing, so the infimum in the
definition is attained at equality).  The Sobolev-level norm applies the
same construction to the combined modular of |u| and |grad u|.

The unit-modular equation is solved by safeguarded Newton in log-log
coordinates.  Each modular evaluation also returns its exact log-slope,
d log rho(u/mu) / d log mu = -integral of t phi(x,t) / rho at t = |u|/mu
(for the conjugate modular t phi(x,t) becomes s phi_inv(x,s), since the
conjugate's derivative is phi_inv).  The exponent bounds give, from the same
evaluation R = rho(u/mu), the rigorous enclosure  mu* in [mu R^{1/phi_sup},
mu R^{1/phi0}]  (R > 1; mirrored for R < 1); a Newton step that leaves it,
or the bracket of evaluated scales, is replaced by the bisection point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .grid import GridFunction, gradient_magnitude, quad_weights

__all__ = [
    "modular", "luxemburg_norm", "conjugate_modular", "conjugate_norm",
    "sobolev_modular", "sobolev_norm", "sobolev_norms", "solve_unit_modular",
]

NORM_TOL = 1e-8


def solve_unit_modular(rho, exp_lo: float, exp_hi: float, mu0: float = 1.0,
                       tol: float = NORM_TOL, max_iter: int = 120) -> float:
    """Solve R(mu) = 1 for a strictly decreasing modular-of-scale map.

    ``rho(mu)`` returns ``(R, d log R / d log mu)``.  exp_lo/exp_hi are
    ratio bounds of the underlying Young function; they only safeguard the
    iteration (the enclosure above), correctness needs just monotonicity.
    Returns mu with |R(mu) - 1| <= tol.
    """
    m = math.log(mu0)
    m_lo, m_hi = -math.inf, math.inf    # bracket: R(e^{m_lo}) > 1 > R(e^{m_hi})
    for _ in range(max_iter):
        R, slope = rho(math.exp(m))
        if not np.isfinite(R):
            m += math.log(64.0)         # scale too small, modular overflowed
            continue
        if R <= 0.0:
            m -= math.log(64.0)
            continue
        if abs(R - 1.0) <= tol:
            return math.exp(m)
        F = math.log(R)
        if F > 0.0:
            m_lo = m
        else:
            m_hi = m
        lo = max(m_lo, m + min(F / exp_lo, F / exp_hi))
        hi = min(m_hi, m + max(F / exp_lo, F / exp_hi))
        m_next = m - F / slope
        if not lo <= m_next <= hi:      # also catches a non-finite slope
            m_next = 0.5 * (lo + hi)
        m = m_next
    raise NumericsError("unit-modular solve did not converge "
                        f"(last scale {math.exp(m):g})")


def _with_slope(R, moment):
    """(R, d log R / d log mu) for R = rho(u/mu), given the moment
    -dR/d log mu (the sum of w t phi(x,t) at t = |u|/mu for a Phi-modular)."""
    return R, (-moment / R if R > 0.0 else math.nan)


# ---------------------------------------------------------------------------
# modulars and norms on nodal fields
# ---------------------------------------------------------------------------

def _field_data(u: GridFunction):
    w = quad_weights(u.grid)
    x1 = u.grid.coords_first
    return w, x1


def modular(family, u: GridFunction) -> float:
    """rho(u) = integral of Phi(x, |u|)."""
    w, x1 = _field_data(u)
    return float(np.sum(w * np.asarray(family.Phi(x1, np.abs(u.values)))))


def luxemburg_norm(family, u: GridFunction, tol: float = NORM_TOL) -> float:
    """inf{mu > 0 : rho(u/mu) <= 1}, solved at equality; 0 for u = 0."""
    w, x1 = _field_data(u)
    au = np.abs(u.values)
    top = float(np.max(au))
    if top == 0.0:
        return 0.0

    def rho(mu):
        t = au / mu
        return _with_slope(float(np.sum(w * np.asarray(family.Phi(x1, t)))),
                           float(np.sum(w * t * np.asarray(family.phi(x1, t)))))

    return solve_unit_modular(rho, family.phi0, family.phi_sup, mu0=top, tol=tol)


def conjugate_modular(family, u: GridFunction) -> float:
    """Modular taken with the conjugate Young function."""
    w, x1 = _field_data(u)
    return float(np.sum(w * np.asarray(family.conjugate(x1, np.abs(u.values)))))


def conjugate_norm(family, u: GridFunction, tol: float = NORM_TOL) -> float:
    """Luxemburg-type norm built from the conjugate Young function."""
    w, x1 = _field_data(u)
    au = np.abs(u.values)
    top = float(np.max(au))
    if top == 0.0:
        return 0.0
    lo, hi = family.conjugate_exponent_bounds()

    def rho(mu):
        s = au / mu
        values, t_star = family.conjugate_with_argmax(x1, s)
        return _with_slope(float(np.sum(w * values)), float(np.sum(w * s * t_star)))

    return solve_unit_modular(rho, lo, hi, mu0=top, tol=tol)


def sobolev_modular(family, u: GridFunction) -> float:
    """integral of Phi(x,|u|) + Phi(x,|grad u|) (the functional Lambda)."""
    w, x1 = _field_data(u)
    gmag = gradient_magnitude(u)
    vals = np.asarray(family.Phi(x1, np.abs(u.values))) \
        + np.asarray(family.Phi(x1, gmag))
    return float(np.sum(w * vals))


def sobolev_norm(family, u: GridFunction, tol: float = NORM_TOL) -> float:
    """The scale mu with combined modular of (u/mu, grad u/mu) equal to 1."""
    w, x1 = _field_data(u)
    au = np.abs(u.values)
    gmag = gradient_magnitude(u)
    top = max(float(np.max(au)), float(np.max(gmag)))
    if top == 0.0:
        return 0.0

    def rho(mu):
        # the moment is reduced per term so that no extra node array is
        # alive while Phi runs; values keeps sobolev_modular's sum order
        values, moment = 0.0, 0.0
        for a in (au, gmag):
            t = a / mu
            values = values + np.asarray(family.Phi(x1, t))
            moment += float(np.sum(w * t * np.asarray(family.phi(x1, t))))
        return _with_slope(float(np.sum(w * values)), moment)

    return solve_unit_modular(rho, family.phi0, family.phi_sup, mu0=top, tol=tol)


def sobolev_norms(family, u: GridFunction, tol: float = NORM_TOL):
    """The three equivalent Sobolev-level norms (n1, n2, n).

    n1 = |grad u| norm + |u| norm, n2 = max of the two, and n is the
    combined-modular norm from sobolev_norm.
    """
    nu = luxemburg_norm(family, u, tol=tol)
    gmag = gradient_magnitude(u)
    ng_field = GridFunction(u.grid, gmag)
    ng = luxemburg_norm(family, ng_field, tol=tol)
    n = sobolev_norm(family, u, tol=tol)
    return ng + nu, max(ng, nu), n
