"""Modulars, Luxemburg-type norms, and the Sobolev-level norms.

The modular of a nodal field u is rho(u) = integral of Phi(x, |u(x)|); the
norm is the unique mu > 0 with rho(u/mu) = 1 (the doubling property makes
mu -> rho(u/mu) continuous and strictly decreasing, so the infimum in the
definition is attained at equality).  The Sobolev-level norm applies the
same construction to the combined modular of |u| and |grad u|.

The unit-modular equation is solved with a guarded secant in log-log
coordinates.  The exponent bounds give, from a single evaluation
R = rho(u/mu), the rigorous enclosure  mu* in [mu R^{1/phi_sup},
mu R^{1/phi0}]  (R > 1; mirrored for R < 1), which both brackets the root
immediately and caps every secant step.
"""

from __future__ import annotations

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
    """Solve rho(mu) = 1 for a strictly decreasing modular-of-scale map.

    exp_lo/exp_hi are ratio bounds of the underlying Young function; they
    only steer the iteration (the enclosure above), correctness needs just
    monotonicity.  Returns mu with |rho(mu) - 1| <= tol.
    """
    m = np.log(mu0)
    m_lo = m_hi = None          # bracket: rho(e^{m_lo}) > 1 > rho(e^{m_hi})
    f_lo = f_hi = None
    exp_mid = np.sqrt(exp_lo * exp_hi)
    for _ in range(max_iter):
        R = rho(np.exp(m))
        if not np.isfinite(R):
            m += np.log(64.0)   # scale too small, modular overflowed
            continue
        if R <= 0.0:
            m -= np.log(64.0)
            continue
        if abs(R - 1.0) <= tol:
            return float(np.exp(m))
        F = np.log(R)
        if F > 0.0:
            m_lo, f_lo = m, F
        else:
            m_hi, f_hi = m, F
        lo_c = m + min(F / exp_lo, F / exp_hi)
        hi_c = m + max(F / exp_lo, F / exp_hi)
        m_next = m + F / exp_mid
        if m_lo is not None and m_hi is not None:
            # secant through the bracketing pair, clipped into the bracket
            m_sec = m_lo - f_lo * (m_hi - m_lo) / (f_hi - f_lo)
            inner_lo, inner_hi = min(m_lo, m_hi), max(m_lo, m_hi)
            m_next = min(max(m_sec, inner_lo), inner_hi)
            if not inner_lo < m_next < inner_hi:
                m_next = 0.5 * (inner_lo + inner_hi)
        m_next = min(max(m_next, lo_c), hi_c)
        if m_next == m:
            m_next = 0.5 * (lo_c + hi_c)
        m = m_next
    raise NumericsError("unit-modular solve did not converge "
                        f"(last scale {np.exp(m):g})")


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
        return float(np.sum(w * np.asarray(family.Phi(x1, au / mu))))

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
        return float(np.sum(w * np.asarray(family.conjugate(x1, au / mu))))

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
        vals = np.asarray(family.Phi(x1, au / mu)) \
            + np.asarray(family.Phi(x1, gmag / mu))
        return float(np.sum(w * vals))

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
