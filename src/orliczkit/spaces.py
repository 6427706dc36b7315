"""Modulars, Luxemburg-type norms, and the Sobolev-level norms.

The modular of a nodal field u is rho(u) = integral of Phi(x, |u(x)|); the
norm is the unique mu > 0 with rho(u/mu) = 1 (the doubling property makes
mu -> rho(u/mu) continuous and strictly decreasing, so the infimum in the
definition is attained at equality).  The Sobolev-level norm applies the
same construction to the combined modular of |u| and |grad u|, and the
conjugate norm to the conjugate Young function.  All three are one solve,
``_unit_norm``, over a tuple of nodal magnitude fields and a Young function
Psi given with its derivative psi: (Phi, phi) for the Luxemburg and Sobolev
norms, (Phi*, phi_inv) for the conjugate norm (the conjugate's derivative
is phi_inv, returned by ``conjugate_with_argmax``).

The unit-modular equation is solved by safeguarded Newton in log-log
coordinates.  Each modular evaluation also returns its exact log-slope,
d log rho(u/mu) / d log mu = -integral of t psi(x,t) / rho at t = |u|/mu.
The exponent bounds give, from the same evaluation R = rho(u/mu), the
rigorous enclosure  mu* in [mu R^{1/phi_sup}, mu R^{1/phi0}]  (R > 1;
mirrored for R < 1); a Newton step that leaves it, or the bracket of
evaluated scales, is replaced by the bisection point.
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


def _unit_norm(w, mags, young, lo, hi, tol):
    """The scale mu at which the sum over the magnitude fields a in ``mags``
    of integral Psi(a/mu) equals 1; 0 when every magnitude vanishes.

    ``young(t)`` returns (Psi(t), psi(t)) at the nodal magnitudes t; lo/hi
    are Psi's ratio bounds.
    """
    top = max(float(np.max(a)) for a in mags)
    if top == 0.0:
        return 0.0

    def rho(mu):
        # values keeps the sum order of _phi_sum, so R(1) equals modular
        # and sobolev_modular bit for bit
        values, moment = 0.0, 0.0
        for a in mags:
            t = a / mu
            Psi, psi = young(t)
            values = values + np.asarray(Psi)
            moment += float(np.sum(w * t * np.asarray(psi)))
        R = float(np.sum(w * values))
        return R, (-moment / R if R > 0.0 else math.nan)

    return solve_unit_modular(rho, lo, hi, mu0=top, tol=tol)


def _phi_norm(family, u: GridFunction, mags, tol):
    """_unit_norm with Psi = Phi of the family, on magnitude fields of u."""
    x1 = u.grid.coords_first
    return _unit_norm(quad_weights(u.grid), mags,
                      lambda t: (family.Phi(x1, t), family.phi(x1, t)),
                      family.phi0, family.phi_sup, tol)


def _phi_sum(family, u: GridFunction, mags) -> float:
    """integral of the sum of Phi(x, a) over the magnitude fields a of u."""
    values = 0.0
    for a in mags:
        values = values + np.asarray(family.Phi(u.grid.coords_first, a))
    return float(np.sum(quad_weights(u.grid) * values))


# ---------------------------------------------------------------------------
# modulars and norms on nodal fields
# ---------------------------------------------------------------------------

def modular(family, u: GridFunction) -> float:
    """rho(u) = integral of Phi(x, |u|)."""
    return _phi_sum(family, u, (np.abs(u.values),))


def luxemburg_norm(family, u: GridFunction, tol: float = NORM_TOL) -> float:
    """inf{mu > 0 : rho(u/mu) <= 1}, solved at equality; 0 for u = 0."""
    return _phi_norm(family, u, (np.abs(u.values),), tol)


def conjugate_modular(family, u: GridFunction) -> float:
    """Modular taken with the conjugate Young function."""
    conj = family.conjugate(u.grid.coords_first, np.abs(u.values))
    return float(np.sum(quad_weights(u.grid) * np.asarray(conj)))


def conjugate_norm(family, u: GridFunction, tol: float = NORM_TOL) -> float:
    """Luxemburg-type norm built from the conjugate Young function."""
    x1 = u.grid.coords_first
    return _unit_norm(quad_weights(u.grid), (np.abs(u.values),),
                      lambda s: family.conjugate_with_argmax(x1, s),
                      *family.conjugate_exponent_bounds(), tol)


def sobolev_modular(family, u: GridFunction) -> float:
    """integral of Phi(x,|u|) + Phi(x,|grad u|) (the functional Lambda)."""
    return _phi_sum(family, u, (np.abs(u.values), gradient_magnitude(u)))


def sobolev_norm(family, u: GridFunction, tol: float = NORM_TOL) -> float:
    """The scale mu with combined modular of (u/mu, grad u/mu) equal to 1."""
    return _phi_norm(family, u, (np.abs(u.values), gradient_magnitude(u)), tol)


def sobolev_norms(family, u: GridFunction, tol: float = NORM_TOL):
    """The three equivalent Sobolev-level norms (n1, n2, n).

    n1 = |grad u| norm + |u| norm, n2 = max of the two, and n is the
    combined-modular norm from sobolev_norm.
    """
    au, gmag = np.abs(u.values), gradient_magnitude(u)
    nu, ng, n = (_phi_norm(family, u, mags, tol) for mags in ((au,), (gmag,), (au, gmag)))
    return ng + nu, max(ng, nu), n
