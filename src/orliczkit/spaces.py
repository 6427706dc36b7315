"""Modulars, Luxemburg-type norms, and the Sobolev-level norms.

The modular of a nodal field u is rho(u) = integral of Phi(x, |u(x)|); the
norm is the unique mu > 0 with rho(u/mu) = 1 (the doubling property makes
mu -> rho(u/mu) continuous and strictly decreasing, so the infimum in the
definition is attained at equality).  The Sobolev-level norm applies the
same construction to the combined modular of |u| and |grad u|, and the
conjugate norm to the conjugate Young function.  All three are one solve,
``_unit_norm``, over a tuple of magnitude stacks and a Young function
Psi given with its derivative psi and the elasticity t psi'/psi: (Phi, phi)
for the Luxemburg and Sobolev norms, (Phi*, phi_inv) for the conjugate norm
(the conjugate's derivative is phi_inv, returned by
``conjugate_with_argmax``).

A magnitude stack is a triple (a, x1, w): the magnitudes, and the first
coordinate and the weights of the points where they live, so its integral
is sum(w Psi(x1, a)).  |u| lives on the nodes, (|u|, ``grid._x1``,
``grid.weights``); |grad u| on the points of the grid's gradient, whose
triple ``grid._gradient_stack`` gives; this module assumes no stencil and
no placement of D's values.  ``_integrals`` adds the Psi values of
consecutive stacks that share one weights array node by node before it
weights them, so while |grad u| lives on the nodes every sum keeps the
order of one weighted sum of Psi(|u|) + Psi(|grad u|).

Every modular and norm is computed on a stack of fields of one grid, with
a leading batch axis: the ``_stack_*`` functions take an array of shape
(rows,) + grid.shape and return one value per row, and the public
functions are the same code on a stack of one.  A row's value never
depends on the other rows (Phi and phi are elementwise, sums run per row).
A stack is evaluated a chunk of rows at a time (``grid._row_chunks``), and
the magnitudes |U| and |grad U| are formed inside each chunk, so a long
stack on a fine grid holds the temporaries of one chunk only.
The first coordinate of a stack is a column in 2-d, so the exponent is
evaluated once per grid row.

The unit-modular equation is solved by safeguarded Halley steps in log-log
coordinates, one vector iteration for all rows.  With m = log mu, t = |u|/mu
and F(m) = log R, R = rho(u/mu), the step needs the exact derivatives

    F'  = -integral of t psi(x,t) / R,
    F'' =  integral of (t psi + t^2 psi'(x,t)) / R - F'^2,

and is m - 2 F F' / (2 F'^2 - F F'').  A modular evaluation has two
phases: it forms R alone, and the solve asks for (F', F'') only at the
rows still live after the |R - 1| test, so the evaluation that certifies
a row evaluates no psi and no elasticity.  The term t^2 psi' comes without
another evaluation of the Young function, as t psi times the elasticity
E = t psi'/psi: the kernel's phi_elasticity (p - 1 for ``power``) for
every family kind, and 1/E(t*) at t* = phi_inv(s) for the conjugate
(psi = phi_inv); it is 0 where t psi = 0.  The derivative phase of a
conjugate evaluation also leaves the next one its phi_inv start,
z = log t* + log(s_next/s)/E(t*), exact to first order since
d log t*/d log s = 1/E(t*); the root it reaches agrees with a cold start's
to the solve's few-ulp stopping step.  The exponent bounds give, from the
same R, the rigorous enclosure  mu* in [mu R^{1/phi_sup}, mu R^{1/phi0}]
(R > 1; mirrored for R < 1); a step that leaves it or the row's bracket of
evaluated scales, or is not finite (a nonpositive denominator counts as
such), is replaced by the bisection point.  A row that has converged
leaves the active set, and its modular is no longer evaluated.  Every norm
is solved to |rho(u/mu) - 1| <= ``NORM_TOL`` within ``_NORM_MAX_ITER``
modular evaluations; the norms of the built-in families take at most 3 (2
for a constant exponent).  On a 129^2 log-quotient field with 3
evaluations, a Luxemburg norm makes 3 Phi, 2 phi and 2 elasticity kernel
calls, a Sobolev norm 6, 4 and 4, and a conjugate norm 3 Phi, 13 phi and
15 elasticity calls (its phi_inv solves take 5, 4 and 4 phi calls).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .grid import GridFunction, _col, _gradient_stack, _node_sums, _row_chunks, _x1

__all__ = [
    "modular", "luxemburg_norm", "conjugate_modular", "conjugate_norm",
    "sobolev_modular", "sobolev_norm", "sobolev_norms", "solve_unit_modular",
]

NORM_TOL = 1e-8
_NORM_MAX_ITER = 120
_LOG64 = math.log(64.0)


def _libm(fn, v):
    # math.exp/math.log per entry: numpy's SIMD exp and log can differ from
    # libm in the last bit, and a norm should not depend on numpy's dispatch
    return np.array([fn(x) for x in v.tolist()])


def solve_unit_modular(rho, exp_lo: float, exp_hi: float, mu0=1.0) -> np.ndarray:
    """Solve R(mu) = 1 for strictly decreasing modular-of-scale maps, one
    row per entry of the starting scales ``mu0``, each with its own bracket.

    ``rho(mu)`` maps the vector of scales to the pair (R, derivatives):
    the vector R, and a function that, given the boolean mask of the rows
    still live after the |R - 1| test, returns the vectors (F', F'') of
    the first and second derivatives of F = log R in m = log mu (the values
    at other rows are ignored), so a converged row costs no derivative.  A
    row that has converged is passed as NaN and its outputs are ignored, so
    rho may skip it.  exp_lo/exp_hi are ratio bounds of the underlying Young
    function; they only safeguard the iteration (the enclosure above),
    correctness needs just monotonicity.  Returns the vector of mu with
    |R(mu) - 1| <= NORM_TOL.
    """
    m = _libm(math.log, np.atleast_1d(np.asarray(mu0, dtype=float)))
    m_lo = np.full(m.shape, -np.inf)     # bracket: R(e^{m_lo}) > 1 > R(e^{m_hi})
    m_hi = np.full(m.shape, np.inf)
    live = np.ones(m.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NORM_MAX_ITER):
            R, derivatives = rho(np.where(live, _libm(math.exp, m), np.nan))
            live &= ~(np.abs(R - 1.0) <= NORM_TOL)
            if not live.any():
                return _libm(math.exp, m)
            slope, curvature = derivatives(live)
            del derivatives     # its arrays go before the next evaluation
            regular = (R > 0.0) & (R < np.inf)
            F = _libm(math.log, np.where(regular, R, 1.0))     # 0 where irregular
            m_lo = np.where(F > 0.0, m, m_lo)
            m_hi = np.where(F < 0.0, m, m_hi)
            a, b = m + F / exp_lo, m + F / exp_hi
            lo, hi = np.maximum(m_lo, np.minimum(a, b)), np.minimum(m_hi, np.maximum(a, b))
            den = 2.0 * slope * slope - F * curvature
            m_next = np.where(den > 0.0, m - 2.0 * F * slope / den, np.nan)
            # the bisection point replaces a step out of the bracket or the
            # enclosure, and a non-finite one
            m_next = np.where((lo <= m_next) & (m_next <= hi), m_next, 0.5 * (lo + hi))
            # a non-finite modular means the scale is too small, R <= 0 too large
            m_next = np.where(regular, m_next, np.where(R <= 0.0, m - _LOG64, m + _LOG64))
            m = np.where(live, m_next, m)
    raise NumericsError("unit-modular solve did not converge "
                        f"(last scale {math.exp(m[live][0]):g})")


def _unit_norm(grid, U, mags, young, lo, hi):
    """The scales mu, one per row of U, at which the sum over the magnitude
    stacks (a, x1, w) in ``mags(grid, U)`` of the integrals sum(w Psi(x1,
    a/mu)) equals 1; 0 for a row where every magnitude vanishes.

    ``young(x1, t, start)`` returns Psi(x1, t) at the magnitudes t of a
    stack and a deferred ``later(rows)``, which returns, at the rows
    ``rows`` of t, psi, the elasticity t psi'(t)/psi(t) (not used where
    t psi(t) = 0) and None or a function of the column log(mu_prev/mu) that
    gives the ``start`` of the next evaluation at those rows (for the
    conjugate, the first log t of its phi_inv solve); ``start`` is None at
    a first evaluation.  lo/hi are Psi's ratio bounds.  The magnitudes are
    formed per chunk of rows, and each chunk is one ``_chunk_unit_norm``.
    """
    mu = np.empty(len(U))
    for chunk in _row_chunks(len(U), grid.size):
        mu[chunk] = _chunk_unit_norm(grid, mags(grid, U[chunk]), young, lo, hi)
    return mu


def _chunk_unit_norm(grid, stack, young, lo, hi):
    """``_unit_norm`` of the rows of one chunk, given its magnitude stacks.

    Its rho is two-phase: R first, then (F', F'') for the rows the solve
    still needs.  A derivative phase leaves, per magnitude stack, the start
    of the next evaluation, which takes it only if it evaluates exactly the
    rows that phase covered (as the solve does)."""
    top = np.max([np.max(a, axis=tuple(range(1, a.ndim))) for a, _, _ in stack], axis=0)
    mu = np.zeros(top.shape)
    rows = np.flatnonzero(top > 0.0)
    if not rows.size:
        return mu
    stack = tuple((a[rows], x1, w) for a, x1, w in stack)
    carried = None      # (rows, their scales, per stack the start function)

    def rho(mu):
        # R keeps the sum order of _young_sum, so R(1) equals the modular
        # of the same Psi bit for bit; rows finished (NaN) are skipped
        nonlocal carried
        evaluated = ~np.isnan(mu)
        live = slice(None) if evaluated.all() else np.flatnonzero(evaluated)
        scale = _col(mu[live], grid)
        starts = [None] * len(stack)
        if carried is not None and np.array_equal(carried[0], evaluated):
            shift = _col(np.log(carried[1] / mu[evaluated]), grid)
            starts = [None if f is None else f(shift) for f in carried[2]]
        carried = None
        parts = []      # per stack (t, w, later)

        def terms():
            for (a, x1, w), start in zip(stack, starts):
                t = a[live] / scale
                Psi, later = young(x1, t, start)
                parts.append((t, w, later))
                yield Psi, w

        R = np.full(mu.size, np.nan)
        R[live] = _integrals(terms())

        def derivatives(keep):
            # (F', F'') at the rows of keep, all of them evaluated above
            nonlocal carried
            sub = keep[evaluated]
            sub = slice(None) if sub.all() else np.flatnonzero(sub)
            moment, moment2, nexts = 0.0, 0.0, []
            for t, w, later in parts:
                psi, elasticity, next_start = later(sub)
                wtpsi = w * t[sub]
                wtpsi *= psi
                moment = moment + _node_sums(wtpsi)
                # the same buffer becomes w t psi E, 0 where w t psi = 0
                positive = wtpsi > 0.0
                np.multiply(wtpsi, elasticity, out=wtpsi, where=positive)
                np.copyto(wtpsi, 0.0, where=~positive)
                moment2 = moment2 + _node_sums(wtpsi)
                nexts.append(next_start)
            carried = (keep.copy(), mu[keep], nexts)
            slope, curvature = np.full((2, mu.size), np.nan)
            slope[keep] = -moment / R[keep]     # under the solve's errstate
            curvature[keep] = (moment + moment2) / R[keep] - slope[keep] ** 2
            return slope, curvature

        return R, derivatives

    mu[rows] = solve_unit_modular(rho, lo, hi, mu0=top[rows])
    return mu


def _integrals(terms):
    """Per-row integrals of the sum of the (values, weights) terms, each
    values a stack (rows,) + shape: the values of consecutive terms that
    share one weights array are added node by node, in order, before they
    are weighted.  A term drawn from a generator is released once added."""
    sums, values, weights = [], None, None
    for Psi, w in terms:
        if weights is not None and w is not weights:
            sums.append(_node_sums(weights * values))
        values, weights = (Psi if w is not weights else values + Psi), w
    sums.append(_node_sums(weights * values))
    return sum(sums[1:], sums[0])


def _young_sum(Psi, grid, U, mags):
    """The sum over the magnitude stacks (a, x1, w) in ``mags(grid, U)`` of
    the integrals sum(w Psi(x1, a)), per row of U, formed per chunk of rows."""
    out = np.empty(len(U))
    for rows in _row_chunks(out.size, grid.weights.size):
        out[rows] = _integrals((Psi(x1, a), w) for a, x1, w in mags(grid, U[rows]))
    return out


def _phi_young(family):
    """young(x1, t, start) of ``_unit_norm`` for Psi = Phi of the family:
    phi and its elasticity, which takes the phi just evaluated, are
    deferred."""
    elasticity = family.kernel.phi_elasticity

    def young(x1, t, start=None):
        def later(rows):
            at = t[rows]
            phi = family.phi(x1, at)
            return phi, elasticity(family, x1, at, phi), None

        return family.Phi(x1, t), later

    return young


# ---------------------------------------------------------------------------
# stacks: U holds one nodal field of ``grid`` per row, shape (rows,) + shape,
# and the magnitude stacks (a, x1, w) of a chunk of its rows are the nodal
# |U|, the |grad U| of ``grid._gradient_stack``, or both
# ---------------------------------------------------------------------------

def _abs(grid, U):
    return ((np.abs(U), _x1(grid), grid.weights),)


def _abs_and_grad_abs(grid, U):
    return _abs(grid, U) + (_gradient_stack(grid, U),)


def _stack_modular(family, grid, U):
    return _young_sum(family.Phi, grid, U, _abs)


def _stack_luxemburg_norm(family, grid, U):
    return _unit_norm(grid, U, _abs, _phi_young(family), family.phi0, family.phi_sup)


def _stack_conjugate_modular(family, grid, U):
    return _young_sum(lambda x1, s: family.conjugate_with_argmax(x1, s)[0], grid, U, _abs)


def _stack_conjugate_norm(family, grid, U):
    elasticity = family.kernel.phi_elasticity

    def young(x1, s, start=None):
        conj, t_star = family.conjugate_with_argmax(x1, s, _start=start)

        def later(rows):
            # psi = phi_inv, so s psi'(s)/psi(s) = 1/E(t*) at t* = phi_inv(s),
            # which is also d log t*/d log s: the next scale's phi_inv starts
            # at log t* + log(s/s_prev)/E(t*)
            t = t_star[rows]
            e = 1.0 / elasticity(family, x1, t)
            return t, e, lambda shift: np.log(t) + e * shift

        return conj, later

    return _unit_norm(grid, U, _abs, young, *family.conjugate_exponent_bounds())


def _stack_sobolev_modular(family, grid, U):
    return _young_sum(family.Phi, grid, U, _abs_and_grad_abs)


def _stack_sobolev_norm(family, grid, U):
    return _unit_norm(grid, U, _abs_and_grad_abs, _phi_young(family), family.phi0,
                      family.phi_sup)


def _stack_sobolev_norms(family, grid, U):
    """(n1, n2, n) per row; see sobolev_norms.  |U| and |grad U| are formed
    once per chunk of rows, and the chunk's three norm solves share them."""
    young = _phi_young(family)
    nu, ng, n = np.empty((3, len(U)))
    for rows in _row_chunks(len(U), grid.size):
        a, g = _abs_and_grad_abs(grid, U[rows])
        for out, stack in ((nu, (a,)), (ng, (g,)), (n, (a, g))):
            out[rows] = _chunk_unit_norm(grid, stack, young, family.phi0, family.phi_sup)
    return ng + nu, np.maximum(ng, nu), n


# ---------------------------------------------------------------------------
# modulars and norms on nodal fields: each is its stack form on one row
# ---------------------------------------------------------------------------

def _one(stack_fn, family, u: GridFunction):
    return float(stack_fn(family, u.grid, u.values[None])[0])


def modular(family, u: GridFunction) -> float:
    """rho(u) = integral of Phi(x, |u|)."""
    return _one(_stack_modular, family, u)


def luxemburg_norm(family, u: GridFunction) -> float:
    """inf{mu > 0 : rho(u/mu) <= 1}, solved at equality; 0 for u = 0."""
    return _one(_stack_luxemburg_norm, family, u)


def conjugate_modular(family, u: GridFunction) -> float:
    """Modular taken with the conjugate Young function."""
    return _one(_stack_conjugate_modular, family, u)


def conjugate_norm(family, u: GridFunction) -> float:
    """Luxemburg-type norm built from the conjugate Young function."""
    return _one(_stack_conjugate_norm, family, u)


def sobolev_modular(family, u: GridFunction) -> float:
    """integral of Phi(x,|u|) + Phi(x,|grad u|) (the functional Lambda)."""
    return _one(_stack_sobolev_modular, family, u)


def sobolev_norm(family, u: GridFunction) -> float:
    """The scale mu with combined modular of (u/mu, grad u/mu) equal to 1."""
    return _one(_stack_sobolev_norm, family, u)


def sobolev_norms(family, u: GridFunction):
    """The three equivalent Sobolev-level norms (n1, n2, n).

    n1 = |grad u| norm + |u| norm, n2 = max of the two, and n is the
    combined-modular norm from sobolev_norm.
    """
    return tuple(float(n[0]) for n in _stack_sobolev_norms(family, u.grid, u.values[None]))
