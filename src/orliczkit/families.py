"""Concrete Musielak-Orlicz function families and pointwise operations.

A family bundles a generating function phi(x,t) (odd and strictly increasing
in t) with its primitive Phi(x,t) = integral of phi(x,s) ds from 0 to t, the
exponent bounds

    1 < phi0 <= t*phi(x,t)/Phi(x,t) <= phi_sup < inf,

and a lower growth constant M_lower with M_lower*|t|^p(x) <= Phi(x,t) on the
sampling window.  Three named families are built in, each one entry of the
kernel table ``_KERNELS`` (formulas for phi and Phi, the closed-form phi_inv
or else the elasticity t phi'/phi that the Newton solve for phi_inv uses,
phi' (closed form for ``power``, phi times the elasticity over t for the
log kinds), the smallest admissible p- and the phi0 rule):

* ``power``        phi = p(x)|t|^{p(x)-2} t                 Phi = |t|^{p(x)}
* ``log-quotient`` phi = p(x)|t|^{p(x)-2} t / log(1+|t|)
                   Phi = |t|^{p(x)}/log(1+|t|)
                         + int_0^{|t|} s^{p(x)}/((1+s) log^2(1+s)) ds
* ``log-weight``   phi = p(x) log(1+alpha+|t|) |t|^{p(x)-2} t
                   Phi = log(1+alpha+|t|) |t|^{p(x)}
                         - int_0^{|t|} s^{p(x)}/(1+alpha+s) ds

For ``power`` the bounds are phi0 = p-, phi_sup = p+; for ``log-quotient``
phi0 = p- - 1, phi_sup = p+; for ``log-weight`` phi0 = p- is exact while
phi_sup exists but has no closed form and is estimated numerically (stored
with a small safe-side pad).  Custom families fill the same kernel slots
from a user-supplied phi callable and get Phi by adaptive quadrature unless
a Phi callable is given too, and phi' by a central difference of phi.

Descriptors are frozen: a factory builds a provisional descriptor, estimates
the constants that need phi/Phi on it, and returns a new descriptor through
``dataclasses.replace``.  The non-elementary correction integrals of the two
log families split at a cut: the head is 16-node Gauss-Legendre after a
cubic substitution that removes the endpoint singularity, and the tail is
integrated only on the elements past the cut, with panels sized per
element, so every value is independent of its batch; see _quadrature.
Everything is vectorized over broadcastable (x, t) arrays and free of
mutable state.  ``check_structure`` passes margins down to -``_STRUCTURE_TOL``
(-``_DELTA2_REL_TOL`` for the relative doubling margin).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._quadrature import gauss01, panel_gauss
from .config import exponent_from_kv, finite_float, parse_kv_text
from .errors import DomainError, InputError, NumericsError
from .exponents import ExponentField

__all__ = [
    "MusielakFamily", "power_family", "log_quotient_family", "log_weight_family",
    "custom_family", "exponent_bounds", "check_structure",
    "StructureReport", "ConditionCheck", "family_to_text", "family_from_text",
]


# phi_inv: iteration cap (bisection alone needs about 60) and stopping step
_PHI_INV_MAX_ITER = 100
_PHI_INV_ULPS = 4.0 * np.finfo(float).eps
# relative step of the central difference that stands in for a missing phi'
_DPHI_STEP = np.finfo(float).eps ** (1.0 / 3.0)
_STRUCTURE_TOL = 1e-8
_DELTA2_REL_TOL = 1e-9


def _as_array(v):
    return np.asarray(v, dtype=float)


def _finite_args(x1, t, name):
    x1, t = _as_array(x1), _as_array(t)
    for label, arr in (("x", x1), (name, t)):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{label} must be finite")
    return x1, t


def _maybe_scalar(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# correction integrals
# ---------------------------------------------------------------------------

def _corr_log_quotient(V, p):
    """integral_0^V expm1(v)^p / v^2 dv for V = log(1+|t|), elementwise.

    Substituting v = c*y^3 on [0, c], c = min(V, 1), turns the fractional
    endpoint behaviour v^{p-2} into y^{3p-4}, smooth enough for one 16-node
    Gauss rule; the tail [1, V] is integrated only on the elements with
    V > 1, each with its own ceil(p(V-1)/16) panels (at most 128) to resolve
    the exp(p*v) growth.
    """
    V, p = np.broadcast_arrays(_as_array(V), _as_array(p))
    shape, V, p = V.shape, V.ravel(), p.ravel()
    c = np.minimum(V, 1.0)
    cc = c[:, None]
    pp = p[:, None]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        def head(y):
            return np.exp(pp * np.log(np.expm1(cc * y ** 3)) - 4.0 * np.log(y))

        def tail(v, q):
            return np.exp(q * np.log(np.expm1(v)) - 2.0 * np.log(v))

        out = np.where(c > 0.0, gauss01(head) * 3.0 / np.where(c > 0, c, 1.0), 0.0)
        far = np.flatnonzero(V > 1.0)
        if far.size:
            panels = np.clip(np.ceil(p[far] * (V[far] - 1.0) / 16.0), 1, 128)
            out[far] += panel_gauss(tail, 1.0, V[far], panels, p[far])
    return out.reshape(shape)


def _corr_log_weight(T, p, kappa):
    """integral_0^T s^p / (kappa + s) ds for T = |t|, elementwise.

    [0, c] with c = min(T, kappa) uses s = c*y^3 and one 16-node Gauss rule;
    the tail [kappa, T] is integrated only on the elements with T > kappa,
    in log coordinates where the pole sits at fixed imaginary distance pi,
    each with its own ceil(log(T/kappa)/6) panels (at most 128).
    """
    T, p = np.broadcast_arrays(_as_array(T), _as_array(p))
    shape, T, p = T.shape, T.ravel(), p.ravel()
    cc = np.minimum(T, kappa)[:, None]
    pp = p[:, None]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        def head(y):
            s = cc * y ** 3
            return s ** pp / (kappa + s) * 3.0 * cc * y * y

        def tail(w, q):
            ew = np.exp(w)
            return ew ** (q + 1.0) / (kappa + ew)

        out = gauss01(head)
        far = np.flatnonzero(T > kappa)
        if far.size:
            lo, hi = math.log(kappa), np.log(T[far])
            panels = np.clip(np.ceil((hi - lo) / 6.0), 1, 128)
            out[far] += panel_gauss(tail, lo, hi, panels, p[far])
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# kernel formulas f(family, x1, t) of the built-in kinds
# ---------------------------------------------------------------------------

def _power_phi(fam, x1, t):
    p = fam.p(x1)
    return p * np.abs(t) ** (p - 2.0) * t


def _power_Phi(fam, x1, t):
    return np.abs(t) ** fam.p(x1)


def _power_dphi(fam, x1, t):
    p = fam.p(x1)
    return p * (p - 1.0) * np.abs(t) ** (p - 2.0)


def _power_phi_inv(fam, x1, s):
    p = fam.p(x1)
    return (s / p) ** (1.0 / (p - 1.0))


def _log_quotient_phi(fam, x1, t):
    # t/log1p|t| first: |t|^{p-2} t alone underflows where phi does not
    p = fam.p(x1)
    at = np.abs(t)
    return np.where(at == 0.0, 0.0, p * (t / np.log1p(at)) * at ** (p - 2.0))


def _log_quotient_elasticity(fam, x1, t):
    return (fam.p(x1) - 1.0) - t / ((1.0 + t) * np.log1p(t))


def _log_quotient_dphi0(fam, x1):
    # phi/t ~ p t^{p-3}: 3 at p = 3, 0 above
    p = fam.p(x1)
    return p * (p - 2.0) * 0.0 ** (p - 3.0)


def _log_quotient_Phi(fam, x1, t):
    p = fam.p(x1)
    at = np.abs(t)
    V = np.log1p(at)
    lead = np.where(at == 0.0, 0.0, at ** p / np.where(V > 0, V, 1.0))
    return lead + _corr_log_quotient(V, p)


def _log_weight_phi(fam, x1, t):
    p = fam.p(x1)
    at = np.abs(t)
    return p * np.log(1.0 + fam.alpha + at) * at ** (p - 2.0) * t


def _log_weight_elasticity(fam, x1, t):
    kappa = 1.0 + fam.alpha
    return (fam.p(x1) - 1.0) + t / ((kappa + t) * np.log(kappa + t))


def _log_weight_dphi0(fam, x1):
    # phi/t ~ p log(1+alpha) t^{p-2}: 2 log(1+alpha) at p = 2, 0 above
    p = fam.p(x1)
    return p * (p - 1.0) * np.log(1.0 + fam.alpha) * 0.0 ** (p - 2.0)


def _log_weight_Phi(fam, x1, t):
    p = fam.p(x1)
    at = np.abs(t)
    kappa = 1.0 + fam.alpha
    return np.log(kappa + at) * at ** p - _corr_log_weight(at, p, kappa)


def _elastic_dphi(limit, fam, x1, t):
    """phi' = (phi/t) (t phi'/phi) at |t| > 0 from the kernel's elasticity;
    limit(fam, x1) is its value at t = 0."""
    at = np.abs(t)
    safe = np.where(at > 0.0, at, 1.0)
    kernel = fam.kernel
    slope = kernel.phi(fam, x1, safe) / safe * kernel.phi_elasticity(fam, x1, safe)
    return np.where(at > 0.0, slope, limit(fam, x1))


def _central_dphi(fam, x1, t):
    """phi' by a central difference of the kernel's phi, relative step eps^(1/3)
    (from the smallest normal number at t = 0)."""
    h = _DPHI_STEP * np.maximum(np.abs(t), np.finfo(float).tiny)
    up, down = t + h, t - h
    phi = fam.kernel.phi
    return (phi(fam, x1, up) - phi(fam, x1, down)) / (up - down)


@dataclass(frozen=True)
class _Kernel:
    """Formulas of one family kind, each called as f(family, x1, t).

    phi_inv is the closed-form inverse of phi; without one, phi_inv solves
    phi = s in z = log t, taking Newton steps on log phi when the elasticity
    phi_elasticity = t phi'/phi = d log phi/d log t (t > 0) is known and
    bisecting otherwise.  dphi is the derivative phi' (even in t, finite at
    t = 0); without a formula it is a central difference of phi.
    The remaining slots describe built-in kinds only: the smallest
    admissible p-, the rule phi0 = p- - phi0_drop, the constants estimated
    numerically (helpers applied in order), whether alpha enters the
    formulas, and whether the companion bound Phi >= t^{p(x)-1} holds.
    """

    phi: Callable
    Phi: Callable
    phi_inv: Callable | None = None
    phi_elasticity: Callable | None = None
    dphi: Callable = _central_dphi
    p_min: float = 1.0
    phi0_drop: float = 0.0
    estimates: tuple = ()
    uses_alpha: bool = False
    shifted_lower_bound: bool = False


def _quad_Phi(phi_fn, fam, x1, t):
    """Phi of a custom family by adaptive quadrature of phi_fn, elementwise."""
    import scipy.integrate      # deferred: it dominates the package import time

    x1b, tb = np.broadcast_arrays(x1, np.abs(t))
    out = np.empty(x1b.shape)
    flat_x, flat_t, flat_o = x1b.ravel(), tb.ravel(), out.ravel()
    for i in range(flat_o.size):
        with warnings.catch_warnings():
            # the explicit error-estimate check below decides convergence
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, err = scipy.integrate.quad(
                lambda s, xi=flat_x[i]: phi_fn(np.asarray(xi), np.asarray(s)),
                0.0, flat_t[i], epsabs=1e-12, epsrel=1e-12, limit=200)
        if err > 1e-10 * (1.0 + abs(val)):
            raise NumericsError(
                f"quadrature for Phi did not converge at t={flat_t[i]:g} "
                f"(error estimate {err:g})")
        flat_o[i] = val
    return out


# ---------------------------------------------------------------------------
# the family type
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MusielakFamily:
    """A concrete Phi/phi pair with exponent field and structure constants.

    Instances are frozen dataclasses: assigning a field raises
    ``dataclasses.FrozenInstanceError``, and a changed constant means a new
    descriptor from ``dataclasses.replace``.  All evaluation methods are
    pure, so instances are safe to share across threads.
    """

    family_id: str
    kernel: _Kernel
    p: ExponentField | None
    phi0: float
    phi_sup: float
    M_lower: float = 0.0
    estimated: frozenset = frozenset()
    alpha: float | None = None
    label: str = ""

    def __post_init__(self):
        if not (1.0 < self.phi0 <= self.phi_sup):
            raise InputError("need 1 < phi0 <= phi_sup")
        if self.M_lower < 0.0:
            raise InputError("M_lower must be >= 0")

    def __repr__(self):
        return (f"MusielakFamily({self.label!r}, phi0={self.phi0:g}, "
                f"phi_sup={self.phi_sup:g})")

    # -- pointwise operations ------------------------------------------

    def phi(self, x1, t):
        """phi(x,t); odd in t, phi(x,0) = 0."""
        x1, t = _finite_args(x1, t, "t")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _maybe_scalar(self.kernel.phi(self, x1, t))

    def dphi(self, x1, t):
        """phi'(x,t) = d phi/dt; even in t and finite at t = 0."""
        x1, t = _finite_args(x1, t, "t")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _maybe_scalar(self.kernel.dphi(self, x1, t))

    def Phi(self, x1, t):
        """Phi(x,t) = integral of phi from 0 to |t| (even extension)."""
        x1, t = _finite_args(x1, t, "t")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _maybe_scalar(self.kernel.Phi(self, x1, t))

    def phi_inv(self, x1, s):
        """Inverse of phi(x,.) on [0,inf); monotone in s, phi_inv(x,0)=0."""
        x1, s = _finite_args(x1, s, "s")
        if np.any(s < 0.0):
            raise InputError("phi_inv expects s >= 0")
        if self.kernel.phi_inv is not None:
            return _maybe_scalar(np.broadcast_arrays(self.kernel.phi_inv(self, x1, s), s)[0])
        x1, s = np.broadcast_arrays(x1, s)
        root = np.zeros(s.shape)
        live = s > 0.0
        if np.any(live):
            root[live] = self._solve_phi_inv(x1[live], s[live])
        return _maybe_scalar(root)

    def _solve_phi_inv(self, x1, s):
        """t > 0 with phi(x1, t) = s > 0, elementwise over 1-d arrays.

        Works in z = log t inside a bracket lo < z < hi that every phi
        evaluation narrows.  The Newton step on log phi(e^z) - log s (slope:
        the kernel's elasticity) is taken when it lands strictly inside the
        bracket, the midpoint otherwise; an element stops once its step is a
        few ulp of z, and its root is e^z times e^step so that rounding z
        costs no accuracy in t.
        """
        hi = np.full(s.shape, 1e30)
        for _ in range(11):         # ten growths by 1e27 reach the 1e300 cap
            short = self.phi(x1, hi) < s
            if not np.any(short):
                break
            hi = np.where(short, np.minimum(hi * 1e27, 1e300), hi)
        else:
            raise NumericsError("phi_inv: s beyond representable range")
        lo, hi = np.full(s.shape, math.log(1e-300)), np.log(hi)
        elasticity = self.kernel.phi_elasticity
        z = 0.5 * (lo + hi)
        if elasticity is not None:
            p = self.p(x1)
            guess = (np.log(s) - np.log(p)) / (p - 1.0)     # phi = p t^{p-1}
            z = np.where((lo < guess) & (guess < hi), guess, z)
        out = np.empty(s.shape)
        active = np.arange(s.size)
        for _ in range(_PHI_INV_MAX_ITER):
            t = np.exp(z)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
                # log of the ratio, not a difference of logs: near the root
                # it is accurate to rounding whatever the size of s
                gap = np.log(self.phi(x1, t) / s)
                lo = np.where(gap < 0.0, z, lo)
                hi = np.where(gap > 0.0, z, hi)
                step = 0.5 * (lo + hi) - z
                tol = _PHI_INV_ULPS * np.maximum(np.abs(z), 1.0)
                if elasticity is not None:
                    newton = -gap / elasticity(self, x1, t)
                    # a final step below the spacing of z lands on z itself
                    take = ((lo < z + newton) & (z + newton < hi)) | (np.abs(newton) <= tol)
                    step = np.where(take, newton, step)
            done = np.abs(step) <= tol
            out[active[done]] = (t * np.exp(step))[done]
            keep = ~done
            if not np.any(keep):
                return out
            active, x1, s = active[keep], x1[keep], s[keep]
            lo, hi, z = lo[keep], hi[keep], (z + step)[keep]
        raise NumericsError("phi_inv: root solve did not converge")

    def conjugate(self, x1, s):
        """Conjugate Young function: sup_{t>0} (s t - Phi(x,t)), attained
        at t = phi_inv(x,s) by strict monotonicity of phi."""
        return _maybe_scalar(self.conjugate_with_argmax(x1, s)[0])

    def conjugate_with_argmax(self, x1, s):
        """(conjugate(x,s), t*) as arrays, t* = phi_inv(x,s) the maximizer;
        t* is also the s-derivative of the conjugate."""
        x1, s = _as_array(x1), _as_array(s)
        if np.any(s < 0.0):
            raise InputError("conjugate expects s >= 0")
        t_star = np.asarray(self.phi_inv(x1, s))
        val = s * t_star - np.asarray(self.Phi(x1, t_star))
        return np.maximum(val, 0.0), t_star

    def conjugate_exponent_bounds(self):
        """Ratio bounds for the conjugate function (Young duality)."""
        return (self.phi_sup / (self.phi_sup - 1.0),
                self.phi0 / (self.phi0 - 1.0))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def _builtin(family_id, p, alpha=None):
    """Descriptor of a built-in kind, with its estimated constants filled in."""
    kernel = _KERNELS[family_id]
    if p.p_minus < kernel.p_min:
        raise InputError(f"{family_id} family requires p(x) >= {kernel.p_min:g}")
    if kernel.uses_alpha and not (alpha is not None and alpha > 0.0):
        raise InputError(f"{family_id} family requires alpha > 0")
    fam = MusielakFamily(family_id, kernel, p, phi0=p.p_minus - kernel.phi0_drop,
                         phi_sup=p.p_plus, M_lower=1.0,
                         alpha=float(alpha) if kernel.uses_alpha else None,
                         label=family_id)
    for estimate in kernel.estimates:
        fam = estimate(fam)
    return fam


def power_family(p: ExponentField) -> MusielakFamily:
    """Family with Phi(x,t) = |t|^{p(x)}; needs p- >= 2."""
    return _builtin("power", p)


def log_quotient_family(p: ExponentField) -> MusielakFamily:
    """Family with Phi ~ |t|^{p(x)}/log(1+|t|); needs p- >= 3.

    Ratio bounds phi0 = p- - 1 and phi_sup = p+ are exact (attained in the
    limits t->0 and t->inf).  M_lower is a window estimate only: the true
    inf of Phi/t^p over all t is 0 because of the 1/log factor at infinity.
    """
    return _builtin("log-quotient", p)


def log_weight_family(p: ExponentField, alpha: float) -> MusielakFamily:
    """Family with Phi = log(1+alpha+|t|)|t|^{p(x)} - correction; p- >= 2.

    phi0 = p- is exact; phi_sup is a refined numerical sup of t*phi/Phi
    (interior maximum), padded by a relative 1e-8 so inequalities tested
    against it stay on the safe side.
    """
    return _builtin("log-weight", p, alpha)


def custom_family(phi_fn, Phi_fn=None, p: ExponentField | None = None,
                  phi0=None, phi_sup=None, M_lower=None, label="custom") -> MusielakFamily:
    """Family from a user-supplied vectorized phi(x1, t).

    Phi comes from Phi_fn if given, else adaptive quadrature of phi.  Ratio
    bounds are taken as declared or estimated by sampling t in [1e-4, 1e4];
    estimates are recorded as such.
    """
    kernel = _Kernel(phi=lambda fam, x1, t: phi_fn(x1, t),
                     Phi=(functools.partial(_quad_Phi, phi_fn) if Phi_fn is None
                          else lambda fam, x1, t: Phi_fn(x1, t)))
    fam = MusielakFamily("custom", kernel, p, phi0=2.0, phi_sup=2.0, label=label)
    estimated = frozenset(name for name, value in (("phi0", phi0), ("phi_sup", phi_sup))
                          if value is None)
    if estimated:
        lo, hi = exponent_bounds(fam, np.geomspace(1e-4, 1e4, 161))
        phi0 = lo if phi0 is None else phi0
        phi_sup = hi if phi_sup is None else phi_sup
    if not (1.0 < phi0 <= phi_sup):
        raise InputError("custom family: need 1 < phi0 <= phi_sup "
                         "(declare them if the sampled estimates are unusable)")
    fam = replace(fam, phi0=float(phi0), phi_sup=float(phi_sup),
                  M_lower=0.0 if M_lower is None else float(M_lower),
                  estimated=estimated)
    if M_lower is None and p is not None:
        fam = _with_m_lower(fam)
    return fam


# ---------------------------------------------------------------------------
# estimation helpers
# ---------------------------------------------------------------------------

def sample_x1(family, n=33, rng=None):
    """First-coordinate samples: the exponent field's representative points,
    or with ``rng`` n uniform draws over its x1 range; x1 = 0 without a field."""
    if family.p is None:
        return np.zeros(1 if rng is None else n)
    if rng is None:
        return family.p.sample_points(n)
    return rng.uniform(*family.p.x1_range, n)


def _ratio(family, x1, t):
    phi = np.asarray(family.phi(x1, t))
    Phi = np.asarray(family.Phi(x1, t))
    if np.any(Phi <= 0.0):
        raise NumericsError("Phi(x,t) <= 0 encountered for t > 0")
    return t * phi / Phi


def _golden_max(f, a, b, iters=70):
    # golden-section search for the max of unimodal-enough functions, one per
    # element of the interval arrays a, b; f takes and returns such arrays
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        right = fc < fd
        a = np.where(right, c, a)
        b = np.where(right, b, d)
        new = np.where(right, a + inv * (b - a), b - inv * (b - a))
        f_new = f(new)
        c, d = np.where(right, d, new), np.where(right, new, c)
        fc, fd = np.where(right, fd, f_new), np.where(right, f_new, fc)
    return np.maximum(fc, fd)


def _with_refined_sup(family):
    """family with phi_sup = numerical sup of t*phi/Phi (coarse log grid plus
    golden polish at every x sample), padded by a relative 1e-8 and recorded
    as estimated."""
    ts = np.geomspace(1e-6, 1e8, 281)
    xs = sample_x1(family, n=21)
    r = _ratio(family, xs[:, None], ts[None, :])
    k = np.argmax(r, axis=1)
    a = np.log(ts[np.maximum(k - 1, 0)])
    b = np.log(ts[np.minimum(k + 1, ts.size - 1)])
    polished = _golden_max(lambda lt: _ratio(family, xs, np.exp(lt)), a, b)
    best = max(float(np.max(r)), float(np.max(polished)))
    return replace(family, phi_sup=best * (1.0 + 1e-8),
                   estimated=family.estimated | {"phi_sup"})


def _with_m_lower(family, t_lo=1e-4, t_hi=1e4, nt=181):
    """family with M_lower = inf over the sampling window of Phi(x,t)/t^{p(x)},
    shaved slightly and recorded as estimated."""
    ts = np.geomspace(t_lo, t_hi, nt)
    xs = sample_x1(family)
    p = family.p(xs)[:, None]
    Phi = np.asarray(family.Phi(xs[:, None], ts[None, :]))
    ratio = Phi / ts[None, :] ** p
    return replace(family, M_lower=max(0.0, float(np.min(ratio)) * (1.0 - 1e-6)),
                   estimated=family.estimated | {"M_lower"})


_KERNELS = {
    "power": _Kernel(_power_phi, _power_Phi, _power_phi_inv, dphi=_power_dphi,
                     p_min=2.0),
    "log-quotient": _Kernel(_log_quotient_phi, _log_quotient_Phi,
                            phi_elasticity=_log_quotient_elasticity,
                            dphi=functools.partial(_elastic_dphi, _log_quotient_dphi0),
                            p_min=3.0,
                            phi0_drop=1.0, estimates=(_with_m_lower,),
                            shifted_lower_bound=True),
    "log-weight": _Kernel(_log_weight_phi, _log_weight_Phi,
                          phi_elasticity=_log_weight_elasticity,
                          dphi=functools.partial(_elastic_dphi, _log_weight_dphi0),
                          p_min=2.0,
                          estimates=(_with_refined_sup, _with_m_lower),
                          uses_alpha=True),
}


# ---------------------------------------------------------------------------
# structural margins: signed distance to each inequality (negative = violated)
# ---------------------------------------------------------------------------

def phi_odd_margin(family, x, t):
    """-|phi(x,t) + phi(x,-t)| on broadcastable sample arrays."""
    return -np.abs(np.asarray(family.phi(x, t)) + np.asarray(family.phi(x, -t)))


def delta2_margin(family, x, t):
    """Relative slack of Phi(x,2t) <= 2^{phi_sup} Phi(x,t)."""
    bound = 2.0 ** family.phi_sup * np.asarray(family.Phi(x, t))
    Phi2 = np.asarray(family.Phi(x, 2.0 * t))
    with np.errstate(invalid="ignore", divide="ignore"):
        return (bound - Phi2) / np.where(bound > 0, bound, 1.0)


def sqrt_convexity_margin(family, xs, tau):
    """Scaled second differences of tau -> Phi(x, sqrt(tau)) along a sorted
    tau grid, shape (xs.size, tau.size - 2); convexity makes them >= 0."""
    psi = np.asarray(family.Phi(xs[:, None], np.sqrt(tau)[None, :]))
    d2 = psi[:, 2:] - 2.0 * psi[:, 1:-1] + psi[:, :-2]
    return d2 / (1.0 + np.abs(psi[:, 1:-1]))


def growth_lower_margin(family, x, t):
    """Scaled slack of M_lower * t^{p(x)} <= Phi(x,t); needs an exponent field."""
    Phi = np.asarray(family.Phi(x, t))
    return (Phi - family.M_lower * t ** family.p(x)) / (1.0 + np.abs(Phi))


# ---------------------------------------------------------------------------
# structure certification
# ---------------------------------------------------------------------------

def exponent_bounds(family, t_grid):
    """Sampled (min, max) of t*phi(x,t)/Phi(x,t), t_grid > 0, x at sample_x1."""
    ts = _as_array(t_grid)
    if ts.size == 0 or np.any(ts <= 0.0):
        raise InputError("t_grid must be nonempty with all t > 0")
    xs = sample_x1(family)
    r = _ratio(family, xs[:, None], ts[None, :])
    return float(np.min(r)), float(np.max(r))


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    worst_margin: float
    witness: dict = field(default_factory=dict)


@dataclass
class StructureReport:
    family: str
    checks: list
    all_passed: bool

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _worst(name, margins, xs, ts, tol):
    flat = np.argmin(margins)
    i, j = np.unravel_index(flat, margins.shape)
    m = float(margins[i, j])
    return ConditionCheck(name, m >= -tol, m,
                          {"x": float(xs[i]), "t": float(ts[j])})


def check_structure(family, t_samples=None) -> StructureReport:
    """Sampled certification of the structural conditions.

    Checks monotone odd phi, Phi(x,0)=0 with Phi positive nondecreasing, the
    doubling bound Phi(x,2t) <= 2^{phi_sup} Phi(x,t) with the explicit
    constant, convexity of t -> Phi(x,sqrt(t)) through second differences,
    and the power-law lower bound M_lower |t|^{p(x)} <= Phi(x,t), at x in
    sample_x1.  Failures populate the report with located witnesses; nothing
    raises.
    """
    tol = _STRUCTURE_TOL
    xs = sample_x1(family)
    ts = _as_array(t_samples) if t_samples is not None else np.geomspace(1e-4, 1e3, 160)
    X, T = xs[:, None], ts[None, :]
    checks = [_worst("phi_odd", phi_odd_margin(family, X, T), xs, ts, tol)]

    # monotonicity of phi across a symmetric grid through 0
    t_sym = np.concatenate([-ts[::-1], [0.0], ts])
    phi_sym = np.asarray(family.phi(X, t_sym[None, :]))
    checks.append(_worst("phi_monotone", np.diff(phi_sym, axis=1), xs, t_sym[:-1], tol))

    # Phi at zero, positivity, monotonicity
    Phi0 = np.asarray(family.Phi(xs, np.zeros_like(xs)))
    iz = int(np.argmax(np.abs(Phi0)))
    m0 = -float(np.abs(Phi0[iz]))
    checks.append(ConditionCheck("Phi_zero", m0 >= -tol, m0, {"x": float(xs[iz])}))

    Phi = np.asarray(family.Phi(X, T))
    checks.append(_worst("Phi_positive", Phi, xs, ts, tol))
    checks.append(_worst("Phi_monotone", np.diff(Phi, axis=1), xs, ts[:-1], tol))
    checks.append(_worst("delta2_explicit_constant", delta2_margin(family, X, T),
                         xs, ts, _DELTA2_REL_TOL))

    tau = np.linspace(0.0, float(np.max(ts)) ** 2, 201)
    checks.append(_worst("sqrt_convexity", sqrt_convexity_margin(family, xs, tau),
                         xs, tau[1:-1], tol))

    if family.p is not None:
        checks.append(_worst("growth_lower", growth_lower_margin(family, X, T),
                             xs, ts, tol))
        if family.kernel.shifted_lower_bound:
            # the companion bound Phi >= t^{p(x)-1} printed for this family
            margin1 = (Phi - T ** (family.p(xs)[:, None] - 1.0)) / (1.0 + np.abs(Phi))
            checks.append(_worst("growth_lower_shifted", margin1, xs, ts, tol))

    return StructureReport(family.label, checks, all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# descriptor serialization
# ---------------------------------------------------------------------------

def _fmt_field(family, name):
    return "estimate" if name in family.estimated else repr(getattr(family, name))


def family_to_text(family: MusielakFamily) -> str:
    """Serialize a standard family descriptor to key-value text."""
    if family.family_id not in _KERNELS:
        raise InputError("custom families (callable-backed) are not serializable")
    spec = family.p.to_spec()
    lines = [f"family = {family.family_id}", f"p.kind = {spec.pop('kind')}"]
    lines += [f"p.{key} = " + " ".join(repr(v) for v in values)
              for key, values in spec.items()]
    if family.alpha is not None:
        lines.append(f"alpha = {family.alpha!r}")
    for name in ("phi0", "phi_sup", "M_lower"):
        lines.append(f"{name} = {_fmt_field(family, name)}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> MusielakFamily:
    """Rebuild a family from key-value text produced by family_to_text."""
    return family_from_kv(parse_kv_text(text))


def family_from_kv(kv: dict, prefix: str = "") -> MusielakFamily:
    """Built-in family from descriptor keys under ``prefix``; a declared
    phi0/phi_sup/M_lower number overrides, the word ``estimate`` recomputes."""
    fid = kv.get(prefix + "family")
    if fid is None:
        raise InputError("family descriptor missing 'family' key")
    p = exponent_from_kv(kv, prefix + "p.")
    if fid not in _KERNELS:
        raise InputError(f"family id {fid!r} not loadable from text")
    alpha = kv.get(prefix + "alpha")
    fam = _builtin(fid, p, None if alpha is None else finite_float(alpha, prefix + "alpha"))
    declared = {}
    for name in ("phi0", "phi_sup", "M_lower"):
        raw = kv.get(prefix + name)
        if raw is not None and raw != "estimate":
            declared[name] = finite_float(raw, prefix + name)
    return replace(fam, estimated=fam.estimated.difference(declared), **declared)
