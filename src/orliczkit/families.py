"""Concrete Musielak-Orlicz function families and pointwise operations.

A family bundles a generating function phi(x,t) (odd and strictly increasing
in t) with its primitive Phi(x,t) = integral of phi(x,s) ds from 0 to t, the
exponent bounds

    1 < phi0 <= t*phi(x,t)/Phi(x,t) <= phi_sup < inf,

and a lower growth constant M_lower with M_lower*|t|^p(x) <= Phi(x,t) on the
sampling window.  Three named families are built in, each one entry of the
kernel table ``_KERNELS`` (formulas for phi and Phi, the elasticity
t phi'/phi (p - 1 for ``power``; the phi_inv solve and the unit-modular
solve of ``spaces`` use it), the closed-form phi_inv or else one safeguarded
Newton solve for it, phi' (closed form for ``power``, phi times the
elasticity over t for the log kinds), the smallest admissible p- and the
phi0 rule):

* ``power``        phi = p(x)|t|^{p(x)-2} t                 Phi = |t|^{p(x)}
* ``log-quotient`` phi = p(x)|t|^{p(x)-2} t / log(1+|t|)
                   Phi = |t|^{p(x)}/log(1+|t|)
                         + int_0^{|t|} s^{p(x)}/((1+s) log^2(1+s)) ds
* ``log-weight``   phi = p(x) log(1+alpha+|t|) |t|^{p(x)-2} t
                   Phi = log(1+alpha+|t|) |t|^{p(x)}
                         - int_0^{|t|} s^{p(x)}/(1+alpha+s) ds

For ``power`` the bounds are phi0 = p-, phi_sup = p+; for ``log-quotient``
phi0 = p- - 1, phi_sup = p+; for ``log-weight`` phi0 = p- and phi_sup is
estimated numerically.  The ``custom`` entry calls a user phi callable, and
a Phi callable or else adaptive quadrature of phi; its elasticity takes phi'
from a central difference of phi, and phi from its caller where the caller
has just evaluated it.

A descriptor holds only its inputs; ``__post_init__`` checks every
construction and derives the kernel, phi0/phi_sup/M_lower (declared, by the
kind's rule or by a numerical estimate) and the set of estimated names.
The correction integrals of the two log families split at a cut.  The
head is a power series in its upper limit, summed by Horner's rule, with
coefficients computed on p's own shape (log-quotient: by their recurrence
in k); the tail past the cut has Gauss-Legendre panels sized per element
(see _quadrature), so every value is independent of its batch.  Log-weight
Phi is |t|^p (log(1+alpha+|t|) - its correction over |t|^p), so no s^p is
formed before Phi itself overflows.
Everything is vectorized over broadcastable (x, t) arrays; the only state
is a bounded memo of read-only series coefficients (see _series), which
holds what a fresh computation gives.  ``check_structure`` passes margins
down to -``_STRUCTURE_TOL`` (-``_DELTA2_REL_TOL`` for relative doubling).
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quadrature import panel_gauss
from .errors import DomainError, InputError, NumericsError
from .exponents import ExponentField

__all__ = [
    "MusielakFamily", "power_family", "log_quotient_family", "log_weight_family",
    "custom_family", "exponent_bounds", "check_structure",
    "StructureReport", "ConditionCheck",
]


# phi_inv: iteration cap (bisection alone needs about 60) and stopping step
_PHI_INV_MAX_ITER = 100
_PHI_INV_ULPS = 4.0 * np.finfo(float).eps
# the representable bracket of z = log t the phi_inv solve starts from
_PHI_INV_BRACKET = (math.log(1e-300), math.log(1e300))
# relative step of the central difference that stands in for a missing phi'
_DPHI_STEP = np.finfo(float).eps ** (1.0 / 3.0)
_STRUCTURE_TOL = 1e-8
_DELTA2_REL_TOL = 1e-9


def _as_array(v):
    return np.asarray(v, dtype=float)


def _batch_args(x1, t):
    """(x1, t, scalar): float arrays.  Two 0-d inputs come back as 1-element
    arrays with scalar = True: numpy's scalar power can differ from its
    array loop in the last bit, and a scalar should get the value the same
    element gets in a batch (``_maybe_scalar`` turns it back)."""
    x1, t = _as_array(x1), _as_array(t)
    scalar = x1.ndim == t.ndim == 0
    return (x1.reshape(1), t.reshape(1), True) if scalar else (x1, t, False)


def _finite_args(x1, t, name):
    """``_batch_args``, with both inputs checked finite."""
    x1, t, scalar = _batch_args(x1, t)
    for label, arr in (("x", x1), (name, t)):
        if not np.isfinite(arr).all():
            raise DomainError(f"{label} must be finite")
    return x1, t, scalar


def _maybe_scalar(out, scalar=False):
    out = np.asarray(out)
    return float(out.reshape(())) if scalar or out.ndim == 0 else out


# ---------------------------------------------------------------------------
# correction integrals: a power-series head and Gauss-panel tail
# ---------------------------------------------------------------------------

# terms of the log-weight head series: k!/(p+2)_k w^k with w <= 1/2 is below
# 2^-53 of the sum from k = 40 on, for every p >= 2; its coefficients over
# p + 1 are the cumulative products of _LOG_WEIGHT_NUM / (p + _LOG_WEIGHT_DEN)
_LOG_WEIGHT_TERMS = 40
_LOG_WEIGHT_NUM = np.maximum(np.arange(_LOG_WEIGHT_TERMS), 1.0)[:, None]
_LOG_WEIGHT_DEN = np.arange(1.0, _LOG_WEIGHT_TERMS + 1.0)[:, None]
# (largest p, terms K) of the log-quotient head series at c = 1; above, K is
# 3 p rounded up to a multiple of 4 (_poly sums four interleaved lanes)
_LOG_QUOTIENT_TERMS = ((4.0, 28), (6.0, 32), (8.0, 40), (12.0, 48), (20.0, 60))
# exponent values per block of series coefficients: a log-quotient block and
# the temporaries of its recurrence are at most 2 x 60 x 256 floats (240 KiB)
_P_BLOCK = 256
# coefficient blocks memoized per coefficient kind (at most 8 x 60 x 256
# floats, 1 MB, for the log-quotient terms of p+ <= 20)
_MEMO_BLOCKS = 8


@functools.lru_cache(maxsize=8)
def _log_quotient_g(K):
    """g_j = j l_j, j < K, as a read-only (K, 1) column: the coefficients of
    L'(v) for L(v) = log(expm1(v)/v) = v/2 + sum_m B_2m v^2m/(2m (2m)!)
    (DLMF 24.2.1), so g_1 = 1/2, g_j = B_j/j! for even j and 0 for odd j > 1;
    B_j/j! from sum_i (B_i/i!)/(j - i + 1)! = 0 (v/expm1(v) times expm1(v)/v
    is 1)."""
    inv_fact = np.cumprod(1.0 / np.arange(1.0, K + 1.0))   # 1/(i+1)!
    g = np.zeros(K)
    g[0] = 1.0
    for j in range(1, K):
        g[j] = -np.dot(g[j - 1::-1], inv_fact[1:j + 1])
    g[0], g[1], g[3::2] = 0.0, 0.5, 0.0
    g = g[:, None]
    g.setflags(write=False)
    return g


def _poly(b, x, out=None):
    """sum_k b[k] x^k elementwise, into ``out`` if given; b of shape (K,) + s
    with K a multiple of 4 and at least 8, s broadcasting against x.
    Horner's rule in x^4 on four interleaved partial sums, joined as
    (l0 + l1 x) + (l2 + l3 x) x^2: a K-term sum in K/2 + 4 array operations
    of multiply-adds only (2K for plain Horner)."""
    y = x * x
    y *= y
    blocks = b.reshape((-1, 4) + b.shape[1:])
    lanes = blocks[-1] * y
    for block in blocks[-2:0:-1]:
        lanes += block
        lanes *= y
    del y
    lanes += blocks[0]
    odd = lanes[1::2]
    odd *= x
    odd += lanes[0::2]
    out = np.multiply(lanes[3], x * x, out=out)
    out += lanes[1]
    return out


@functools.lru_cache(maxsize=_MEMO_BLOCKS)
def _log_quotient_coeffs(p_plus, data):
    """a_k(p)/(p - 1 + k), k < K, for the exponents p whose float64 bytes are
    ``data``, shape (K, p.size), read-only; K is the term count of the
    largest exponent p_plus (_LOG_QUOTIENT_TERMS).

    a_k = [v^k] (expm1(v)/v)^p = [v^k] exp(p L(v)) obeys k a_k =
    p sum_j g_j a_{k-j} (_log_quotient_g).  Each finished a_{k-1} is pushed
    into the sums of the later terms, so every exponent takes the same
    elementwise multiplies and adds in the same order, whatever its block (a
    BLAS product over the block rounds by the position in it).
    """
    K = next((k for top, k in _LOG_QUOTIENT_TERMS if p_plus <= top),
             4 * math.ceil(0.75 * p_plus))
    p = np.frombuffer(data)
    g = _log_quotient_g(K)
    p_over_k = p / np.arange(1.0, K)[:, None]
    a = np.zeros((K, p.size))
    a[0] = 1.0
    for k in range(1, K):
        a[k:] += g[1:K - k + 1] * a[k - 1]
        a[k] *= p_over_k[k - 1]
    a /= p + np.arange(-1.0, K - 1.0)[:, None]
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=_MEMO_BLOCKS)
def _log_weight_coeffs(data):
    """k!/(p+1)_{k+1} = k!/((p+1)(p+2)_k) for the exponents p whose float64
    bytes are ``data``, shape (K, p.size), read-only."""
    b = np.frombuffer(data) + _LOG_WEIGHT_DEN
    np.divide(_LOG_WEIGHT_NUM, b, out=b)
    np.cumprod(b, axis=0, out=b)
    b.setflags(write=False)
    return b


def _blocks(shape):
    """Index tuples that split an array of this shape along its first axis of
    extent > 1 into slabs of at most _P_BLOCK entries (one index of that axis
    at least); a single whole block when no axis has extent > 1."""
    axes = [a for a, n in enumerate(shape) if n > 1]
    if not axes:
        return [(...,)]
    a = axes[0]
    step = max(1, _P_BLOCK // math.prod(shape[a + 1:]))
    return [(slice(None),) * a + (slice(i, i + step), ...) for i in range(0, shape[a], step)]


def _series(x, p, coeffs):
    """sum_k b_k x^k elementwise (_poly), with b = coeffs(p) of shape
    (K,) + p.shape.

    The coefficients are computed on p's own shape and broadcast against x:
    once for a constant exponent (a 0-d p), once per grid row for a column
    of first coordinates.  ``coeffs`` takes the bytes of a block of
    exponents, at most _P_BLOCK of them, so a full-shape p needs no
    (K, size) temporaries; it memoizes the last _MEMO_BLOCKS blocks, so the
    exponents of a grid, the same in every call of a solve or a norm, cost
    their coefficients once.
    """
    shape = np.broadcast(x, p).shape
    out = np.empty(shape)
    if x.shape != shape:
        x = np.broadcast_to(x, shape)
    if p.size == out.size:      # an exponent per element: blocks of the flat arrays
        p, x, flat = p.reshape(-1), x.reshape(-1), out.reshape(-1)
    else:
        p, flat = p.reshape((1,) * (len(shape) - p.ndim) + p.shape), out
    for idx in _blocks(p.shape):
        block = p[idx]
        b = coeffs(block.tobytes())
        _poly(b.reshape(b.shape[:1] + block.shape), x[idx], flat[idx])
    return out


def _past_cut(out, top, cut, p):
    """(mask, top, p) of the elements of the broadcast shape of ``out`` with
    top > cut, the ones a correction integral's tail sees; mask is None when
    there are none."""
    far = top > cut
    if not far.any():
        return None, None, None
    far = np.broadcast_to(far, out.shape)
    return far, np.broadcast_to(top, out.shape)[far], np.broadcast_to(p, out.shape)[far]


def _corr_log_quotient(V, p, p_plus):
    """integral_0^V expm1(v)^p / v^2 dv for V = log(1+|t|), elementwise.

    The head [0, c], c = min(V, 1), is c^{p-1} sum_k a_k(p) c^k/(p-1+k):
    v^{p-2} (expm1(v)/v)^p integrated termwise (radius 2 pi), to 3e-16 at
    c = 1 with the K terms that p_plus picks (_log_quotient_coeffs).  The
    tail [1, V] of the elements with V > 1 has ceil(p(V-1)/16) panels each
    (at most 128), for the exp(p*v) growth.
    """
    c = np.minimum(V, 1.0)
    out = _series(c, p, functools.partial(_log_quotient_coeffs, p_plus))
    out *= np.power(c, p - 1.0)
    far, V, p = _past_cut(out, V, 1.0, p)
    if far is not None:
        def tail(v, q):
            return np.exp(q * np.log(np.expm1(v)) - 2.0 * np.log(v))

        panels = np.clip(np.ceil(p * (V - 1.0) / 16.0), 1, 128)
        with np.errstate(over="ignore"):
            out[far] += panel_gauss(tail, 1.0, V, panels, p)
    return out


def _log_weight_head_ratio(c, p, kappa):
    """integral_0^c s^p/(kappa+s) ds divided by c^p: w F(w)/(p+1) with
    w = c/(kappa+c) <= 1/2 and F(w) = sum_k k!/(p+2)_k w^k, the Gauss series
    of 2F1(1, p+1; p+2; -c/kappa) after Pfaff's transformation (DLMF 15.8.1)."""
    w = c / (kappa + c)
    out = _series(w, p, _log_weight_coeffs)
    out *= w
    return out


def _corr_log_weight_scaled(T, p, kappa):
    """integral_0^T (s/T)^p / (kappa + s) ds for T = |t|, elementwise (0 at
    T = 0), so that Phi = T^p (log(kappa + T) - this) never forms s^p.

    The head [0, c], c = min(T, kappa), is _log_weight_head_ratio(c), times
    (kappa/T)^p on the elements past the cut.  Their tail [kappa, T] is
    integrated in log coordinates, where the pole sits at fixed imaginary
    distance pi and the integrand grows like e^{(p+1) w}, each with its own
    ceil(max(p+1, 4) log(T/kappa)/24) panels (at most 128).
    """
    def tail(w, q, log_T):
        ew = np.exp(w)
        return np.exp(q * (w - log_T)) * ew / (kappa + ew)

    out = _log_weight_head_ratio(np.minimum(T, kappa), p, kappa)
    far, T, p = _past_cut(out, T, kappa, p)
    if far is not None:
        lo, hi = math.log(kappa), np.log(T)
        panels = np.clip(np.ceil(np.maximum(p + 1.0, 4.0) * (hi - lo) / 24.0), 1, 128)
        out[far] = (kappa / T) ** p * out[far] + panel_gauss(tail, lo, hi, panels, p, hi)
    return out


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


def _power_elasticity(fam, x1, t, phi=None):
    return fam.p(x1) - 1.0


def _log_quotient_phi(fam, x1, t):
    # t/log1p|t| first: |t|^{p-2} t alone underflows where phi does not
    p = fam.p(x1)
    at = np.abs(t)
    return np.where(at == 0.0, 0.0, p * (t / np.log1p(at)) * at ** (p - 2.0))


def _log_quotient_elasticity(fam, x1, t, phi=None):
    return (fam.p(x1) - 1.0) - t / ((1.0 + t) * np.log1p(t))


def _log_quotient_dphi0(fam, x1):
    # phi/t ~ p t^{p-3}: 3 at p = 3, 0 above
    p = fam.p(x1)
    return p * (p - 2.0) * 0.0 ** (p - 3.0)


def _series_args(fam, x1, t):
    """(p, |t|, p+) for a Phi with a series head: |t| with the shape of the
    result (x1 and t broadcast), p(x1) on no more nodes than its values need,
    as the series coefficients are computed on p's own shape: a 0-d array
    for a constant field, and without the later axes along which x1 is
    constant (a 2-d grid's coords_first gives its column)."""
    at = np.abs(t)
    if x1.shape != at.shape:
        shape = np.broadcast_shapes(x1.shape, at.shape)
        if at.shape != shape:
            at = np.broadcast_to(at, shape)
    field = fam.p
    p_plus = field.p_plus
    if field.p_minus == p_plus:
        return np.asarray(p_plus), at, p_plus
    for axis in range(1, x1.ndim):
        first = x1[(slice(None),) * axis + (slice(0, 1),)]
        if x1.shape[axis] > 1 and (x1 == first).all():
            x1 = first
    return field(x1), at, p_plus


def _log_quotient_Phi(fam, x1, t):
    p, at, p_plus = _series_args(fam, x1, t)
    V = np.log1p(at)
    corr = _corr_log_quotient(V, p, p_plus)
    lead = at ** p      # 0 at t = 0, where V is 0 too
    lead /= np.where(V > 0, V, 1.0)
    return lead + corr


def _log_weight_phi(fam, x1, t):
    p = fam.p(x1)
    at = np.abs(t)
    return p * np.log(1.0 + fam.alpha + at) * at ** (p - 2.0) * t


def _log_weight_elasticity(fam, x1, t, phi=None):
    kappa = 1.0 + fam.alpha
    return (fam.p(x1) - 1.0) + t / ((kappa + t) * np.log(kappa + t))


def _log_weight_dphi0(fam, x1):
    # phi/t ~ p log(1+alpha) t^{p-2}: 2 log(1+alpha) at p = 2, 0 above
    p = fam.p(x1)
    return p * (p - 1.0) * np.log(1.0 + fam.alpha) * 0.0 ** (p - 2.0)


def _log_weight_Phi(fam, x1, t):
    p, at, _ = _series_args(fam, x1, t)
    kappa = 1.0 + fam.alpha
    return at ** p * (np.log(kappa + at) - _corr_log_weight_scaled(at, p, kappa))


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

    phi_elasticity = t phi'/phi = d log phi/d log t (t > 0): p(x) - 1 for
    ``power``, closed forms for the log kinds, and t phi'/phi with the
    central-difference phi' for ``custom``; it takes phi(x, t) as an
    optional fourth argument, which only ``custom`` reads (it calls phi_fn
    otherwise).  The unit-modular solve of ``spaces`` takes its curvature
    term t^2 phi' = t phi * phi_elasticity from it, and the phi_inv solve
    its Newton slope, both passing the phi they have just evaluated.
    phi_inv is the closed-form inverse of phi; without one, phi_inv solves
    phi = s in z = log t (see MusielakFamily._solve_phi_inv).  dphi is the
    derivative phi' (even in t, finite at t = 0); without a formula it is a
    central difference of phi.
    The remaining slots are the smallest admissible p-, the rule
    phi0 = p- - phi0_drop, the numerical estimates as (names, helper) pairs
    with helper(family) -> the values of names, whether alpha enters the
    formulas, and whether the companion bound Phi >= t^{p(x)-1} holds.
    """

    phi: Callable
    Phi: Callable
    phi_elasticity: Callable
    phi_inv: Callable | None = None
    dphi: Callable = _central_dphi
    p_min: float = 1.0
    phi0_drop: float = 0.0
    estimates: tuple = ()
    uses_alpha: bool = False
    shifted_lower_bound: bool = False


def _custom_elasticity(fam, x1, t, phi=None):
    return t * _central_dphi(fam, x1, t) / (fam.phi_fn(x1, t) if phi is None else phi)


def _custom_Phi(fam, x1, t):
    """Phi of a custom family: Phi_fn, else elementwise quadrature of phi_fn."""
    if fam.Phi_fn is not None:
        return fam.Phi_fn(x1, t)
    import scipy.integrate      # deferred: it dominates the package import time

    x1b, tb = np.broadcast_arrays(x1, np.abs(t))
    out = np.empty(x1b.shape)
    flat_x, flat_t, flat_o = x1b.ravel(), tb.ravel(), out.ravel()
    for i in range(flat_o.size):
        with warnings.catch_warnings():
            # the explicit error-estimate check below decides convergence
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, err = scipy.integrate.quad(
                lambda s, xi=flat_x[i]: fam.phi_fn(np.asarray(xi), np.asarray(s)),
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

_CONSTANTS = ("phi0", "phi_sup", "M_lower")


@dataclass(frozen=True, eq=False)
class MusielakFamily:
    """A concrete Phi/phi pair with exponent field and structure constants.

    Constructor fields are inputs; ``dataclasses.replace`` re-derives every
    constant that was not declared.  Instances are frozen and their methods
    pure, so they are safe to share across threads.
    """

    family_id: str
    p: ExponentField | None = None
    alpha: float | None = None
    label: str = ""                         # the kind when empty
    declared_phi0: float | None = None
    declared_phi_sup: float | None = None
    declared_M_lower: float | None = None
    phi_fn: Callable | None = None          # custom only, required
    Phi_fn: Callable | None = None          # custom only, optional
    kernel: _Kernel = field(init=False)
    phi0: float = field(init=False)
    phi_sup: float = field(init=False)
    M_lower: float = field(init=False)
    estimated: frozenset = field(init=False)    # names set by a numerical estimate

    def __post_init__(self):
        fid, p, alpha = self.family_id, self.p, self.alpha
        kernel = _KERNELS.get(fid)
        if kernel is None:
            raise InputError(f"unknown family id {fid!r}")
        custom = fid == "custom"
        if (not callable(self.phi_fn)) if custom else (self.phi_fn or self.Phi_fn):
            raise InputError("phi_fn/Phi_fn: custom families only, with a callable phi_fn")
        if not ((custom and p is None)
                or (isinstance(p, ExponentField) and p.p_minus >= kernel.p_min)):
            raise InputError(f"{fid} family requires p(x) >= {kernel.p_min:g}")
        if kernel.uses_alpha and not (isinstance(alpha, numbers.Real) and 0.0 < alpha < math.inf):
            raise InputError(f"{fid} family requires alpha > 0")
        if not kernel.uses_alpha and alpha is not None:
            raise InputError(f"{fid} family takes no alpha")
        declared = {name: value for name in _CONSTANTS
                    if (value := getattr(self, "declared_" + name)) is not None}
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in declared.values()):
            raise InputError(f"declared constants must be finite numbers, got {declared}")
        values = {"M_lower": 0.0} if p is None else {
            "phi0": p.p_minus - kernel.phi0_drop, "phi_sup": p.p_plus, "M_lower": 1.0}
        object.__setattr__(self, "kernel", kernel)
        estimated = set()
        for names, estimate in kernel.estimates:
            # M_lower bounds Phi by M_lower |t|^p(x): no estimate without p
            if not set(names) <= declared.keys() and (p is not None or "M_lower" not in names):
                values.update(zip(names, estimate(self)))
                estimated.update(names)
        values.update(declared)
        for name, value in values.items():
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "estimated", frozenset(estimated - declared.keys()))
        object.__setattr__(self, "label", self.label or fid)
        if not 1.0 < self.phi0 <= self.phi_sup < math.inf:
            hint = " (declare them if the sampled estimates are unusable)" if custom else ""
            raise InputError(f"{fid} family: need 1 < phi0 <= phi_sup < inf{hint}")
        if not 0.0 <= self.M_lower < math.inf:
            raise InputError("M_lower must be >= 0 and finite")

    def __repr__(self):
        return (f"MusielakFamily({self.label!r}, phi0={self.phi0:g}, "
                f"phi_sup={self.phi_sup:g})")

    # -- pointwise operations ------------------------------------------

    def _pointwise(self, formula, x1, t):
        """A kernel formula on finite (x1, t), a scalar for two scalars."""
        x1, t, scalar = _finite_args(x1, t, "t")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _maybe_scalar(formula(self, x1, t), scalar)

    def phi(self, x1, t):
        """phi(x,t); odd in t, phi(x,0) = 0."""
        return self._pointwise(self.kernel.phi, x1, t)

    def dphi(self, x1, t):
        """phi'(x,t) = d phi/dt; even in t and finite at t = 0."""
        return self._pointwise(self.kernel.dphi, x1, t)

    def Phi(self, x1, t):
        """Phi(x,t) = integral of phi from 0 to |t| (even extension)."""
        return self._pointwise(self.kernel.Phi, x1, t)

    def phi_inv(self, x1, s, _start=None):
        """Inverse of phi(x,.) on [0,inf); monotone in s, phi_inv(x,0)=0.
        It alone checks s >= 0, also for ``conjugate``.  The private
        ``_start`` (broadcastable against s) is a first z = log t for the
        root solve of a family without a closed form."""
        x1, s, scalar = _finite_args(x1, s, "s")
        if np.any(s < 0.0):
            raise InputError("phi_inv expects s >= 0")
        if self.kernel.phi_inv is not None:
            root = np.broadcast_arrays(self.kernel.phi_inv(self, x1, s), s)[0]
            return _maybe_scalar(root, scalar)
        # flat 1-d arrays, views of s and start where they have the full shape
        shape = np.broadcast_shapes(x1.shape, s.shape)
        x1, s = (np.broadcast_to(a, shape).reshape(-1) for a in (x1, s))
        start = None if _start is None else np.broadcast_to(_start, shape).reshape(-1)
        root = np.zeros(s.size)
        live = s > 0.0
        if live.any():
            live = slice(None) if live.all() else live
            root[live] = self._solve_phi_inv(x1[live], s[live],
                                             None if start is None else start[live])
        return _maybe_scalar(root.reshape(shape), scalar)

    def _solve_phi_inv(self, x1, s, start=None):
        """t > 0 with phi(x1, t) = s > 0, elementwise over 1-d arrays.

        Works in z = log t inside a bracket lo < z < hi, the representable
        _PHI_INV_BRACKET at the start, that every phi evaluation narrows.
        The first z is ``start`` where given, else the root of
        phi = p t^{p-1} where the family has an exponent field, and the
        midpoint where that first z is not inside the bracket.  Each
        iteration is one ``_phi_inv_step``; an element stops once its step
        is a few ulp of z, and its root is e^z times e^step so that rounding
        z costs no accuracy in t.  An element that stops at the top of the
        bracket has its root beyond it.  The arrays are compressed to the
        elements left only after an iteration where some element stops.
        """
        lo, hi = (np.full(s.shape, end) for end in _PHI_INV_BRACKET)
        out = np.empty(s.shape)
        active = np.arange(s.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            if start is None and self.p is not None:
                p = self.p(x1)
                start = (np.log(s) - np.log(p)) / (p - 1.0)     # phi = p t^{p-1}
                del p       # as start below: no array the loop does not read
            z = 0.5 * (lo + hi)
            if start is not None:
                z = np.where((lo < start) & (start < hi), start, z)
            del start
            for _ in range(_PHI_INV_MAX_ITER):
                step, tol = self._phi_inv_step(x1, s, z, lo, hi)
                done = np.abs(step) <= tol
                if not done.any():
                    z += step
                    continue
                if np.any(z[done] + step[done] >= _PHI_INV_BRACKET[1] - 2.0 * tol[done]):
                    raise NumericsError("phi_inv: s beyond representable range")
                out[active[done]] = np.exp(z[done]) * np.exp(step[done])
                keep = ~done
                if not np.any(keep):
                    return out
                active, x1, s = active[keep], x1[keep], s[keep]
                lo, hi, z = lo[keep], hi[keep], (z + step)[keep]
        raise NumericsError("phi_inv: root solve did not converge")

    def _phi_inv_step(self, x1, s, z, lo, hi):
        """(step, tol) of one iteration of ``_solve_phi_inv`` at z: it
        evaluates phi at t = e^z, narrows the bracket (lo, hi) in place, and
        takes the Newton step on log phi(e^z) - log s (slope: the kernel's
        elasticity) when it lands strictly inside the bracket, the step to
        the midpoint otherwise.  tol is the stopping step, a few ulp of z.
        phi is the kernel's: x1 is checked finite and t is inside the
        bracket.  The temporaries of the step are gone once it returns."""
        t = np.exp(z)
        phi = self.kernel.phi(self, x1, t)
        # log of the ratio, not a difference of logs: near the root it is
        # accurate to rounding whatever the size of s
        gap = phi / s
        np.log(gap, out=gap)
        np.copyto(lo, z, where=gap < 0.0)
        np.copyto(hi, z, where=gap > 0.0)
        newton = np.divide(gap, self.kernel.phi_elasticity(self, x1, t, phi), out=gap)
        np.negative(newton, out=newton)
        tol = np.abs(z)
        np.maximum(tol, 1.0, out=tol)
        tol *= _PHI_INV_ULPS
        landing = z + newton
        # a final step below the spacing of z lands on z itself
        take = (lo < landing) & (landing < hi)
        take |= np.abs(newton) <= tol
        step = lo + hi
        step *= 0.5
        step -= z
        np.copyto(step, newton, where=take)
        return step, tol

    def conjugate(self, x1, s):
        """Conjugate Young function: sup_{t>0} (s t - Phi(x,t)), attained
        at t = phi_inv(x,s) by strict monotonicity of phi."""
        return _maybe_scalar(self.conjugate_with_argmax(x1, s)[0])

    def conjugate_with_argmax(self, x1, s, _start=None):
        """(conjugate(x,s), t*) as arrays, t* = phi_inv(x,s) the maximizer;
        t* is also the s-derivative of the conjugate.  ``_start`` is the
        first log t of the phi_inv solve."""
        x1, s = _as_array(x1), _as_array(s)
        t_star = np.asarray(self.phi_inv(x1, s, _start))
        val = s * t_star - np.asarray(self.Phi(x1, t_star))
        return np.maximum(val, 0.0), t_star

    def conjugate_exponent_bounds(self):
        """Ratio bounds for the conjugate function (Young duality)."""
        return (self.phi_sup / (self.phi_sup - 1.0),
                self.phi0 / (self.phi0 - 1.0))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def power_family(p: ExponentField) -> MusielakFamily:
    """Family with Phi(x,t) = |t|^{p(x)}; needs p- >= 2."""
    return MusielakFamily("power", p)


def log_quotient_family(p: ExponentField) -> MusielakFamily:
    """Family with Phi ~ |t|^{p(x)}/log(1+|t|); needs p- >= 3.

    Ratio bounds phi0 = p- - 1 and phi_sup = p+ are exact (attained in the
    limits t->0 and t->inf).  M_lower is a window estimate only: the true
    inf of Phi/t^p over all t is 0 because of the 1/log factor at infinity.
    """
    return MusielakFamily("log-quotient", p)


def log_weight_family(p: ExponentField, alpha: float) -> MusielakFamily:
    """Family with Phi = log(1+alpha+|t|)|t|^{p(x)} - correction; p- >= 2.

    phi0 = p- is exact; phi_sup is a refined numerical sup of t*phi/Phi
    (interior maximum), padded by a relative 1e-8 so inequalities tested
    against it stay on the safe side.
    """
    return MusielakFamily("log-weight", p, alpha)


def custom_family(phi_fn, Phi_fn=None, p: ExponentField | None = None,
                  phi0=None, phi_sup=None, M_lower=None, label="custom") -> MusielakFamily:
    """Family from a user-supplied vectorized phi(x1, t).

    Phi comes from Phi_fn if given, else adaptive quadrature of phi.  Ratio
    bounds are taken as declared or else estimated by sampling t in [1e-4, 1e4].
    """
    return MusielakFamily("custom", p, label=label, declared_phi0=phi0,
                          declared_phi_sup=phi_sup, declared_M_lower=M_lower,
                          phi_fn=phi_fn, Phi_fn=Phi_fn)


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


def _refined_sup(family):
    """(phi_sup,): the numerical sup of t*phi/Phi (coarse log grid plus golden
    polish at every x sample), padded by a relative 1e-8."""
    ts = np.geomspace(1e-6, 1e8, 281)
    xs = sample_x1(family, n=21)
    r = _ratio(family, xs[:, None], ts[None, :])
    k = np.argmax(r, axis=1)
    a = np.log(ts[np.maximum(k - 1, 0)])
    b = np.log(ts[np.minimum(k + 1, ts.size - 1)])
    polished = _golden_max(lambda lt: _ratio(family, xs, np.exp(lt)), a, b)
    best = max(float(np.max(r)), float(np.max(polished)))
    return (best * (1.0 + 1e-8),)


def _m_lower(family):
    """(M_lower,): the inf over t in [1e-4, 1e4] of Phi(x,t)/t^{p(x)},
    shaved slightly."""
    ts = np.geomspace(1e-4, 1e4, 181)
    xs = sample_x1(family)
    p = family.p(xs)[:, None]
    Phi = np.asarray(family.Phi(xs[:, None], ts[None, :]))
    ratio = Phi / ts[None, :] ** p
    return (max(0.0, float(np.min(ratio)) * (1.0 - 1e-6)),)


_KERNELS = {
    "power": _Kernel(_power_phi, _power_Phi, _power_elasticity, _power_phi_inv,
                     dphi=_power_dphi, p_min=2.0),
    "log-quotient": _Kernel(_log_quotient_phi, _log_quotient_Phi, _log_quotient_elasticity,
                            dphi=functools.partial(_elastic_dphi, _log_quotient_dphi0),
                            p_min=3.0,
                            phi0_drop=1.0, estimates=((("M_lower",), _m_lower),),
                            shifted_lower_bound=True),
    "log-weight": _Kernel(_log_weight_phi, _log_weight_Phi, _log_weight_elasticity,
                          dphi=functools.partial(_elastic_dphi, _log_weight_dphi0),
                          p_min=2.0,
                          estimates=((("phi_sup",), _refined_sup), (("M_lower",), _m_lower)),
                          uses_alpha=True),
    "custom": _Kernel(lambda fam, x1, t: fam.phi_fn(x1, t), _custom_Phi, _custom_elasticity,
                      estimates=((("phi0", "phi_sup"),
                                  lambda fam: exponent_bounds(fam, np.geomspace(1e-4, 1e4, 161))),
                                 (("M_lower",), _m_lower))),
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
