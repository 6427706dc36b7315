"""Fixed-order Gauss-Legendre panel quadrature, vectorized over node arrays.

All integrals here have per-element bounds (one integral per grid node), so
adaptive scalar quadrature would be far too slow in the norm-solving loops.
Instead each family-specific integrand is tamed by a substitution that removes
its endpoint singularity, after which 16-node Gauss-Legendre panels are
accurate to near machine precision (verified against mpmath in the tests).
Each element gets its own panel count, so a value never depends on the
other elements of its batch.
"""

import numpy as np

_K = 16
_XI, _WI = np.polynomial.legendre.leggauss(_K)
# nodes/weights mapped to [0, 1]
_Y01 = 0.5 * (_XI + 1.0)
_W01 = 0.5 * _WI


def gauss01(fn):
    """Integrate ``fn`` over [0,1]; fn maps (K,) nodes to (..., K) values."""
    return np.sum(_W01 * fn(_Y01), axis=-1)


def panel_gauss(fn, a, b, panels, *params):
    """Integrate ``fn`` over per-element intervals [a_i, b_i].

    ``b``, ``panels`` and each of ``params`` are 1-d arrays with one entry
    per element, ``a`` broadcasts against ``b``; element i is split into
    panels[i] equal subintervals.  ``fn(pts, *cols)`` receives the (m, K)
    nodes of the m elements that still have a panel left, with their
    parameters sliced to (m, 1) columns.
    """
    length = (b - a) / panels
    half = 0.5 * length
    total = np.zeros(b.shape)
    for j in range(int(np.max(panels, initial=0))):
        idx = np.flatnonzero(panels > j)
        lo = (a + j * length)[idx]
        h = half[idx]
        pts = (lo + h)[:, None] + h[:, None] * _XI
        total[idx] += h * np.sum(_WI * fn(pts, *(q[idx, None] for q in params)), axis=-1)
    return total
