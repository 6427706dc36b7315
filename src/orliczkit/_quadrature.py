"""Fixed-order Gauss-Legendre panel quadrature, vectorized over node arrays.

The tails of the log families' correction integrals have per-element
bounds (one integral per grid node past the cut), so adaptive scalar
quadrature would be far too slow in the norm-solving loops.  Each tail
integrand is smooth on its interval, and 16-node Gauss-Legendre panels are
accurate to near machine precision there (verified against mpmath in the
tests).  Each element gets its own panel count, so a value never depends
on the other elements of its batch.
"""

import numpy as np

_K = 16
_XI, _WI = np.polynomial.legendre.leggauss(_K)


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
