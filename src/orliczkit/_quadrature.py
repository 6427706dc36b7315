"""Fixed-order Gauss-Legendre panel quadrature, vectorized over node arrays.

All integrals here have per-element bounds (one integral per grid node), so
adaptive scalar quadrature would be far too slow in the norm-solving loops.
Instead each family-specific integrand is tamed by a substitution that removes
its endpoint singularity, after which 16-node Gauss-Legendre panels are
accurate to near machine precision (verified against mpmath in the tests).
Each element gets its own panel count, so a value never depends on the
other elements of its batch.

``gauss01`` evaluates its (rows, 16) integrand values ``_BLOCK`` rows at a
time into a preallocated output, and the integrands compute in place on
one buffer per block: a 129^2 field then needs 128 KiB blocks instead of
2 MiB temporaries that the allocator maps and unmaps on every call.  The
ufuncs, their order and the weighted row sum are those of the unblocked
rule, so every value is the same bit for bit.
"""

import numpy as np

_K = 16
_XI, _WI = np.polynomial.legendre.leggauss(_K)
# nodes/weights mapped to [0, 1]
_Y01 = 0.5 * (_XI + 1.0)
_W01 = 0.5 * _WI
# rows per gauss01 block: a (1024, 16) float64 block is 128 KiB
_BLOCK = 1024


def gauss01(fn, *params):
    """Integrate ``fn`` over [0,1], one integral per element.

    Each of ``params`` is a 1-d array with one entry per element.
    ``fn(y, *cols)`` receives the (K,) nodes and the parameters of at most
    ``_BLOCK`` elements sliced to (m, 1) columns, and returns (m, K) values
    that it owns: they are weighted in place.
    """
    out = np.empty(params[0].shape)
    for i in range(0, out.size, _BLOCK):
        rows = slice(i, i + _BLOCK)
        vals = fn(_Y01, *(q[rows, None] for q in params))
        vals *= _W01
        np.sum(vals, axis=-1, out=out[rows])
    return out


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
