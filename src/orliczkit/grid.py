"""Uniform grids on an interval or rectangle, nodal fields, and quadrature.

The domain is discretized with evenly spaced nodes including the endpoints.
A grid holds only its extents and node counts.  ``make_grid`` takes the
extents as pairs or flat and checks only that there are dim pairs and dim
counts; ``DomainGrid.__post_init__`` makes every other check (1 or 2 axes,
finite hi > lo and a finite measure, at least 3 integer nodes per axis) and
``GridFunction`` checks the number of nodal values, so the config parser,
the CLI and the solution-file reader pass their numbers on unchecked.  A
grid's dimension, spacing and measure, its quadrature weights and its
nodal first coordinates are computed from its inputs once per grid.
Integrals use the trapezoid rule (exact for affine data in 1d).  Two
fields combine only on the same grid.

The discrete gradient D uses central differences with reflected ghost
nodes, so the normal derivative vanishes identically at boundary nodes --
that is how the zero-flux boundary condition enters every weak form built
on top of this module.  This module is the only one that knows the
stencil and where D's values live: today on the nodes, so
``DomainGrid.gradient_weights``, the weights of D's points, is the same
array as ``weights``, and ``_x1`` gives the first coordinate of both.
``_gradient_and_magnitude`` gives D v and |D v| of a stack of fields, and
``_gradient_stack`` the triple (|D V|, x1, weights) of D's points that the
modulars and the energy integrate.  The adjoint D^T (``gradient_adjoint``,
on one field or a stack) is provided explicitly, so the weak divergence
``_divergence`` = D^T (w_D f) / w, the one form that the residual and the
2-d Newton product assemble, is an exact transpose of the same stencil:
<D v, f>_{w_D} = <v, _divergence(f)>_w.  ``_metric_bands`` gives the band
form of diag(w c) + D^T diag(w_D k) D for the 1-d Newton solve, and
``_neumann_modes`` the per-axis cosine eigenpairs of D^T W D that
precondition the 2-d one.  ``bump_function`` covers the middle
``_BUMP_WIDTH`` of each axis.

A stack of fields is an array (rows,) + grid.shape.  ``_col`` shapes one
value per row to scale a stack, and ``_node_sums`` sums each row over its
nodes; the spaces, energy, solver and verify modules use both.
``_row_chunks`` splits a stack into chunks of rows of at most
``_NODE_BUDGET`` nodes: the modulars and norms of the spaces module and
the smoothing passes of ``_random_fields`` run one chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

__all__ = [
    "DomainGrid", "GridFunction", "make_grid", "quad_weights", "integrate",
    "gradient", "gradient_magnitude", "gradient_adjoint", "random_function",
    "bump_function", "save_function", "load_function",
]

# nodes per chunk of a stack (see _row_chunks)
_NODE_BUDGET = 129 * 129


@dataclass(frozen=True)
class DomainGrid:
    """Uniform grid from its inputs; ``dim``, ``spacing`` and ``measure``
    are computed from them once per grid, like ``weights``."""

    extents: tuple          # ((lo, hi), ...) per axis, hi > lo, finite measure
    nodes: tuple            # integer node count per axis, each >= 3

    def __post_init__(self):
        if self.dim not in (1, 2) or [len(e) for e in self.extents] != [2] * self.dim:
            raise InputError("a grid needs 1 or 2 axes, each a (lo, hi) pair and a node count")
        if not math.isfinite(self.measure):
            raise InputError("extents must be finite, and so must the domain's measure")
        if not all(isinstance(n, (int, np.integer)) and n >= 3 for n in self.nodes):
            raise InputError(f"need at least 3 nodes per axis, as integers, got {self.nodes}")
        if not all(hi > lo for lo, hi in self.extents):
            raise InputError("degenerate extents: need hi > lo on every axis")

    @cached_property
    def dim(self) -> int:
        return len(self.nodes)

    @cached_property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.extents, self.nodes))

    @cached_property
    def measure(self) -> float:
        return math.prod(hi - lo for lo, hi in self.extents)

    @property
    def shape(self):
        return self.nodes

    @property
    def size(self):
        return math.prod(self.nodes)

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, hi = self.extents[axis]
        return np.linspace(lo, hi, self.nodes[axis])

    @cached_property
    def coords_first(self) -> np.ndarray:
        """First-coordinate value at every node, shaped like nodal fields
        (computed once per grid, read-only)."""
        x1 = self.axis_coords(0)
        if self.dim == 2:
            x1 = np.broadcast_to(x1[:, None], self.shape).copy()
        x1.setflags(write=False)
        return x1

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights per node, product form in 2d (computed once per
        grid, read-only)."""
        per_axis = []
        for k in range(self.dim):
            wk = np.full(self.nodes[k], self.spacing[k])
            wk[0] *= 0.5
            wk[-1] *= 0.5
            per_axis.append(wk)
        w = per_axis[0] if self.dim == 1 else np.outer(per_axis[0], per_axis[1])
        w.setflags(write=False)
        return w

    @cached_property
    def gradient_weights(self) -> np.ndarray:
        """The weights of the points where the values of D live: the nodes,
        so ``weights`` itself."""
        return self.weights


def make_grid(dim: int, extents, nodes) -> DomainGrid:
    """Build a grid from ``dim``, its extents as one (lo, hi) pair per axis,
    given as pairs or flat (lo1 hi1 [lo2 hi2]), and a node count per axis
    (integral counts such as 5.0 are taken as integers).  The counts are
    checked here; everything else about the grid in ``DomainGrid``."""
    try:
        ext = np.asarray(extents, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"extents must be numbers: {exc}") from exc
    nn = np.atleast_1d(nodes)
    if ext.size != 2 * dim or nn.shape != (dim,):
        raise InputError(f"a {dim}-d grid needs {dim} (lo, hi) pair(s) and {dim} node count(s)")
    return DomainGrid(tuple(zip(ext[::2].tolist(), ext[1::2].tolist())),
                      tuple(int(n) if float(n).is_integer() else float(n) for n in nn))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real nodal field on a DomainGrid.  Neither attribute can be
    rebound, and the values array is read-only."""

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self):
        try:
            values = np.array(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"grid function values must be numbers: {exc}") from exc
        if values.shape != self.grid.shape:
            if values.size != self.grid.size:
                raise InputError(f"the grid has {self.grid.size} nodes, got {values.size} values")
            values = values.reshape(self.grid.shape)
        if not np.all(np.isfinite(values)):
            raise InputError("grid function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @staticmethod
    def constant(grid, c) -> "GridFunction":
        return GridFunction(grid, np.full(grid.shape, float(c)))

    @staticmethod
    def from_callable(grid, fn) -> "GridFunction":
        if grid.dim == 1:
            return GridFunction(grid, fn(grid.axis_coords(0)))
        x = grid.axis_coords(0)[:, None]
        y = grid.axis_coords(1)[None, :]
        return GridFunction(grid, fn(x, y))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        return GridFunction(self.grid, self.values + _values_on(self.grid, other))

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - _values_on(self.grid, other))

    def __mul__(self, c):
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)


def _values_on(grid: DomainGrid, v: GridFunction) -> np.ndarray:
    """The values of v, a field that must live on ``grid``."""
    if v.grid != grid:
        raise InputError("the two fields live on different grids")
    return v.values


def _col(values, grid: DomainGrid) -> np.ndarray:
    """One value per row, shaped to scale a stack of nodal fields of grid."""
    return np.asarray(values).reshape((-1,) + (1,) * grid.dim)


def _x1(grid: DomainGrid) -> np.ndarray:
    """The nodes' first coordinate, shaped to broadcast against a stack of
    fields: (n,) in 1-d, the column (n0, 1) in 2-d.  In 2-d the exponent and
    the Phi series coefficients computed from it are then evaluated once
    per grid row, not once per node."""
    x1 = grid.coords_first
    return x1 if grid.dim == 1 else x1[:, :1]


def _node_sums(a: np.ndarray) -> np.ndarray:
    """Per-row sums of a stack (rows,) + grid.shape, in the order of the
    flattened nodes."""
    return np.sum(a.reshape(len(a), -1), axis=1)


def _row_chunks(n_rows, n_nodes):
    """Slices of at most max(1, _NODE_BUDGET // n_nodes) rows covering n_rows:
    a stack is evaluated in chunks, so the nodal arrays of one chunk (its
    magnitudes, Phi and phi values, its smoothing passes) stay within those
    of a single 129^2 field however many rows the stack holds."""
    step = max(1, _NODE_BUDGET // n_nodes)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def quad_weights(grid: DomainGrid) -> np.ndarray:
    """Trapezoid weights per node (product form in 2d); ``grid.weights``."""
    return grid.weights


def integrate(f: GridFunction) -> float:
    """Trapezoid-rule integral over the domain."""
    return float(np.sum(quad_weights(f.grid) * f.values))


# ---------------------------------------------------------------------------
# gradient with reflected ghosts and its exact adjoint
# ---------------------------------------------------------------------------

def _along(axis: int, index) -> tuple:
    """Index tuple that applies ``index`` (a slice or an integer) along
    ``axis``, counted from the end, of a field or a stack of fields."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _gradient(grid: DomainGrid, v: np.ndarray) -> np.ndarray:
    """``gradient`` of a stack v of nodal fields, shape (dim,) + v.shape:
    (v[i+1] - v[i-1]) / (2h) along each axis, 0 on its boundary rows."""
    g = np.zeros((grid.dim,) + v.shape)
    for k, h in enumerate(grid.spacing):
        ax = k - grid.dim
        part = g[k][_along(ax, slice(1, -1))]
        np.subtract(v[_along(ax, slice(2, None))], v[_along(ax, slice(None, -2))], out=part)
        part /= 2.0 * h
    return g


def _gradient_and_magnitude(grid: DomainGrid, v: np.ndarray):
    """(grad v, |grad v|) of a stack v of nodal fields, shaped
    (dim,) + v.shape and v.shape."""
    g = _gradient(grid, v)
    return g, np.sqrt(np.sum(g * g, axis=0))


def _gradient_stack(grid: DomainGrid, V: np.ndarray):
    """(|D V|, x1, w_D) of a stack V of nodal fields: the magnitudes, and
    the first coordinate and the weights of the points where they live."""
    return _gradient_and_magnitude(grid, V)[1], _x1(grid), grid.gradient_weights


def gradient(u: GridFunction) -> np.ndarray:
    """Per-component discrete gradient, shape (dim,) + grid.shape.

    Central differences in the interior; at boundary nodes the ghost value is
    the reflected interior neighbour, so the normal component is exactly 0.
    """
    return _gradient(u.grid, u.values)


def gradient_magnitude(u: GridFunction) -> np.ndarray:
    return _gradient_and_magnitude(u.grid, u.values)[1]


def gradient_adjoint(fields: np.ndarray, grid: DomainGrid) -> np.ndarray:
    """Adjoint of `gradient`: sum_k D_k^T fields[k], same stencils transposed.
    fields has shape (dim,) + s, where s is grid.shape or the shape
    (rows,) + grid.shape of a stack; the result has shape s."""
    out = np.zeros(fields.shape[1:])
    for k, h in enumerate(grid.spacing):
        # reflection makes the boundary rows of D_k zero, so D_k^T reads only
        # the interior rows of fields[k], here between two rows of zeros
        ax = k - grid.dim
        shape = list(out.shape)
        shape[ax] += 2
        z = np.zeros(shape)
        z[_along(ax, slice(2, -2))] = fields[k][_along(ax, slice(1, -1))]
        out += (z[_along(ax, slice(None, -2))] - z[_along(ax, slice(2, None))]) / (2.0 * h)
    return out


def _divergence(grid: DomainGrid, flux: np.ndarray) -> np.ndarray:
    """The weak divergence D^T (w_D flux) / w of a flux (dim,) + s at D's
    points, s as in ``gradient_adjoint``: <D v, flux>_{w_D} equals
    <v, _divergence(flux)>_w for every nodal v."""
    return gradient_adjoint(grid.gradient_weights * flux, grid) / grid.weights


def _metric_bands(grid: DomainGrid, c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """diag(w c) + D^T diag(w_D k) D on a 1-d grid, in the upper band form
    of ``scipy.linalg.solveh_banded``.  The central stencil skips the
    neighbour and its boundary rows are zero, so the matrix is
    pentadiagonal with offsets 0 and +-2."""
    w = grid.weights
    m = grid.gradient_weights[1:-1] * k[1:-1] / (2.0 * grid.spacing[0]) ** 2
    bands = np.zeros((3, w.size))
    bands[2] = w * c
    bands[2, 2:] += m
    bands[2, :-2] += m
    bands[0, 2:] = -m
    return bands


def _neumann_modes(grid: DomainGrid) -> list:
    """Per-axis eigenpairs (V_k, lam_k) of the stencil above with the
    trapezoid weights W_k: K_k V_k = W_k V_k diag(lam_k) and
    V_k^T W_k V_k = I, where K_k = D_k^T W_k D_k.

    The columns are the DCT-I cosines cos(pi j m / (n - 1)), and
    lam_k[m] = (sin(pi m / (n - 1)) / h)^2 (D maps the m-th cosine to
    -sin(pi m / (n - 1)) / h times the m-th sine, which the reflected ghosts
    keep at 0 on the boundary).  The constant m = 0 and the checkerboard
    m = n - 1 have eigenvalue 0.
    """
    modes = []
    for n, h in zip(grid.nodes, grid.spacing):
        m = np.arange(n)
        # j m reduced mod 2 (n - 1) keeps the cosine's argument in [0, 2 pi)
        V = np.cos(np.pi * (np.outer(m, m) % (2 * (n - 1))) / (n - 1))
        # W-norm 1: the trapezoid sum of the squared cosine is (n - 1) h / 2,
        # and (n - 1) h for m = 0 and m = n - 1
        scale = np.full(n, math.sqrt(2.0 / (h * (n - 1))))
        scale[[0, -1]] /= math.sqrt(2.0)
        V *= scale
        # sin(pi m/(n-1)) = sin(pi (n-1-m)/(n-1)): the checkerboard gets sin(0)
        lam = (np.sin(np.pi * np.minimum(m, n - 1 - m) / (n - 1)) / h) ** 2
        modes.append((V, lam))
    return modes


# ---------------------------------------------------------------------------
# synthetic fields
# ---------------------------------------------------------------------------

_BUMP_WIDTH = 0.8

def _random_fields(grid: DomainGrid, seeds, amplitudes, smoothness) -> np.ndarray:
    """``random_function`` values, one row per entry of the seeds, amplitudes
    and smoothness counts broadcast against each other (scalars: one row),
    stacked as (rows,) + grid.shape.  The passes run on one chunk of rows
    at a time, on the rows whose smoothness is not yet used up, so a row
    equals its own random_function.
    """
    seeds, amplitudes, smoothness = np.broadcast_arrays(
        *map(np.atleast_1d, (seeds, amplitudes, smoothness)))
    if not np.all(amplitudes > 0.0):
        raise InputError("amplitude must be positive")
    for name, arr in (("seed", seeds), ("smoothness", smoothness)):
        if arr.dtype.kind not in "iuf" or not np.all(
                np.isfinite(arr) & (arr >= 0) & (arr == np.floor(arr))):
            raise InputError(f"{name} must be an integer >= 0")
    v = np.empty((len(seeds),) + grid.shape)
    for i, s in enumerate(seeds):
        v[i] = np.random.default_rng(int(s)).uniform(-1.0, 1.0, size=grid.shape)
    for chunk in _row_chunks(len(v), grid.size):
        c, passes = v[chunk], smoothness[chunk]
        for k in range(int(np.max(passes))):
            rows = np.flatnonzero(passes > k)
            w = c[rows]
            for ax in range(-grid.dim, 0):
                # (prev + 2 w + nxt) / 4, the reflected ghost w[1] before the
                # first node and w[-2] after the last
                acc = 2.0 * w
                acc[_along(ax, slice(1, None))] += w[_along(ax, slice(None, -1))]
                acc[_along(ax, 0)] += w[_along(ax, 1)]
                acc[_along(ax, slice(None, -1))] += w[_along(ax, slice(1, None))]
                acc[_along(ax, -1)] += w[_along(ax, -2)]
                w = 0.25 * acc
            c[rows] = w
        c *= _col(amplitudes[chunk] / np.max(np.abs(c), axis=tuple(range(1, c.ndim))), grid)
    return v


def random_function(grid: DomainGrid, seed: int, amplitude: float,
                    smoothness: int = 2) -> GridFunction:
    """Deterministic smoothed noise with sup-norm exactly `amplitude`.

    `smoothness` counts the passes of a (1,2,1)/4 moving average applied
    along each axis (with reflected ends, keeping boundary flatness mild).
    """
    return GridFunction(grid, _random_fields(grid, seed, amplitude, smoothness)[0])


def bump_function(grid: DomainGrid) -> GridFunction:
    """Nonnegative cos^2 bump of height 1 supported strictly inside the domain."""

    def bump1d(x, lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * _BUMP_WIDTH * (hi - lo)
        xi = (x - mid) / (2.0 * half)
        return np.where(np.abs(xi) < 0.5, np.cos(np.pi * xi) ** 2, 0.0)

    vals = bump1d(grid.axis_coords(0), *grid.extents[0])
    if grid.dim == 2:
        vals = vals[:, None] * bump1d(grid.axis_coords(1), *grid.extents[1])[None, :]
    return GridFunction(grid, vals)


# ---------------------------------------------------------------------------
# solution files: "dim n1 [n2] lo1 hi1 [lo2 hi2]" then nodal values row-major
# ---------------------------------------------------------------------------

def save_function(u: GridFunction, path) -> None:
    g = u.grid
    header = [str(g.dim)] + [str(n) for n in g.nodes]
    for lo, hi in g.extents:
        header += [repr(lo), repr(hi)]
    with open(path, "w") as fh:
        fh.write(" ".join(header) + "\n")
        for v in u.values.ravel(order="C"):
            fh.write(repr(float(v)) + "\n")


def load_function(path) -> GridFunction:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise InputError(f"empty solution file: {path}")
    head = lines[0].split()
    try:
        dim = int(head[0])
        nodes = [int(v) for v in head[1:1 + dim]]
        extents = [float(v) for v in head[1 + dim:]]
        values = [float(v) for v in lines[1:]]
    except ValueError as exc:
        raise InputError(f"malformed solution file {path}: {exc}") from exc
    return GridFunction(make_grid(dim, extents, nodes), values)
