"""Grid construction, stencils, quadrature, and solution-file round trips."""

import ast
import math
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import grid as grid_module
from orliczkit.config import grid_from_kv, parse_kv_text
from orliczkit.errors import InputError
from orliczkit.grid import (DomainGrid, _divergence, _gradient, _gradient_and_magnitude,
                            _metric_bands, _neumann_modes, _random_fields, bump_function,
                            gradient, gradient_adjoint, gradient_magnitude,
                            integrate, load_function, quad_weights,
                            random_function, save_function)


def test_make_grid_1d():
    g = ok.make_grid(1, [(0.0, 1.0)], [5])
    assert g.spacing == (0.25,)
    assert g.measure == 1.0


def test_make_grid_2d_measure():
    g = ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [3, 5])
    assert g.measure == 2.0
    assert g.shape == (3, 5)


def test_make_grid_rejects_degenerate():
    with pytest.raises(InputError):
        ok.make_grid(1, [(0.0, 0.0)], [5])
    with pytest.raises(InputError):
        ok.make_grid(1, [(0.0, 1.0)], [2])
    with pytest.raises(InputError):
        ok.make_grid(3, [(0.0, 1.0)] * 3, [5, 5, 5])


def test_make_grid_takes_flat_or_paired_extents():
    g = ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [3, 5])
    assert ok.make_grid(2, [0.0, 1.0, 0.0, 2.0], [3, 5]) == g
    assert ok.make_grid(1, [0.0, 1.0], 3) == ok.make_grid(1, [(0.0, 1.0)], [3])
    for dim, extents, nodes in ((1, [0.0, 1.0, 2.0], [3]), (2, [0.0, 1.0], [3, 3]),
                                (2, [(0.0, 1.0)] * 2, [3]), (1, [(0.0, 1.0), (2.0,)], [3]),
                                (0, [], [])):
        with pytest.raises(InputError):
            ok.make_grid(dim, extents, nodes)


def test_make_grid_node_counts_must_be_integral():
    with pytest.raises(InputError, match="as integers"):
        ok.make_grid(1, [(0.0, 1.0)], [3.7])
    for count in (5.0, np.int64(5)):
        g = ok.make_grid(1, [(0.0, 1.0)], [count])
        assert g.nodes == (5,) and type(g.nodes[0]) is int


@pytest.mark.parametrize("extents, nodes", [
    (((0.0, 1.0),), (2,)),
    (((0.0, 1.0),), (3.5,)),
    (((0.0, np.inf),), (3,)),
    (((1.0, 0.0),), (3,)),
    (((0.0, 1.0),), (3, 3)),
    (((0.0, 1.0),) * 3, (3, 3, 3)),
], ids=["two-nodes", "non-integral-count", "infinite-extent", "hi-below-lo",
        "count-without-extent", "three-axes"])
def test_domain_grid_checks_direct_construction(extents, nodes):
    with pytest.raises(InputError):
        DomainGrid(extents, nodes)


def test_domain_grid_derives_dim_spacing_and_measure():
    g = DomainGrid(((0.0, 2.0), (-1.0, 1.0)), (5, 3))
    assert (g.dim, g.spacing, g.measure) == (2, (0.5, 1.0), 4.0)
    twin = ok.make_grid(2, [(0.0, 2.0), (-1.0, 1.0)], [5.0, 3])
    assert twin == g and hash(twin) == hash(g)


@pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
def test_make_grid_rejects_non_finite_extents(tmp_path, lo, hi):
    with pytest.raises(InputError, match="extents must be finite"):
        ok.make_grid(2, [(0.0, 1.0), (lo, hi)], [3, 3])
    kv = parse_kv_text(f"grid.dim = 1\ngrid.extents = {lo!r} {hi!r}\ngrid.nodes = 5\n")
    with pytest.raises(InputError, match="'grid.extents' must be finite"):
        grid_from_kv(kv)
    p = tmp_path / "sol.dat"
    p.write_text(f"1 3 {lo!r} {hi!r}\n0.0\n0.0\n0.0\n")
    with pytest.raises(InputError, match="extents must be finite"):
        load_function(p)


@pytest.mark.parametrize("extents", [[(0.0, 1.0), (-1e308, 1e308)],
                                     [(0.0, 1e200), (0.0, 1e200)]],
                         ids=["width", "area"])
def test_domain_grid_rejects_an_overflowing_measure(extents):
    # an infinite width or area overflowed the nodes' coordinates or the
    # weights, with numpy warnings on the CLI's stderr
    with pytest.raises(InputError, match="extents must be finite"):
        ok.make_grid(2, extents, [3, 3])


def test_gradient_constant_is_zero(grid_2d):
    u = ok.GridFunction.constant(grid_2d, 3.7)
    assert np.all(gradient(u) == 0.0)


def test_gradient_affine_interior_and_boundary(grid_1d):
    u = ok.GridFunction.from_callable(grid_1d, lambda x: x)
    g = gradient(u)[0]
    assert np.allclose(g[1:-1], 1.0, atol=1e-13)
    # reflected ghosts force zero normal derivative at the two ends
    assert g[0] == 0.0 and g[-1] == 0.0


def test_gradient_2d_components(grid_2d):
    u = ok.GridFunction.from_callable(grid_2d, lambda x, y: 2.0 * x + 0.0 * y)
    g = gradient(u)
    assert np.allclose(g[0][1:-1, :], 2.0)
    assert np.all(g[0][0, :] == 0.0) and np.all(g[0][-1, :] == 0.0)
    assert np.allclose(g[1], 0.0)


def test_gradient_linearity(grid_1d, rng):
    u = ok.GridFunction(grid_1d, rng.standard_normal(grid_1d.shape))
    v = ok.GridFunction(grid_1d, rng.standard_normal(grid_1d.shape))
    lhs = gradient(ok.GridFunction(grid_1d, 2.0 * u.values - 3.0 * v.values))
    rhs = 2.0 * gradient(u) - 3.0 * gradient(v)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_integrate_constants_and_affine():
    g2 = ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [7, 9])
    assert integrate(ok.GridFunction.constant(g2, 1.0)) == pytest.approx(2.0, rel=1e-14)
    g1 = ok.make_grid(1, [(0.0, 1.0)], [11])
    u = ok.GridFunction.from_callable(g1, lambda x: x)
    assert integrate(u) == pytest.approx(0.5, abs=1e-15)


def test_integrate_quadratic_error_bound(grid_1d):
    u = ok.GridFunction.from_callable(grid_1d, lambda x: x * x)
    assert integrate(u) == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_integrate_linearity(grid_2d, rng):
    u = ok.GridFunction(grid_2d, rng.standard_normal(grid_2d.shape))
    v = ok.GridFunction(grid_2d, rng.standard_normal(grid_2d.shape))
    lhs = integrate(ok.GridFunction(grid_2d, 1.3 * u.values + 0.7 * v.values))
    rhs = 1.3 * integrate(u) + 0.7 * integrate(v)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradient_adjoint_identity(rng):
    for g in (ok.make_grid(1, [(0.0, 1.0)], [17]),
              ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [9, 13])):
        u = rng.standard_normal(g.shape)
        y = rng.standard_normal((g.dim,) + g.shape)
        gu = gradient(ok.GridFunction(g, u))
        lhs = float(np.sum(gu * y))
        rhs = float(np.sum(u * gradient_adjoint(y, g)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        # on a stack of fields, each row is the adjoint of that row alone
        Y = rng.standard_normal((g.dim, 3) + g.shape)
        stacked = gradient_adjoint(Y, g)
        assert stacked.shape == (3,) + g.shape
        for k in range(3):
            assert stacked[k].tobytes() == gradient_adjoint(Y[:, k], g).tobytes()


def _take_neighbours(v, axis):
    """The reference stencil: v at the previous and the next node along
    axis by np.take gathers, with the reflected ghosts v[1] before the
    first node and v[-2] after the last."""
    i = np.arange(v.shape[axis])
    return (np.take(v, np.abs(i - 1), axis=axis),
            np.take(v, i[-1] - np.abs(i[-2] - i), axis=axis))


def _take_gradient(g, v):
    parts = []
    for k, h in enumerate(g.spacing):
        prev, nxt = _take_neighbours(v, k - g.dim)
        parts.append((nxt - prev) / (2.0 * h))
    return np.stack(parts)


def _take_gradient_adjoint(fields, g):
    out = np.zeros(fields.shape[1:])
    for k, h in enumerate(g.spacing):
        y = np.moveaxis(fields[k], k - g.dim, 0)
        z = np.zeros((len(y) + 2,) + y.shape[1:])
        z[2:-2] = y[1:-1]
        out += np.moveaxis(z[:-2] - z[2:], 0, k - g.dim) / (2.0 * h)
    return out


def _take_random_fields(g, seeds, amplitude, smoothness):
    rows = []
    for seed in seeds:
        v = np.random.default_rng(seed).uniform(-1.0, 1.0, size=g.shape)
        for _ in range(smoothness):
            for ax in range(-g.dim, 0):
                prev, nxt = _take_neighbours(v, ax)
                v = 0.25 * (prev + 2.0 * v + nxt)
        rows.append(v * (amplitude / np.max(np.abs(v))))
    return np.array(rows)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("grid", [
    ok.make_grid(1, [(0.0, 1.0)], [17]),
    ok.make_grid(1, [(-1.0, 2.5)], [3]),
    ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [9, 13]),
    ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [3, 4]),
], ids=["1d-17", "1d-3", "2d-9x13", "2d-3x4"])
def test_slice_stencil_matches_the_take_reference(rng, grid, rows):
    # D, D^T and the smoothing of random fields index slices where the
    # reference gathers neighbours with np.take; the arithmetic is the same,
    # so every output is byte-identical, signed zeros included
    v = rng.standard_normal((rows,) + grid.shape)
    v[v > 1.0] = -0.0
    f = rng.standard_normal((grid.dim, rows) + grid.shape)
    f[f > 1.0] = -0.0
    f[f < -1.0] = 0.0
    assert _gradient(grid, v).tobytes() == _take_gradient(grid, v).tobytes()
    assert gradient_adjoint(f, grid).tobytes() == _take_gradient_adjoint(f, grid).tobytes()
    seeds = [3, 4, 5][:rows]
    for smoothness in (0, 1, 3):
        assert (_random_fields(grid, seeds, 0.7, smoothness).tobytes()
                == _take_random_fields(grid, seeds, 0.7, smoothness).tobytes())
    assert (random_function(grid, 3, 0.7, 2).values.tobytes()
            == _take_random_fields(grid, [3], 0.7, 2)[0].tobytes())
    # <D v, f>_w = <v, D^T (w f) / w>_w, row by row, and the weak divergence
    # is that D^T (w f) / w, bit for bit
    w = grid.weights
    lhs = np.sum((w * np.sum(_gradient(grid, v) * f, axis=0)).reshape(rows, -1), axis=1)
    rhs = np.sum((v * gradient_adjoint(w * f, grid)).reshape(rows, -1), axis=1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    div = _divergence(grid, f)
    assert div.tobytes() == (gradient_adjoint(w * f, grid) / w).tobytes()
    rhs = np.sum((w * v * div).reshape(rows, -1), axis=1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _dense_axis_stencil(lo, hi, n):
    """Trapezoid weights W and gradient stencil D of one axis as dense matrices."""
    g = ok.make_grid(1, [(lo, hi)], [n])
    D = np.stack([gradient(ok.GridFunction(g, e))[0] for e in np.eye(n)], axis=1)
    return np.diag(quad_weights(g)), D


@pytest.mark.parametrize("grid", [
    ok.make_grid(1, [(0.0, 1.0)], [17]),
    ok.make_grid(1, [(-1.0, 2.5)], [33]),
    ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [17, 33]),
], ids=["1d-17", "1d-33", "2d-17x33"])
def test_neumann_modes_diagonalize_the_stencil(grid):
    # V^T W V = I and K V = W V diag(lam), K = D^T W D, against dense
    # matrices of each axis; the constant and the checkerboard have lam = 0
    modes = _neumann_modes(grid)
    assert len(modes) == grid.dim
    for (lo, hi), n, (V, lam) in zip(grid.extents, grid.nodes, modes):
        W, D = _dense_axis_stencil(lo, hi, n)
        K = D.T @ W @ D
        assert V.shape == (n, n) and lam.shape == (n,)
        np.testing.assert_allclose(V.T @ W @ V, np.eye(n), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(K @ V, W @ V * lam, rtol=0.0, atol=1e-12)
        assert lam[0] == 0.0 and lam[-1] == 0.0
        assert np.all(lam[1:-1] > 0.0)
        checkerboard = (-1.0) ** np.arange(n)
        np.testing.assert_allclose(V[:, -1] / V[0, -1], checkerboard, rtol=0.0, atol=1e-12)


class _TripledGradientWeights(DomainGrid):
    """A grid whose gradient weights are 3 times its nodal weights: a test
    double for a gradient whose values live on points of their own."""

    @cached_property
    def gradient_weights(self):
        return 3.0 * self.weights


@pytest.mark.parametrize("lo, hi, n, scale", [
    (0.0, 1.0, 17, 1.0), (-1.0, 2.5, 33, 1.0), (0.0, 1.0, 17, 3.0), (-1.0, 2.5, 33, 3.0),
], ids=["17-nodes", "33-nodes", "17-nodes-tripled-gradient-weights",
        "33-nodes-tripled-gradient-weights"])
def test_metric_bands_are_the_dense_metric(lo, hi, n, scale):
    # the upper band form of diag(w c) + D^T diag(w_D k) D, c of mixed sign,
    # against dense matrices; the first superdiagonal and the unused corner
    # of the band form are exactly 0
    grid = (DomainGrid if scale == 1.0 else _TripledGradientWeights)(((lo, hi),), (n,))
    W, D = _dense_axis_stencil(lo, hi, n)
    x = grid.axis_coords(0)
    c, k = np.cos(3.0 * x) - 0.2, 1.5 + x * x
    bands = _metric_bands(grid, c, k)
    assert bands.shape == (3, n)
    assert np.all(bands[1] == 0.0) and np.all(bands[0, :2] == 0.0)
    banded = np.diag(bands[2]) + np.diag(bands[0, 2:], 2) + np.diag(bands[0, 2:], -2)
    dense = W @ np.diag(c) + D.T @ (scale * W) @ np.diag(k) @ D
    np.testing.assert_allclose(banded, dense, rtol=0.0, atol=1e-13 * np.max(np.abs(dense)))


def test_quad_weights_sum_to_measure(grid_2d):
    assert float(np.sum(quad_weights(grid_2d))) == pytest.approx(grid_2d.measure, rel=1e-13)


def test_random_function_determinism(grid_2d):
    a = random_function(grid_2d, 42, 1.0, 2)
    b = random_function(grid_2d, 42, 1.0, 2)
    assert np.array_equal(a.values, b.values)


def test_random_function_amplitude(grid_1d):
    u = random_function(grid_1d, 7, 0.3, 3)
    assert u.sup_norm() == pytest.approx(0.3, rel=1e-14)
    assert np.all(np.abs(u.values) <= 0.3 * (1 + 1e-15))


def test_random_function_rejects_bad_amplitude(grid_1d):
    with pytest.raises(InputError):
        random_function(grid_1d, 1, 0.0)
    with pytest.raises(InputError):
        random_function(grid_1d, 1, 1.0, smoothness=-1)


@pytest.mark.parametrize("build", [
    lambda g: ok.GridFunction(g, np.zeros(g.size + 1)),
    lambda g: ok.GridFunction(g, np.zeros((2, g.size))),
    lambda g: ok.GridFunction(g, ["a"] * g.size),
    lambda g: ok.GridFunction(g, [[1.0, 2.0], [3.0]]),
    lambda g: random_function(g, -1, 1.0),
    lambda g: random_function(g, 1.5, 1.0),
    lambda g: random_function(g, np.nan, 1.0),
    lambda g: random_function(g, 1, 1.0, smoothness=1.5),
    lambda g: random_function(g, 1, 1.0, smoothness=0.5),
    lambda g: random_function(g, 1, 1.0, smoothness=np.inf),
    lambda g: _random_fields(g, np.array([3, -4]), 1.0, np.array([1, 2])),
], ids=["too-many-values", "two-rows", "strings", "ragged", "negative-seed", "fractional-seed",
        "nan-seed", "smoothness-1.5", "smoothness-0.5", "infinite-smoothness",
        "negative-seed-in-a-stack"])
def test_grid_inputs_raise_input_error(grid_1d, build):
    # each of these ended in numpy's ValueError or was silently truncated
    with pytest.raises(InputError):
        build(grid_1d)


def test_random_function_takes_integral_floats_and_integer_arrays(grid_1d):
    a = random_function(grid_1d, 7, 1.0, 2)
    assert np.array_equal(random_function(grid_1d, 7.0, 1.0, 2.0).values, a.values)
    stack = _random_fields(grid_1d, np.array([7, 8], dtype=np.int64), 1.0, np.array([2, 0]))
    assert np.array_equal(stack[0], a.values)


def test_random_fields_smooth_one_chunk_of_rows_at_a_time(monkeypatch, grid_1d):
    # every row is its own random_function bit for bit, whatever the chunk
    # size, and a 40-row stack on 129^2 (5.3 MB) is smoothed without a
    # temporary the size of the stack
    g = ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [129, 129])
    seeds, smoothness = np.arange(40), np.arange(40) % 5
    tracemalloc.start()
    try:
        stack = _random_fields(g, seeds, 1.0, smoothness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack.nbytes, peak
    for grid in (g, grid_1d):
        rows = [random_function(grid, s, 1.0, k).values for s, k in zip(seeds, smoothness)]
        for budget in (grid.size, 3 * grid.size, 64 * grid.size):
            monkeypatch.setattr(grid_module, "_NODE_BUDGET", budget)
            assert np.array_equal(_random_fields(grid, seeds, 1.0, smoothness), rows)
        monkeypatch.undo()


def test_bump_properties(grid_1d, grid_2d):
    for g in (grid_1d, grid_2d):
        theta = bump_function(g)
        assert np.all(theta.values >= 0.0)
        assert theta.sup_norm() > 0.5
        border = theta.values[0] if g.dim == 1 else theta.values[0, :]
        assert np.all(border == 0.0)


def test_save_load_bit_identical(tmp_path, grid_1d, grid_2d, rng):
    for g in (grid_1d, grid_2d):
        u = ok.GridFunction(g, rng.standard_normal(g.shape))
        path = tmp_path / f"sol{g.dim}.dat"
        save_function(u, path)
        v = load_function(path)
        assert v.grid == u.grid
        assert np.array_equal(v.values, u.values)   # bit identical


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.dat"
    p.write_text("2 4 4 0.0 1.0 0.0 1.0\n1.0\n")
    with pytest.raises(InputError):
        load_function(p)
    p.write_text("")
    with pytest.raises(InputError):
        load_function(p)


def test_grid_function_immutability(grid_1d):
    u = ok.GridFunction.constant(grid_1d, 1.0)
    with pytest.raises(ValueError):
        u.values[0] = 2.0
    # rebinding would skip the finiteness check and the read-only flag
    with pytest.raises(AttributeError):
        u.values = np.full(grid_1d.shape, np.inf)
    with pytest.raises(AttributeError):
        u.grid = ok.make_grid(1, [(0.0, 2.0)], [grid_1d.size])
    assert u.values.tolist() == [1.0] * grid_1d.size


def test_fields_on_different_grids_do_not_combine():
    # u + v returned a field on u's grid, and a 1-d plus a 2-d field raised
    # "the grid has 5 nodes, got 25 values"
    u = ok.GridFunction.constant(ok.make_grid(1, [(0.0, 1.0)], [5]), 1.0)
    v = ok.GridFunction.constant(ok.make_grid(1, [(0.0, 2.0)], [5]), 1.0)
    w = ok.GridFunction.constant(ok.make_grid(2, [(0.0, 1.0)] * 2, [5, 5]), 1.0)
    for a, b in ((u, v), (v, u), (u, w)):
        for combine in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(InputError, match="different grids"):
                combine(a, b)
    twin = ok.GridFunction.constant(ok.make_grid(1, [(0.0, 1.0)], [5]), 2.0)
    assert (u + twin).values.tolist() == [3.0] * 5


def test_grid_caches_are_per_grid_and_read_only():
    g = ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [5, 7])
    w, x1 = quad_weights(g), g.coords_first
    assert quad_weights(g) is w and g.coords_first is x1
    # D's values live on the nodes: its weights are the nodal array itself
    assert g.gradient_weights is w
    assert x1.shape == g.shape and np.array_equal(x1[:, 0], g.axis_coords(0))
    for arr in (w, x1):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    twin = ok.make_grid(2, [(0.0, 1.0), (0.0, 2.0)], [5, 7])
    assert quad_weights(twin) is not w
    assert np.array_equal(quad_weights(twin), w)


def test_stacks_equal_their_rows(grid_1d, grid_2d):
    # random fields and gradient magnitudes of a stack, row by row, bit for bit
    seeds, amplitudes, smoothness = [3, 2 ** 61 + 5, 11, 7], [0.1, 10.0, 1.0, 0.3], [0, 4, 2, 1]
    for g in (grid_1d, grid_2d):
        stack = _random_fields(g, seeds, amplitudes, smoothness)
        assert stack.shape == (4,) + g.shape
        _, mags = _gradient_and_magnitude(g, stack)
        for k, args in enumerate(zip(seeds, amplitudes, smoothness)):
            u = random_function(g, *args)
            assert np.array_equal(stack[k], u.values)
            assert np.array_equal(mags[k], gradient_magnitude(u))


def test_only_grid_calls_gradient_adjoint():
    # the weak divergence D^T (w_D f) / w has one definition,
    # grid._divergence: no other module of the library calls D^T itself
    callers = set()
    for path in sorted(Path(ok.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "gradient_adjoint":
                    callers.add(path.name)
    assert callers == {"grid.py"}


@pytest.mark.parametrize("grid", [
    ok.make_grid(1, [(0.0, 1.0)], [41]),
    ok.make_grid(2, [(0.0, 1.0), (0.0, 1.5)], [17, 13]),
], ids=["1d-41", "2d-17x13"])
def test_every_gradient_pairing_reads_the_grids_gradient_weights(grid, family_logquot_affine,
                                                                monkeypatch):
    # on a grid whose gradient weights are 3 w, the energy, the residual, the
    # Sobolev modular and norm and the Newton step (its system, its predicted
    # decrease and, in 2-d, the flux mean of its preconditioner) follow the
    # scaling, against sums built by hand on the nodal grid: the weights of
    # D's points are read from the grid only
    from orliczkit import solver
    from orliczkit.solver import _newton_model, _shifted_step
    from orliczkit.spaces import NORM_TOL

    fam, lam = family_logquot_affine, 0.7
    config = ok.EnergyConfig(fam, ok.power_sin_reaction(ok.ExponentField.affine(3.0, 1.0)), lam)
    tripled = _TripledGradientWeights(grid.extents, grid.nodes)
    w, x = grid.weights, grid.coords_first
    values = 1.0 + _random_fields(grid, 5, 0.8, 1)[0]
    u3 = ok.GridFunction(tripled, values)
    gu, s = _gradient_and_magnitude(grid, values)

    def integral(f):
        return float(np.sum(w * f))

    def sobolev_modular(scale):
        return (integral(fam.Phi(x, np.abs(values) / scale))
                + 3.0 * integral(fam.Phi(x, s / scale)))

    np.testing.assert_allclose(ok.sobolev_modular(fam, u3), sobolev_modular(1.0), rtol=1e-14)
    J = sobolev_modular(1.0) - lam * integral(config.reaction.G(x, values))
    np.testing.assert_allclose(ok.energy(config, u3), J, rtol=1e-14)
    norm = ok.sobolev_norm(fam, u3)
    assert abs(sobolev_modular(norm) - 1.0) <= NORM_TOL + 1e-14
    assert norm > ok.sobolev_norm(fam, ok.GridFunction(grid, values)) * (1.0 + 1e-3)

    # the residual: its gradient part D^T (3 w a(|D u|) D u) / w triples
    safe = np.where(s > 0.0, s, 1.0)
    secant = np.where(s > 0.0, np.asarray(fam.phi(x, safe)) / safe, 0.0)
    grad_part = gradient_adjoint(3.0 * w * secant * gu, grid) / w
    point_part = np.asarray(fam.phi(x, values)) - lam * np.asarray(config.reaction.g(x, values))
    r = ok.residual(config, u3).values
    np.testing.assert_allclose(r, grad_part + point_part, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(grad_part)))

    # the Newton step: (H + mu S) d = -r with the tripled pairing, to
    # rounding in 1-d and to CG's forcing term in 2-d, and its prediction
    mu = 1.0
    model = _newton_model(config, u3)
    c, radial = model[:2]
    fast, a_bars = solver._fast_diagonalization, []

    def recording(modes, weights, c_bar, a_bar):
        a_bars.append(a_bar)
        return fast(modes, weights, c_bar, a_bar)

    monkeypatch.setattr(solver, "_fast_diagonalization", recording)
    d, pred, _ = _shifted_step(tripled, model, r, mu,
                               _neumann_modes(grid) if grid.dim == 2 else None)
    gd = _gradient(grid, d)
    if grid.dim == 1:
        flux = (radial + mu) * gd
    else:
        a, n = model[2:]
        flux = (a + mu) * gd + (radial - a) * n * np.sum(n * gd, axis=0)
        assert a_bars == [pytest.approx(1.5 * integral(a + radial) / grid.measure + mu,
                                        rel=1e-14)]
    e = gradient_adjoint(3.0 * w * flux, grid) / w + (c + mu) * d + r
    r_norm, e_norm = math.sqrt(integral(r * r)), math.sqrt(integral(e * e))
    assert e_norm <= (1e-10 if grid.dim == 1 else min(0.5, math.sqrt(r_norm)) * 1.001) * r_norm
    dd, gg, red = integral(d * d), integral(np.sum(gd * gd, axis=0)), integral((r + e) * d)
    hand = 0.5 * (mu * (dd + 3.0 * gg) - red)
    np.testing.assert_allclose(pred, hand, rtol=1e-12)
    assert abs(pred - 0.5 * (mu * (dd + gg) - red)) > 1e6 * abs(pred - hand)
