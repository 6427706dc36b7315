"""Malformed-input fuzzing of the builders that own the input checks.

Whatever ``ExponentField(kind, coeffs, x1_range)`` or
``make_grid(dim, extents, nodes)`` is drawn, the call either builds a usable
object or raises ``InputError``; no other exception escapes.  A built
exponent field must give its bounds and its values at its own sample
points.  Draws are derandomized so the suite is deterministic.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import orliczkit as ok
from orliczkit.errors import InputError

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

number = st.one_of(
    st.floats(-2.0, 8.0, allow_nan=False),
    st.integers(-3, 8),
    st.sampled_from([0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]),
)
# node counts stay small: a built grid's arrays are allocated below
count = st.one_of(st.integers(-3, 8), st.floats(-2.0, 8.0, allow_nan=False),
                  st.sampled_from([math.nan, math.inf, 4.5]))


def _build(build):
    try:
        return build()
    except InputError:
        return None


@FUZZ
@given(kind=st.sampled_from(["constant", "affine", "tabulated", "bogus"]),
       coeffs=st.lists(number, max_size=3).map(tuple),
       x1_range=st.lists(number, max_size=3).map(tuple))
def test_exponent_field_builds_or_raises_input_error(kind, coeffs, x1_range):
    p = _build(lambda: ok.ExponentField(kind, coeffs, x1_range))
    if p is not None:
        assert 1.0 < p.p_minus <= p.p_plus < math.inf
        p(p.sample_points())


@FUZZ
@given(dim=st.integers(-1, 3),
       extents=st.one_of(st.lists(number, max_size=5),
                         st.lists(st.lists(number, max_size=3), max_size=3)),
       nodes=st.one_of(count, st.lists(count, max_size=3)))
def test_make_grid_builds_or_raises_input_error(dim, extents, nodes):
    grid = _build(lambda: ok.make_grid(dim, extents, nodes))
    if grid is not None:
        assert grid.dim == dim and all(type(n) is int and n >= 3 for n in grid.nodes)
        assert grid.weights.shape == grid.shape
