"""Scalar exponent fields p(x) on the domain.

An exponent field is a continuous map x -> p(x) > 1 evaluated through its
first spatial coordinate.  Three kinds are supported:

* ``constant``:   p(x) = c
* ``affine``:     p(x) = a + b*x1, with a declared x1-range fixing inf/sup
* ``tabulated``:  nodal values on a sorted 1-d coordinate table, nearest lookup

A field holds only these inputs, as tuples, so it is immutable and hashes;
its bounds ``p_minus`` and ``p_plus`` are computed from them.  Every
construction, through a builder, a config parser or directly, is checked
once, in ``__post_init__`` and nowhere else: a known kind with its number
of coefficients (1, 2 or 0), a (lo, hi) x1_range (for an affine field
with hi > lo and a finite width; for a tabulated one, the ends of its
table), finite values and p_minus > 1.  A tabulated field's tables, of
matching sizes, are sorted by x1 there (stably).  The same type serves
both the Young-function exponent p and the reaction exponent q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["ExponentField"]

_COEFF_COUNTS = {"constant": 1, "affine": 2, "tabulated": 0}


@dataclass(frozen=True)
class ExponentField:
    """Exponent field with bounds p_minus <= p(x) <= p_plus, p_minus > 1."""

    kind: str
    coeffs: tuple = ()
    x1_range: tuple = (0.0, 1.0)
    table_x1: tuple = field(default=(), repr=False)
    table_values: tuple = field(default=(), repr=False)

    def __post_init__(self):
        x1, n_coeffs = self.table_x1, _COEFF_COUNTS.get(self.kind)
        if n_coeffs is None:
            raise InputError(f"unknown exponent kind {self.kind!r}")
        if len(self.coeffs) != n_coeffs or len(self.x1_range) != 2:
            raise InputError(f"a {self.kind} exponent needs {n_coeffs} coefficient(s) and a "
                             f"(lo, hi) x1_range, got {self.coeffs} and {self.x1_range}")
        if self.kind == "tabulated":
            if len(x1) != len(self.table_values) or not x1:
                raise InputError("tabulated exponent needs matching x1/value tables")
            if not all(map(math.isfinite, x1 + self.table_values)):
                raise InputError("tabulated exponent tables must be finite")
            order = np.argsort(x1, kind="stable")
            x1 = tuple(np.asarray(x1, dtype=float)[order].tolist())
            object.__setattr__(self, "table_x1", x1)
            object.__setattr__(self, "table_values",
                               tuple(np.asarray(self.table_values, dtype=float)[order].tolist()))
            if self.x1_range != (x1[0], x1[-1]):
                raise InputError("tabulated exponent needs an x1_range from the least to "
                                 "the largest table x1")
        if self.kind == "affine" and not 0.0 < self.x1_range[1] - self.x1_range[0] < math.inf:
            raise InputError("affine exponent needs a nondegenerate x1 range of finite width")
        if not self.p_minus > 1.0:
            raise InputError(f"exponent field must satisfy inf p(x) > 1, got {self.p_minus}")
        if not all(map(math.isfinite, self.coeffs + self.x1_range + (self.p_plus,))):
            raise InputError(f"exponent field must be finite, got sup p(x) = {self.p_plus}")

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(c: float) -> "ExponentField":
        return ExponentField("constant", coeffs=(float(c),))

    @staticmethod
    def affine(a: float, b: float, x1_range=(0.0, 1.0)) -> "ExponentField":
        """p(x) = a + b*x1 on the closed coordinate range [lo, hi]."""
        return ExponentField("affine", coeffs=(float(a), float(b)),
                             x1_range=tuple(map(float, x1_range)))

    @staticmethod
    def tabulated(x1: np.ndarray, values: np.ndarray) -> "ExponentField":
        """Per-node values over a coordinate table (nearest lookup), sorted by x1."""
        x1 = tuple(np.asarray(x1, dtype=float).ravel().tolist())
        values = tuple(np.asarray(values, dtype=float).ravel().tolist())
        return ExponentField("tabulated", x1_range=(min(x1, default=0.0), max(x1, default=0.0)),
                             table_x1=x1, table_values=values)

    # -- bounds ---------------------------------------------------------

    def _extreme_values(self) -> tuple:
        if self.kind == "affine":
            return tuple(self.coeffs[0] + self.coeffs[1] * x for x in self.x1_range)
        return self.coeffs or self.table_values

    @property
    def p_minus(self) -> float:
        return min(self._extreme_values())

    @property
    def p_plus(self) -> float:
        return max(self._extreme_values())

    # -- evaluation -----------------------------------------------------

    def __call__(self, x1) -> np.ndarray:
        """Evaluate p at first-coordinate values ``x1`` (scalar or array)."""
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "constant":
            return np.full(x1.shape, self.coeffs[0])
        if self.kind == "affine":
            a, b = self.coeffs
            return a + b * x1
        xs, values = np.asarray(self.table_x1), np.asarray(self.table_values)
        idx = np.clip(np.searchsorted(xs, x1), 1, xs.size - 1)
        use_left = np.abs(x1 - xs[idx - 1]) <= np.abs(xs[idx] - x1)
        return np.where(use_left, values[idx - 1], values[idx])

    def sample_points(self, n: int = 33) -> np.ndarray:
        """Representative first-coordinate samples covering the field's range."""
        if self.kind == "constant":
            return np.array([0.5 * (self.x1_range[0] + self.x1_range[1])])
        if self.kind == "tabulated":
            return np.array(self.table_x1)
        return np.linspace(self.x1_range[0], self.x1_range[1], n)

    # -- serialization --------------------------------------------------

    def to_spec(self) -> dict:
        if self.kind == "tabulated":
            return {
                "kind": "tabulated",
                "x1": list(self.table_x1),
                "values": list(self.table_values),
            }
        return {
            "kind": self.kind,
            "coeffs": list(self.coeffs),
            "x1_range": list(self.x1_range),
        }
