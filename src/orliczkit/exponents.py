"""Scalar exponent fields p(x) on the domain.

An exponent field is a continuous map x -> p(x) > 1 evaluated through its
first spatial coordinate.  Three kinds are supported:

* ``constant``:   p(x) = c
* ``affine``:     p(x) = a + b*x1, with a declared x1-range fixing inf/sup
* ``tabulated``:  nodal values on a 1-d coordinate table, nearest lookup

The same type serves both the Young-function exponent p and the reaction
exponent q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["ExponentField"]


@dataclass(frozen=True)
class ExponentField:
    """Exponent field with known bounds p_minus <= p(x) <= p_plus, p_minus > 1."""

    kind: str
    coeffs: tuple = ()
    x1_range: tuple = (0.0, 1.0)
    table_x1: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)
    p_minus: float = 0.0
    p_plus: float = 0.0

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(c: float) -> "ExponentField":
        c = float(c)
        f = ExponentField(kind="constant", coeffs=(c,), p_minus=c, p_plus=c)
        f._validate()
        return f

    @staticmethod
    def affine(a: float, b: float, x1_range=(0.0, 1.0)) -> "ExponentField":
        """p(x) = a + b*x1 on the closed coordinate range [lo, hi]."""
        a, b = float(a), float(b)
        lo, hi = float(x1_range[0]), float(x1_range[1])
        if not hi > lo:
            raise InputError("affine exponent needs a nondegenerate x1 range")
        vals = (a + b * lo, a + b * hi)
        f = ExponentField(
            kind="affine", coeffs=(a, b), x1_range=(lo, hi),
            p_minus=min(vals), p_plus=max(vals),
        )
        f._validate()
        return f

    @staticmethod
    def tabulated(x1: np.ndarray, values: np.ndarray) -> "ExponentField":
        """Per-node values over a sorted coordinate table (nearest lookup)."""
        x1 = np.asarray(x1, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if x1.size != values.size or x1.size < 1:
            raise InputError("tabulated exponent needs matching x1/value tables")
        if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(values))):
            raise InputError("tabulated exponent tables must be finite")
        order = np.argsort(x1)
        x1, values = x1[order], values[order]
        f = ExponentField(
            kind="tabulated", table_x1=x1, table_values=values,
            x1_range=(float(x1[0]), float(x1[-1])),
            p_minus=float(values.min()), p_plus=float(values.max()),
        )
        f._validate()
        return f

    def _validate(self):
        if self.kind not in ("constant", "affine", "tabulated"):
            raise InputError(f"unknown exponent kind {self.kind!r}")
        if not self.p_minus > 1.0:
            raise InputError(
                f"exponent field must satisfy inf p(x) > 1, got {self.p_minus}")

    # -- evaluation -----------------------------------------------------

    def __call__(self, x1) -> np.ndarray:
        """Evaluate p at first-coordinate values ``x1`` (scalar or array)."""
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "constant":
            return np.full(x1.shape, self.coeffs[0])
        if self.kind == "affine":
            a, b = self.coeffs
            return a + b * x1
        idx = np.searchsorted(self.table_x1, x1)
        idx = np.clip(idx, 1, self.table_x1.size - 1)
        left = self.table_x1[idx - 1]
        right = self.table_x1[idx]
        use_left = np.abs(x1 - left) <= np.abs(right - x1)
        return np.where(use_left, self.table_values[idx - 1], self.table_values[idx])

    def sample_points(self, n: int = 33) -> np.ndarray:
        """Representative first-coordinate samples covering the field's range."""
        if self.kind == "constant":
            return np.array([0.5 * (self.x1_range[0] + self.x1_range[1])])
        if self.kind == "tabulated":
            return self.table_x1.copy()
        return np.linspace(self.x1_range[0], self.x1_range[1], n)

    # -- serialization --------------------------------------------------

    def to_spec(self) -> dict:
        if self.kind == "tabulated":
            return {
                "kind": "tabulated",
                "x1": list(map(float, self.table_x1)),
                "values": list(map(float, self.table_values)),
            }
        return {
            "kind": self.kind,
            "coeffs": list(self.coeffs),
            "x1_range": list(self.x1_range),
        }

    def __eq__(self, other):
        if not isinstance(other, ExponentField):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "tabulated":
            return (np.array_equal(self.table_x1, other.table_x1)
                    and np.array_equal(self.table_values, other.table_values))
        return self.coeffs == other.coeffs and self.x1_range == other.x1_range
