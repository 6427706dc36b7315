"""Reaction nonlinearities, the energy functional, and its discrete gradient.

The energy of a nodal field u at parameter lam > 0 is

    J(u) = integral [ Phi(x,|grad u|) + Phi(x,|u|) ]  -  lam * integral G(x,u)

with directional derivative

    <J'(u), v> = integral a(x,|grad u|) grad u . grad v
               + integral a(x,|u|) u v  -  lam * integral g(x,u) v,

where a(x,s) s = phi(x,s) (and a(x,0)*0 := 0, the removable singularity).
All integrals use the grid module's trapezoid weights and the gradient uses
the reflected-ghost stencils.  ``residual`` assembles this weak form once,
through the exact transpose of the gradient stencils, and divides each
partial derivative by its quadrature weight, making the stationarity defect
comparable across grids; its zeros are the discrete weak solutions.
``directional_derivative`` is the weighted pairing sum(w r v) of that
residual with v, so it is the *exact* derivative of the discrete ``energy``
-- finite differences of J reproduce it to rounding.

Three reaction families are built in, one entry each of the table
``_REACTIONS`` (q = q(x) is an exponent field):

* ``power``      g = q|t|^{q-2} t                    G = |t|^q          (q >= 2)
* ``power-log``  G = |t|^q + log(1+t^2)|t|^{q-2},    g = dG/dt          (q >= 4)
* ``power-sin``  G = |t|^q + sin(sin t)|t|^{q-1},    g = dG/dt          (q >= 3)

Each entry also carries g' = dg/dt in closed form, which the Newton model
of the solver needs.  Envelope constants C0, C1, C2 with |g| <= C0|t|^{q-1} and
C1|t|^q <= G <= C2|t|^q are analytic for ``power`` and certified by dense
sampling over |t| in [1e-3, 10] for the other two (slot ``certified``),
before the frozen descriptor is built (the sin family genuinely degenerates
as t -> 0^- so a global positive C1 does not exist for it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InputError
from .exponents import ExponentField
from .grid import GridFunction, gradient, gradient_adjoint, quad_weights
from .spaces import sobolev_modular

__all__ = [
    "ReactionFamily", "power_reaction", "power_log_reaction", "power_sin_reaction",
    "EnergyConfig", "energy", "directional_derivative", "residual",
    "CERTIFICATION_T_RANGE",
]

# |t| window over which the numeric envelope constants are certified
CERTIFICATION_T_RANGE = (1e-3, 10.0)


@dataclass(frozen=True)
class _ReactionKernel:
    """g, G and g' = dg/dt of one reaction kind as f(q, |t|, t), the smallest
    q-, and whether C0, C1, C2 are certified (else C0 = q+, C1 = C2 = 1).
    Every exponent of |t| in the formulas is >= 0 for q >= q_min, so g' is
    finite at t = 0."""

    g: Callable
    G: Callable
    dg: Callable
    q_min: float
    certified: bool = True


_REACTIONS = {
    "power": _ReactionKernel(
        g=lambda q, at, t: q * at ** (q - 2.0) * t,
        G=lambda q, at, t: at ** q,
        dg=lambda q, at, t: q * (q - 1.0) * at ** (q - 2.0),
        q_min=2.0, certified=False),
    "power-log": _ReactionKernel(
        g=lambda q, at, t: (q * at ** (q - 2.0) * t
                            + (q - 2.0) * np.log1p(t * t) * at ** (q - 4.0) * t
                            + 2.0 * t / (1.0 + t * t) * at ** (q - 2.0)),
        G=lambda q, at, t: at ** q + np.log1p(t * t) * at ** (q - 2.0),
        dg=lambda q, at, t: (q * (q - 1.0) * at ** (q - 2.0)
                             + (q - 2.0) * (q - 3.0) * np.log1p(t * t) * at ** (q - 4.0)
                             + (2.0 * (2.0 * q - 3.0) / (1.0 + t * t)
                                - 4.0 * t * t / (1.0 + t * t) ** 2) * at ** (q - 2.0)),
        q_min=4.0),
    "power-sin": _ReactionKernel(
        g=lambda q, at, t: (q * at ** (q - 2.0) * t
                            + (q - 1.0) * np.sin(np.sin(t)) * at ** (q - 3.0) * t
                            + np.cos(np.sin(t)) * np.cos(t) * at ** (q - 1.0)),
        G=lambda q, at, t: at ** q + np.sin(np.sin(t)) * at ** (q - 1.0),
        dg=lambda q, at, t: (q * (q - 1.0) * at ** (q - 2.0)
                             + (q - 1.0) * (q - 2.0) * np.sin(np.sin(t)) * at ** (q - 3.0)
                             + 2.0 * (q - 1.0) * np.cos(np.sin(t)) * np.cos(t)
                             * at ** (q - 3.0) * t
                             - (np.sin(np.sin(t)) * np.cos(t) ** 2
                                + np.cos(np.sin(t)) * np.sin(t)) * at ** (q - 1.0)),
        q_min=3.0),
}


@dataclass(frozen=True)
class ReactionFamily:
    """A nonlinearity g with primitive G and growth-envelope constants."""

    example_id: str
    q: ExponentField
    C0: float
    C1: float
    C2: float

    def g(self, x1, t):
        return self._eval(_REACTIONS[self.example_id].g, x1, t, zero_at_0=True)

    def G(self, x1, t):
        return self._eval(_REACTIONS[self.example_id].G, x1, t, zero_at_0=True)

    def dg(self, x1, t):
        """g'(x,t) = dg/dt; at t = 0 it is 2 for q = 2 and 0 for q > 2."""
        return self._eval(_REACTIONS[self.example_id].dg, x1, t, zero_at_0=False)

    def _eval(self, formula, x1, t, zero_at_0):
        x1 = np.asarray(x1, dtype=float)
        t = np.asarray(t, dtype=float)
        q = self.q(x1)
        at = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = formula(q, at, t)
        if zero_at_0:
            out = np.where(at == 0.0, 0.0, out)
        return float(out) if out.ndim == 0 else out


def _reaction(example_id, q):
    """Reaction ``example_id`` of the table with exponent q; certified
    constants come from dense sampling over the certification window."""
    kernel = _REACTIONS[example_id]
    if q.p_minus < kernel.q_min:
        raise InputError(f"{example_id} reaction requires q(x) >= {kernel.q_min:g}")
    if not kernel.certified:
        return ReactionFamily(example_id, q, C0=q.p_plus, C1=1.0, C2=1.0)
    reaction = ReactionFamily(example_id, q, 0.0, 0.0, 0.0)
    lo, hi = CERTIFICATION_T_RANGE
    t = np.concatenate([-np.geomspace(lo, hi, 2500)[::-1], np.geomspace(lo, hi, 2500)])
    xs = q.sample_points(21)
    tt = t[None, :]
    qq = q(xs)[:, None]
    at = np.abs(tt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio_G = np.asarray(reaction.G(xs[:, None], tt)) / at ** qq
        ratio_g = np.abs(np.asarray(reaction.g(xs[:, None], tt))) / at ** (qq - 1.0)
    if not (np.all(np.isfinite(ratio_G)) and np.all(np.isfinite(ratio_g))):
        raise InputError(f"{example_id} reaction with q(x) up to {q.p_plus:g}: "
                         f"its envelope constants overflow")
    pad = 1e-3
    return replace(reaction,
                   C0=float(np.max(ratio_g)) * (1.0 + pad),
                   C1=max(float(np.min(ratio_G)) * (1.0 - pad), 0.0),
                   C2=float(np.max(ratio_G)) * (1.0 + pad))


def power_reaction(q: ExponentField) -> ReactionFamily:
    return _reaction("power", q)


def power_log_reaction(q: ExponentField) -> ReactionFamily:
    return _reaction("power-log", q)


def power_sin_reaction(q: ExponentField) -> ReactionFamily:
    return _reaction("power-sin", q)


# ---------------------------------------------------------------------------
# energy functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyConfig:
    """(family, reaction, lam) triple defining the energy functional;
    another lam is ``dataclasses.replace(config, lam=...)``."""

    family: object
    reaction: ReactionFamily
    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise InputError("lam must be positive")
        if not math.isfinite(self.lam):
            raise InputError("lam must be finite")


def energy(config: EnergyConfig, u: GridFunction) -> float:
    """J(u); equals 0 at u = 0."""
    w = quad_weights(u.grid)
    x1 = u.grid.coords_first
    reaction_term = float(np.sum(w * np.asarray(config.reaction.G(x1, u.values))))
    return sobolev_modular(config.family, u) - config.lam * reaction_term


def directional_derivative(config: EnergyConfig, u: GridFunction,
                           v: GridFunction) -> float:
    """<J'(u), v> = sum(w r v), the weighted pairing of the residual r with v."""
    return float(np.sum(quad_weights(u.grid) * residual(config, u).values * v.values))


def residual(config: EnergyConfig, u: GridFunction) -> GridFunction:
    """Nodal weak-form defect r with r_i = <J'(u), e_i> / w_i.

    Assembled through the exact adjoint of the gradient stencils, so that
    the weighted pairing of r with any v is the derivative of `energy`.
    """
    fam = config.family
    grid = u.grid
    w = quad_weights(grid)
    x1 = grid.coords_first
    gu = gradient(u)
    gmag = np.sqrt(np.sum(gu * gu, axis=0))
    # flux a(x,|grad u|) grad u with a(x,s) = phi(x,s)/s and a(x,0)*0 := 0
    safe = np.where(gmag > 0.0, gmag, 1.0)
    flux = np.where(gmag > 0.0, np.asarray(fam.phi(x1, safe)) / safe, 0.0) * gu
    grad_part = gradient_adjoint(w * flux, grid) / w
    # a(x,|u|) u = phi(x,u) by oddness
    point_part = np.asarray(fam.phi(x1, u.values)) \
        - config.lam * np.asarray(config.reaction.g(x1, u.values))
    return GridFunction(grid, grad_part + point_part)
