"""Reaction nonlinearities, the energy functional, and its discrete gradient.

The energy of a nodal field u at parameter lam > 0 is

    J(u) = integral [ Phi(x,|grad u|) + Phi(x,|u|) ]  -  lam * integral G(x,u)

with directional derivative

    <J'(u), v> = integral a(x,|grad u|) grad u . grad v
               + integral a(x,|u|) u v  -  lam * integral g(x,u) v,

where a(x,s) s = phi(x,s) (and a(x,0)*0 := 0, the removable singularity).
All integrals use the grid module's trapezoid weights, and the gradient,
the weights and first coordinate of the points where its values live, and
the weak divergence D^T (w_D .) / w come from the grid module, which alone
knows the stencil.  ``residual`` assembles this weak form once, as that
divergence of the flux (an exact transpose of the gradient) plus the
pointwise terms, so each partial derivative is divided by its nodal
quadrature weight, making the stationarity defect comparable across grids;
its zeros are the discrete weak solutions.  ``_flux_secant`` evaluates
a(x,s) for it and for the solver's Newton model, each with its own value
at s = 0.
``directional_derivative`` is the weighted pairing sum(w r v) of that
residual with v, so it is the *exact* derivative of the discrete ``energy``
-- finite differences of J reproduce it to rounding.

The energy and the residual are computed on a stack of fields of one grid,
as the modulars of the spaces module are: ``_stack_energy`` and
``_stack_residual`` take an array U of shape (rows,) + grid.shape and lam as
a number or one value per row, and return one energy or one residual per
row; a row's value does not depend on the other rows.  ``energy`` and
``residual`` are the same code on a stack of one, and ``_ray_energies``
gives J(t v) over a list of t as one stack for the solver's probes.  The
energy runs a chunk of rows at a time, through the ``_young_sum`` of the
spaces module, its growth integral over the nodal stack (u, x1, w), so a
long stack on a fine grid holds the temporaries of one chunk only.  The
energy layer passes x1 as the grid's ``_x1``, a column in 2-d.

Three reaction families are built in, one entry each of the table
``_REACTIONS`` (q = q(x) is an exponent field):

* ``power``      g = q|t|^{q-2} t                    G = |t|^q          (q >= 2)
* ``power-log``  G = |t|^q + log(1+t^2)|t|^{q-2},    g = dG/dt          (q >= 4)
* ``power-sin``  G = |t|^q + sin(sin t)|t|^{q-1},    g = dG/dt          (q >= 3)

Each entry also carries g' = dg/dt in closed form, which the Newton model
of the solver needs.  A ``ReactionFamily`` holds only its inputs, the
example id and q; ``__post_init__`` checks them (a known id, q- at or above
the entry's floor) and computes the envelope constants C0, C1, C2 with
|g| <= C0|t|^{q-1} and C1|t|^q <= G <= C2|t|^q once, as fields that are not
constructor arguments.  They are analytic for ``power`` and certified by
dense sampling over |t| in [1e-3, 10] for the other two (slot
``certified``); the sin family genuinely degenerates as t -> 0^- so a global
positive C1 does not exist for it.  ``g``, ``G`` and ``dg`` evaluate two
scalar arguments as a batch of one, as the family methods do, so a scalar
call gets the bits of the same element of a batch call.  The energy layer
passes only ``GridFunction`` values, which are finite, so unlike the family
methods they make no finiteness pass.

The parameter lam is checked (positive and finite) in one place,
``_check_lam``: ``EnergyConfig`` runs it, and ``solver.sweep_lambda`` runs
it on its whole list before any solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError
from .exponents import ExponentField
from .families import _batch_args, _maybe_scalar
from .grid import GridFunction, _col, _divergence, _gradient_and_magnitude, _values_on, _x1
from .spaces import _stack_sobolev_modular, _young_sum

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
    """The nonlinearity ``example_id`` of the table with exponent q; its
    growth-envelope constants C0, C1, C2 are computed from the two inputs
    (certified ones by dense sampling over the certification window)."""

    example_id: str
    q: ExponentField
    C0: float = field(init=False)
    C1: float = field(init=False)
    C2: float = field(init=False)

    def __post_init__(self):
        kernel = _REACTIONS.get(self.example_id)
        if kernel is None:
            raise InputError(f"unknown reaction example {self.example_id!r}")
        if self.q.p_minus < kernel.q_min:
            raise InputError(f"{self.example_id} reaction requires q(x) >= {kernel.q_min:g}")
        constants = _certify(self) if kernel.certified else (self.q.p_plus, 1.0, 1.0)
        for name, value in zip(("C0", "C1", "C2"), constants):
            object.__setattr__(self, name, value)

    def g(self, x1, t):
        return self._eval(_REACTIONS[self.example_id].g, x1, t, zero_at_0=True)

    def G(self, x1, t):
        return self._eval(_REACTIONS[self.example_id].G, x1, t, zero_at_0=True)

    def dg(self, x1, t):
        """g'(x,t) = dg/dt; at t = 0 it is 2 for q = 2 and 0 for q > 2."""
        return self._eval(_REACTIONS[self.example_id].dg, x1, t, zero_at_0=False)

    def _eval(self, formula, x1, t, zero_at_0):
        x1, t, scalar = _batch_args(x1, t)
        q = self.q(x1)
        at = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = formula(q, at, t)
        if zero_at_0:
            out = np.where(at == 0.0, 0.0, out)
        return _maybe_scalar(out, scalar)


def _certify(reaction):
    """(C0, C1, C2) of ``reaction``, sampled densely over the certification
    window and padded by a relative 1e-3 to the safe side."""
    q = reaction.q
    lo, hi = CERTIFICATION_T_RANGE
    t = np.geomspace(lo, hi, 2500)
    t = np.concatenate([-t[::-1], t])[None, :]
    xs = q.sample_points(21)
    qq = q(xs)[:, None]
    at = np.abs(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio_G = np.asarray(reaction.G(xs[:, None], t)) / at ** qq
        ratio_g = np.abs(np.asarray(reaction.g(xs[:, None], t))) / at ** (qq - 1.0)
    if not (np.all(np.isfinite(ratio_G)) and np.all(np.isfinite(ratio_g))):
        raise InputError(f"{reaction.example_id} reaction with q(x) up to {q.p_plus:g}: "
                         f"its envelope constants overflow")
    pad = 1e-3
    return (float(np.max(ratio_g)) * (1.0 + pad),
            max(float(np.min(ratio_G)) * (1.0 - pad), 0.0),
            float(np.max(ratio_G)) * (1.0 + pad))


def power_reaction(q: ExponentField) -> ReactionFamily:
    return ReactionFamily("power", q)


def power_log_reaction(q: ExponentField) -> ReactionFamily:
    return ReactionFamily("power-log", q)


def power_sin_reaction(q: ExponentField) -> ReactionFamily:
    return ReactionFamily("power-sin", q)


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
        _check_lam(self.lam)


def _check_lam(lam):
    """An InputError unless lam, a number or an array of one per row, is
    positive and finite."""
    if not np.all(np.isfinite(lam)):
        raise InputError("lam must be finite")
    if not np.all(lam > 0.0):
        raise InputError("lam must be positive")


def _stack_energy(family, reaction, grid, U, lam):
    """J of each row of U at lam (a scalar or one value per row).  Both
    integrals run a chunk of rows at a time (``spaces._young_sum``), so a
    long stack on a fine grid holds the gradients, magnitudes and reaction
    values of one chunk only."""
    growth = _young_sum(reaction.G, grid, U, lambda g, V: ((V, _x1(g), g.weights),))
    return _stack_sobolev_modular(family, grid, U) - lam * growth


def _one(stack_fn, config: EnergyConfig, u: GridFunction):
    return stack_fn(config.family, config.reaction, u.grid, u.values[None], config.lam)[0]


def energy(config: EnergyConfig, u: GridFunction) -> float:
    """J(u); equals 0 at u = 0."""
    return float(_one(_stack_energy, config, u))


def _ray_energies(config: EnergyConfig, v: GridFunction, ts) -> np.ndarray:
    """J(t v) for every t of ts, evaluated as one stack."""
    return _stack_energy(config.family, config.reaction, v.grid,
                         _col(ts, v.grid) * v.values, config.lam)


def directional_derivative(config: EnergyConfig, u: GridFunction,
                           v: GridFunction) -> float:
    """<J'(u), v> = sum(w r v), the weighted pairing of the residual r with v."""
    return float(np.sum(u.grid.weights * residual(config, u).values
                        * _values_on(u.grid, v)))


def _flux_secant(family, x1, s, at_zero):
    """a(x,s) = phi(x,s)/s at the gradient magnitudes s >= 0, and ``at_zero``
    where s = 0: the residual's flux a grad u is 0 there for any a, and the
    Newton model takes the limit phi'(x,0)."""
    live = s > 0.0
    safe = np.where(live, s, 1.0)
    return np.where(live, np.asarray(family.phi(x1, safe)) / safe, at_zero)


def _stack_residual(family, reaction, grid, U, lam):
    """The residual of each row of U at lam (a scalar or one value per row)."""
    x1 = _x1(grid)
    gu, gmag = _gradient_and_magnitude(grid, U)
    # flux a(x,|grad u|) grad u, with a(x,0)*0 := 0
    flux = _flux_secant(family, x1, gmag, 0.0) * gu
    # a(x,|u|) u = phi(x,u) by oddness
    point_part = np.asarray(family.phi(x1, U)) - _col(lam, grid) * np.asarray(reaction.g(x1, U))
    return _divergence(grid, flux) + point_part


def residual(config: EnergyConfig, u: GridFunction) -> GridFunction:
    """Nodal weak-form defect r with r_i = <J'(u), e_i> / w_i.

    Assembled through the exact adjoint of the gradient stencils, so that
    the weighted pairing of r with any v is the derivative of `energy`.
    """
    return GridFunction(u.grid, _one(_stack_residual, config, u))
