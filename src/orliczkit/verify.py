"""Seeded property suite over families, reactions, and grids.

Every structural inequality exposed by the other modules is evaluated on
deterministic random samples; a property never raises on failure, it records
the violation with a witness instead.  Margins are signed distances to the
inequality boundary (negative = violated); a sample passes when its margin
is at least minus the property's slack, and a NaN margin fails and is worse
than any number.  Witnesses carry the exact arguments (indices into the
supplied family/reaction/grid lists plus child seeds), so ``replay_witness``
reproduces any reported margin bit-for-bit.

One table, ``_PROPERTIES``, says how each property runs: its slack, the
objects it runs over (families, reactions, or every family-reaction pair),
its per-sample arguments in draw order, and its sample rule (random fields
stacked per grid, one call on max(k, n_samples) points, or one call on fixed
arguments).  The suite draws from its seed property by property, in table
order, and for each property object by object.  ``replay_witness`` reads the
evaluator's arguments from the same table.  Evaluators are looked up in
``EVALUATORS`` at call time, so a wrapper put there sees every call.

Random fields are drawn at the three ``_AMPLITUDES`` so that both the
small-norm and large-norm branches of the norm-modular relations get
exercised (``modular_convergence`` halves them ``_CONVERGENCE_STEPS``
times).  The samples of one (property, objects, grid) are evaluated as one
stack of fields with a leading batch axis, by one evaluator call with
per-sample argument arrays, and absorbed in draw order, each with its own
witness.  An evaluator concatenates the stacks that go through the same
norm or modular (u, v and u + v, say) into one call (``_stacked``).  A replayed witness is the same evaluator on a stack of one, and a
sample's margin does not depend on the rest of its stack.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .energy import CERTIFICATION_T_RANGE, _check_lam, _stack_energy, _stack_residual
from .errors import InputError, _int_at_least
from .families import (delta2_margin, growth_lower_margin, phi_odd_margin,
                       sample_x1, sqrt_convexity_margin)
from .grid import _col, _node_sums, _random_fields
from .spaces import (_stack_conjugate_norm, _stack_luxemburg_norm, _stack_modular,
                     _stack_sobolev_modular, _stack_sobolev_norm, _stack_sobolev_norms)

__all__ = ["PropertyResult", "VerifyReport", "run_property_suite",
           "replay_witness", "EVALUATORS"]

_CUT = 1e-12   # dead zone around norm 1 where the relations are vacuous
_AMPLITUDES = (0.1, 1.0, 10.0)
_LAMBDAS = (0.5, 1.0, 2.0)       # the lambdas of gradient_check
_CONVERGENCE_STEPS = 12


# ---------------------------------------------------------------------------
# evaluators: (resolved objects + scalars) -> (margins array, info dict); the
# field evaluators also take per-sample arrays (one margin and one info entry
# per sample), and scalars are a stack of one
# ---------------------------------------------------------------------------

def _stacked(stack_fn, family, grid, *stacks):
    """stack_fn on the rows of equal-length stacks as one concatenated
    stack, split back into one value array per stack; a row's value does
    not depend on the other rows, so each equals its own stack's call."""
    return np.split(stack_fn(family, grid, np.concatenate(stacks)), len(stacks))


def eval_norm_modular(family, grid, seed, amplitude, smoothness):
    U = _random_fields(grid, seed, amplitude, smoothness)
    N = _stack_luxemburg_norm(family, grid, U)
    rho = _stack_modular(family, grid, U)
    m = np.select([N > 1.0 + _CUT, N < 1.0 - _CUT],
                  [np.minimum(rho - N ** family.phi0, N ** family.phi_sup - rho),
                   np.minimum(rho - N ** family.phi_sup, N ** family.phi0 - rho)], 1.0)
    return m, {"norm": N, "modular": rho}


def eval_sobolev_modular_bounds(family, grid, seed, amplitude, smoothness):
    U = _random_fields(grid, seed, amplitude, smoothness)
    n = _stack_sobolev_norm(family, grid, U)
    mod = _stack_sobolev_modular(family, grid, U)
    m = np.select([n > 1.0 + _CUT, n < 1.0 - _CUT],
                  [mod - n ** family.phi0, mod - n ** family.phi_sup], 1.0)
    return m, {"norm": n, "modular": mod}


def eval_unit_ball(family, grid, seed, amplitude, smoothness):
    U = _random_fields(grid, seed, amplitude, smoothness)
    N = _stack_luxemburg_norm(family, grid, U)
    m = _stack_modular(family, grid, U * _col(1.0 / N, grid))
    return -np.abs(m - 1.0), {"norm": N}


def eval_homogeneity(family, grid, seed, amplitude, smoothness, scale):
    U = _random_fields(grid, seed, amplitude, smoothness)
    scale = np.atleast_1d(scale)
    n1, n0 = _stacked(_stack_luxemburg_norm, family, grid, U * _col(scale, grid), U)
    rel = np.abs(n1 - np.abs(scale) * n0) / np.maximum(np.abs(scale) * n0, 1e-300)
    return -rel, {"scale": scale}


def eval_triangle(family, grid, seed, seed2, amplitude, smoothness):
    U = _random_fields(grid, seed, amplitude, smoothness)
    V = _random_fields(grid, seed2, amplitude, smoothness)
    nu, nv, nuv = _stacked(_stack_luxemburg_norm, family, grid, U, V, U + V)
    return nu + nv - nuv, {}


def eval_parallelogram(family, grid, seed, seed2, amplitude, smoothness):
    U = _random_fields(grid, seed, amplitude, smoothness)
    V = _random_fields(grid, seed2, amplitude, smoothness)
    rho_u, rho_v, rho_mean, rho_diff = _stacked(_stack_modular, family, grid,
                                                U, V, (U + V) * 0.5, (U - V) * 0.5)
    return 0.5 * (rho_u + rho_v) - rho_mean - rho_diff, {}


def eval_holder(family, grid, seed, seed2, amplitude, smoothness):
    U = _random_fields(grid, seed, amplitude, smoothness)
    V = _random_fields(grid, seed2, amplitude, smoothness)
    pairing = np.abs(_node_sums(grid.weights * (U * V)))
    bound = (2.0 * _stack_luxemburg_norm(family, grid, U)
             * _stack_conjugate_norm(family, grid, V))
    return bound - pairing, {"pairing": pairing, "bound": bound}


def eval_norm_equivalences(family, grid, seed, amplitude, smoothness):
    U = _random_fields(grid, seed, amplitude, smoothness)
    n1, n2, n = _stack_sobolev_norms(family, grid, U)
    m = np.minimum(np.minimum(2.0 * n2 - n1, n1 - n2), np.minimum(2.0 * n - n1, 2.0 * n2 - n))
    return m, {"n1": n1, "n2": n2, "n": n}


def eval_modular_convergence(family, grid, seed, amplitude, smoothness):
    V = _random_fields(grid, seed, amplitude, smoothness)
    rhos = np.stack(_stacked(_stack_modular, family, grid,
                             *(V * (2.0 ** -k) for k in range(_CONVERGENCE_STEPS + 1))), axis=1)
    decreasing = np.min(rhos[:, :-1] - rhos[:, 1:], axis=1)
    # scaling gives rho(2^-k v) <= 2^{-k phi0} rho(v)
    vanish = 2.0 ** (-_CONVERGENCE_STEPS * family.phi0) * rhos[:, 0] * (1.0 + 1e-9) - rhos[:, -1]
    return np.minimum(decreasing, vanish), {"rho_first": rhos[:, 0], "rho_last": rhos[:, -1]}


def _sample_xt(family, seed, n, t_lo, t_hi):
    """The generator of a point evaluator after its n points: x1 from
    sample_x1, then t log-uniform on [t_lo, t_hi]."""
    rng = np.random.default_rng(seed)
    x = sample_x1(family, n, rng)
    return rng, x, np.exp(rng.uniform(np.log(t_lo), np.log(t_hi), n))


def eval_young(family, seed, n):
    rng, x, t = _sample_xt(family, seed, n, 1e-3, 1e2)
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    margins = (np.asarray(family.Phi(x, t)) + np.asarray(family.conjugate(x, s))
               - t * s)
    return margins, {}


def eval_conjugate_bound(family, seed, n):
    _, x, t = _sample_xt(family, seed, n, 1e-3, 1e2)
    phi = np.asarray(family.phi(x, t))
    margins = (family.phi_sup * np.asarray(family.Phi(x, t))
               - np.asarray(family.conjugate(x, phi)))
    return margins, {}


def eval_phi_odd(family, seed, n):
    _, x, t = _sample_xt(family, seed, n, 1e-4, 1e3)
    return phi_odd_margin(family, x, t), {}


def eval_scaling_bounds(family, seed, n):
    rng, x, t = _sample_xt(family, seed, n, 1e-3, 1e2)
    sigma = np.exp(rng.uniform(np.log(1.0 + 1e-6), np.log(1e2), n))
    tau = rng.uniform(1e-3, 1.0 - 1e-6, n)
    Pt = np.asarray(family.Phi(x, t))
    Ps = np.asarray(family.Phi(x, sigma * t))
    up = sigma ** family.phi_sup * Pt - Ps
    up_rel = up / (sigma ** family.phi_sup * Pt)
    dn = Ps - sigma ** family.phi0 * Pt
    dn_rel = dn / Ps
    Ptau = np.asarray(family.Phi(x, t / tau))
    m17 = (tau ** family.phi0 * Ptau - Pt) / (tau ** family.phi0 * Ptau)
    m18 = (Pt - tau ** family.phi_sup * Ptau) / Pt
    margins = np.minimum(np.minimum(up_rel, dn_rel), np.minimum(m17, m18))
    return margins, {}


def eval_delta2(family, nx, nt):
    xs = sample_x1(family, nx)
    ts = np.geomspace(1e-4, 1e3, nt)
    margins = delta2_margin(family, xs[:, None], ts[None, :]).ravel()
    return margins, {"nx": nx, "nt": nt}


def eval_sqrt_convexity(family, nx, nt):
    tau = np.linspace(0.0, 1e4, nt)
    margins = sqrt_convexity_margin(family, sample_x1(family, nx), tau).ravel()
    return margins, {"nx": nx, "nt": nt}


def eval_growth_lower(family, seed, n):
    _, x, t = _sample_xt(family, seed, n, 1e-4, 1e4)
    return growth_lower_margin(family, x, t), {}


def eval_reaction_primitive(reaction, seed, n):
    rng = np.random.default_rng(seed)
    lo, hi = reaction.q.x1_range
    x = rng.uniform(lo, hi, n)
    raw = rng.uniform(-1.0, 1.0, n)
    t = np.sign(raw) * (1e-3 + np.abs(raw) * (5.0 - 1e-3))
    h = 1e-7 * (1.0 + np.abs(t))
    fd = (np.asarray(reaction.G(x, t + h)) - np.asarray(reaction.G(x, t - h))) / (2.0 * h)
    g = np.asarray(reaction.g(x, t))
    margins = 1e-6 * (1.0 + np.abs(g)) - np.abs(fd - g)
    return margins, {}


def eval_reaction_envelopes(reaction, seed, n):
    lo, hi = CERTIFICATION_T_RANGE
    rng = np.random.default_rng(seed)
    xlo, xhi = reaction.q.x1_range
    x = rng.uniform(xlo, xhi, n)
    mag = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    t = np.where(rng.uniform(size=n) < 0.5, -mag, mag)
    q = reaction.q(x)
    at = np.abs(t)
    g = np.asarray(reaction.g(x, t))
    G = np.asarray(reaction.G(x, t))
    m_g = (reaction.C0 * at ** (q - 1.0) - np.abs(g)) / (reaction.C0 * at ** (q - 1.0))
    m_lo = (G - reaction.C1 * at ** q) / (1.0 + np.abs(G))
    m_hi = (reaction.C2 * at ** q - G) / (reaction.C2 * at ** q)
    return np.minimum(m_g, np.minimum(m_lo, m_hi)), {}


def eval_gradient_check(family, reaction, grid, seed, seed2, amplitude,
                        smoothness, lam):
    U = _random_fields(grid, seed, amplitude, smoothness)
    V = _random_fields(grid, seed2, amplitude, smoothness)
    _check_lam(lam)
    h = 1e-6
    dd = _node_sums(grid.weights * _stack_residual(family, reaction, grid, U, lam) * V)
    J = _stack_energy(family, reaction, grid, np.concatenate([U + V * h, U - V * h]),
                      np.tile(lam, 2))
    fd = (J[:len(U)] - J[len(U):]) / (2.0 * h)
    return 1e-5 * (1.0 + np.abs(dd)) - np.abs(dd - fd), {"dd": dd, "fd": fd}


def _integral_of_phi(family, x, t):
    """integral of phi(x, s) ds over [0, t], elementwise, as the integral of
    phi(x, t e^{-y}) t e^{-y} over y in [0, 40]: composite 12-node
    Gauss-Legendre on panels of width <= 2/phi_sup, over which the integrand
    decays by at most about e^2.  The cut-off part is Phi(x, t e^{-40}) <=
    e^{-40 phi0} Phi(x, t)."""
    per_unit = math.ceil(family.phi_sup / 2.0)
    y, w = np.polynomial.legendre.leggauss(12)
    y = (np.arange(40 * per_unit)[:, None] + 0.5 * (1.0 + y)) / per_unit
    s = t[:, None, None] * np.exp(-y)
    f = np.asarray(family.phi(x[:, None, None], s)) * s
    return np.sum((0.5 / per_unit) * w * f, axis=(1, 2))


def eval_ftc_consistency(family, seed, n):
    # relative where Phi > 1: the rounding of a large Phi grows with it
    _, x, t = _sample_xt(family, seed, n, 1e-3, 20.0)
    Phi = np.asarray(family.Phi(x, t))
    return -np.abs(Phi - _integral_of_phi(family, x, t)) / np.maximum(Phi, 1.0), {}


EVALUATORS = {
    "norm_modular_relations": eval_norm_modular,
    "sobolev_modular_bounds": eval_sobolev_modular_bounds,
    "unit_ball_identity": eval_unit_ball,
    "norm_homogeneity": eval_homogeneity,
    "triangle_inequality": eval_triangle,
    "modular_parallelogram": eval_parallelogram,
    "holder_inequality": eval_holder,
    "norm_equivalences": eval_norm_equivalences,
    "modular_convergence": eval_modular_convergence,
    "young_inequality": eval_young,
    "conjugate_bound": eval_conjugate_bound,
    "phi_odd": eval_phi_odd,
    "scaling_bounds": eval_scaling_bounds,
    "delta2_explicit_constant": eval_delta2,
    "sqrt_convexity": eval_sqrt_convexity,
    "growth_lower_bound": eval_growth_lower,
    "reaction_primitive_consistency": eval_reaction_primitive,
    "reaction_growth_envelopes": eval_reaction_envelopes,
    "gradient_check": eval_gradient_check,
    "ftc_consistency": eval_ftc_consistency,
}


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    slack: float
    samples: int = 0
    passes: int = 0
    worst_margin: float = np.inf
    witness: dict = field(default_factory=dict)

    def absorb(self, margins: np.ndarray, witness: dict):
        """Count the margins of one evaluation; a NaN margin is worse than
        any number, and the first worst margin seen is the witness."""
        margins = np.asarray(margins, dtype=float).ravel()
        self.samples += margins.size
        self.passes += int(np.sum(margins >= -self.slack))
        index = int(np.argmin(margins))          # the first NaN, if any
        worst = float(margins[index])
        if not self.witness or worst < self.worst_margin or (
                math.isnan(worst) and not math.isnan(self.worst_margin)):
            self.worst_margin = worst
            self.witness = {**witness, "worst_index": index}

    @property
    def passed(self):
        return self.passes == self.samples


@dataclass
class VerifyReport:
    seed: int
    n_samples: int
    properties: list
    overall: bool

    def to_dict(self):
        return {
            "seed": self.seed,
            "n_samples": self.n_samples,
            "overall": self.overall,
            "properties": [
                {"name": p.name, "slack": p.slack, "samples": p.samples,
                 "passes": p.passes, "worst_margin": p.worst_margin,
                 "witness": p.witness}
                for p in self.properties
            ],
        }

    def json_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    CSV_HEADER = "property,samples,passes,worst_margin"

    def csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for p in self.properties:
            lines.append(f"{p.name},{p.samples},{p.passes},{p.worst_margin!r}")
        return "\n".join(lines) + "\n"

    def __getitem__(self, name):
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)


# ---------------------------------------------------------------------------
# the property table
# ---------------------------------------------------------------------------

def _seed(rng, s, n_grids):
    return int(rng.integers(0, 2 ** 62))


# per-sample arguments of sample s: the first three cycle with s and draw
# nothing, the others are drawn from the suite's generator
_ARGS = {
    "grid": lambda rng, s, n_grids: s % n_grids,
    "amplitude": lambda rng, s, n_grids: _AMPLITUDES[s % len(_AMPLITUDES)],
    "lam": lambda rng, s, n_grids: _LAMBDAS[s % len(_LAMBDAS)],
    "seed": _seed,
    "seed2": _seed,
    "smoothness": lambda rng, s, n_grids: int(rng.integers(0, 5)),
    "scale": lambda rng, s, n_grids: float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))),
}


def _fields(per):
    """max(1, n_samples // per) random field samples, stacked per grid."""
    return lambda n_samples: (max(1, n_samples // per), {})


def _points(k):
    """One call on max(k, n_samples) points."""
    return lambda n_samples: (0, {"n": max(k, n_samples)})


def _fixed(**args):
    """One call on fixed arguments."""
    return lambda n_samples: (0, args)


@dataclass(frozen=True)
class _Property:
    """How the suite runs one property.

    A sample passes when its margin is >= -slack.  The property runs once
    for every combination of its objects (indices into the suite's
    "family"/"reaction" lists, nested in this order), skipping a family
    without an exponent p when needs_p.  args are its per-sample arguments
    (_ARGS) in witness order, which is also the order they are drawn in.
    rule(n_samples) -> (fields, fixed): with fields > 0, that many samples
    (each with its own args) are evaluated as one stack per grid; with
    fields = 0, one call on one draw of args plus the fixed arguments.
    """

    slack: float
    objects: tuple
    args: tuple
    rule: Callable
    needs_p: bool = False


_FIELD = ("grid", "seed", "amplitude", "smoothness")
_PAIR = _FIELD + ("seed2",)

# the suite draws property by property, in this order
_PROPERTIES = {
    "norm_modular_relations": _Property(1e-8, ("family",), _FIELD, _fields(1)),
    "sobolev_modular_bounds": _Property(1e-8, ("family",), _FIELD, _fields(1)),
    "unit_ball_identity": _Property(1e-7, ("family",), _FIELD, _fields(1)),
    "norm_homogeneity": _Property(1e-7, ("family",), _FIELD + ("scale",), _fields(1)),
    "triangle_inequality": _Property(1e-7, ("family",), _PAIR, _fields(1)),
    "modular_parallelogram": _Property(1e-8, ("family",), _PAIR, _fields(1)),
    "holder_inequality": _Property(1e-8, ("family",), _PAIR, _fields(1)),
    "norm_equivalences": _Property(1e-8, ("family",), _FIELD, _fields(1)),
    "modular_convergence": _Property(1e-8, ("family",), _FIELD, _fields(1)),
    "young_inequality": _Property(1e-8, ("family",), ("seed",), _points(400)),
    "conjugate_bound": _Property(1e-8, ("family",), ("seed",), _points(400)),
    "phi_odd": _Property(0.0, ("family",), ("seed",), _points(400)),
    "scaling_bounds": _Property(1e-9, ("family",), ("seed",), _points(400)),
    "growth_lower_bound": _Property(1e-8, ("family",), ("seed",), _points(400),
                                    needs_p=True),
    "delta2_explicit_constant": _Property(1e-9, ("family",), (), _fixed(nx=60, nt=120)),
    "sqrt_convexity": _Property(1e-8, ("family",), (), _fixed(nx=20, nt=160)),
    "ftc_consistency": _Property(1e-10, ("family",), ("seed",), _fixed(n=8)),
    "reaction_primitive_consistency": _Property(0.0, ("reaction",), ("seed",),
                                                _points(400)),
    "reaction_growth_envelopes": _Property(1e-12, ("reaction",), ("seed",), _points(400)),
    "gradient_check": _Property(0.0, ("family", "reaction"),
                                ("grid", "seed", "seed2", "amplitude", "smoothness", "lam"),
                                _fields(4)),
}


def _evaluator_args(prop, args, pools):
    """The evaluator's keyword arguments from a witness or a draw: the
    table's keys, with object and grid indices resolved through pools."""
    keys = (*prop.objects, *prop.args, *prop.rule(1)[1])
    return {key: pools[key][args[key]] if key in pools else args[key] for key in keys}


def replay_witness(witness: dict, families, reactions, grids):
    """Re-evaluate a reported witness; returns the reproduced worst margin."""
    pools = {"family": families, "reaction": reactions, "grid": grids}
    name = witness["property"]
    args = _evaluator_args(_PROPERTIES[name], witness, pools)
    margins, _ = EVALUATORS[name](**args)
    return float(np.asarray(margins).ravel()[witness.get("worst_index", 0)])


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def _absorb_field_samples(result, prop, draws, objects, grids):
    """One evaluator call per grid on the stack of that grid's samples; the
    samples are absorbed in draw order, each with its own witness."""
    name = result.name
    margins, infos = np.empty(len(draws)), [None] * len(draws)
    for gi, grid in enumerate(grids):
        rows = [k for k, args in enumerate(draws) if args["grid"] == gi]
        if not rows:
            continue
        per_row = {key: np.array([draws[k][key] for k in rows])
                   for key in prop.args if key != "grid"}
        margins[rows], info = EVALUATORS[name](**objects, grid=grid, **per_row)
        for j, k in enumerate(rows):
            infos[k] = {key: float(value[j]) for key, value in info.items()}
    for k, args in enumerate(draws):
        result.absorb(margins[k:k + 1], {"property": name, **args, **infos[k]})


def run_property_suite(families, reactions, grids, n_samples: int,
                       seed: int) -> VerifyReport:
    """Evaluate the whole inequality suite; deterministic under fixed seed."""
    n_samples = _int_at_least(n_samples, "n_samples", 1)
    seed = _int_at_least(seed, "seed", 0)
    if not families or not grids:
        raise InputError("need at least one family and one grid")
    rng = np.random.default_rng(seed)
    pools = {"family": families, "reaction": reactions, "grid": grids}
    results = []
    for name, prop in _PROPERTIES.items():
        result = PropertyResult(name, prop.slack)
        n_fields, fixed = prop.rule(n_samples)
        for index in itertools.product(*(range(len(pools[key])) for key in prop.objects)):
            at = dict(zip(prop.objects, index))
            objects = {key: pools[key][i] for key, i in at.items()}
            if prop.needs_p and objects["family"].p is None:
                continue
            draws = [{**at, **{key: _ARGS[key](rng, s, len(grids)) for key in prop.args},
                      **fixed} for s in range(max(n_fields, 1))]
            if n_fields:
                _absorb_field_samples(result, prop, draws, objects, grids)
            else:
                margins, info = EVALUATORS[name](**_evaluator_args(prop, draws[0], pools))
                result.absorb(margins, {"property": name, **draws[0], **info})
        if result.samples:
            results.append(result)
    ordered = sorted(results, key=lambda p: p.name)
    return VerifyReport(seed, n_samples, ordered, all(p.passed for p in ordered))
