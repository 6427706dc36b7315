"""Seeded property suite over families, reactions, and grids.

Every structural inequality exposed by the other modules is evaluated on
deterministic random samples; a property never raises on failure, it records
the violation with a witness instead.  Margins are signed distances to the
inequality boundary (negative = violated); a sample passes when its margin
is at least minus the property's slack.  Witnesses carry the exact arguments
(indices into the supplied family/reaction/grid lists plus child seeds), so
``replay_witness`` reproduces any reported margin bit-for-bit.

Random fields are drawn at three amplitudes so that both the small-norm and
large-norm branches of the norm-modular relations get exercised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .energy import CERTIFICATION_T_RANGE, EnergyConfig, directional_derivative, energy
from .errors import InputError
from .families import (delta2_margin, growth_lower_margin, phi_odd_margin,
                       sample_x1, sqrt_convexity_margin)
from .grid import GridFunction, integrate, random_function
from .spaces import (conjugate_norm, luxemburg_norm, modular, sobolev_modular,
                     sobolev_norm, sobolev_norms)

__all__ = ["PropertyResult", "VerifyReport", "run_property_suite",
           "replay_witness", "EVALUATORS"]

_CUT = 1e-12   # dead zone around norm 1 where the relations are vacuous


# ---------------------------------------------------------------------------
# evaluators: (resolved objects + scalars) -> (margins array, info dict)
# ---------------------------------------------------------------------------

def eval_norm_modular(family, grid, seed, amplitude, smoothness):
    u = random_function(grid, seed, amplitude, smoothness)
    N = luxemburg_norm(family, u)
    rho = modular(family, u)
    if N > 1.0 + _CUT:
        m = min(rho - N ** family.phi0, N ** family.phi_sup - rho)
    elif N < 1.0 - _CUT:
        m = min(rho - N ** family.phi_sup, N ** family.phi0 - rho)
    else:
        m = 1.0
    return np.array([m]), {"norm": N, "modular": rho}


def eval_sobolev_modular_bounds(family, grid, seed, amplitude, smoothness):
    u = random_function(grid, seed, amplitude, smoothness)
    n = sobolev_norm(family, u)
    mod = sobolev_modular(family, u)
    if n > 1.0 + _CUT:
        m = mod - n ** family.phi0
    elif n < 1.0 - _CUT:
        m = mod - n ** family.phi_sup
    else:
        m = 1.0
    return np.array([m]), {"norm": n, "modular": mod}


def eval_unit_ball(family, grid, seed, amplitude, smoothness):
    u = random_function(grid, seed, amplitude, smoothness)
    N = luxemburg_norm(family, u)
    m = modular(family, (1.0 / N) * u)
    return np.array([-abs(m - 1.0)]), {"norm": N}


def eval_homogeneity(family, grid, seed, amplitude, smoothness, scale):
    u = random_function(grid, seed, amplitude, smoothness)
    n1 = luxemburg_norm(family, scale * u)
    n0 = luxemburg_norm(family, u)
    rel = abs(n1 - abs(scale) * n0) / max(abs(scale) * n0, 1e-300)
    return np.array([-rel]), {"scale": scale}


def eval_triangle(family, grid, seed, seed2, amplitude, smoothness):
    u = random_function(grid, seed, amplitude, smoothness)
    v = random_function(grid, seed2, amplitude, smoothness)
    m = (luxemburg_norm(family, u) + luxemburg_norm(family, v)
         - luxemburg_norm(family, u + v))
    return np.array([m]), {}


def eval_parallelogram(family, grid, seed, seed2, amplitude, smoothness):
    u = random_function(grid, seed, amplitude, smoothness)
    v = random_function(grid, seed2, amplitude, smoothness)
    m = (0.5 * (modular(family, u) + modular(family, v))
         - modular(family, 0.5 * (u + v)) - modular(family, 0.5 * (u - v)))
    return np.array([m]), {}


def eval_holder(family, grid, seed, seed2, amplitude, smoothness):
    u = random_function(grid, seed, amplitude, smoothness)
    v = random_function(grid, seed2, amplitude, smoothness)
    pairing = abs(integrate(GridFunction(grid, u.values * v.values)))
    bound = 2.0 * luxemburg_norm(family, u) * conjugate_norm(family, v)
    return np.array([bound - pairing]), {"pairing": pairing, "bound": bound}


def eval_norm_equivalences(family, grid, seed, amplitude, smoothness):
    u = random_function(grid, seed, amplitude, smoothness)
    n1, n2, n = sobolev_norms(family, u)
    m = min(2.0 * n2 - n1, n1 - n2, 2.0 * n - n1, 2.0 * n2 - n)
    return np.array([m]), {"n1": n1, "n2": n2, "n": n}


def eval_modular_convergence(family, grid, seed, amplitude, smoothness, steps=12):
    v = random_function(grid, seed, amplitude, smoothness)
    rhos = np.array([modular(family, (2.0 ** -k) * v) for k in range(steps + 1)])
    decreasing = float(np.min(rhos[:-1] - rhos[1:]))
    # scaling gives rho(2^-k v) <= 2^{-k phi0} rho(v)
    vanish = 2.0 ** (-steps * family.phi0) * rhos[0] * (1.0 + 1e-9) - rhos[-1]
    return np.array([min(decreasing, vanish)]), {"rho_first": rhos[0], "rho_last": rhos[-1]}


def eval_young(family, seed, n):
    rng = np.random.default_rng(seed)
    x = sample_x1(family, n, rng)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    margins = (np.asarray(family.Phi(x, t)) + np.asarray(family.conjugate(x, s))
               - t * s)
    return margins, {}


def eval_conjugate_bound(family, seed, n):
    rng = np.random.default_rng(seed)
    x = sample_x1(family, n, rng)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    phi = np.asarray(family.phi(x, t))
    margins = (family.phi_sup * np.asarray(family.Phi(x, t))
               - np.asarray(family.conjugate(x, phi)))
    return margins, {}


def eval_phi_odd(family, seed, n):
    rng = np.random.default_rng(seed)
    x = sample_x1(family, n, rng)
    t = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), n))
    return phi_odd_margin(family, x, t), {}


def eval_scaling_bounds(family, seed, n):
    rng = np.random.default_rng(seed)
    x = sample_x1(family, n, rng)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    sigma = np.exp(rng.uniform(np.log(1.0 + 1e-6), np.log(1e2), n))
    tau = rng.uniform(1e-3, 1.0 - 1e-6, n)
    Pt = np.asarray(family.Phi(x, t))
    up = sigma ** family.phi_sup * Pt - np.asarray(family.Phi(x, sigma * t))
    up_rel = up / (sigma ** family.phi_sup * Pt)
    dn = np.asarray(family.Phi(x, sigma * t)) - sigma ** family.phi0 * Pt
    dn_rel = dn / np.asarray(family.Phi(x, sigma * t))
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
    rng = np.random.default_rng(seed)
    x = sample_x1(family, n, rng)
    t = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), n))
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
    config = EnergyConfig(family, reaction, lam)
    u = random_function(grid, seed, amplitude, smoothness)
    v = random_function(grid, seed2, amplitude, smoothness)
    dd = directional_derivative(config, u, v)
    h = 1e-6
    fd = (energy(config, u + h * v) - energy(config, u - h * v)) / (2.0 * h)
    return np.array([1e-5 * (1.0 + abs(dd)) - abs(dd - fd)]), {"dd": dd, "fd": fd}


def eval_ftc_consistency(family, seed, n):
    import scipy.integrate      # deferred: it dominates the package import time

    rng = np.random.default_rng(seed)
    x = sample_x1(family, n, rng)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(20.0), n))
    margins = np.empty(n)
    for i in range(n):
        ref, _ = scipy.integrate.quad(
            lambda s: float(family.phi(np.asarray(x[i]), np.asarray(s))),
            0.0, t[i], epsabs=1e-13, epsrel=1e-13, limit=200)
        margins[i] = -abs(float(family.Phi(x[i], t[i])) - ref)
    return margins, {}


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
        margins = np.asarray(margins, dtype=float)
        self.samples += margins.size
        self.passes += int(np.sum(margins >= -self.slack))
        worst = float(np.min(margins))
        if worst < self.worst_margin:
            self.worst_margin = worst
            self.witness = dict(witness)
            self.witness["worst_index"] = int(np.argmin(margins))

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


def replay_witness(witness: dict, families, reactions, grids):
    """Re-evaluate a reported witness; returns the reproduced worst margin."""
    args = dict(witness)
    name = args.pop("property")
    idx = args.pop("worst_index", 0)
    for key, pool in (("family", families), ("reaction", reactions), ("grid", grids)):
        if key in args:
            args[key] = pool[args[key]]
    args = {k: v for k, v in args.items() if k in
            EVALUATORS[name].__code__.co_varnames[:EVALUATORS[name].__code__.co_argcount]}
    margins, _ = EVALUATORS[name](**args)
    return float(np.asarray(margins).ravel()[idx])


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

_FUNCTION_PROPS = [
    # (name, slack, needs_second_seed)
    ("norm_modular_relations", 1e-8, False),
    ("sobolev_modular_bounds", 1e-8, False),
    ("unit_ball_identity", 1e-7, False),
    ("norm_homogeneity", 1e-7, False),
    ("triangle_inequality", 1e-7, True),
    ("modular_parallelogram", 1e-8, True),
    ("holder_inequality", 1e-8, True),
    ("norm_equivalences", 1e-8, False),
    ("modular_convergence", 1e-8, False),
]

_POINTWISE_PROPS = [
    # (name, slack, batch per family)
    ("young_inequality", 1e-8, 400),
    ("conjugate_bound", 1e-8, 400),
    ("phi_odd", 0.0, 400),
    ("scaling_bounds", 1e-9, 400),
    ("growth_lower_bound", 1e-8, 400),
]


def run_property_suite(families, reactions, grids, n_samples: int, seed: int,
                       amplitudes=(0.1, 1.0, 10.0)) -> VerifyReport:
    """Evaluate the whole inequality suite; deterministic under fixed seed."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    if not families or not grids:
        raise InputError("need at least one family and one grid")
    rng = np.random.default_rng(seed)
    results = {}

    def res(name, slack):
        if name not in results:
            results[name] = PropertyResult(name, slack)
        return results[name]

    for name, slack, pair in _FUNCTION_PROPS:
        fn = EVALUATORS[name]
        for fi, family in enumerate(families):
            for s in range(n_samples):
                args = {
                    "family": fi,
                    "grid": s % len(grids),
                    "seed": int(rng.integers(0, 2 ** 62)),
                    "amplitude": float(amplitudes[s % len(amplitudes)]),
                    "smoothness": int(rng.integers(0, 5)),
                }
                if pair:
                    args["seed2"] = int(rng.integers(0, 2 ** 62))
                if name == "norm_homogeneity":
                    args["scale"] = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
                call = dict(args)
                call["family"] = families[fi]
                call["grid"] = grids[args["grid"]]
                margins, info = fn(**call)
                res(name, slack).absorb(margins, {"property": name, **args, **info})

    for name, slack, batch in _POINTWISE_PROPS:
        fn = EVALUATORS[name]
        for fi, family in enumerate(families):
            if name == "growth_lower_bound" and family.p is None:
                continue
            args = {"family": fi, "seed": int(rng.integers(0, 2 ** 62)),
                    "n": max(batch, n_samples)}
            margins, info = fn(family=family, seed=args["seed"], n=args["n"])
            res(name, slack).absorb(margins, {"property": name, **args, **info})

    for fi, family in enumerate(families):
        for name, slack, nx, nt in (("delta2_explicit_constant", 1e-9, 60, 120),
                                    ("sqrt_convexity", 1e-8, 20, 160)):
            margins, info = EVALUATORS[name](family, nx, nt)
            res(name, slack).absorb(margins, {"property": name, "family": fi, **info})
        args = {"family": fi, "seed": int(rng.integers(0, 2 ** 62)), "n": 8}
        margins, info = eval_ftc_consistency(family, args["seed"], args["n"])
        res("ftc_consistency", 1e-10).absorb(
            margins, {"property": "ftc_consistency", **args, **info})

    for ri, reaction in enumerate(reactions):
        for name, slack in (("reaction_primitive_consistency", 0.0),
                            ("reaction_growth_envelopes", 1e-12)):
            args = {"reaction": ri, "seed": int(rng.integers(0, 2 ** 62)),
                    "n": max(400, n_samples)}
            margins, info = EVALUATORS[name](reaction=reaction, seed=args["seed"],
                                             n=args["n"])
            res(name, slack).absorb(margins, {"property": name, **args, **info})

    for fi, family in enumerate(families):
        for ri, reaction in enumerate(reactions):
            for s in range(max(1, n_samples // 4)):
                args = {
                    "family": fi, "reaction": ri, "grid": s % len(grids),
                    "seed": int(rng.integers(0, 2 ** 62)),
                    "seed2": int(rng.integers(0, 2 ** 62)),
                    "amplitude": float(amplitudes[s % len(amplitudes)]),
                    "smoothness": int(rng.integers(0, 5)),
                    "lam": float((0.5, 1.0, 2.0)[s % 3]),
                }
                margins, info = eval_gradient_check(
                    family, reaction, grids[args["grid"]], args["seed"],
                    args["seed2"], args["amplitude"], args["smoothness"], args["lam"])
                res("gradient_check", 0.0).absorb(
                    margins, {"property": "gradient_check", **args, **info})

    ordered = [results[k] for k in sorted(results)]
    overall = all(p.passed for p in ordered)
    return VerifyReport(seed, n_samples, ordered, overall)
