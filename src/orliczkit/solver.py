"""Energy minimization by trust-region Newton, thresholds, and probes.

``minimize`` works in the quadrature-weighted inner product
<a,b>_w = sum(w a b), in which the weight-normalized residual r is the
gradient of the energy and H of ``_newton_model`` its exact Hessian.  Each
trial is the Levenberg-Marquardt step (H + mu S) d = -r of a trust region in
the discrete W^{1,2} metric S v = v + D^T (w_D D v) / w of the gradient D,
w_D the weights of the points where D's values live
(Conn, Gould & Toint, *Trust-Region Methods*, SIAM 2000, ch. 7; Neuberger,
*Sobolev Gradients and Differential Equations*, LNM 1670, 1997).  The
solver knows no stencil: D, |D u|, the weak divergence D^T (w_D .) / w,
w_D, the 1-d bands and the cosine modes come from the grid module, and the
flux secant a = phi(s)/s from the energy module.  A trial is one banded
Cholesky factorization in 1-d; in 2-d truncated CG preconditioned by
P v = c_bar v + a_bar D^T (w D v) / w, the metric with two means of the
model for its unit coefficients, which the grid's per-axis cosine modes
diagonalize (the fast diagonalization method, ``_fast_diagonalization``).
A trial is accepted when J falls by more than 0.1 of the decrease its
quadratic model predicts (and mu then shrinks by 4 if J fell by more than
0.75 of it).  Each trial evaluates J at u + d and at the doubled step
u + 2d together, as one 2-row energy stack (``_step_energies``), and an
accepted trial u + d is replaced by the probe u + 2d when its energy is
lower still (a probe that is not finite, or whose gradient overflows, is
dropped).  Where a p > 2 gradient term dominates, J is nearly
p-homogeneous along d: Newton's
u + d then covers only 1/(p-1) of the way to the minimum along the ray, and
the residual falls by ((p-2)/(p-1))^{p-1}, 0.30 at p = 4, per step, the
linear rate of Newton's method at a degenerate point (Decker, Keller &
Kelley, SIAM J. Numer. Anal. 20, 1983); the doubled step about halves the
iterations there, while near a regular minimum J(u + 2d) is about J(u) and
the probe is seldom kept.  At the rounding level of J (``_PRED_ROUNDING``)
a trial is also accepted, without its probe, when J does not rise and the
residual sup falls.  Otherwise, or when H + mu S is not positive definite,
mu grows to max(4 mu, -min c): H + mu S is then semidefinite for increasing
phi.  mu starts at 1 and carries over; a non-finite model, or mu above
``_MU_MAX``, ends the solve as a trust-region failure.  The iteration stops when the sup-norm of
the residual (the weak-solution defect) reaches its tolerance.  A converged
report is a discrete critical-point certificate in the spirit of a
Palais-Smale sequence: energies recorded along the way are nonincreasing and
the final derivative is small against every direction.  The report also
counts the rows of J the run evaluated (``energy_evals``: the start, then
the trial and the probe of each trial, less the points that are not
finite), the ``residual`` evaluations, the probe rows among the former,
one per finite trial, and the probes kept (``step_probes``,
``doubled_steps``), and the products with H + mu S of its 2-d CG
(``cg_products``).

``lambda_star_formula`` evaluates the small-parameter existence threshold

    lambda_star = rho^{phi_sup - q_minus} / (2 C2 c1^{q_minus}),
    rho in (0,1), rho < 1/c1,

with c1 the norm constant of the embedding into the variable-exponent
Lebesgue space, estimated here as a sampled lower bound (underestimating c1
inflates the threshold, so sweep reports carry the empirically verified
largest lambda alongside the formula value).  ``small_t_probe`` checks that
small multiples of a fixed bump make the energy negative when q- is below
phi0, and ``coercivity_probe`` checks growth along rays when q+ is below
phi0; both are the computable faces of the existence results.  Their fixed
settings are the module constants ``_BUMP_T_SCAN``, ``_COERCIVITY_T``,
``_SWEEP_T0``, ``_SWEEP_C1_SAMPLES`` and ``_NONTRIVIAL_NORM``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .energy import (EnergyConfig, _check_lam, _flux_secant, _ray_energies, _stack_energy,
                     energy, residual)
from .errors import DomainError, InputError, _int_at_least
from .families import power_family
from .grid import (DomainGrid, GridFunction, _divergence, _gradient, _gradient_and_magnitude,
                   _metric_bands, _neumann_modes, _random_fields, bump_function, integrate)
from .spaces import (_stack_luxemburg_norm, _stack_sobolev_norm, sobolev_modular,
                     sobolev_norm)

__all__ = [
    "SolverOptions", "SolveReport", "minimize", "lambda_star_formula",
    "estimate_embedding_constant", "SweepRow", "SweepReport", "sweep_lambda",
    "SmallTProbeReport", "small_t_probe", "CoercivityReport", "coercivity_probe", "bump_seed",
]


# CG stops at |(H + mu S) d + r|_w <= eta |r|_w, eta = min(_ETA_MAX, sqrt(|r|_w))
_ETA_MAX = 0.5
# the shift mu stays in [1/_MU_MAX, _MU_MAX]; a larger one ends the solve
_MU_MAX = 1e30
# a predicted decrease below _PRED_ROUNDING max(1, |J|) is at the rounding level of J
_PRED_ROUNDING = 1e-14

_BUMP_T_SCAN = (1e-6, 0.25, 40)      # np.geomspace arguments
_COERCIVITY_T = (10.0, 100.0, 1000.0)
_SWEEP_T0 = 2.0
_SWEEP_C1_SAMPLES = 60
_NONTRIVIAL_NORM = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 100_000
    tol_res: float = 1e-6

    def __post_init__(self):
        _int_at_least(self.max_iters, "max_iters", 1)
        if not (isinstance(self.tol_res, numbers.Real) and 0.0 < self.tol_res < math.inf):
            raise InputError(f"tol_res must be positive and finite, got {self.tol_res!r}")


@dataclass
class SolveReport:
    final_u: GridFunction
    final_energy: float
    residual_sup: float
    iterations: int
    converged: bool
    trajectory: np.ndarray          # rows (energy, residual_sup)
    message: str = ""
    energy_evals: int = 0           # rows of J evaluated: the start, each finite trial and probe
    residual_evals: int = 0
    cg_products: int = 0            # products with H + mu S in 2-d CG; 0 in 1-d
    step_probes: int = 0            # rows of J at u + 2d, one per finite trial; in energy_evals
    doubled_steps: int = 0          # probes kept in place of u + d


def _dot(w, a, b) -> float:
    return float(np.sum(w * a * b))


def _newton_model(config: EnergyConfig, u: GridFunction):
    """Per-node coefficients of the Hessian H of the discrete energy at u,
    H v = D^T (w_D K D v) / w + c v in the w-inner product, or None when one
    of them is not finite.

    c = phi'(|u|) - lam g'(u), and the flux tangent is
    K = a (I - n n^T) + phi'(s) n n^T with s = |grad u|, n = grad u / s and
    a = phi(s)/s (phi'(0) at s = 0).  The model is (c, phi'(s)) in 1-d,
    where K is phi'(s), and (c, phi'(s), a, n) in 2-d.
    """
    fam, x1 = config.family, u.grid.coords_first
    gu, s = _gradient_and_magnitude(u.grid, u.values)
    model = (np.asarray(fam.dphi(x1, u.values))
             - config.lam * np.asarray(config.reaction.dg(x1, u.values)),
             np.asarray(fam.dphi(x1, s)))
    if u.grid.dim == 2:
        # n is 0 where s = 0, where K = a I = phi'(0) I does not read it
        model += (_flux_secant(fam, x1, s, model[1]),
                  np.divide(gu, s, out=np.zeros(gu.shape), where=s > 0.0))
    return model if all(np.all(np.isfinite(k)) for k in model[:3]) else None


def _fast_diagonalization(modes, w, c_bar: float, a_bar: float):
    """v -> P^{-1} v for P v = c_bar v + a_bar D^T (w D v) / w on a 2-d grid
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964).

    P is c_bar W + a_bar (K_x (x) W_y + W_x (x) K_y) in matrix form, so the
    per-axis ``modes`` (V_k, lam_k) of ``grid._neumann_modes`` diagonalize it:
    P^{-1} v = V_0 ((V_0^T (w v) V_1) / (c_bar + a_bar (lam_0 (+) lam_1))) V_1^T.
    """
    (V0, lam0), (V1, lam1) = modes
    denom = c_bar + a_bar * (lam0[:, None] + lam1[None, :])
    return lambda v: V0 @ ((V0.T @ (w * v) @ V1) / denom) @ V1.T


def _shifted_step(grid: DomainGrid, model, r, mu: float, modes):
    """Trial step d with (H + mu S) d = -r in the w-inner product, the
    decrease (mu <d,S d>_w - <r + e, d>_w) / 2 that the quadratic model of J
    predicts for it, e = (H + mu S) d + r, and the count of products with
    H + mu S; (None, nan, count) when H + mu S is not positive definite.

    In 1-d d comes from one banded Cholesky factorization (e = 0, no
    product; ``modes`` is None).  In 2-d it comes from CG preconditioned by
    ``_fast_diagonalization`` on the grid's ``modes``, with the weighted
    means c_bar = max(<c>_w + mu, 1e-3 mu + 1e-12), positive even where
    c < 0, and a_bar = <(a + phi'(s)) / 2>_{w_D} + mu of the model.  CG stops
    at |e|_w <= eta |r|_w on the unpreconditioned residual, eta =
    min(_ETA_MAX, sqrt(|r|_w)) (Eisenstat-Walker), and non-positive
    curvature shows an indefinite matrix.
    """
    c, radial = model[:2]
    w, w_d = grid.weights, grid.gradient_weights
    products = 0
    if grid.dim == 1:
        from scipy.linalg import LinAlgError, solveh_banded  # deferred: import orliczkit loads no scipy

        try:
            d = solveh_banded(_metric_bands(grid, c + mu, radial + mu), -w * r)
        except LinAlgError:
            return None, math.nan, products
        e = 0.0
    else:
        a, n = model[2:]
        # fixed for the whole CG solve; each product as (a + mu) g + (phi' - a) n (n.g)
        a_mu, radial_n, c_mu = a + mu, (radial - a) * n, c + mu

        def apply(v):
            gv = _gradient(grid, v)
            flux = a_mu * gv + radial_n * np.sum(n * gv, axis=0)
            return _divergence(grid, flux) + c_mu * v

        # weighted means <f>_w = sum(w f) / |Omega|
        c_bar = max(float(np.sum(w * c)) / grid.measure + mu, 1e-3 * mu + 1e-12)
        a_bar = 0.5 * float(np.sum(w_d * (a + radial))) / grid.measure + mu
        precondition = _fast_diagonalization(modes, w, c_bar, a_bar)
        d = np.zeros(r.shape)
        res = -r
        rr = _dot(w, res, res)
        stop = min(_ETA_MAX ** 2, math.sqrt(rr)) * rr
        p = rz = None
        while rr > stop and products < r.size:
            z = precondition(res)
            rz, rz_old = _dot(w, res, z), rz
            p = z if p is None else z + (rz / rz_old) * p
            hp = apply(p)
            products += 1
            curvature = _dot(w, p, hp)
            if not curvature > 0.0:
                return None, math.nan, products
            step = rz / curvature
            d = d + step * p
            res = res - step * hp
            rr = _dot(w, res, res)
        e = -res
    gd = _gradient(grid, d)
    return (d, 0.5 * (mu * (_dot(w, d, d) + _dot(w_d, gd, gd)) - _dot(w, r + e, d)),
            products)


def _step_energies(config: EnergyConfig, u: GridFunction, d) -> list:
    """[(u + d, J(u + d)), (u + 2d, J(u + 2d))] as (values, J) pairs, less
    the points that are not finite: no pair for a trial that is not finite
    (d None included), and none for the probe u + 2d then either.

    Both points are one 2-row ``_stack_energy`` call, each row bit for bit
    its own ``energy`` call.  When a row's gradient overflows, the stack
    raises DomainError; the rows are then evaluated one at a time, and a
    row that raises reads J = inf.
    """
    rows = []
    for values in (() if d is None else (u.values + d, u.values + 2.0 * d)):
        if not np.all(np.isfinite(values)):
            break
        rows.append(values)
    if not rows:
        return []
    try:
        J = _stack_energy(config.family, config.reaction, u.grid, np.array(rows),
                          config.lam).tolist()
    except DomainError:
        J = []
        for values in rows:
            try:
                J.append(energy(config, GridFunction(u.grid, values)))
            except DomainError:
                J.append(math.inf)
    return list(zip(rows, J))


# overflow is silent: a non-finite model, trial, energy or residual is
# rejected where it is used
@np.errstate(over="ignore", invalid="ignore")
def minimize(config: EnergyConfig, u0: GridFunction,
             opts: SolverOptions | None = None) -> SolveReport:
    """Trust-region Newton from u0 in the discrete W^{1,2} metric, in the
    quadrature-weighted inner product."""
    opts = opts or SolverOptions()
    u = u0
    try:
        J, r = energy(config, u), residual(config, u)
    except (DomainError, InputError):     # |grad u| or the residual overflowed
        J = math.nan
    if not math.isfinite(J):
        raise InputError("the initial guess has a non-finite energy or residual")
    energy_evals = residual_evals = 1
    cg_products = step_probes = doubled_steps = 0
    modes = _neumann_modes(u0.grid) if u0.grid.dim == 2 else None
    traj = []
    message = "reached max_iters"
    iterations = 0
    mu = 1.0

    for iterations in range(opts.max_iters):
        res_sup = r.sup_norm()
        traj.append((J, res_sup))
        if res_sup <= opts.tol_res:
            message = "residual below tolerance"
            break
        model = _newton_model(config, u)
        while model is not None and mu <= _MU_MAX:
            d, pred, products = _shifted_step(u.grid, model, r.values, mu, modes)
            cg_products += products
            steps = _step_energies(config, u, d)
            energy_evals += len(steps)
            step_probes += len(steps) == 2
            if steps:
                values, J_trial = steps[0]
                accept = J - J_trial > 0.1 * pred
                if accept:
                    if J - J_trial > 0.75 * pred:
                        mu = max(mu / 4.0, 1.0 / _MU_MAX)
                    if len(steps) == 2 and steps[1][1] < J_trial:
                        values, J_trial = steps[1]
                        doubled_steps += 1
                if accept or (pred <= _PRED_ROUNDING * max(1.0, abs(J)) and J_trial <= J):
                    trial = GridFunction(u.grid, values)
                    r_trial = residual(config, trial)
                    residual_evals += 1
                    if accept or r_trial.sup_norm() < res_sup:
                        break
            mu = max(4.0 * mu, -float(np.min(model[0])))
        else:
            message = f"trust-region failure ({'shift above 1e30' if model else 'non-finite model'})"
            break
        u, J, r = trial, J_trial, r_trial
    else:
        iterations = opts.max_iters
        traj.append((J, r.sup_norm()))

    res_sup = r.sup_norm()
    return SolveReport(u, J, res_sup, iterations, res_sup <= opts.tol_res,
                       np.array(traj) if traj else np.zeros((0, 2)), message,
                       energy_evals, residual_evals, cg_products, step_probes,
                       doubled_steps)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def lambda_star_formula(rho: float, C2: float, c1: float, phi_sup: float,
                        q_minus: float) -> float:
    """Small-parameter threshold rho^{phi_sup-q_minus} / (2 C2 c1^{q_minus}),
    for positive finite C2 and c1."""
    if not (0.0 < C2 < math.inf and 0.0 < c1 < math.inf):
        raise InputError("C2 and c1 must be positive and finite")
    if not 0.0 < rho < 1.0:
        raise InputError("rho must lie in (0, 1)")
    if not rho < 1.0 / c1:
        raise InputError("rho must satisfy rho < 1/c1")
    return rho ** (phi_sup - q_minus) / (2.0 * C2 * c1 ** q_minus)


def _embedding_candidates(grid: DomainGrid):
    """Deterministic near-extremizers: constants and low-frequency modes.

    Random rough fields are gradient-dominated and badly underestimate the
    embedding constant; constants and the first few zero-flux cosine modes
    are where the ratio peaks on a box.
    """
    yield GridFunction.constant(grid, 1.0)
    yield bump_function(grid)
    x = grid.coords_first
    lo, hi = grid.extents[0]
    for k in (1, 2, 3):
        yield GridFunction(grid, np.cos(k * np.pi * (x - lo) / (hi - lo)))


def estimate_embedding_constant(family, q, grid: DomainGrid,
                                samples: int = 100, seed: int = 0) -> float:
    """Sampled lower bound for c1 in |u|_{q(x)} <= c1 ||u||.

    Maximum of the variable-exponent Lebesgue norm against the Sobolev-level
    norm over deterministic candidate fields plus random fields; a lower
    bound only (the true constant is a supremum over all fields),
    deterministic for fixed seed and nondecreasing in the sample count;
    ``samples`` is an integer >= 1 and ``seed`` an integer >= 0.
    """
    samples = _int_at_least(samples, "samples", 1)
    rng = np.random.default_rng(_int_at_least(seed, "seed", 0))
    draws = [(int(rng.integers(0, 2 ** 62)), float(rng.choice([0.1, 1.0, 10.0])),
              int(rng.integers(0, 5))) for _ in range(samples)]
    U = np.concatenate([[u.values for u in _embedding_candidates(grid)],
                        _random_fields(grid, *zip(*draws))])
    den = _stack_sobolev_norm(family, grid, U)
    num = _stack_luxemburg_norm(power_family(q), grid, U)
    return float(np.max(np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)))


def _default_rho(c1: float) -> float:
    # needs rho in (0,1) and rho < 1/c1
    return min(0.5, 0.9 / c1)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass
class SmallTProbeReport:
    t_values: np.ndarray
    energies: np.ndarray
    any_negative: bool
    first_negative_t: float         # nan when no negative value was found


def small_t_probe(config: EnergyConfig, theta: GridFunction,
                  t_list) -> SmallTProbeReport:
    """Energies J(t * theta) along a nonempty list of small t; theta a
    nonnegative bump."""
    if np.any(theta.values < 0.0) or theta.sup_norm() == 0.0:
        raise InputError("theta must be nonnegative and not identically zero")
    ts = np.asarray(sorted(float(t) for t in t_list))
    if not ts.size:
        raise InputError("t_list must hold at least one value")
    energies = _ray_energies(config, theta, ts)
    neg = np.where(energies < 0.0)[0]
    return SmallTProbeReport(ts, energies, neg.size > 0,
                             float(ts[neg[0]]) if neg.size else math.nan)


@dataclass
class CoercivityReport:
    t_values: tuple
    per_direction: list             # list of (energies tuple, ok flag)
    passed: bool


def coercivity_probe(config: EnergyConfig, directions) -> CoercivityReport:
    """Growth of J along rays t*d for one or more unit directions d, t in
    _COERCIVITY_T.

    Each direction is normalized to Sobolev-level norm 1; the probe requires
    J to increase between consecutive t values and end positive.
    """
    rows = []
    for d in directions:
        n = sobolev_norm(config.family, d)
        if n == 0.0:
            raise InputError("directions must be nonzero")
        energies = tuple(_ray_energies(config, (1.0 / n) * d, _COERCIVITY_T).tolist())
        ok = all(b > a for a, b in zip(energies, energies[1:])) and energies[-1] > 0.0
        rows.append((energies, ok))
    if not rows:
        raise InputError("need at least one direction")
    return CoercivityReport(_COERCIVITY_T, rows, all(ok for _, ok in rows))


# ---------------------------------------------------------------------------
# lambda sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    lam: float
    min_energy: float
    residual_sup: float
    solution_norm: float
    nontrivial: bool
    iterations: int
    converged: bool
    seed_used: str


@dataclass
class SweepReport:
    rows: list
    lambda_star_formula_value: float
    lambda_star_empirical: float     # largest lambda whose bump seed worked
    lambda_upper_empirical: float    # least lambda with J(_SWEEP_T0 * 1) < 0
    lambda_upper_root: float         # analytic zero crossing of J(_SWEEP_T0 * 1)
    c1_lower_estimate: float
    rho_used: float

    CSV_HEADER = "lambda,min_energy,residual_sup,solution_norm,nontrivial_flag,iterations"

    def csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.lam!r},{r.min_energy!r},{r.residual_sup!r},"
                         f"{r.solution_norm!r},{int(r.nontrivial)},{r.iterations}")
        return "\n".join(lines) + "\n"

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def bump_seed(config: EnergyConfig, grid: DomainGrid) -> GridFunction:
    """Scaled bump with negative energy when the scan finds one."""
    theta = bump_function(grid)
    ts = np.geomspace(*_BUMP_T_SCAN)
    energies = _ray_energies(config, theta, ts)
    k = int(np.argmin(energies))
    if energies[k] >= 0.0:
        k = 0    # no negative value in range; start tiny
    return float(ts[k]) * theta


def sweep_lambda(family, reaction, grid: DomainGrid, lambda_list,
                 opts: SolverOptions | None = None, seed: int = 0) -> SweepReport:
    """Minimize the energy across a non-empty, strictly increasing list of
    positive parameters.

    Each parameter runs from the seeds "bump" (``bump_seed``) and "constant"
    (_SWEEP_T0 times the unit field); its row is the run of lower energy, a
    converged one first.  u = 0, critical for every parameter, is no seed:
    its trivial run would hide a failed solve.  Nontriviality of a run means
    it converged with negative energy and norm above _NONTRIVIAL_NORM.
    """
    lams = [float(v) for v in lambda_list]
    if not lams:
        raise InputError("need at least one sweep parameter")
    _check_lam(np.asarray(lams))
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise InputError("lambda_list must be strictly increasing")
    opts = opts or SolverOptions()

    # J(u_const) = modular - lam growth
    u_const = GridFunction.constant(grid, _SWEEP_T0)
    modular = sobolev_modular(family, u_const)
    growth = integrate(GridFunction(grid, reaction.G(grid.coords_first, u_const.values)))
    lam_root = modular / growth if growth > 0.0 else math.nan
    lam_upper_emp = next((lam for lam in lams if modular - lam * growth < 0.0), math.nan)

    c1 = estimate_embedding_constant(family, reaction.q, grid,
                                     samples=_SWEEP_C1_SAMPLES, seed=seed)
    rho = _default_rho(c1) if c1 > 0 else 0.5
    lam_star = lambda_star_formula(rho, reaction.C2, c1, family.phi_sup,
                                   reaction.q.p_minus) if c1 > 0 else math.nan

    rows = []
    lam_star_emp = math.nan
    for lam in lams:
        config = EnergyConfig(family, reaction, lam)
        best = None
        for name, u0 in (("bump", bump_seed(config, grid)), ("constant", u_const)):
            rep = minimize(config, u0, opts)
            norm = sobolev_norm(family, rep.final_u)
            nontrivial = rep.converged and rep.final_energy < 0.0 and norm > _NONTRIVIAL_NORM
            key = (not rep.converged, rep.final_energy)
            if best is None or key < best[0]:
                best = (key, name, rep, norm, nontrivial)
            if name == "bump" and nontrivial:
                lam_star_emp = lam        # the parameters increase
        _, name, rep, norm, nontrivial = best
        rows.append(SweepRow(lam, rep.final_energy, rep.residual_sup, norm,
                             nontrivial, rep.iterations, rep.converged, name))
    return SweepReport(rows, lam_star, lam_star_emp, lam_upper_emp, lam_root,
                       c1, rho)
