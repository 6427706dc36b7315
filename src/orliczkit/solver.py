"""Energy minimization by Armijo-backtracked damped Newton, thresholds, and probes.

``minimize`` works in the quadrature-weighted inner product
<a,b>_w = sum(w a b), in which the weight-normalized residual r is the
gradient of the energy.  Its direction solves H d = -r for the Newton model
H of ``_newton_direction``: the Hessian of the discrete energy with the flux
tangent clipped at >= 0 and the zeroth-order coefficient clipped below at a
small positive floor (``_C_FLOOR``), so H is positive definite and exact
wherever that floor is inactive, near a stable minimizer in particular
(Nocedal & Wright, *Numerical Optimization*, ch. 3.4 and 7.1).  In 1-d the
model is pentadiagonal and the step is one banded direct solve; in 2-d it
is CG on the matrix-free model, truncated by the Eisenstat-Walker forcing
min(``_ETA_MAX``, sqrt(|r|_w)) and at non-positive curvature (Steihaug).  A
direction that is not a descent direction is replaced by -r.  Every line
search starts from the unit step, the natural Newton step, and halves it
until the Armijo test J(u + t d) <= J(u) + 1e-4 t <r,d>_w holds (ibid.
ch. 3.1), so each accepted step decreases the energy; the iteration stops
when the sup-norm of the residual (the weak-solution defect) reaches its
tolerance.  A converged report is a discrete critical-point certificate in
the spirit of a Palais-Smale sequence: energies recorded along the way are
nonincreasing and the final derivative is small against every direction.
The report also counts the ``energy`` and ``residual`` evaluations the run
made.

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
from dataclasses import dataclass

import numpy as np

from .energy import EnergyConfig, energy, residual
from .errors import DomainError, InputError
from .families import power_family
from .grid import (DomainGrid, GridFunction, _gradient, _random_fields, bump_function,
                   gradient, gradient_adjoint, integrate, quad_weights)
from .spaces import (_stack_luxemburg_norm, _stack_sobolev_norm, sobolev_modular,
                     sobolev_norm)

__all__ = [
    "SolverOptions", "SolveReport", "minimize", "lambda_star_formula",
    "estimate_embedding_constant", "SweepRow", "SweepReport", "sweep_lambda",
    "SmallTProbeReport", "small_t_probe", "CoercivityReport", "coercivity_probe", "bump_seed",
]


# c = phi'(|u|) - lam g'(u) is clipped below at _C_FLOOR max(1, max|c|)
_C_FLOOR = 1e-4
# CG stops at |H d + r|_w <= eta |r|_w, eta = min(_ETA_MAX, sqrt(|r|_w))
_ETA_MAX = 0.5
# line search: the first t = 1, 1/2, 1/4, ... >= _STEP_FLOOR with
# J(u + t d) <= J(u) + _ARMIJO_C1 t <r,d>_w
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_STEP_FLOOR = 1e-18

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
        if not (self.max_iters >= 1 and 0.0 < self.tol_res < math.inf):
            raise InputError("max_iters and tol_res must be positive and finite")


@dataclass
class SolveReport:
    final_u: GridFunction
    final_energy: float
    residual_sup: float
    iterations: int
    converged: bool
    trajectory: np.ndarray          # rows (energy, residual_sup)
    message: str = ""
    energy_evals: int = 0
    residual_evals: int = 0


def _dot(w, a, b) -> float:
    return float(np.sum(w * a * b))


def _newton_direction(config: EnergyConfig, u: GridFunction, r, w):
    """d with H d = -r for the clipped Newton model H of J at u, in the
    w-inner product.

    H v = D^T (w K D v) / w + c v with, per node, s = |grad u|, n = grad u / s,
    a = phi(s)/s (phi'(0) at s = 0), the flux tangent
    K = a (I - n n^T) + phi'(s) n n^T with both eigenvalues clipped at >= 0,
    and c = phi'(|u|) - lam g'(u) clipped below at _C_FLOOR max(1, max|c|).
    H is positive definite, and it is the Hessian of the discrete energy
    wherever c is above its floor.  In 1-d K is phi'(s) and d comes from one
    banded solve; in 2-d from truncated CG on v -> H v.  Where phi' or
    lam g' overflows there is no model, and d is -r.
    """
    fam, grid = config.family, u.grid
    x1 = grid.coords_first
    gu = gradient(u)
    s = np.sqrt(np.sum(gu * gu, axis=0))
    radial = np.maximum(np.asarray(fam.dphi(x1, s)), 0.0)
    c = (np.asarray(fam.dphi(x1, u.values))
         - config.lam * np.asarray(config.reaction.dg(x1, u.values)))
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(radial))):
        return -r
    c = np.maximum(c, _C_FLOOR * max(1.0, float(np.max(np.abs(c)))))
    if grid.dim == 1:
        return _banded_newton_step(grid, w * radial, w * c, -w * r)

    live = s > 0.0
    safe = np.where(live, s, 1.0)
    a = np.maximum(np.where(live, np.asarray(fam.phi(x1, safe)) / safe, radial), 0.0)
    n = gu / safe

    def apply(v):
        gv = _gradient(grid, v)
        flux = a * gv + (radial - a) * n * np.sum(n * gv, axis=0)
        return gradient_adjoint(w * flux, grid) / w + c * v

    return _truncated_cg_step(apply, r, w)


def _banded_newton_step(grid: DomainGrid, wk, wc, rhs):
    """Solve (D^T diag(wk) D + diag(wc)) d = rhs on a 1-d grid.  The central
    stencil skips the neighbour and its boundary rows are zero, so the
    matrix is pentadiagonal with offsets 0 and +-2."""
    from scipy.linalg import solve_banded    # deferred: import orliczkit loads no scipy

    m = wk[1:-1] / (2.0 * grid.spacing[0]) ** 2
    bands = np.zeros((5, rhs.size))
    bands[2] = wc
    bands[2, 2:] += m
    bands[2, :-2] += m
    bands[0, 2:] = bands[4, :-2] = -m
    return solve_banded((2, 2), bands, rhs)


def _truncated_cg_step(apply, r, w):
    """d with |H d + r|_w <= eta |r|_w, eta = min(_ETA_MAX, sqrt(|r|_w)), by CG
    in the w-inner product on H = apply (Eisenstat-Walker forcing).  CG stops
    early at non-positive curvature (Steihaug) and then returns its last
    iterate, or -r if there is none."""
    d = np.zeros(r.shape)
    res = -r
    p = res
    rr = _dot(w, res, res)
    stop = min(_ETA_MAX ** 2, math.sqrt(rr)) * rr
    for _ in range(r.size):
        if rr <= stop:
            break
        hp = apply(p)
        curvature = _dot(w, p, hp)
        if not curvature > 0.0:
            return d if np.any(d) else -r
        step = rr / curvature
        d = d + step * p
        res = res - step * hp
        rr, rr_old = _dot(w, res, res), rr
        p = res + (rr / rr_old) * p
    return d


# overflow is silent: a non-finite model, slope, trial, energy or residual is
# rejected where it is used
@np.errstate(over="ignore", invalid="ignore")
def minimize(config: EnergyConfig, u0: GridFunction,
             opts: SolverOptions | None = None) -> SolveReport:
    """Armijo-backtracked damped Newton from u0, in the quadrature-weighted
    inner product."""
    opts = opts or SolverOptions()
    w = quad_weights(u0.grid)
    u = u0
    try:
        J, r = energy(config, u), residual(config, u)
    except (DomainError, InputError):     # |grad u| or the residual overflowed
        J = math.nan
    if not math.isfinite(J):
        raise InputError("the initial guess has a non-finite energy or residual")
    energy_evals = residual_evals = 1
    traj = []
    message = "reached max_iters"
    iterations = 0

    for iterations in range(opts.max_iters):
        res_sup = r.sup_norm()
        traj.append((J, res_sup))
        if res_sup <= opts.tol_res:
            message = "residual below tolerance"
            break
        d = _newton_direction(config, u, r.values, w)
        slope = _dot(w, r.values, d)
        if not slope < 0.0:
            d = -r.values
            slope = _dot(w, r.values, d)
        step = 1.0
        accepted = False
        while step >= _STEP_FLOOR:
            trial_values = u.values + step * d
            if np.all(np.isfinite(trial_values)):
                trial = GridFunction(u.grid, trial_values)
                try:
                    J_trial = energy(config, trial)
                except DomainError:      # |grad u| overflowed: no finite energy
                    J_trial = math.inf
                energy_evals += 1
                if np.isfinite(J_trial) and J_trial <= J + _ARMIJO_C1 * step * slope:
                    accepted = True
                    break
            step *= _BACKTRACK
        if not accepted:
            message = "line search failure (step underflow)"
            break
        u, J, r = trial, J_trial, residual(config, trial)
        residual_evals += 1
    else:
        iterations = opts.max_iters

    res_sup = r.sup_norm()
    return SolveReport(u, J, res_sup, iterations, res_sup <= opts.tol_res,
                       np.array(traj) if traj else np.zeros((0, 2)), message,
                       energy_evals, residual_evals)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def lambda_star_formula(rho: float, C2: float, c1: float, phi_sup: float,
                        q_minus: float) -> float:
    """Small-parameter threshold rho^{phi_sup-q_minus} / (2 C2 c1^{q_minus})."""
    if C2 <= 0.0 or c1 <= 0.0:
        raise InputError("C2 and c1 must be positive")
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
    deterministic for fixed seed and nondecreasing in the sample count.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
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
    """Energies J(t * theta) along small t; theta a nonnegative bump."""
    if np.any(theta.values < 0.0) or theta.sup_norm() == 0.0:
        raise InputError("theta must be nonnegative and not identically zero")
    ts = np.asarray(sorted(float(t) for t in t_list))
    energies = np.array([energy(config, t * theta) for t in ts])
    neg = np.where(energies < 0.0)[0]
    return SmallTProbeReport(ts, energies, neg.size > 0,
                             float(ts[neg[0]]) if neg.size else math.nan)


@dataclass
class CoercivityReport:
    t_values: tuple
    per_direction: list             # list of (energies tuple, ok flag)
    passed: bool


def coercivity_probe(config: EnergyConfig, directions) -> CoercivityReport:
    """Growth of J along rays t*d for unit directions d, t in _COERCIVITY_T.

    Each direction is normalized to Sobolev-level norm 1; the probe requires
    J to increase between consecutive t values and end positive.
    """
    rows = []
    for d in directions:
        n = sobolev_norm(config.family, d)
        if n == 0.0:
            raise InputError("directions must be nonzero")
        dn = (1.0 / n) * d
        energies = tuple(energy(config, t * dn) for t in _COERCIVITY_T)
        ok = all(b > a for a, b in zip(energies, energies[1:])) and energies[-1] > 0.0
        rows.append((energies, ok))
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
    energies = np.array([energy(config, float(t) * theta) for t in ts])
    k = int(np.argmin(energies))
    if energies[k] >= 0.0:
        k = 0    # no negative value in range; start tiny
    return float(ts[k]) * theta


def sweep_lambda(family, reaction, grid: DomainGrid, lambda_list,
                 opts: SolverOptions | None = None, seed: int = 0) -> SweepReport:
    """Minimize the energy across a sorted list of positive parameters.

    Each parameter runs from the seeds "bump" (``bump_seed``) and "constant"
    (_SWEEP_T0 times the unit field); its row is the run of lower energy, a
    converged one first.  u = 0, critical for every parameter, is no seed:
    its trivial run would hide a failed solve.  Nontriviality of a run means
    it converged with negative energy and norm above _NONTRIVIAL_NORM.
    """
    lams = [float(v) for v in lambda_list]
    if any(v <= 0.0 for v in lams):
        raise InputError("all sweep parameters must be positive")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise InputError("lambda_list must be strictly increasing")
    opts = opts or SolverOptions()

    u_const = GridFunction.constant(grid, _SWEEP_T0)
    lam_root = math.nan
    growth = integrate(GridFunction(grid, np.asarray(
        reaction.G(grid.coords_first, u_const.values))))
    if growth > 0.0:
        lam_root = sobolev_modular(family, u_const) / growth

    c1 = estimate_embedding_constant(family, reaction.q, grid,
                                     samples=_SWEEP_C1_SAMPLES, seed=seed)
    rho = _default_rho(c1) if c1 > 0 else 0.5
    lam_star = lambda_star_formula(rho, reaction.C2, c1, family.phi_sup,
                                   reaction.q.p_minus) if c1 > 0 else math.nan

    rows = []
    lam_star_emp = math.nan
    lam_upper_emp = math.nan
    for lam in lams:
        config = EnergyConfig(family, reaction, lam)
        if math.isnan(lam_upper_emp) and energy(config, u_const) < 0.0:
            lam_upper_emp = lam
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
