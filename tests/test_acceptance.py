"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

import orliczkit as ok
from orliczkit.solver import _default_rho
from orliczkit import bump_seed
from orliczkit.verify import (_field_stacks, eval_holder, eval_norm_modular,
                              eval_norm_equivalences,
                              eval_sobolev_modular_bounds, eval_unit_ball,
                              eval_young)

AMPS = (0.1, 1.0, 10.0)


def _report(num, ok_flag, desc):
    status = "PASS" if ok_flag else "FAIL"
    print(f"\n[ACCEPTANCE {num:02d}] {status}  {desc}")
    assert ok_flag, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def grids(grid_1d, grid_2d):
    return [grid_1d, grid_2d]


def _worst_field_margin(evaluators, fam, grids, rng, n, seeds_per_sample=1):
    """Worst margin of the field evaluators over n random fields of fam.

    Sample s draws its seeds from rng in sample order and runs on
    grids[s % 2] with amplitude AMPS[s % 3] and smoothness s % 5.  The
    samples of one grid are one stack per seed column (U, and V for the
    second seeds), built as the suite builds them, and one call per
    evaluator; a sample's margin does not depend on the rest of its stack,
    so this is the worst margin of the one-field-at-a-time loop.
    """
    seeds = np.array([[int(rng.integers(0, 2 ** 62)) for _ in range(seeds_per_sample)]
                      for _ in range(n)])
    s = np.arange(n)
    worst = np.inf
    for g, grid in enumerate(grids):
        rows = s[s % 2 == g]
        stacks = _field_stacks(grid, seeds[rows].T, np.take(AMPS, rows % 3), rows % 5)
        for evaluate in evaluators:
            m, _ = evaluate(fam, grid, **stacks)
            worst = min(worst, float(np.min(m)))
    return worst


def test_criterion_01_norm_modular_relations(all_families, grids):
    """Relations between norms and modulars, 1000 random fields per family."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = min(_worst_field_margin((eval_norm_modular, eval_sobolev_modular_bounds),
                                    fam, grids, rng, 1000) for fam in all_families)
    elapsed = time.perf_counter() - t0
    _report(1, worst >= -1e-8 and elapsed < 60.0,
            f"norm-modular + Sobolev-modular relations on 3x1000 fields: "
            f"worst margin {worst:.3e}, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_02_unit_ball_identity(all_families, grids):
    """Modular of u scaled by its own norm equals 1 to 1e-7."""
    rng = np.random.default_rng(102)
    worst = min(_worst_field_margin((eval_unit_ball,), fam, grids, rng, 200)
                for fam in all_families)
    _report(2, worst >= -1e-7,
            f"unit-ball identity on 3x200 fields: worst |rho-1| = {-worst:.3e}")


def test_criterion_03_doubling_with_explicit_constant(all_families):
    """Phi(x,2t) <= 2^{phi_sup} Phi(x,t) on a 100x100 sample grid."""
    worst = np.inf
    for fam in all_families:
        xs = fam.p.sample_points(100)
        ts = np.geomspace(1e-4, 1e3, 100)
        Pt = np.asarray(fam.Phi(xs[:, None], ts[None, :]))
        P2t = np.asarray(fam.Phi(xs[:, None], 2.0 * ts[None, :]))
        bound = 2.0 ** fam.phi_sup * Pt
        worst = min(worst, float(np.min((bound - P2t) / bound)))
    _report(3, worst >= -1e-9,
            f"doubling bound with constant 2^phi_sup on 100x100 grids: "
            f"worst relative margin {worst:.3e}")


def test_criterion_04_young_and_holder(all_families, grids):
    """Pointwise Young inequality (1e4 triples) and the Holder bound (200 pairs)."""
    rng = np.random.default_rng(104)
    worst_y = np.inf
    worst_h = np.inf
    for fam in all_families:
        m, _ = eval_young(fam, int(rng.integers(0, 2 ** 62)), 10_000)
        worst_y = min(worst_y, float(np.min(m)))
        worst_h = min(worst_h, _worst_field_margin((eval_holder,), fam, grids, rng, 200,
                                                   seeds_per_sample=2))
    _report(4, worst_y >= -1e-8 and worst_h >= -1e-8,
            f"Young on 3x10^4 triples (worst {worst_y:.3e}) and Holder on "
            f"3x200 pairs (worst {worst_h:.3e})")


def test_criterion_05_norm_equivalences(all_families, grids):
    """The three Sobolev-level norms interlace with factor 2."""
    rng = np.random.default_rng(105)
    worst = min(_worst_field_margin((eval_norm_equivalences,), fam, grids, rng, 500)
                for fam in all_families)
    _report(5, worst >= -1e-8,
            f"norm equivalences on 3x500 fields: worst margin {worst:.3e}")


def test_criterion_06_derivative_correctness(all_families, all_reactions, grid_1d):
    """Directional derivative vs central differences, 50 pairs per config."""
    h = 1e-6
    rng = np.random.default_rng(106)
    worst_rel = 0.0
    for fam in all_families:
        for react in all_reactions:
            config = ok.EnergyConfig(fam, react, 1.0)
            for s in range(50):
                u = ok.random_function(grid_1d, int(rng.integers(0, 2 ** 62)),
                                       AMPS[s % 3], s % 5)
                v = ok.random_function(grid_1d, int(rng.integers(0, 2 ** 62)),
                                       AMPS[s % 3], s % 5)
                dd = ok.directional_derivative(config, u, v)
                fd = (ok.energy(config, u + h * v)
                      - ok.energy(config, u - h * v)) / (2.0 * h)
                worst_rel = max(worst_rel, abs(dd - fd) / (1.0 + abs(dd)))
    _report(6, worst_rel <= 1e-5,
            f"derivative vs central differences on 9x50 pairs: worst "
            f"relative error {worst_rel:.3e}")


def test_criterion_07_constant_solution_recovery(grid_1d):
    """Closed-form constant critical point recovered by the descent solver."""
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    config = ok.EnergyConfig(fam, react, 1.0)
    t0 = time.perf_counter()
    rep = ok.minimize(config, ok.GridFunction.constant(grid_1d, 0.3))
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(rep.final_u.values - 2.0 ** -0.5)))
    cond = (rep.converged and err <= 1e-4
            and abs(rep.final_energy + 0.25) <= 1e-4
            and rep.residual_sup <= 1e-6 and elapsed < 5.0)
    _report(7, cond,
            f"constant recovery: |u - 2^-1/2| = {err:.2e}, "
            f"J = {rep.final_energy:.6f} (target -0.25), residual "
            f"{rep.residual_sup:.2e}, {elapsed:.2f}s (< 5s)")


def test_criterion_08_small_lambda_existence(grid_1d):
    """Below the threshold formula the bump seed reaches a negative-energy
    critical point (the small-parameter existence regime)."""
    fam = ok.power_family(ok.ExponentField.affine(3.0, 1.0))   # phi0 = 3
    react = ok.power_reaction(ok.ExponentField.constant(2.0))  # q = 2 < phi0
    c1 = ok.estimate_embedding_constant(fam, react.q, grid_1d, samples=50, seed=0)
    rho = _default_rho(c1)
    lam_star = ok.lambda_star_formula(rho, react.C2, c1, fam.phi_sup,
                                      react.q.p_minus)
    results = []
    for lam in (lam_star, lam_star / 2.0, lam_star / 10.0):
        config = ok.EnergyConfig(fam, react, lam)
        u0 = bump_seed(config, grid_1d)
        rep = ok.minimize(config, u0)
        norm = ok.sobolev_norm(fam, rep.final_u)
        results.append((lam, rep.converged, rep.final_energy, norm))
    cond = all(c and e < 0.0 and n > 1e-6 for _, c, e, n in results)
    detail = "; ".join(f"lam={l:.4g}: J={e:.3e}, norm={n:.3e}"
                       for l, c, e, n in results)
    _report(8, cond,
            f"existence below lambda_star={lam_star:.4g} (c1 est {c1:.3f}): {detail}")


def test_criterion_09_probes(grid_1d):
    """Small-t negativity when q- < phi0, ray coercivity when q+ < phi0,
    plus the reversed-exponent negative control."""
    q2 = ok.power_reaction(ok.ExponentField.constant(2.0))
    configs = [
        ok.EnergyConfig(ok.power_family(ok.ExponentField.constant(4.0)), q2, 1.0),
        ok.EnergyConfig(ok.log_quotient_family(ok.ExponentField.constant(4.0)), q2, 1.0),
        ok.EnergyConfig(ok.log_weight_family(ok.ExponentField.constant(3.0), 1.0), q2, 1.0),
    ]
    theta = ok.bump_function(grid_1d)
    directions = [ok.GridFunction.constant(grid_1d, 1.0), theta,
                  ok.random_function(grid_1d, 99, 1.0, 3)]
    t_list = np.geomspace(1e-4, 0.1, 25)
    small_ok = []
    coercive_ok = []
    for config in configs:
        probe = ok.small_t_probe(config, theta, t_list)
        small_ok.append(probe.any_negative and probe.first_negative_t <= 0.1)
        coercive_ok.append(ok.coercivity_probe(config, directions).passed)
    control = ok.EnergyConfig(ok.power_family(ok.ExponentField.constant(2.0)),
                              ok.power_reaction(ok.ExponentField.constant(4.0)), 1.0)
    control_small = ok.small_t_probe(control, theta, t_list)
    control_coercive = ok.coercivity_probe(control, directions)
    cond = (all(small_ok) and all(coercive_ok)
            and not control_small.any_negative and not control_coercive.passed)
    _report(9, cond,
            f"small-t negativity {small_ok}, coercivity {coercive_ok}, "
            f"negative control correctly fails (small-t neg: "
            f"{control_small.any_negative}, coercive: {control_coercive.passed})")


def test_criterion_10_large_lambda_threshold(grid_1d):
    """The constant seed's energy crosses zero at the analytic root and the
    sweep finds nontrivial minimizers above it."""
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    report = ok.sweep_lambda(fam, react, grid_1d, [3.0, 4.4, 6.0], seed=10)
    # analytic root for u0 = 2: Phi(2)/G(2) = 2^4 / 2^2 = 4
    root_ok = abs(report.lambda_upper_root - 4.0) <= 1e-6
    above = [r for r in report.rows if r.lam > 4.0]
    above_ok = bool(above) and all(r.nontrivial and r.min_energy < 0.0
                                   for r in above)
    first_ok = report.lambda_upper_empirical == pytest.approx(4.4)
    cond = root_ok and above_ok and first_ok
    _report(10, cond,
            f"zero crossing at {report.lambda_upper_root:.8f} (target 4), "
            f"{len(above)} sweep points above it all nontrivial with J < 0")
