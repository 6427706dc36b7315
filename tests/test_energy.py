"""Reactions, the energy functional, its derivative, and the nodal residual."""

import math

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import grid as grid_module
from orliczkit.energy import (CERTIFICATION_T_RANGE, ReactionFamily, _stack_energy,
                              _stack_residual)
from orliczkit.errors import InputError
from orliczkit.grid import quad_weights

# frozen oracle values
G1_Q3_AT_2 = 8.0                            # |2|^3
G3_Q3_AT_1 = 1.7456241416655579             # 1 + sin(sin 1)
# derivative of G2 = |t|^q + log(1+t^2)|t|^{q-2} at q=4, t=1: 4 + 2 log 2 + 1
G2_PRIME_Q4_AT_1 = 6.386294361119891


@pytest.fixture(scope="module")
def reactions():
    return {
        "power": ok.power_reaction(ok.ExponentField.constant(3.0)),
        "power-log": ok.power_log_reaction(ok.ExponentField.constant(4.0)),
        "power-sin": ok.power_sin_reaction(ok.ExponentField.constant(3.0)),
    }


def test_g_power_example(reactions):
    assert reactions["power"].g(0.0, 2.0) == pytest.approx(12.0, abs=0)
    assert reactions["power"].g(0.0, -2.0) == -reactions["power"].g(0.0, 2.0)


def test_g_zero(reactions):
    for r in reactions.values():
        assert r.g(0.3, 0.0) == 0.0
        assert r.G(0.3, 0.0) == 0.0


def test_g_power_log_is_derivative_of_G(reactions):
    # frozen from the finite-difference oracle on the closed-form G
    r = reactions["power-log"]
    h = 1e-7
    fd = (r.G(0.0, 1.0 + h) - r.G(0.0, 1.0 - h)) / (2.0 * h)
    assert fd == pytest.approx(G2_PRIME_Q4_AT_1, rel=1e-7)
    assert r.g(0.0, 1.0) == pytest.approx(G2_PRIME_Q4_AT_1, rel=1e-13)
    assert r.g(0.0, 1.0) == pytest.approx(4.0 + 2.0 * np.log(2.0) + 1.0, rel=1e-13)


def test_G_examples(reactions):
    assert reactions["power"].G(0.0, 2.0) == pytest.approx(G1_Q3_AT_2, abs=0)
    assert reactions["power-sin"].G(0.0, 1.0) == pytest.approx(G3_Q3_AT_1, rel=1e-14)


def test_primitive_consistency(reactions, rng):
    raw = rng.uniform(-1.0, 1.0, 300)
    t = np.sign(raw) * (1e-3 + np.abs(raw) * 4.999)
    x = rng.uniform(0.0, 1.0, 300)
    for r in reactions.values():
        h = 1e-7 * (1.0 + np.abs(t))
        fd = (np.asarray(r.G(x, t + h)) - np.asarray(r.G(x, t - h))) / (2.0 * h)
        g = np.asarray(r.g(x, t))
        assert np.all(np.abs(fd - g) <= 1e-6 * (1.0 + np.abs(g)))


def test_reaction_scalar_values_equal_batch_values():
    # a 0-d (x, t) is evaluated as a batch of one, not by numpy's scalar
    # power, so it gets its batch element's value to the last bit
    q = ok.ExponentField.affine(4.0, 1.3)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, 1000)
    t = rng.uniform(-3.0, 3.0, 1000)
    t[::97] = 0.0
    for react in (ok.power_reaction(q), ok.power_log_reaction(q), ok.power_sin_reaction(q)):
        for name in ("g", "G", "dg"):
            method = getattr(react, name)
            single = [method(xi, ti) for xi, ti in zip(x, t)]
            assert all(type(v) is float for v in single), (react.example_id, name)
            assert np.array(single).tobytes() == method(x, t).tobytes(), (react.example_id, name)


def test_dg_matches_central_difference(reactions, reaction_q2, rng):
    raw = rng.uniform(-1.0, 1.0, 300)
    t = np.sign(raw) * (1e-3 + np.abs(raw) * 4.999)
    x = rng.uniform(0.0, 1.0, 300)
    for r in [reaction_q2, *reactions.values()]:
        h = 1e-6 * (1.0 + np.abs(t))
        fd = (np.asarray(r.g(x, t + h)) - np.asarray(r.g(x, t - h))) / (2.0 * h)
        dg = np.asarray(r.dg(x, t))
        assert np.all(np.abs(fd - dg) <= 1e-6 * (1.0 + np.abs(dg)))


def test_dg_at_zero(reactions, reaction_q2):
    # g(t) = 2t for q = 2, so g'(0) = 2 is not zeroed like g(0) and G(0)
    assert reaction_q2.dg(0.3, 0.0) == 2.0
    for r in reactions.values():
        assert r.dg(0.3, 0.0) == 0.0


def test_growth_envelopes_with_certified_constants(reactions, rng):
    lo, hi = CERTIFICATION_T_RANGE
    mag = np.exp(rng.uniform(np.log(lo), np.log(hi), 500))
    t = np.where(rng.uniform(size=500) < 0.5, -mag, mag)
    x = rng.uniform(0.0, 1.0, 500)
    ulp = 1.0 + 1e-12     # power-law cases meet the envelope with equality
    for r in reactions.values():
        q = r.q(x)
        at = np.abs(t)
        assert np.all(np.abs(np.asarray(r.g(x, t))) <= ulp * r.C0 * at ** (q - 1.0))
        G = np.asarray(r.G(x, t))
        assert np.all(r.C1 * at ** q <= ulp * G)
        assert np.all(G <= ulp * r.C2 * at ** q)


def test_power_reaction_constants():
    r = ok.power_reaction(ok.ExponentField.affine(2.0, 1.0))
    assert (r.C0, r.C1, r.C2) == (3.0, 1.0, 1.0)


def test_reaction_descriptors_hash_and_derive_their_constants():
    q = ok.ExponentField.tabulated([0.0, 1.0], [2.0, 3.0])
    reaction = ok.power_reaction(q)
    twin = ReactionFamily("power", ok.ExponentField.tabulated([1.0, 0.0], [3.0, 2.0]))
    assert twin == reaction and hash(twin) == hash(reaction)
    assert (twin.C0, twin.C1, twin.C2) == (3.0, 1.0, 1.0)
    with pytest.raises(InputError, match="unknown reaction example 'cubic'"):
        ReactionFamily("cubic", q)


def test_reaction_floor_guards():
    with pytest.raises(InputError):
        ok.power_reaction(ok.ExponentField.constant(1.5))
    with pytest.raises(InputError):
        ok.power_log_reaction(ok.ExponentField.constant(3.0))
    with pytest.raises(InputError):
        ok.power_sin_reaction(ok.ExponentField.constant(2.0))


# ---------------------------------------------------------------------------
# energy functional
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def config_p4_q2():
    fam = ok.power_family(ok.ExponentField.constant(4.0))
    react = ok.power_reaction(ok.ExponentField.constant(2.0))
    return ok.EnergyConfig(fam, react, 1.0)


def test_energy_zero_field(config_p4_q2, grid_1d):
    assert ok.energy(config_p4_q2, ok.GridFunction.constant(grid_1d, 0.0)) == 0.0


@pytest.mark.parametrize("c", [0.3, 0.5, 1.0, 1.4])
def test_energy_constant_closed_form(config_p4_q2, grid_1d, c):
    u = ok.GridFunction.constant(grid_1d, c)
    assert ok.energy(config_p4_q2, u) == pytest.approx(c ** 4 - c ** 2, rel=1e-12)


def test_energy_negative_branch(config_p4_q2, grid_1d):
    u = ok.GridFunction.constant(grid_1d, 0.5)    # c^4 < c^2
    assert ok.energy(config_p4_q2, u) < 0.0


def test_energy_lambda_guard(config_p4_q2):
    with pytest.raises(InputError):
        ok.EnergyConfig(config_p4_q2.family, config_p4_q2.reaction, 0.0)
    with pytest.raises(InputError):
        ok.EnergyConfig(config_p4_q2.family, config_p4_q2.reaction, -1.0)


def test_energy_lambda_must_be_finite(config_p4_q2):
    with pytest.raises(InputError, match="lam must be finite"):
        ok.EnergyConfig(config_p4_q2.family, config_p4_q2.reaction, math.inf)


def test_directional_derivative_at_zero(config_p4_q2, grid_1d):
    z = ok.GridFunction.constant(grid_1d, 0.0)
    v = ok.random_function(grid_1d, 3, 1.0, 2)
    assert ok.directional_derivative(config_p4_q2, z, v) == 0.0


def test_directional_derivative_needs_one_grid(config_p4_q2):
    # u on [0, 1] paired with v on [0, 2] returned 4.0
    u = ok.GridFunction.constant(ok.make_grid(1, [(0.0, 1.0)], [5]), 1.0)
    v = ok.GridFunction.constant(ok.make_grid(1, [(0.0, 2.0)], [5]), 1.0)
    with pytest.raises(InputError, match="different grids"):
        ok.directional_derivative(config_p4_q2, u, v)


def test_directional_derivative_constant_stationary(config_p4_q2, grid_1d):
    # constants are stationary when p c^{p-1} = lam q c^{q-1}
    c_star = 2.0 ** -0.5
    u = ok.GridFunction.constant(grid_1d, c_star)
    for seed in range(5):
        v = ok.random_function(grid_1d, seed, 1.0, seed % 4)
        assert abs(ok.directional_derivative(config_p4_q2, u, v)) <= 1e-8


def test_directional_derivative_matches_central_difference(all_families,
                                                           all_reactions,
                                                           grid_1d):
    h = 1e-6
    k = 0
    for fam in all_families:
        for react in all_reactions:
            config = ok.EnergyConfig(fam, react, 1.0)
            u = ok.random_function(grid_1d, 1000 + k, 1.0, 2)
            v = ok.random_function(grid_1d, 2000 + k, 1.0, 2)
            dd = ok.directional_derivative(config, u, v)
            fd = (ok.energy(config, u + h * v) - ok.energy(config, u - h * v)) / (2.0 * h)
            assert abs(dd - fd) <= 1e-5 * (1.0 + abs(dd))
            k += 1


def test_residual_zero_field(config_p4_q2, grid_1d):
    z = ok.GridFunction.constant(grid_1d, 0.0)
    assert np.all(ok.residual(config_p4_q2, z).values == 0.0)


def test_residual_constant_stationary(config_p4_q2, grid_1d, grid_2d):
    c_star = 2.0 ** -0.5
    for grid in (grid_1d, grid_2d):
        u = ok.GridFunction.constant(grid, c_star)
        assert ok.residual(config_p4_q2, u).sup_norm() <= 1e-6


def test_residual_pairing_matches_central_difference(all_families, reaction_q2,
                                                     grid_1d, grid_2d):
    # the weighted pairing of the residual the solver uses is the derivative
    # of the discrete energy, in 2-d as in 1-d (observed gaps <= 1.3e-8)
    h = 1e-6
    for fam in all_families:
        config = ok.EnergyConfig(fam, reaction_q2, 0.7)
        for grid in (grid_1d, grid_2d):
            u = ok.random_function(grid, 11, 1.0, 1)
            r = ok.residual(config, u)
            w = quad_weights(grid)
            for seed in (21, 22, 23):
                v = ok.random_function(grid, seed, 1.0, 2)
                pair = float(np.sum(w * r.values * v.values))
                fd = (ok.energy(config, u + h * v) - ok.energy(config, u - h * v)) / (2.0 * h)
                assert abs(pair - fd) <= 1e-6 * (1.0 + abs(pair))


def test_stack_energy_and_residual_rows_are_independent(monkeypatch, family_logquot_affine,
                                                        grid_1d, grid_2d):
    # a stack with one lam per row gives each row's energy and residual bit
    # for bit as a single call at that lam, also when the stack is split into
    # chunks of one or two rows; a zero field has J = 0 and residual 0
    react = ok.power_sin_reaction(ok.ExponentField.constant(3.0))
    lams = np.array([0.5, 2.0, 1.0, 7.5])
    for g in (grid_1d, grid_2d):
        fields = [ok.random_function(g, 5, 1e-3, 0), ok.GridFunction.constant(g, 0.0),
                  ok.random_function(g, 6, 10.0, 3), ok.random_function(g, 7, 1.0, 1)]
        U = np.stack([u.values for u in fields])
        configs = [ok.EnergyConfig(family_logquot_affine, react, lam) for lam in lams]
        J = [ok.energy(c, u) for c, u in zip(configs, fields)]
        R = np.stack([ok.residual(c, u).values for c, u in zip(configs, fields)])
        assert J[1] == 0.0 and not R[1].any()
        for budget in (grid_module._NODE_BUDGET, g.size, 2 * g.size):
            monkeypatch.setattr(grid_module, "_NODE_BUDGET", budget)
            assert _stack_energy(family_logquot_affine, react, g, U, lams).tolist() == J
            assert _stack_residual(family_logquot_affine, react, g, U,
                                   lams).tobytes() == R.tobytes()
            monkeypatch.undo()


def test_energy_translation_by_zero(config_p4_q2, grid_1d):
    u = ok.random_function(grid_1d, 9, 1.0, 2)
    z = ok.GridFunction.constant(grid_1d, 0.0)
    assert ok.energy(config_p4_q2, u) - ok.energy(config_p4_q2, z) \
        == ok.energy(config_p4_q2, u)


def test_sobolev_modular_even(all_families, grid_1d):
    u = ok.random_function(grid_1d, 13, 1.0, 2)
    for fam in all_families:
        assert ok.sobolev_modular(fam, -1.0 * u) == ok.sobolev_modular(fam, u)


def test_singular_coefficient_family_at_zero(family_logquot_p3, reaction_q2,
                                             grid_1d):
    # a(x,s) = phi(x,s)/s blows up alone as s -> 0 for this family, but the
    # products a(x,|u|)u and a(x,|grad u|)grad u are defined as 0 there
    config = ok.EnergyConfig(family_logquot_p3, reaction_q2, 1.0)
    z = ok.GridFunction.constant(grid_1d, 0.0)
    r = ok.residual(config, z)
    assert np.all(np.isfinite(r.values))
    assert np.all(r.values == 0.0)
