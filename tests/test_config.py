"""Key-value config parsing and the less-traveled loader branches."""

import re

import numpy as np
import pytest

import orliczkit as ok
from orliczkit.cli import main
from orliczkit.config import (exponent_from_kv, finite_float, grid_from_kv,
                              initial_guess_from_kv, load_energy_setup,
                              parse_kv_text, reaction_from_kv)
from orliczkit.errors import InputError


def test_parse_kv_text_basics():
    kv = parse_kv_text("a = 1\n# comment\n b.c =  hello world \n\n")
    assert kv == {"a": "1", "b.c": "hello world"}
    with pytest.raises(InputError):
        parse_kv_text("no equals sign here")


def test_family_descriptor_with_declared_override(tmp_path):
    p = tmp_path / "fam.cfg"
    p.write_text("family = power\np.kind = constant\np.coeffs = 3\n"
                 "phi0 = 2.5\nM_lower = 0.9\n")
    from orliczkit.config import family_from_kv_or_file, read_kv_file
    fam = family_from_kv_or_file(read_kv_file(p), prefix="")
    assert fam.phi0 == 2.5           # declared value wins over the analytic one
    assert fam.M_lower == 0.9
    assert fam.phi_sup == 3.0


def test_family_descriptor_estimate_keyword(tmp_path):
    fam0 = ok.log_weight_family(ok.ExponentField.constant(2.0), 1.0)
    text = ok.family_to_text(fam0)
    assert "phi_sup = estimate" in text
    back = ok.family_from_text(text)
    assert back.phi_sup == fam0.phi_sup     # deterministic re-estimation


def test_tabulated_exponent_from_config():
    kv = parse_kv_text("reaction.q.kind = tabulated\nreaction.q.x1 = 0 0.5 1\n"
                       "reaction.q.values = 2 3 2\nreaction.example = power\n")
    react = reaction_from_kv(kv)
    assert react.q(0.49) == pytest.approx(3.0)
    assert (react.q.p_minus, react.q.p_plus) == (2.0, 3.0)


@pytest.mark.parametrize("example, q, factory", [
    ("power", "2 1", ok.power_reaction),
    ("power-log", "4 0.5", ok.power_log_reaction),
    ("power-sin", "3 1", ok.power_sin_reaction),
])
def test_reaction_from_kv_matches_factory(example, q, factory):
    kv = parse_kv_text(f"reaction.example = {example}\nreaction.q.kind = affine\n"
                       f"reaction.q.coeffs = {q}\n")
    react = reaction_from_kv(kv)
    coeffs = [float(v) for v in q.split()]
    expected = factory(ok.ExponentField.affine(*coeffs))
    assert react.example_id == example
    assert (react.C0, react.C1, react.C2) == (expected.C0, expected.C1, expected.C2)


def test_reaction_from_kv_rejects_unknown_example():
    kv = parse_kv_text("reaction.example = cubic\nreaction.q.kind = constant\n"
                       "reaction.q.coeffs = 3\n")
    with pytest.raises(InputError, match="unknown reaction example 'cubic'"):
        reaction_from_kv(kv)


def test_grid_from_kv_2d():
    kv = parse_kv_text("grid.dim = 2\ngrid.extents = 0 1 0 2\ngrid.nodes = 5 9\n")
    grid = grid_from_kv(kv)
    assert grid.shape == (5, 9)
    assert grid.measure == 2.0
    with pytest.raises(InputError):
        grid_from_kv(parse_kv_text("grid.dim = 2\ngrid.extents = 0 1\ngrid.nodes = 5 9\n"))


@pytest.mark.parametrize("extents", ["0 x", "0 1e999x", "lo hi"])
def test_grid_from_kv_malformed_extents_name_the_key(extents):
    kv = parse_kv_text(f"grid.dim = 1\ngrid.extents = {extents}\ngrid.nodes = 5\n")
    with pytest.raises(InputError, match=re.escape("'grid.extents' must be a number")):
        grid_from_kv(kv)


def test_initial_guess_kinds(tmp_path, grid_1d):
    kv = parse_kv_text("u0.kind = bump\nu0.value = 0.25\n")
    u = initial_guess_from_kv(kv, grid_1d)
    assert u.sup_norm() == pytest.approx(0.25, rel=1e-12)
    assert np.all(u.values >= 0.0)

    saved = ok.random_function(grid_1d, 8, 1.0, 2)
    path = tmp_path / "u0.dat"
    ok.save_function(saved, path)
    kv = parse_kv_text(f"u0.kind = file\nu0.path = {path}\n")
    u = initial_guess_from_kv(kv, grid_1d)
    assert np.array_equal(u.values, saved.values)

    other = ok.make_grid(1, [(0.0, 2.0)], [101])
    with pytest.raises(InputError):
        initial_guess_from_kv(kv, other)
    with pytest.raises(InputError):
        initial_guess_from_kv(parse_kv_text("u0.kind = mystery\n"), grid_1d)


def test_energy_setup_with_family_file_reference(tmp_path):
    fam_file = tmp_path / "fam.cfg"
    fam_file.write_text("family = log-weight\np.kind = constant\np.coeffs = 2\n"
                        "alpha = 1.0\n")
    cfg = tmp_path / "energy.cfg"
    cfg.write_text(f"family.file = {fam_file}\n"
                   "reaction.example = power-sin\n"
                   "reaction.q.kind = constant\nreaction.q.coeffs = 3\n"
                   "lambda = 0.5\n"
                   "grid.dim = 1\ngrid.extents = 0 1\ngrid.nodes = 31\n"
                   "u0.kind = bump\nu0.value = 0.05\n")
    config, grid, u0, _ = load_energy_setup(cfg)
    assert config.family.family_id == "log-weight"
    assert config.reaction.example_id == "power-sin"
    assert config.lam == 0.5
    assert grid.shape == (31,)
    assert u0.sup_norm() == pytest.approx(0.05, rel=1e-12)


def test_cli_solve_with_bump_seed_config(tmp_path):
    cfg = tmp_path / "energy.cfg"
    cfg.write_text("family.family = power\n"
                   "family.p.kind = affine\nfamily.p.coeffs = 3 1\n"
                   "family.p.x1_range = 0 1\n"
                   "reaction.example = power\n"
                   "reaction.q.kind = constant\nreaction.q.coeffs = 2\n"
                   "lambda = 0.05\n"
                   "grid.dim = 1\ngrid.extents = 0 1\ngrid.nodes = 51\n"
                   "u0.kind = bump\nu0.value = 0.01\n")
    out = tmp_path / "sol.dat"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    u = ok.load_function(out)
    assert u.grid.shape == (51,)


@pytest.mark.parametrize("text", [
    "p.kind = constant\n",
    "p.kind = constant\np.coeffs = 2 3\n",
    "p.kind = affine\np.coeffs = 2\n",
    "p.kind = affine\np.coeffs = 2 1\np.x1_range = 1\n",
    "p.kind = mystery\np.coeffs = 2\n",
])
def test_exponent_from_kv_rejects_malformed_blocks(text):
    with pytest.raises(InputError):
        exponent_from_kv(parse_kv_text(text), "p.")


# one descriptor per numeric key, with {v} where the non-finite value goes
NON_FINITE_FAMILY_TEXT = {
    "p.coeffs": "family = power\np.kind = affine\np.coeffs = 2 {v}\n",
    "p.x1_range": "family = power\np.kind = affine\np.coeffs = 2 1\np.x1_range = 0 {v}\n",
    "p.x1": "family = power\np.kind = tabulated\np.x1 = 0 {v}\np.values = 2 3\n",
    "p.values": "family = power\np.kind = tabulated\np.x1 = 0 1\np.values = 2 {v}\n",
    "alpha": "family = log-weight\np.kind = constant\np.coeffs = 2\nalpha = {v}\n",
    "phi0": "family = power\np.kind = constant\np.coeffs = 3\nphi0 = {v}\n",
    "phi_sup": "family = power\np.kind = constant\np.coeffs = 3\nphi_sup = {v}\n",
    "M_lower": "family = power\np.kind = constant\np.coeffs = 3\nM_lower = {v}\n",
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", sorted(NON_FINITE_FAMILY_TEXT))
def test_family_descriptor_rejects_non_finite(key, value):
    text = NON_FINITE_FAMILY_TEXT[key].format(v=value)
    with pytest.raises(InputError, match=re.escape(f"'{key}' must be finite")):
        ok.family_from_text(text)


ENERGY_CONFIG = ("family.family = power\nfamily.p.kind = constant\nfamily.p.coeffs = 4\n"
                 "reaction.example = power\n"
                 "reaction.q.kind = constant\nreaction.q.coeffs = 2\n"
                 "grid.dim = 1\ngrid.extents = 0 1\ngrid.nodes = 11\n")


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key, text", [
    ("lambda", "lambda = {v}\nu0.kind = zero\n"),
    ("u0.value", "lambda = 1\nu0.kind = constant\nu0.value = {v}\n"),
    ("u0.value", "lambda = 1\nu0.kind = bump\nu0.value = {v}\n"),
    ("family.phi_sup", "lambda = 1\nfamily.phi_sup = {v}\n"),
    ("reaction.q.coeffs", "lambda = 1\nreaction.q.kind = constant\n"
                          "reaction.q.coeffs = {v}\n"),
], ids=["lambda", "u0-constant", "u0-bump", "family-prefix", "reaction-prefix"])
def test_energy_config_rejects_non_finite(tmp_path, key, text, value):
    path = tmp_path / "energy.cfg"
    # later lines override earlier ones in parse_kv_text
    path.write_text(ENERGY_CONFIG + text.format(v=value))
    with pytest.raises(InputError, match=re.escape(f"'{key}' must be finite")):
        load_energy_setup(path)


def test_finite_float_names_the_key():
    assert finite_float(" 2.5 ", "k") == 2.5
    with pytest.raises(InputError, match="'k' must be a number"):
        finite_float("two", "k")
