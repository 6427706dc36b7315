"""Key-value text configs for families, reactions, grids, and energy setups.

The format is one ``key = value`` pair per line, ``#`` comments, whitespace
insensitive, locale-independent decimal numbers.  Nested objects use dotted
prefixes, e.g. an energy config contains ``family.family``, ``family.p.kind``,
``reaction.example``, ``grid.dim``, ``lambda``, ``u0.kind``.  A family block
may instead point at a standalone descriptor file via ``family.file``.  The
``reaction.``, ``grid.`` and ``u0.`` prefixes are fixed.  In a family
descriptor, phi0, phi_sup and M_lower are either a declared number or the
word ``estimate``: computed from the other inputs on load.

The parsers here only turn text into numbers (``finite_float`` names the
key of a malformed or non-finite value) and hand them to the type that
builds the object; that type makes every structural check once:
``ExponentField`` the exponent kind and counts, ``make_grid`` and
``DomainGrid`` the grid's axes, extents and node counts, ``GridFunction``
the number of nodal values, ``MusielakFamily``, ``ReactionFamily`` and
``EnergyConfig`` the rest.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .exponents import ExponentField
from .families import MusielakFamily
from .grid import DomainGrid, GridFunction, bump_function, load_function, make_grid
from .energy import EnergyConfig, ReactionFamily

__all__ = [
    "parse_kv_text", "read_kv_file", "finite_float", "exponent_from_kv", "reaction_from_kv",
    "grid_from_kv", "load_problem", "load_energy_setup", "initial_guess_from_kv",
    "family_from_kv", "family_from_text", "family_to_text",
]



def parse_kv_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def read_kv_file(path) -> dict:
    try:
        with open(path) as fh:
            return parse_kv_text(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc


def finite_float(raw, key: str) -> float:
    """float(raw) for the value of ``key``; malformed or non-finite values
    raise an InputError naming the key."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise InputError(f"'{key}' must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise InputError(f"'{key}' must be finite, got {raw!r}")
    return value


def _floats(kv: dict, key: str, default: str = "") -> list:
    return [finite_float(v, key) for v in kv.get(key, default).split()]


def exponent_from_kv(kv: dict, prefix: str) -> ExponentField:
    """Exponent field from ``<prefix>kind`` plus ``x1``/``values`` (tabulated)
    or ``coeffs`` and ``x1_range`` (default ``0 1``); ``ExponentField``
    checks the kind and the counts."""
    kind = kv.get(prefix + "kind")
    if kind is None:
        raise InputError(f"missing '{prefix}kind'")
    if kind == "tabulated":
        return ExponentField.tabulated(np.array(_floats(kv, prefix + "x1")),
                                       np.array(_floats(kv, prefix + "values")))
    return ExponentField(kind, tuple(_floats(kv, prefix + "coeffs")),
                         tuple(_floats(kv, prefix + "x1_range", "0 1")))


def reaction_from_kv(kv: dict) -> ReactionFamily:
    example = kv.get("reaction.example")
    if example is None:
        raise InputError("missing 'reaction.example'")
    return ReactionFamily(example, exponent_from_kv(kv, "reaction.q."))


def grid_from_kv(kv: dict) -> DomainGrid:
    for key in ("grid.dim", "grid.extents", "grid.nodes"):
        if key not in kv:
            raise InputError(f"missing grid key {key!r}")
    try:
        dim = int(kv["grid.dim"])
        nodes = [int(v) for v in kv["grid.nodes"].split()]
    except ValueError as exc:
        raise InputError(f"malformed grid values: {exc}") from exc
    return make_grid(dim, _floats(kv, "grid.extents"), nodes)


def family_from_kv(kv: dict, prefix: str = "") -> MusielakFamily:
    """Built-in family from descriptor keys under ``prefix``; a declared
    phi0/phi_sup/M_lower number overrides, the word ``estimate`` recomputes."""
    fid = kv.get(prefix + "family")
    if fid is None:
        raise InputError("family descriptor missing 'family' key")
    p = exponent_from_kv(kv, prefix + "p.")
    alpha = kv.get(prefix + "alpha")
    declared = {"declared_" + name: finite_float(raw, prefix + name)
                for name in ("phi0", "phi_sup", "M_lower")
                if (raw := kv.get(prefix + name)) not in (None, "estimate")}
    return MusielakFamily(fid, p, None if alpha is None else finite_float(alpha, prefix + "alpha"),
                          **declared)


def family_from_text(text: str) -> MusielakFamily:
    """Rebuild a family from key-value text produced by family_to_text."""
    return family_from_kv(parse_kv_text(text))


def family_to_text(family: MusielakFamily) -> str:
    """Serialize a built-in family descriptor to key-value text: its inputs,
    with each constant that was not declared written as ``estimate``."""
    if family.family_id == "custom":
        raise InputError("custom families (callable-backed) are not serializable")
    spec = family.p.to_spec()
    lines = [f"family = {family.family_id}", f"p.kind = {spec.pop('kind')}"]
    lines += [f"p.{key} = " + " ".join(repr(v) for v in values)
              for key, values in spec.items()]
    if family.alpha is not None:
        lines.append(f"alpha = {float(family.alpha)!r}")
    for name in ("phi0", "phi_sup", "M_lower"):
        value = getattr(family, "declared_" + name)
        lines.append(f"{name} = " + ("estimate" if value is None else repr(float(value))))
    return "\n".join(lines) + "\n"


def family_from_kv_or_file(kv: dict, prefix: str = "family."):
    path = kv.get(prefix + "file")
    return family_from_kv(kv, prefix) if path is None else family_from_kv(read_kv_file(path))


def initial_guess_from_kv(kv: dict, grid: DomainGrid) -> GridFunction:
    kind = kv.get("u0.kind", "zero")
    if kind == "zero":
        return GridFunction.constant(grid, 0.0)
    if kind in ("constant", "bump"):
        value = finite_float(kv.get("u0.value", "1"), "u0.value")
        return (GridFunction.constant(grid, value) if kind == "constant"
                else value * bump_function(grid))
    if kind == "file":
        path = kv.get("u0.path")
        if path is None:
            raise InputError("u0.kind = file needs 'u0.path'")
        u = load_function(path)
        if u.grid != grid:
            raise InputError("u0 file grid does not match the configured grid")
        return u
    raise InputError(f"unknown u0 kind {kind!r}")


def load_problem(path):
    """Read the family, reaction and grid of an energy config file
    -> (family, reaction, grid, kv); ``lambda`` and ``u0.`` are not read."""
    kv = read_kv_file(path)
    return family_from_kv_or_file(kv), reaction_from_kv(kv), grid_from_kv(kv), kv


def load_energy_setup(path, lam=None):
    """Read an energy config file -> (EnergyConfig, grid, initial guess, kv).

    A given ``lam`` replaces the file's ``lambda``, which is then not read."""
    family, reaction, grid, kv = load_problem(path)
    if lam is None:
        if "lambda" not in kv:
            raise InputError("energy config missing 'lambda'")
        lam = finite_float(kv["lambda"], "lambda")
    u0 = initial_guess_from_kv(kv, grid)
    return EnergyConfig(family, reaction, lam), grid, u0, kv
