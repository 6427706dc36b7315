"""Malformed-input fuzzing of the command-line front end.

Whatever descriptor text, solution file or ``norm``/``modular``/``conjugate``
argv is drawn, ``cli.main`` must return one of the documented exit codes
(0/1/2/3) and print no traceback.  Draws are derandomized so the suite is
deterministic.  They favour the power and log-quotient families, because a
log-weight descriptor pays the numerical phi_sup refinement on every build.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from orliczkit.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

FAMILY_P2 = "family = power\np.kind = constant\np.coeffs = 2\n"

number = st.one_of(
    st.integers(-3, 8).map(str),
    st.floats(-2.0, 8.0, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "", "3,5", "0x10"]),
)
numbers = st.lists(number, max_size=4).map(" ".join)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "p2.cfg").write_text(FAMILY_P2)
    return path


exponent = st.floats(3.0, 5.0).map(repr)
DESCRIPTOR_KEYS = ["family", "p.kind", "p.coeffs", "p.x1_range", "p.x1", "p.values",
                   "alpha", "phi0", "phi_sup", "M_lower"]


@st.composite
def _mutated(draw, entries, keys):
    """Drop or garble up to two entries of a well-formed key-value mapping."""
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(keys))
        action = draw(st.sampled_from(["drop", "value", "values"]))
        if action == "drop":
            entries.pop(key, None)
        else:
            entries[key] = draw(number if action == "value" else numbers)
    return entries


@st.composite
def descriptor_text(draw):
    family = draw(st.sampled_from(["power", "log-quotient"] * 3 + ["log-weight", "bogus"]))
    kind = draw(st.sampled_from(["constant", "affine", "tabulated", "bogus"]))
    entries = {"family": family, "p.kind": kind}
    if kind == "tabulated":
        entries["p.x1"] = "0 0.5 1"
        entries["p.values"] = " ".join(draw(st.lists(exponent, min_size=3, max_size=3)))
    else:
        entries["p.coeffs"] = draw(exponent) + (" 1" if kind == "affine" else "")
        entries["p.x1_range"] = "0 1"
    if family == "log-weight":
        entries["alpha"] = "1"
    for name in ("phi0", "phi_sup", "M_lower"):
        if draw(st.booleans()):
            entries[name] = draw(st.one_of(st.just("estimate"), exponent, number))
    entries = draw(_mutated(entries, DESCRIPTOR_KEYS))
    lines = [f"{key} = {value}" for key, value in entries.items()]
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.append(draw(st.sampled_from(["no equals sign", "= 1", "p.kind ="])))
    return "\n".join(lines) + "\n"


@st.composite
def solution_text(draw):
    nodes = draw(st.lists(st.integers(3, 5), min_size=1, max_size=2))
    size = nodes[0] * (nodes[-1] if len(nodes) == 2 else 1)
    header = {"dim": str(len(nodes)), "nodes": " ".join(map(str, nodes)),
              "extents": " ".join(["0", "1"] * len(nodes)),
              "count": str(size + draw(st.sampled_from([0, 0, 0, -1, 1])))}
    header = draw(_mutated(header, ["dim", "nodes", "extents"]))
    count = max(0, int(header.pop("count")))
    values = draw(st.lists(st.floats(-2.0, 2.0).map(repr), min_size=count, max_size=count))
    if values and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, count - 1))] = draw(number)
    return " ".join(header.values()) + "\n" + "\n".join(values) + "\n"


@FUZZ
@given(text=descriptor_text(), command=st.sampled_from(["norm", "modular", "conjugate"]))
def test_fuzz_family_descriptor(workdir, text, command):
    path = workdir / "fam.cfg"
    path.write_text(text)
    _run([command, "--family", str(path), "--const", "1.5",
          "--domain", "0", "1", "--nodes", "5"])


@FUZZ
@given(text=solution_text(), command=st.sampled_from(["norm", "modular", "conjugate"]))
def test_fuzz_solution_file(workdir, text, command):
    path = workdir / "u.dat"
    path.write_text(text)
    _run([command, "--family", str(workdir / "p2.cfg"), "--function", str(path)])


flag_values = st.lists(st.one_of(number, st.integers(0, 6).map(str)), max_size=5)


@FUZZ
@given(command=st.sampled_from(["norm", "modular", "conjugate"]),
       const=st.one_of(st.none(), number), domain=st.one_of(st.none(), flag_values),
       nodes=st.one_of(st.none(), flag_values))
def test_fuzz_value_argv(workdir, command, const, domain, nodes):
    argv = [command, "--family", str(workdir / "p2.cfg")]
    for flag, value in (("--const", const), ("--domain", domain), ("--nodes", nodes)):
        if value is None:
            continue
        argv += [flag] + (value if isinstance(value, list) else [value])
    _run(argv)
