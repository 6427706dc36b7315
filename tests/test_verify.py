"""Property-suite orchestration: determinism, witnesses, negative controls."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import cli, verify
from orliczkit.errors import InputError
from orliczkit.verify import PropertyResult, replay_witness, run_property_suite


@pytest.fixture(scope="module")
def suite_inputs():
    families = [ok.power_family(ok.ExponentField.affine(2.0, 1.0)),
                ok.log_quotient_family(ok.ExponentField.affine(3.0, 1.0)),
                ok.log_weight_family(ok.ExponentField.affine(2.0, 1.0), 1.0)]
    reactions = [ok.power_reaction(ok.ExponentField.constant(2.0)),
                 ok.power_log_reaction(ok.ExponentField.constant(4.0)),
                 ok.power_sin_reaction(ok.ExponentField.constant(3.0))]
    grids = [ok.make_grid(1, [(0.0, 1.0)], [41]),
             ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [13, 13])]
    return families, reactions, grids


@pytest.fixture(scope="module")
def small_report(suite_inputs):
    families, reactions, grids = suite_inputs
    return run_property_suite(families, reactions, grids, n_samples=6, seed=2024)


def test_suite_passes(small_report):
    failing = [p.name for p in small_report.properties if not p.passed]
    assert small_report.overall, failing


def test_suite_counts(small_report):
    nm = small_report["norm_modular_relations"]
    assert nm.samples == 3 * 6          # families x n_samples
    assert nm.passes == nm.samples


def test_suite_counts_every_property(suite_inputs):
    # 3 families, 3 reactions, 2 grids, 4 samples: a batch that drops or
    # duplicates a sample shows up here
    families, reactions, grids = suite_inputs
    report = run_property_suite(families, reactions, grids, n_samples=4, seed=2024)
    field = dict.fromkeys([name for name, prop in verify._PROPERTIES.items()
                           if prop.objects == ("family",) and "grid" in prop.args], 12)
    expected = {**field, "gradient_check": 9, "ftc_consistency": 24,
                "delta2_explicit_constant": 21600, "sqrt_convexity": 9480,
                **dict.fromkeys(["young_inequality", "conjugate_bound", "phi_odd",
                                 "scaling_bounds", "growth_lower_bound",
                                 "reaction_primitive_consistency",
                                 "reaction_growth_envelopes"], 1200)}
    assert len(expected) == 20
    assert {p.name: (p.samples, p.passes) for p in report.properties} == {
        name: (n, n) for name, n in expected.items()}


def test_suite_determinism(suite_inputs):
    families, reactions, grids = suite_inputs
    a = run_property_suite(families, reactions, grids, n_samples=2, seed=7)
    b = run_property_suite(families, reactions, grids, n_samples=2, seed=7)
    assert a.json_text() == b.json_text()


def test_witness_replay(small_report, suite_inputs):
    families, reactions, grids = suite_inputs
    for prop in small_report.properties:
        replayed = replay_witness(prop.witness, families, reactions, grids)
        assert replayed == prop.worst_margin, prop.name


@pytest.mark.parametrize("lam", [0.0, math.inf])
def test_gradient_check_witness_with_a_bad_lambda_raises(small_report, suite_inputs, lam):
    witness = {**small_report["gradient_check"].witness, "lam": lam}
    with pytest.raises(InputError, match="lam must be"):
        replay_witness(witness, *suite_inputs)


def test_witness_replays_through_a_wrapped_evaluator(small_report, suite_inputs,
                                                     monkeypatch):
    # a functools.wraps wrapper, as a tracer installs, takes *args/**kwargs;
    # replay must pass it the evaluator's arguments by name
    calls = []
    evaluator = verify.EVALUATORS["norm_homogeneity"]

    @functools.wraps(evaluator)
    def wrapper(*args, **kwargs):
        calls.append(sorted(kwargs))
        return evaluator(*args, **kwargs)

    monkeypatch.setitem(verify.EVALUATORS, "norm_homogeneity", wrapper)
    prop = small_report["norm_homogeneity"]
    assert replay_witness(prop.witness, *suite_inputs) == prop.worst_margin
    assert calls == [["U", "family", "grid", "scale"]]


def test_verify_inputs_keep_their_derived_constants():
    # the descriptors `orliczkit verify` builds; the values are pinned
    # exactly, as they were when the descriptors stored them as fields
    exponents = [ok.ExponentField.affine(2.0, 1.0), ok.ExponentField.affine(3.0, 1.0)]
    assert [(p.p_minus, p.p_plus) for p in exponents] == [(2.0, 3.0), (3.0, 4.0)]
    reactions = [ok.power_reaction(ok.ExponentField.constant(2.0)),
                 ok.power_log_reaction(ok.ExponentField.constant(4.0)),
                 ok.power_sin_reaction(ok.ExponentField.constant(3.0))]
    assert [(r.q.p_minus, r.q.p_plus) for r in reactions] == [(2.0, 2.0), (4.0, 4.0),
                                                              (3.0, 3.0)]
    assert [(r.C0, r.C1, r.C2) for r in reactions] == [
        (2.0, 1.0, 1.0),
        (8.00799699700267, 1.045105053963244, 2.0019994995003336),
        (6.005998331667367, 3.329999002551111e-07, 2.001999666333433)]
    grids = [ok.make_grid(1, [(0.0, 1.0)], [65]),
             ok.make_grid(2, [(0.0, 1.0), (0.0, 1.0)], [17, 17])]
    assert [(g.dim, g.spacing, g.measure) for g in grids] == [
        (1, (0.015625,), 1.0), (2, (0.0625, 0.0625), 1.0)]


def test_every_field_sample_replays_exactly(suite_inputs, monkeypatch):
    # the suite evaluates the samples of one (property, family, grid) as one
    # stack; each sample's margin must equal its own scalar evaluation
    families, reactions, grids = suite_inputs
    absorbed = []
    absorb = PropertyResult.absorb

    def recording(self, margins, witness):
        absorbed.append((np.array(margins, dtype=float), dict(witness)))
        absorb(self, margins, witness)

    monkeypatch.setattr(PropertyResult, "absorb", recording)
    run_property_suite(families, reactions, grids, n_samples=8, seed=11)
    field = [name for name, prop in verify._PROPERTIES.items() if "grid" in prop.args]
    replayed = Counter()
    for margins, witness in absorbed:
        if witness["property"] in field:
            assert margins.shape == (1,)
            assert replay_witness(witness, families, reactions, grids) == margins[0], witness
            replayed[witness["property"], witness["family"], grids[witness["grid"]].dim] += 1
    assert set(replayed) == {(name, fi, dim) for name in field
                             for fi in range(3) for dim in (1, 2)}
    assert sum(replayed.values()) == 9 * 3 * 8 + 3 * 3 * 2


def test_suite_builds_one_field_stack_per_property_and_grid(suite_inputs, monkeypatch):
    # the fields of one (property, grid) come from one _random_fields call
    # across the property's objects, seed and seed2 rows together, made
    # before that grid's evaluator calls; each row is its own random_function
    families, reactions, grids = suite_inputs
    events = []
    build = verify._random_fields

    def recording(grid, seeds, amplitudes, smoothness):
        fields = build(grid, seeds, amplitudes, smoothness)
        events.append((grid, seeds, amplitudes, smoothness, fields))
        return fields

    def naming(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "_random_fields", recording)
    for name, fn in list(verify.EVALUATORS.items()):
        monkeypatch.setitem(verify.EVALUATORS, name, naming(name, fn))
    run_property_suite(families, reactions, grids, n_samples=8, seed=2024)
    calls, rows, pending = Counter(), Counter(), []
    for event in events:
        if not isinstance(event, str):
            pending.append(event)
            continue
        for grid, seeds, amplitudes, smoothness, fields in pending:
            calls[event, [g is grid for g in grids].index(True)] += 1
            rows[event] += len(fields)
            for row, *args in zip(fields, seeds, amplitudes, smoothness):
                assert row.tobytes() == ok.random_function(grid, *args).values.tobytes(), event
        pending.clear()
    field = [name for name, prop in verify._PROPERTIES.items() if "grid" in prop.args]
    assert len(field) == 10
    assert calls == {(name, g): 1 for name in field for g in range(2)}
    # families x samples (x 2 with seed2); family-reaction pairs x 2 samples x 2
    pairs = ["triangle_inequality", "modular_parallelogram", "holder_inequality"]
    assert rows == {**dict.fromkeys(field, 3 * 8), **dict.fromkeys(pairs, 3 * 8 * 2),
                    "gradient_check": 9 * 2 * 2}


def test_verify_invocations_in_one_process_write_the_same_json(tmp_path, capsys):
    # nothing one run builds or draws carries over into the next
    texts = []
    for k in range(2):
        path = tmp_path / f"report-{k}.json"
        assert cli.main(["verify", "--samples", "5", "--seed", "0", "--out", str(path)]) == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_ftc_reference_matches_adaptive_quadrature(suite_inputs):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    families, _, _ = suite_inputs
    rng = np.random.default_rng(17)
    # the suite's t range, with its end points
    t = np.concatenate([np.geomspace(1e-3, 20.0, 13),
                        np.exp(rng.uniform(np.log(1e-3), np.log(20.0), 7))])
    for family in families:
        x = rng.uniform(0.0, 1.0, t.size)
        ref = verify._integral_of_phi(family, x, t)
        # epsabs = 0: an absolute tolerance would decide the accuracy at
        # small t, where Phi is as small as 1e-9
        quad = np.array([scipy_integrate.quad(
            lambda s, xi=xi: float(family.phi(xi, s)), 0.0, ti,
            epsabs=0.0, epsrel=1e-13, limit=200)[0] for xi, ti in zip(x, t)])
        assert np.max(np.abs(ref - quad) / quad) <= 1e-12, family


def test_ftc_consistency_passes_exact_large_Phi():
    # Phi = t^6 is exact, but Phi(20) = 6.4e7 carries rounding far above
    # an absolute 1e-10; the margin is relative where Phi > 1
    family = ok.power_family(ok.ExponentField.constant(6.0))
    margins, _ = verify.eval_ftc_consistency(family, 123, 64)
    assert np.all(margins >= -1e-10), np.min(margins)


def test_scaling_bounds_evaluates_each_Phi_once(suite_inputs, monkeypatch):
    # Phi(x, t), Phi(x, sigma t) and Phi(x, t / tau): three distinct arguments
    calls = []
    inner = ok.MusielakFamily.Phi

    def counting(self, x, t):
        calls.append(np.size(t))
        return inner(self, x, t)

    monkeypatch.setattr(ok.MusielakFamily, "Phi", counting)
    for family in suite_inputs[0]:
        calls.clear()
        verify.eval_scaling_bounds(family, 1, 400)
        assert calls == [400] * 3, family.family_id


def test_verify_run_loads_no_scipy_integrate():
    # the ftc_consistency reference is a fixed numpy rule, not scipy's quad
    code = ("import sys, orliczkit.cli; "
            "code = orliczkit.cli.main(['verify', '--samples', '1']); "
            "print(code, 'scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ok.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "0 False"


def test_suite_rejects_zero_samples(suite_inputs):
    families, reactions, grids = suite_inputs
    with pytest.raises(InputError):
        run_property_suite(families, reactions, grids, n_samples=0, seed=1)


@pytest.mark.parametrize("n_samples, seed", [
    (2.5, 1), (True, 1), ("3", 1), (None, 1), (np.float64(2.0), 1),
    (1, 1.5), (1, -1), (1, True), (1, np.int64(-2)), (1, "0")])
def test_suite_rejects_malformed_counts(suite_inputs, n_samples, seed):
    with pytest.raises(InputError):
        run_property_suite(*suite_inputs, n_samples=n_samples, seed=seed)


def test_suite_takes_numpy_integers(suite_inputs):
    report = run_property_suite(*suite_inputs, n_samples=np.int64(1), seed=np.uint32(3))
    assert (type(report.n_samples), type(report.seed)) == (int, int)
    assert report.json_text() == run_property_suite(*suite_inputs, n_samples=1,
                                                    seed=3).json_text()


def test_absorb_takes_the_first_nan_as_worst():
    result = PropertyResult("p", 0.0)
    result.absorb([1.0, np.nan, 2.0], {"property": "p"})
    assert (result.samples, result.passes) == (3, 2)
    assert math.isnan(result.worst_margin)
    assert result.witness == {"property": "p", "worst_index": 1}
    result.absorb([-5.0, np.nan], {"property": "p", "later": True})
    assert (result.samples, result.passes) == (5, 2)
    assert result.witness == {"property": "p", "worst_index": 1}


_BELOW_SLACK = float(np.nextafter(-1e-8, -1.0))


@pytest.mark.parametrize("margins, passes, worst_index", [
    ([1.0, -1e-8, 0.5, -1e-8], 4, 1),               # at -slack passes; a tie keeps the first
    ([0.0, _BELOW_SLACK, -2.0, -2.0, 3.0], 2, 2),
    ([0.0, -np.inf, -1e300, -np.inf], 1, 1),         # -inf fails and is worse than any number
    ([2.0, np.nan, -np.inf, np.nan, -5.0], 1, 1),    # the first NaN is worse than -inf
    ([-np.inf, np.nan], 0, 1),
    ([np.nan], 0, 0),
    ([-0.0], 1, 0),
])
def test_absorbing_one_sample_at_a_time_equals_one_array(margins, passes, worst_index):
    # the suite absorbs each field sample as a list of one float; that path
    # counts, and picks its witness, as the array path does
    one, array = PropertyResult("p", 1e-8), PropertyResult("p", 1e-8)
    for k, margin in enumerate(margins):
        one.absorb([margin], {"property": "p", "sample": k})
    array.absorb(np.array(margins), {"property": "p"})
    assert (one.samples, one.passes) == (array.samples, array.passes) == (len(margins), passes)
    assert repr(one.worst_margin) == repr(array.worst_margin) == repr(float(margins[worst_index]))
    assert array.witness == {"property": "p", "worst_index": worst_index}
    assert one.witness == {"property": "p", "sample": worst_index, "worst_index": 0}


def test_nan_margins_fail_with_a_replayable_witness(suite_inputs):
    # Phi is NaN past |t| = 50: a NaN margin is worse than any number, so
    # the property fails with a NaN worst margin and a witness that replays
    _, reactions, grids = suite_inputs
    family = ok.custom_family(
        phi_fn=lambda x, t: 3.0 * np.abs(t) * t,
        Phi_fn=lambda x, t: np.where(np.abs(t) > 50.0, np.nan, np.abs(t) ** 3),
        phi0=3.0, phi_sup=3.0, label="nan-tail")
    report = run_property_suite([family], reactions, grids, n_samples=3, seed=1)
    failing = [p for p in report.properties if not p.passed]
    assert len(failing) >= 5
    for p in failing:
        assert math.isnan(p.worst_margin), p.name
        assert math.isnan(replay_witness(p.witness, [family], reactions, grids)), p.name
    assert "Infinity" not in report.json_text()


def test_evaluators_keep_the_tracer_contract(suite_inputs, monkeypatch):
    # perfbench/tracing.py rebinds each evaluator through its module name and
    # replaces the EVALUATORS entries: the suite must look them up per call
    for name, fn in verify.EVALUATORS.items():
        assert getattr(verify, fn.__name__) is fn, name
    assert set(verify.EVALUATORS) == set(verify._PROPERTIES)
    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(verify.EVALUATORS.items()):
        monkeypatch.setitem(verify.EVALUATORS, name, counting(name, fn))
    run_property_suite(*suite_inputs, n_samples=1, seed=3)
    assert set(calls) == set(verify.EVALUATORS)


# the drawn arguments of every absorbed witness of the suite below, property
# by property in absorb order: the keys the property table gives it (objects,
# args, fixed arguments), never a computed value; a change here reassigns
# the suite's seeds
_DRAW_DIGEST = "65110d2c5494d0f00fed92e02673e5a028dd03b6eff28b4957eef1a5a881b23e"


def test_draw_order_is_pinned(suite_inputs, monkeypatch):
    drawn = {}
    absorb = PropertyResult.absorb

    def recording(self, margins, witness):
        prop = verify._PROPERTIES[witness["property"]]
        keys = (*prop.objects, *prop.args, *prop.rule(1)[1])
        drawn.setdefault(witness["property"], []).append(
            [f"{witness[key]:.12g}" if key == "scale" else witness[key] for key in keys])
        absorb(self, margins, witness)

    monkeypatch.setattr(PropertyResult, "absorb", recording)
    run_property_suite(*suite_inputs, n_samples=8, seed=2024)
    text = json.dumps(sorted(drawn.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == _DRAW_DIGEST


def test_broken_family_negative_control(suite_inputs):
    _, reactions, grids = suite_inputs
    # sinh grows faster than any power: the declared ratio bounds are wrong,
    # so the doubling bound with constant 2^{phi_sup} must fail at large t
    broken = ok.custom_family(
        phi_fn=lambda x, t: np.sinh(np.clip(t, -700.0, 700.0)),
        Phi_fn=lambda x, t: np.cosh(np.clip(t, -700.0, 700.0)) - 1.0,
        phi0=2.0, phi_sup=3.0, label="broken-delta2")
    report = run_property_suite([broken], reactions, grids, n_samples=2, seed=5)
    assert not report.overall
    delta2 = report["delta2_explicit_constant"]
    assert not delta2.passed
    assert delta2.worst_margin < 0.0
    replayed = replay_witness(delta2.witness, [broken], reactions, grids)
    assert abs(replayed - delta2.worst_margin) <= 1e-12


def test_report_serialization(small_report, tmp_path):
    text = small_report.json_text()
    assert '"overall": true' in text
    csv = small_report.csv_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "property,samples,passes,worst_margin"
    assert len(lines) == len(small_report.properties) + 1
    import json
    parsed = json.loads(text)
    assert parsed["seed"] == 2024
    assert all("worst_margin" in p for p in parsed["properties"])
