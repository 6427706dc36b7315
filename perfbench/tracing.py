"""Per-layer tracing for the benchmark, installed from outside the library.

``Tracer.install()`` wraps the public functions of each orliczkit module and
rebinds every alias the library holds of them: package exports, the
``from .x import y`` copies in other modules, methods on their classes and
the entries of ``verify.EVALUATORS``.  Nothing under ``src/`` changes.

Each wrapped call records a span (id, name, start, end, parent id, op id).
Spans are kept in memory, up to ``SPAN_CAP`` of them, and written out by
``write_spans``; the aggregates (calls, self time, element counts) cover
every span, kept or not.  A span's self time is its duration minus the
durations of its child spans: calls are synchronous and single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SPAN_CAP = 200_000

# the package exports a function named ``energy``, so the submodules are
# fetched from the import system rather than as package attributes
(cli, energy, exponents, families, grid, solver, spaces, verify) = (
    importlib.import_module(f"orliczkit.{name}") for name in
    ("cli", "energy", "exponents", "families", "grid", "solver", "spaces", "verify"))


def _elems_xt(args, kwargs):
    # (self, x1, t) -> broadcast size of the x/t pair
    return np.broadcast(args[1], args[2]).size


class Tracer:
    def __init__(self):
        self.enabled = True
        self.op = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.elems = defaultdict(int)
        self.counters = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self._next_id = 0
        self._stack = []          # [span id, start, time covered by children, name]

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, elems=None, after=None, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            if elems is not None:
                self.elems[name] += elems(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, perf_counter(), 0.0, name]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, frame[1], end, parent, self.op))
                else:
                    self.dropped += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "orliczkit" and not mod_name.startswith("orliczkit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
        for key, value in list(verify.EVALUATORS.items()):
            if value is original:
                verify.EVALUATORS[key] = wrapped

    def _rebind_method(self, cls, attr, name, **hooks):
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), **hooks))

    def install(self):
        """Wrap the library's public functions; call once per process."""
        self._rebind_method(exponents.ExponentField, "__call__", "exponents.eval")

        for attr in ("phi", "Phi", "phi_inv", "conjugate"):
            self._rebind_method(families.MusielakFamily, attr, f"families.{attr}",
                                elems=_elems_xt)
        for attr in ("power_family", "log_quotient_family", "log_weight_family",
                     "custom_family"):
            self._rebind_function(families, attr, "families.build")

        for attr in ("gradient", "gradient_adjoint", "quad_weights", "random_function"):
            self._rebind_function(grid, attr, f"grid.{attr}")

        for attr in ("modular", "luxemburg_norm", "conjugate_norm", "sobolev_norm",
                     "sobolev_modular"):
            self._rebind_function(spaces, attr, f"spaces.{attr}")
        self._rebind_function(spaces, "solve_unit_modular", "spaces.solve_unit_modular",
                              before=self._count_rho)

        self._rebind_function(energy, "energy", "energy.energy", before=self._count_energy)
        for attr in ("residual", "directional_derivative"):
            self._rebind_function(energy, attr, f"energy.{attr}")
        for attr in ("g", "G"):
            self._rebind_method(energy.ReactionFamily, attr, "energy.reaction")
        for attr in ("power_reaction", "power_log_reaction", "power_sin_reaction"):
            self._rebind_function(energy, attr, "energy.build")

        self._rebind_function(solver, "minimize", "solver.minimize",
                              after=self._count_iterations)
        for attr in ("bump_seed", "estimate_embedding_constant"):
            self._rebind_function(solver, attr, f"solver.{attr}")

        self._rebind_function(verify, "run_property_suite", "verify.run_property_suite",
                              after=self._count_samples)
        for prop, fn in list(verify.EVALUATORS.items()):
            attr = fn.__name__
            if getattr(verify, attr) is not fn:
                raise RuntimeError(f"verify.EVALUATORS[{prop!r}] is not verify.{attr}")
            self._rebind_function(verify, attr, f"verify.{prop}")

        self._rebind_function(cli, "main", "cli.main")

    # -- counters ---------------------------------------------------------

    def _count_rho(self, args):
        rho = args[0]

        def counted(mu):
            self.counters["rho_evals"] += 1
            return rho(mu)

        return (counted,) + tuple(args[1:])

    def _count_energy(self, args):
        if any(frame[3] == "solver.minimize" for frame in self._stack):
            self.counters["energy_in_minimize"] += 1
        return args

    def _count_iterations(self, report):
        self.counters["iterations"] += report.iterations

    def _count_samples(self, report):
        self.counters["verify_samples"] += sum(p.samples for p in report.properties)

    # -- output -----------------------------------------------------------

    def write_spans(self, path, meta: dict):
        """One JSON header line, then one JSON array per kept span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**meta, "spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped,
                                 "fields": ["id", "name", "start", "end",
                                            "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
