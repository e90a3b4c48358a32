"""Per-layer spans and counters for the traced benchmark run.

The layers are the modules of the ``musielak`` package.  While a ``Tracer``
is installed, every public function of every layer is replaced by a wrapper
that opens a span, and the wrapper is written into each namespace that holds
the function: the defining module, modules that imported it by value (``cli``
imports ``conjugate_batch`` and the norms, ``embedding_lab`` imports
``luxemburg_norm``) and the package itself.  Modules are reached through
``importlib.import_module`` because ``musielak.conjugate`` as an attribute is
the function, not the module.  ``uninstall`` puts every original back.

Time is attributed to the innermost open span, so ``<module>.self_s`` is the
module's span time minus the time covered by spans of other modules inside
it.  ``<key>.calls`` and ``<key>.s`` are the call count and inclusive
seconds of one function or of a named group of functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "phi_core", "modular", "conjugate", "embedding_lab", "degiorgi", "solver")

# Groups of functions reported under one key.  A group span nested in a span
# of the same group is not counted again, so ``io.read`` counts file reads
# once when ``load_function`` delegates to ``function_from_csv``.
GROUPS = {
    "modular.norm": ("luxemburg_norm", "sobolev_norm", "boundary_norm"),
    "modular.modular": ("modular_rho", "modular_sobolev", "boundary_modular"),
    "conjugate.verify": ("verify_conjugate_bounds", "verify_trace_bound"),
    "io.read": ("load_function", "function_from_csv"),
    "io.write": ("save_function", "function_to_csv"),
}

# Functions (and groups) whose calls and inclusive seconds are reported.
TIMED = {
    "solver": ("solve", "energy", "energy_gradient", "splu", "weak_residual"),
    "conjugate": ("conjugate_batch", "conjugate_inverse_batch", "verify"),
    "phi_core": ("evaluate_nodes", "eval_phi", "phi_inverse", "validate_hypotheses"),
    "modular": ("modular", "norm"),
    "degiorgi": ("truncation_energy", "entry_condition", "empirical_iteration", "iterate_recursion"),
    "embedding_lab": ("scale_function", "embedding_sides", "exponent_scan"),
    "io": ("read", "write"),
}

# Derived per-layer values: name -> unit.
DERIVED = {
    "solver.outer_iters": "count",
    "solver.linesearch_ratio": "ratio",
    "conjugate.samples_computed": "count",
    "conjugate.useful_ratio": "ratio",
    "phi_core.spec_builds": "count",
    "modular.norm_iters": "count",
    "modular.modular_per_norm": "ratio",
    "degiorgi.candidates": "count",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for layer, names in TIMED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.s"] = "s"
    units.update(DERIVED)
    units["trace.overhead_s"] = "s"
    return units


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans at layer boundaries plus the counters the per-layer metrics need."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._mark = 0.0
        self._depth = defaultdict(int)
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _switch(self, push=None):
        now = time.perf_counter()
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._mark
        if push is None:
            self._stack.pop()
        else:
            self._stack.append(push)
        self._mark = now
        return now

    def _wrap(self, layer, name, fn, group=None, after=None):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = group is not None and self._depth[group] == 0
            if group is not None:
                self._depth[group] += 1
                if group == "modular.modular" and self._depth["modular.norm"]:
                    self.counts["modular.modular_in_norm"] += outer
            start = self._switch(push=layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._switch()
                self.calls[key] += 1
                self.seconds[key] += end - start
                if group is not None:
                    self._depth[group] -= 1
                    if outer:
                        self.calls[group] += 1
                        self.seconds[group] += end - start
            if after is not None and (group is None or outer):
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def add(self, name, value):
        self.counts[name] += value

    def _after_hooks(self):
        def solve(args, kwargs, result):
            report = result[1]
            self.counts["solver.outer_iters"] += report.iterations
            self.counts["solver.accepted_steps"] += len(report.energy_history)

        def norm(args, kwargs, result):
            self.counts["modular.norm_iters"] += result.iterations

        def batch(args, kwargs, result):
            self.counts["conjugate.samples_computed"] += len(result)

        def empirical(args, kwargs, result):
            self.counts["degiorgi.candidates"] += len(result.candidates)

        def read(args, kwargs, result):
            self.counts["io.bytes_read"] += os.path.getsize(args[0])

        def write(args, kwargs, result):
            self.counts["io.bytes_written"] += os.path.getsize(args[1])

        hooks = {
            "solver.solve": solve,
            "conjugate.conjugate_batch": batch,
            "degiorgi.empirical_iteration": empirical,
        }
        hooks.update({f"modular.{n}": norm for n in GROUPS["modular.norm"]})
        hooks.update({f"io.{n}": read for n in GROUPS["io.read"]})
        hooks.update({f"io.{n}": write for n in GROUPS["io.write"]})
        return hooks

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        group_of = {(k.split(".")[0], n): k for k, names in GROUPS.items() for n in names}
        hooks = self._after_hooks()
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"musielak.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replaced[id(fn)] = (fn, self._wrap(layer, name, fn, group_of.get((layer, name)),
                                                       hooks.get(f"{layer}.{name}")))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "musielak" or mod_name.startswith("musielak."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replaced and replaced[id(value)][0] is value:
                        self._set(mod, attr, replaced[id(value)][1])

        solver = importlib.import_module("musielak.solver")
        self._set(solver, "splu", self._wrap("solver", "splu", solver.splu))
        spec = importlib.import_module("musielak.phi_core").PhiSpec
        self._set(spec, "evaluate_nodes", self._wrap("phi_core", "evaluate_nodes", spec.evaluate_nodes))
        init = spec.__init__

        def counted_init(obj, *args, **kwargs):
            self.counts["phi_core.spec_builds"] += 1
            init(obj, *args, **kwargs)

        self._set(spec, "__init__", counted_init)
        return self

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- report --------------------------------------------------------------

    def metrics(self, overhead_s: float, cycles: int) -> dict:
        """Per-layer metrics of one cycle: every total and the overhead are
        divided by the number of traced cycles, so runs of any length compare."""
        units = metric_units()
        values = {f"{layer}.self_s": self.self_s[layer] / cycles for layer in LAYERS}
        for layer, names in TIMED.items():
            for name in names:
                values[f"{layer}.{name}.calls"] = self.calls[f"{layer}.{name}"] / cycles
                values[f"{layer}.{name}.s"] = self.seconds[f"{layer}.{name}"] / cycles
        c = self.counts
        for name in ("solver.outer_iters", "conjugate.samples_computed", "phi_core.spec_builds",
                     "modular.norm_iters", "degiorgi.candidates", "io.bytes_read", "io.bytes_written"):
            values[name] = c[name] / cycles
        values["solver.linesearch_ratio"] = _ratio(c["solver.accepted_steps"], self.calls["solver.energy"])
        values["conjugate.useful_ratio"] = _ratio(c["conjugate.rows_written"], c["conjugate.samples_computed"])
        values["modular.modular_per_norm"] = _ratio(c["modular.modular_in_norm"], self.calls["modular.norm"])
        values["trace.overhead_s"] = overhead_s / cycles
        return {k: {"value": values[k], "unit": units[k]} for k in units}
