"""Spans around the calls into each fluctua layer, installed from outside.

The tracer replaces every name in a ``fluctua`` module that is bound to a
traced function with a wrapper, so calls made inside the package (for
example ``channels`` calling ``qcore.hermitian_eig``) are traced as well.
Methods are wrapped on their classes.  Each wrapper records a span
``(name, item, start, end, parent)``; spans stay in memory until the run
writes them out.  Nothing inside the package is edited and the wrapped
functions receive their arguments untouched.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from fluctua import channels

# The traced functions of each layer; "Class.method" wraps a method.
LAYERS = {
    "qcore": ("hermitian_eig", "spectral_decompose", "assert_density_operator",
              "dephase", "coherence_split", "matrix_phase_exp"),
    "channels": ("propagator_series", "apply", "apply_matrix"),
    "protocols": ("epm_joint", "tpm_joint", "mll_joint",
                  "characteristic_function", "characteristic_of_distribution",
                  "characteristic_split", "epm_second_moment_split",
                  "jarzynski", "delta_distribution", "moment", "shannon_entropy",
                  "mutual_information", "sample_shots"),
    "models": ("two_qubit_sweep", "three_level_experiment",
               "three_level_initial_state"),
    "sampling": ("random_coherence", "SeededGenerator.spawn"),
    "cli": ("main",),
    "svgplot": ("line_chart",),
}
# Summed over every Channel subclass.
CHANNEL_METHODS = ("apply", "apply_matrix")
FAILURES = ("IntegrationFailure", "NegativeProbability")
WARNINGS = ("NonThermalDiagonal", "DegenerateEigenbasis", "DegenerateTarget")


def rk4_steps(t_initial: float, times, step: float) -> int:
    """Steps of fixed-step RK4 run piecewise from t_initial through ``times``.

    Each window is split into ceil(span/step) equal steps, the rule the
    fixed-step integrator documents; an empty window takes none.
    """
    total, t_prev = 0, float(t_initial)
    for t in times:
        span = float(t) - t_prev
        if span > 0:
            total += max(1, math.ceil(span / step - 1e-12))
        t_prev = float(t)
    return total


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = None
        self.eig_calls = 0
        self.eig_repeats = 0
        self.series_steps = 0
        self.failures: Counter = Counter()
        self._stack: list[int] = []
        self._seen_inputs: set = set()
        self._failed: list = []
        self._patches: list = []

    def begin_item(self, item_id) -> None:
        self.item = item_id
        self._seen_inputs = set()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fluctua" or name.startswith("fluctua.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"fluctua.{layer}"]
            for name in names:
                label = f"{layer}.{name}"
                if layer == "channels" and name in CHANNEL_METHODS:
                    for cls in _subclasses(channels.Channel):
                        if name in vars(cls):
                            self._patch(cls, name, self._wrap(label, vars(cls)[name]))
                elif "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, method, self._wrap(label, vars(cls)[method]))
                else:
                    original = getattr(home, name)
                    wrapper = self._wrap(label, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack
        on_call = {"qcore.hermitian_eig": self._note_eig_input,
                   "channels.propagator_series": self._note_series}.get(label)
        signature = inspect.signature(fn) if on_call else None

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(signature.bind(*args, **kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._note_failure(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, self.item, start, end, parent)

        return traced

    # -- counters at the layer boundaries -------------------------------

    def _note_eig_input(self, bound) -> None:
        a = np.asarray(bound.arguments["matrix"], dtype=np.complex128)
        key = (a.shape, a.tobytes())
        self.eig_calls += 1
        if key in self._seen_inputs:
            self.eig_repeats += 1
        else:
            self._seen_inputs.add(key)

    def _note_series(self, bound) -> None:
        bound.apply_defaults()
        args = bound.arguments
        self.series_steps += rk4_steps(args["schedule"].t_initial,
                                       args["times"], args["step"])

    def _note_failure(self, exc: Exception) -> None:
        name = type(exc).__name__
        if name in FAILURES and not any(exc is seen for seen in self._failed):
            self._failed.append(exc)
            self.failures[name] += 1

    # -- results --------------------------------------------------------

    def profile(self, items=None) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time per traced name.

        ``items`` restricts the profile to spans of those item ids.
        """
        child = [0.0] * len(self.spans)
        for label, item, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for index, (label, item, start, end, parent) in enumerate(self.spans):
            if items is not None and item not in items:
                continue
            rec = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[index]
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, item, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\titem\tstart_s\tend_s\tparent\n")
            for label, item, start, end, parent in self.spans:
                fh.write(f"{label}\t{item}\t{start:.9f}\t{end:.9f}\t{parent}\n")
