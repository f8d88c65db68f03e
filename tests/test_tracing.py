"""The benchmark's tracer still finds what it wraps.

``perfbench/tracing.py`` wraps package functions by name and reads some of
their parameters by name (``matrix``, ``schedule``, ``times``, ``step``), so
renaming one breaks the benchmark; this test makes it break the suite too.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from fluctua import channels, qcore

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import LAYERS, Tracer, rk4_steps  # noqa: E402


def test_tracer_counts_eig_calls_and_series_steps():
    for layer in LAYERS:
        importlib.import_module(f"fluctua.{layer}")
    sched = channels.HamiltonianSchedule(np.diag([1.0, -1.0]), t_final=0.25)
    times, step = [0.1, 0.25], 0.01
    tracer = Tracer()
    tracer.install()
    try:
        qcore.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        channels.propagator_series(sched, None, times, step=step)
    finally:
        tracer.uninstall()
    assert tracer.eig_calls == 1
    assert tracer.series_steps == rk4_steps(sched.t_initial, times, step)
