"""Energy-change statistics of small quantum systems.

The package compares three ways of assigning a joint distribution to the
initial and final energy of a driven (possibly open) quantum system:

* end-point measurement: energy is measured only at the end, the initial
  energy record comes from an independent measurement on an identically
  prepared copy, so initial coherences survive the protocol;
* two-point measurement: a projective energy measurement at the start
  destroys coherences before the evolution;
* eigenstate-resolved scheme: the initial state is unravelled into its
  eigenstates and each is measured separately.

Core linear algebra lives in :mod:`fluctua.qcore`, channels and Lindblad
propagation in :mod:`fluctua.channels`, the measurement protocols and
their statistics in :mod:`fluctua.protocols`, the worked two-qubit and
three-level models in :mod:`fluctua.models`, random-instance helpers in
:mod:`fluctua.sampling`, and the command line front end in
:mod:`fluctua.cli`.
"""

__version__ = "0.1.0"

from .models import (
    PRESETS,
    InitialStateSpec,
    ThreeLevelConfig,
    TwoQubitExperimentConfig,
    closed_form_characteristics,
    three_level_experiment,
    two_qubit_sweep,
)
from .protocols import (
    characteristic_function,
    epm_joint,
    jarzynski,
    mll_joint,
    tpm_joint,
)
from .sampling import SeededGenerator

__all__ = [
    "PRESETS",
    "InitialStateSpec",
    "SeededGenerator",
    "ThreeLevelConfig",
    "TwoQubitExperimentConfig",
    "characteristic_function",
    "closed_form_characteristics",
    "epm_joint",
    "jarzynski",
    "mll_joint",
    "three_level_experiment",
    "tpm_joint",
    "two_qubit_sweep",
    "__version__",
]
