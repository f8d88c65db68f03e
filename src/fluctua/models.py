"""Concrete model systems behind the named experiment presets.

Two systems are implemented.  The first is a pair of qubits with local
gap ``epsilon``, prepared in a pure product state whose computational
populations are thermal, then subjected to a controlled single-qubit
rotation; the swept characteristic functions of that circuit have simple
closed forms that double as an oracle.  The second is a three-level
system driven on its two upper transitions and coupled to three thermal
baths, integrated with the Lindblad propagator; its series columns are
read from one table of the final-level populations of a few input states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEFAULT_STEP,
    HamiltonianSchedule,
    JumpOperatorSet,
    SuperoperatorChannel,
    UnitaryChannel,
    propagator_series,
)
from .protocols import (
    PROTOCOLS,
    JointEnergyDistribution,
    _clamp,
    _collapse,
    _ensemble,
    _members_joint,
    _partition_terms,
    _warn_unless_thermal,
    characteristic_function,
    characteristic_of_distribution,
    characteristic_split,
    epm_joint,
    moment,
    sample_shots,
    shannon_entropy,
    tpm_joint,
)
from .qcore import (
    DensityState,
    SpectralDecomposition,
    coherence_l1,
    coherence_split,
    density_spectrum,
    dephase,
    spectral_decompose,
    spectral_sum,
)
from .sampling import SeededGenerator, random_coherence

__all__ = [
    "InconsistentConfig",
    "InvalidConfig",
    "TwoQubitExperimentConfig",
    "ThreeLevelConfig",
    "InitialStateSpec",
    "SweepResult",
    "ThreeLevelSeries",
    "ExperimentPreset",
    "PRESETS",
    "u_gate",
    "controlled_gate",
    "two_qubit_hamiltonian",
    "two_qubit_initial_state",
    "two_qubit_sweep",
    "closed_form_characteristics",
    "three_level_hamiltonian",
    "thermal_occupation",
    "three_level_model",
    "three_level_initial_state",
    "three_level_experiment",
]


class InconsistentConfig(ValueError):
    """Mutually contradictory configuration values."""


class InvalidConfig(ValueError):
    """A configuration value outside its allowed range."""


DEFAULT_THETA0 = 2.0
DEFAULT_THETA_GRID = tuple(n * math.pi / 10.0 for n in range(21))

SWEEP_COLUMNS = ("G_TPM", "G_EPM", "G_EPM_diag", "G_EPM_coh",
                 "mean_EPM", "mean_TPM", "m2_EPM", "m2_TPM",
                 "m3_EPM", "m3_TPM", "m4_EPM", "m4_TPM")


# ---------------------------------------------------------------------------
# qubit pair


@dataclass(frozen=True)
class TwoQubitExperimentConfig:
    """Sweep configuration for the controlled-rotation circuit.

    ``theta0`` (the preparation angle) is the primary knob; ``beta`` is
    derived from it through sech(beta*epsilon) = sin(theta0) unless given
    explicitly.  When both are supplied they must satisfy that relation
    to within 1e-3.
    """

    epsilon: float = 1.0
    theta0: float | None = None
    beta: float | None = None
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID
    phi: float = 0.0
    lam: float = 0.0
    n_shots: int | None = None

    def resolved(self) -> tuple[float, float]:
        """(theta0, beta) with the missing member derived."""
        t0, b = self.theta0, self.beta
        numbers = (self.epsilon, self.phi, self.lam, *self.theta_grid, t0, b)
        if not all(math.isfinite(v) for v in numbers if v is not None):
            raise InvalidConfig("epsilon, theta0, beta, theta_grid, phi and lam must be finite")
        if not self.epsilon > 0.0:
            raise InvalidConfig("epsilon must be positive")
        if len(self.theta_grid) == 0:
            raise InvalidConfig("theta_grid needs at least one value")
        if t0 is None and b is None:
            t0 = DEFAULT_THETA0
        if t0 is not None:
            if not 0.0 < t0 < math.pi:
                raise InconsistentConfig(
                    "theta0 must lie in (0, pi) for thermal populations")
            derived = math.log(math.tan(0.5 * t0)) / self.epsilon
            if b is None:
                b = derived
            elif abs(1.0 / math.cosh(b * self.epsilon) - math.sin(t0)) >= 1e-3:
                raise InconsistentConfig(
                    f"beta={b!r} and theta0={t0!r} violate "
                    "sech(beta*epsilon) = sin(theta0)")
        else:
            t0 = 2.0 * math.atan(math.exp(b * self.epsilon))
        return float(t0), float(b)


def u_gate(theta: float, phi: float = 0.0, lam: float = 0.0) -> np.ndarray:
    """Single-qubit rotation with half-angle parameterization."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (lam + phi)) * c]])


def controlled_gate(theta: float, phi: float = 0.0, lam: float = 0.0) -> np.ndarray:
    """Rotation of the second qubit controlled on the first being |1>."""
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = u_gate(theta, phi, lam)
    return out


def two_qubit_hamiltonian(epsilon: float = 1.0) -> np.ndarray:
    """Sum of local sigma_z terms: diag(2e, 0, 0, -2e) on |00>,|01>,|10>,|11>."""
    if epsilon <= 0.0:
        raise InvalidConfig("epsilon must be positive")
    return np.diag([2.0 * epsilon, 0.0, 0.0, -2.0 * epsilon]).astype(np.complex128)


def two_qubit_initial_state(config: TwoQubitExperimentConfig) -> np.ndarray:
    """Pure product state whose computational populations are thermal.

    Applying the same rotation to both qubits of |00> gives real
    nonnegative amplitudes; dephasing the result in the computational
    basis recovers the Gibbs state of the pair Hamiltonian at the
    resolved beta.
    """
    theta0, _ = config.resolved()
    v = u_gate(theta0)[:, 0]
    psi = np.kron(v, v)
    return np.outer(psi, psi.conj())


def closed_form_characteristics(theta, beta: float,
                                epsilon: float = 1.0) -> dict[str, float | np.ndarray]:
    """Characteristic functions of the sweep at u = i*beta, in closed form.

    ``theta`` is the sweep abscissa (see :func:`two_qubit_sweep` for how
    it parameterizes the gate), a number or an array; every value has its
    shape.  The expressions depend on 2*theta and 4*theta only, so the
    sweep repeats with period pi.
    """
    b = beta * epsilon
    try:
        e1 = math.exp(b)
        e2, e4, e6, e8 = e1 ** 2, e1 ** 4, e1 ** 6, e1 ** 8
    except OverflowError:
        raise OverflowError(f"the closed-form characteristic overflows at beta*epsilon = {b:g}") from None
    two_theta = 2.0 * np.asarray(theta, dtype=float)
    s2, c2 = np.sin(two_theta), np.cos(two_theta)
    denom = (e2 + 1.0) ** 4
    g_epm = 4.0 * (e6 * (s2 - e1 * c2) ** 2
                   + e4 * (e1 * s2 + c2) ** 2 + e4 + 1.0) / denom
    g_diag = 4.0 * (2.0 * e6 * s2 ** 2
                    + (e4 + e8) * c2 ** 2 + e4 + 1.0) / denom
    sech = 1.0 / math.cosh(b)
    g_coh = -0.5 * e2 * np.sin(2.0 * two_theta) * math.tanh(b) * sech ** 3
    # [()] gives a scalar theta a scalar, not a 0-d array
    return {"G_TPM": np.ones_like(s2)[()], "G_EPM": g_epm,
            "G_EPM_diag": g_diag, "G_EPM_coh": g_coh}


@dataclass
class SweepResult:
    """Column-oriented sweep output; ``columns`` preserves CSV order."""

    theta0: float
    beta: float
    epsilon: float
    n_shots: int | None
    columns: dict[str, np.ndarray]
    # shot mode: the standard error of each column under the model
    model_errors: dict[str, np.ndarray] | None = None

    def column_names(self) -> list[str]:
        return list(self.columns)


def _linear_weights(joint: JointEnergyDistribution, beta: float) -> dict[str, np.ndarray]:
    delta = joint.delta_grid()
    return {"G": np.exp(-beta * delta), "mean": delta,
            "m2": delta ** 2, "m3": delta ** 3, "m4": delta ** 4}


def _shot_errors(probs: np.ndarray, weights: dict[str, np.ndarray],
                 n_shots: int) -> dict[str, float | np.ndarray]:
    """Standard errors of statistics linear in a table of shot frequencies.

    A statistic sum_c w_c p_c estimated from ``n_shots`` independent draws
    of the table ``probs`` has variance sum_c p_c (w_c - sum p w)^2 / n_shots.
    The centred form cannot go negative and is exactly zero for a table
    with a single occupied cell.  A (T, levels_i, levels_f) batch of tables
    gives (T,) errors.
    """
    batch = probs.shape[:-2]
    p = probs.reshape(batch + (1, -1))
    out = {}
    for name, w in weights.items():
        w = np.broadcast_to(w, probs.shape).reshape(batch + (-1, 1))
        out[name] = np.sqrt((p @ (w - p @ w) ** 2)[..., 0, 0] / n_shots)
    return out


def _sweep_errors(epm: JointEnergyDistribution, tpm: JointEnergyDistribution,
                  dia: JointEnergyDistribution, beta: float,
                  n_shots: int) -> dict[str, np.ndarray]:
    """Standard error of every sweep column estimated from three batches of tables."""
    w = _linear_weights(epm, beta)
    se_epm = _shot_errors(epm.probs, w, n_shots)
    se_tpm = _shot_errors(tpm.probs, w, n_shots)
    se_dia = _shot_errors(dia.probs, {"G": w["G"]}, n_shots)["G"]
    out = {"G_TPM": se_tpm["G"], "G_EPM": se_epm["G"], "G_EPM_diag": se_dia,
           "G_EPM_coh": np.hypot(se_epm["G"], se_dia)}
    for label in ("mean", "m2", "m3", "m4"):
        out[f"{label}_EPM"] = se_epm[label]
        out[f"{label}_TPM"] = se_tpm[label]
    return out


def two_qubit_sweep(config: TwoQubitExperimentConfig, gen=None) -> SweepResult:
    """Characteristic functions and moments across the rotation sweep.

    The sweep abscissa theta enters the circuit as controlled_gate(-4*theta,
    phi, lam); with that parameterization the swept quantities take the
    closed forms of :func:`closed_form_characteristics` and the sweep is
    pi-periodic.  The whole grid is evaluated as one batch of circuits, and
    the initial state is validated once.  In exact mode every column is
    computed from the operator expressions.  With ``n_shots`` set, columns
    hold finite-shot estimates from the simulated measurement records and
    ``*_se`` columns append their closed-form standard errors, evaluated on
    the sampled tables, and ``model_errors`` the same closed form on the
    exact joints the shots are drawn from.  ``gen`` (a :class:`SeededGenerator`,
    an integer seed or None for seed 0) seeds the whole run: grid point i
    draws its three records from child streams 0, 1 and 2 of its child stream i.
    """
    if isinstance(gen, SeededGenerator):
        master = gen
    elif gen is None or isinstance(gen, (int, np.integer)):
        master = SeededGenerator(gen or 0)
    else:
        raise TypeError("two_qubit_sweep needs index-addressable child streams: "
                        "pass a SeededGenerator, an int seed or None, not "
                        f"{type(gen).__name__}")
    theta0, beta = config.resolved()
    spec = spectral_decompose(two_qubit_hamiltonian(config.epsilon))
    rho = density_spectrum(two_qubit_initial_state(config))
    circuits = UnitaryChannel(np.stack([controlled_gate(-4.0 * theta, config.phi, config.lam)
                                        for theta in config.theta_grid]))
    u = 1j * beta
    if config.n_shots is None:
        model_errors = None
        epm, tpm = epm_joint(rho, circuits, spec, spec), tpm_joint(rho, circuits, spec, spec)
        g_pop, g_coh = characteristic_split(rho, circuits, spec, spec, u)
        values = {"G_TPM": characteristic_function("TPM", rho, circuits, spec, spec, u),
                  "G_EPM": characteristic_function("EPM", rho, circuits, spec, spec, u),
                  "G_EPM_diag": g_pop, "G_EPM_coh": g_coh}
    else:
        points = [master.spawn(idx) for idx in range(len(config.theta_grid))]
        pops = density_spectrum(dephase(rho.matrix))
        epm, tpm, dia = (
            sample_shots(protocol, state, circuits, spec, spec, config.n_shots,
                         [point.spawn(k) for point in points])
            for k, (protocol, state) in enumerate((("EPM", rho), ("TPM", rho),
                                                   ("EPM", pops))))
        model_errors = _sweep_errors(epm.exact, tpm.exact, dia.exact, beta, config.n_shots)
        g_epm = characteristic_of_distribution(epm, u).real
        g_dia = characteristic_of_distribution(dia, u).real
        values = {"G_TPM": characteristic_of_distribution(tpm, u), "G_EPM": g_epm,
                  "G_EPM_diag": g_dia, "G_EPM_coh": g_epm - g_dia}
    for n, label in enumerate(("mean", "m2", "m3", "m4"), start=1):
        values[f"{label}_EPM"] = moment(epm, n)
        values[f"{label}_TPM"] = moment(tpm, n)

    columns = {"theta": np.array(config.theta_grid, dtype=float)}
    columns.update((name, np.array(values[name].real)) for name in SWEEP_COLUMNS)
    if config.n_shots is not None:
        se = _sweep_errors(epm, tpm, dia, beta, config.n_shots)
        columns.update((name + "_se", se[name]) for name in SWEEP_COLUMNS)
    return SweepResult(theta0, beta, config.epsilon, config.n_shots, columns, model_errors)


# ---------------------------------------------------------------------------
# driven three-level system


@dataclass(frozen=True)
class ThreeLevelConfig:
    """Three-level system with two drive couplings and three baths.

    The bare energies are 0, omega1, omega3; bath r couples to the
    transition of frequency omega_r with omega2 = omega3 - omega1.  The
    drive g(t) acts on the ground/top transition and f(t) on the
    middle/top one; ``drive_form`` selects how f complements g.
    ``occupation_convention`` picks the thermal occupation entering the
    jump rates: "bose" uses 1/(exp(beta*omega) - 1), "as_printed" uses
    1/(exp(beta*omega) + 1).
    """

    omega1: float = 1.0
    omega3: float = 3.0
    gamma: float = 0.1
    beta1: float = 3.0
    beta2: float = 1.0
    beta3: float = 2.0
    drive_amplitude: float = 1.5
    drive_form: str = "complement"
    t_max: float = 10.0
    step: float = DEFAULT_STEP
    occupation_convention: str = "bose"
    measurement_convention: str = "full"

    def __post_init__(self):
        # every comparison below is written so that a NaN fails it
        for name, value in vars(self).items():
            if isinstance(value, float | int) and not math.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.omega1 < self.omega3:
            raise InvalidConfig("energies must satisfy 0 < omega1 < omega3")
        if not self.gamma >= 0.0:
            raise InvalidConfig("gamma must be nonnegative")
        if not (self.t_max > 0.0 and self.step > 0.0):
            raise InvalidConfig("t_max and step must be positive")
        if self.drive_form not in ("complement", "double_frequency"):
            raise InvalidConfig(f"unknown drive_form {self.drive_form!r}")
        if self.occupation_convention not in ("bose", "as_printed"):
            raise InvalidConfig(
                f"unknown occupation_convention {self.occupation_convention!r}")
        if self.measurement_convention not in ("full", "bare"):
            raise InvalidConfig(
                f"unknown measurement_convention {self.measurement_convention!r}")
        if self.gamma > 0.0 and self.occupation_convention == "bose":
            for r, (b, w) in enumerate(self.bath_pairs(), start=1):
                if not b * w > 0.0:
                    raise InvalidConfig(
                        f"bath {r} needs beta*omega > 0 under the bose convention")

    @property
    def omega2(self) -> float:
        return self.omega3 - self.omega1

    def bath_pairs(self) -> list[tuple[float, float]]:
        """(beta_r, omega_r) for the three baths."""
        return [(self.beta1, self.omega1), (self.beta2, self.omega2),
                (self.beta3, self.omega3)]


def three_level_hamiltonian(config: ThreeLevelConfig) -> np.ndarray:
    return np.diag([0.0, config.omega1, config.omega3]).astype(np.complex128)


def thermal_occupation(beta: float, omega: float, convention: str = "bose") -> float:
    """Bath occupation at frequency omega for the chosen convention."""
    if convention == "bose":
        return 1.0 / math.expm1(beta * omega)
    if convention == "as_printed":
        return 1.0 / (math.exp(beta * omega) + 1.0)
    raise InvalidConfig(f"unknown occupation convention {convention!r}")


def _drive_envelopes(t: np.ndarray, amp: float, form: str) -> np.ndarray:
    """Envelopes (g, f) of the g-B and A-B couplings at an array of times.

    Both forms are built from sin^2 t and sin^2 2t, so they repeat with
    period pi, which :func:`three_level_model` declares on the schedule.
    """
    g = amp * np.sin(t) ** 2
    f = amp - g if form == "complement" else amp * (1.0 - np.sin(2.0 * t) ** 2)
    return np.stack([g, f])


def three_level_model(config: ThreeLevelConfig) -> tuple[HamiltonianSchedule, JumpOperatorSet]:
    """Schedule and jump operators of the driven three-level system."""
    h = three_level_hamiltonian(config)
    amp = config.drive_amplitude
    couple_gb = np.zeros((3, 3), dtype=np.complex128)
    couple_gb[0, 2] = couple_gb[2, 0] = 1.0
    couple_ab = np.zeros((3, 3), dtype=np.complex128)
    couple_ab[1, 2] = couple_ab[2, 1] = 1.0

    if amp == 0.0:
        schedule = HamiltonianSchedule(h, t_final=config.t_max)
    else:
        schedule = HamiltonianSchedule(
            h, (couple_gb, couple_ab),
            functools.partial(_drive_envelopes, amp=amp, form=config.drive_form),
            0.0, config.t_max, period=math.pi)

    operators, labels = [], []
    if config.gamma > 0.0:
        occ = [thermal_occupation(b, w, config.occupation_convention)
               for b, w in config.bath_pairs()]
        levels = {"g": 0, "A": 1, "B": 2}
        # (destination, source, rate): downward rates gamma*(n+1), upward gamma*n
        rates = [("g", "A", config.gamma * (occ[0] + 1.0)),
                 ("A", "g", config.gamma * occ[0]),
                 ("A", "B", config.gamma * (occ[1] + 1.0)),
                 ("B", "A", config.gamma * occ[1]),
                 ("g", "B", config.gamma * (occ[2] + 1.0)),
                 ("B", "g", config.gamma * occ[2])]
        for dst, src, rate in rates:
            op = np.zeros((3, 3), dtype=np.complex128)
            op[levels[dst], levels[src]] = math.sqrt(rate)
            operators.append(op)
            labels.append(f"{dst}<-{src}")
    return schedule, JumpOperatorSet(operators, labels)


@dataclass(frozen=True)
class InitialStateSpec:
    """Thermal state of the initial measurement Hamiltonian plus coherence.

    The coherence block is drawn in that Hamiltonian's eigenbasis with
    :func:`fluctua.sampling.random_coherence`; ``coherence_seed = None``
    or ``coherence_scale = 0`` gives the bare thermal state.
    """

    beta_ref: float = 0.5
    coherence_seed: int | None = 7
    coherence_scale: float = 1.0


def _measurement_hamiltonian(config: ThreeLevelConfig,
                             schedule: HamiltonianSchedule, t: float) -> np.ndarray:
    if config.measurement_convention == "bare":
        return schedule.base
    return schedule.at(t)


def _initial_state(spec_i: SpectralDecomposition, state: InitialStateSpec) -> np.ndarray:
    """Thermal populations plus coherence in the eigenbasis of the initial Hamiltonian."""
    evals = np.repeat(spec_i.energies, spec_i.ranks)
    w = np.exp(-state.beta_ref * (evals - evals.min()))
    w /= w.sum()
    if state.coherence_seed is None or state.coherence_scale == 0.0:
        chi = np.zeros((3, 3), dtype=np.complex128)
    else:
        chi = random_coherence(w, SeededGenerator(state.coherence_seed),
                               scale=state.coherence_scale)
    vecs = spec_i.basis
    return vecs @ (np.diag(w.astype(np.complex128)) + chi) @ vecs.conj().T


def three_level_initial_state(config: ThreeLevelConfig,
                              state: InitialStateSpec) -> np.ndarray:
    """Build the configured initial state (thermal populations + coherence)."""
    schedule, _ = three_level_model(config)
    return _initial_state(spectral_decompose(_measurement_hamiltonian(config, schedule, 0.0)),
                          state)


THREE_LEVEL_COLUMNS = (
    "t", "jarzynski_epm", "jarzynski_diagonal", "jarzynski_coherence",
    "jarzynski_tpm", "m2_epm", "m2_population", "m2_coherence",
    "m2_coherence_fraction", "entropy_epm", "entropy_tpm", "entropy_mll",
    "m2_mll_minus_epm", "coherence_l1")


@dataclass
class ThreeLevelSeries:
    """Time series of protocol quantities along the driven evolution."""

    times: np.ndarray
    columns: dict[str, np.ndarray]
    config: ThreeLevelConfig
    state: InitialStateSpec | None
    beta_ref: float
    rho_initial: np.ndarray

    def column_names(self) -> list[str]:
        return list(self.columns)


def _series_columns(state: DensityState, series: SuperoperatorChannel, groups,
                    spec_i: SpectralDecomposition, beta: float) -> dict[str, np.ndarray]:
    """Every protocol column of a series, from one population table per level group.

    The input stack B holds the ensemble members of the three schemes as
    :func:`~fluctua.protocols._ensemble` builds them, in the order of
    ``PROTOCOLS``: rho (EPM), each P_l/r_l (TPM) and each eigenstate
    |s><s| of rho (MLL).  Its last three rows are rho = D + chi split by
    :func:`~fluctua.qcore.coherence_split` in the initial eigenbasis, and
    the Gibbs state rho_th of H_i.
    Per group the stack takes one channel product and one product with the
    final projectors, the table pop[t, b, k] = Re tr(P_k(t) Phi_t[B_b]).
    Each scheme's joint is :func:`~fluctua.protocols._members_joint` of its
    clamped member rows, and the three joints collapse in one pass.  The
    trace forms weigh the unclamped table with e^{-beta E_k}, E_k and
    E_k^2, with Z_i and Z_f from :func:`~fluctua.protocols._partition_terms`;
    the exponential averages are read for EPM and TPM.  Each part keeps
    its own input: rho_th, D or chi.
    """
    d = state.matrix.shape[0]
    z_i, gibbs = _partition_terms(spec_i, beta)
    rho_th = spectral_sum(gibbs / z_i, spec_i)
    split = coherence_split(state, spec_i)
    _warn_unless_thermal(split.populations, rho_th)
    weights, members = zip(*(_ensemble(protocol, state, spec_i) for protocol in PROTOCOLS))
    inputs = np.concatenate([*members, np.stack([split.populations, split.coherences,
                                                 rho_th])])
    before = np.einsum("lij,bji->bl", spec_i.projectors, inputs).real
    # the stack rows of each scheme's members, and their clamped initial populations
    *rows, _ = np.split(np.arange(len(inputs)), np.cumsum([len(w) for w in weights]))
    starts = [_clamp(before[b]) for b in rows]
    front = before @ np.exp(beta * spec_i.energies)
    # <H_i> and <H_i^2> of D
    energy_i, square_i = np.stack([spec_i.energies, spec_i.energies ** 2]) @ before[-3]

    columns = {name: np.empty(len(series.superoperator)) for name in THREE_LEVEL_COLUMNS[1:]}
    for idx, spec_f in groups:
        channel = series if len(groups) == 1 else series[idx]
        phi = channel.apply_matrix(inputs)
        pop = np.einsum("...kij,...bji->...bk", spec_f.projectors, phi).real
        z_f, gibbs_f = _partition_terms(spec_f, beta)
        # (T, inputs) sums over the final levels: Gibbs weight, E_k, E_k^2
        weighed = pop @ np.stack([gibbs_f, spec_f.energies, spec_f.energies ** 2], axis=-1)
        back, first, second = np.moveaxis(weighed, -1, 0)
        population = square_i + second[:, -3] - 2.0 * first[:, -3] * energy_i
        coherence = second[:, -2] - 2.0 * first[:, -2] * energy_i
        total = population + coherence
        joints = np.stack([_members_joint(protocol, (w, start, _clamp(pop[:, b])),
                                          spec_i, spec_f).probs
                           for protocol, w, b, start in zip(PROTOCOLS, weights, rows, starts)])
        changes = _collapse(spec_i.energies, spec_f.energies, joints)
        entropy, m2 = shannon_entropy(changes), moment(changes, 2)
        # the EPM and TPM characteristic functions at i beta, times Z_i/Z_f
        average = np.stack([(front[b] * back[:, b]) @ w
                            for w, b in zip(weights[:2], rows[:2])],
                           axis=-1) * (z_i / z_f)[..., None]
        phi_rho = phi[:, 0]
        part = {"jarzynski_epm": average[:, 0],
                "jarzynski_diagonal": d * back[:, -1] / z_f,
                "jarzynski_coherence": d * back[:, -2] / z_f,
                "jarzynski_tpm": average[:, 1],
                "m2_epm": total,
                "m2_population": population,
                "m2_coherence": coherence,
                "m2_coherence_fraction": np.divide(coherence, total, out=np.zeros(total.shape),
                                                   where=total != 0.0),
                "entropy_epm": entropy[0],
                "entropy_tpm": entropy[1],
                "entropy_mll": entropy[2],
                "m2_mll_minus_epm": m2[2] - m2[0],
                "coherence_l1": coherence_l1(0.5 * (phi_rho + phi_rho.swapaxes(-1, -2).conj()),
                                             basis=spec_f)}
        for name, values in part.items():
            columns[name][idx] = values
    return columns


def three_level_experiment(config: ThreeLevelConfig,
                           state: InitialStateSpec | np.ndarray | None = None,
                           t_samples=None) -> ThreeLevelSeries:
    """Evolve the three-level system and evaluate all protocol quantities.

    The channels from 0 to every sample time come from one integrator
    pass as one batch.  The exponential averages, second-moment split,
    entropies of the three measurement schemes and final coherence are
    contractions of one population table (:func:`_series_columns`) per
    level pattern of the final measurement Hamiltonian, one group of the
    stacked :func:`~fluctua.qcore.spectral_decompose` at a time; the public
    protocol functions, not called here, stay an independent check.  The
    measurement Hamiltonian at each end follows
    ``config.measurement_convention``: "full" uses the instantaneous
    driven Hamiltonian, "bare" the static part only, which makes one
    group.  The initial state is validated once, before the integrator runs.
    """
    if t_samples is None:
        t_samples = np.linspace(0.0, config.t_max, 101)
    times = np.asarray([float(t) for t in t_samples])
    if times.size == 0:
        raise InvalidConfig("need at least one sample time")
    if not np.isfinite(times).all():
        raise InvalidConfig("sample times must be finite")
    if times[0] < 0.0 or times[-1] > config.t_max + 1e-12:
        raise InvalidConfig("sample times must lie in [0, t_max]")

    schedule, jumps = three_level_model(config)
    spec_i = spectral_decompose(_measurement_hamiltonian(config, schedule, 0.0))

    if state is None:
        state = InitialStateSpec()
    if isinstance(state, InitialStateSpec):
        rho_i, spec_echo, beta_ref = _initial_state(spec_i, state), state, state.beta_ref
    else:
        rho_i, spec_echo, beta_ref = state, None, InitialStateSpec().beta_ref
    rho_i = density_spectrum(rho_i)

    series = propagator_series(schedule, jumps, times, step=config.step)
    groups = ([(np.arange(times.size), spec_i)] if config.measurement_convention == "bare"
              else spectral_decompose(schedule.at(times)))

    columns = {"t": times.copy(),
               **_series_columns(rho_i, series, groups, spec_i, beta_ref)}
    return ThreeLevelSeries(times, columns, config, spec_echo, beta_ref, rho_i.matrix)


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class ExperimentPreset:
    """A named, fully-parameterized experiment run."""

    name: str
    description: str
    kind: str  # "two_qubit" or "three_level"
    two_qubit: TwoQubitExperimentConfig | None = None
    three_level: ThreeLevelConfig | None = None
    initial_state: InitialStateSpec | None = None
    plot_columns: tuple[str, ...] = ()


PRESETS: dict[str, ExperimentPreset] = {
    "fig2-sweep": ExperimentPreset(
        name="fig2-sweep",
        description="Characteristic functions of the qubit-pair circuit "
                    "across the controlled-rotation sweep",
        kind="two_qubit",
        two_qubit=TwoQubitExperimentConfig(),
        plot_columns=("G_TPM", "G_EPM", "G_EPM_diag", "G_EPM_coh")),
    "figS2-jarzynski-closed": ExperimentPreset(
        name="figS2-jarzynski-closed",
        description="Exponential energy-change averages for the driven "
                    "three-level system without baths",
        kind="three_level",
        three_level=ThreeLevelConfig(gamma=0.0),
        initial_state=InitialStateSpec(beta_ref=0.6, coherence_seed=11),
        plot_columns=("jarzynski_epm", "jarzynski_diagonal",
                      "jarzynski_coherence", "jarzynski_tpm")),
    "figS2b-jarzynski-open": ExperimentPreset(
        name="figS2b-jarzynski-open",
        description="Exponential energy-change averages with the three "
                    "baths attached",
        kind="three_level",
        three_level=ThreeLevelConfig(),
        initial_state=InitialStateSpec(beta_ref=0.5, coherence_seed=11),
        plot_columns=("jarzynski_epm", "jarzynski_diagonal",
                      "jarzynski_coherence", "jarzynski_tpm")),
    "figS3-second-moment": ExperimentPreset(
        name="figS3-second-moment",
        description="Share of the second energy moment carried by initial "
                    "coherence along the driven dissipative evolution",
        kind="three_level",
        three_level=ThreeLevelConfig(),
        initial_state=InitialStateSpec(beta_ref=0.5, coherence_seed=129),
        plot_columns=("m2_coherence_fraction",)),
    "figS4-entropy": ExperimentPreset(
        name="figS4-entropy",
        description="Shannon entropies of the three measurement schemes "
                    "under the double-frequency drive",
        kind="three_level",
        three_level=ThreeLevelConfig(drive_form="double_frequency"),
        initial_state=InitialStateSpec(beta_ref=0.5, coherence_seed=11),
        plot_columns=("entropy_epm", "entropy_tpm", "entropy_mll")),
    "figS5-mll-second-moment": ExperimentPreset(
        name="figS5-mll-second-moment",
        description="Second-moment gap between the eigenstate-mixture "
                    "scheme and the end-point scheme",
        kind="three_level",
        three_level=ThreeLevelConfig(),
        initial_state=InitialStateSpec(beta_ref=0.5, coherence_seed=11),
        plot_columns=("m2_mll_minus_epm",)),
    "figS6-entropy-mll": ExperimentPreset(
        name="figS6-entropy-mll",
        description="Entropy excess of the end-point scheme over the "
                    "eigenstate-mixture scheme",
        kind="three_level",
        three_level=ThreeLevelConfig(),
        initial_state=InitialStateSpec(beta_ref=0.5, coherence_seed=11),
        plot_columns=("entropy_epm", "entropy_mll")),
}
