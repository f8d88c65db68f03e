"""Joint energy statistics under three measurement schemes.

All three schemes assign probabilities to pairs (initial level, final
level) of a system evolving through a channel between two energy
measurements described by spectral decompositions of the initial and
final Hamiltonians.

* End-point measurement (EPM): the evolved state is measured once, at
  the end; the initial energy record is obtained separately on a fresh
  copy of the same preparation.  The joint factorizes into the product
  of its marginals and initial-basis coherences influence the final
  statistics.
* Two-point measurement (TPM): a projective energy measurement happens
  first, so the state entering the channel is an eigenprojector.  For a
  degenerate level the post-measurement state is the projector
  normalized by its rank.
* Eigenstate-resolved measurement (MLL): the initial density operator
  is unravelled into its eigenstates; each eigenstate is prepared,
  measured, and evolved separately, and the records are mixed with the
  eigenvalue weights.

Each scheme is therefore the weighted ensemble of states it sends through
the channel: EPM sends the state itself with weight one, TPM each
rank-normalized eigenprojector P_l/r_l with its level population, MLL
each eigenstate with its eigenvalue.  Every protocol quantity here (the
joint, the operator-form characteristic function and the shot sampler)
is one contraction over that ensemble, sum_s w_s f(sigma_s) g(Phi[sigma_s]),
so the schemes differ only in the ensemble they build.

Distributions of the energy change are derived from the joints, and the
characteristic functions are also available in operator (trace) form,
which is how the exponential fluctuation relations are evaluated.

Every quantity also broadcasts over a batch of T channels: a
:class:`~fluctua.channels.SuperoperatorChannel` holding a (T, d^2, d^2)
stack, optionally with a final decomposition batched the same way (a
group that a stacked :func:`~fluctua.qcore.spectral_decompose` returns).
The ensemble is built once, every member is mapped through the whole
stack in one product, and each result gains a leading T axis: scalars
become (T,) arrays, joint tables (T, levels_i, levels_f).  The unbatched
call is the same code without that axis.

Every entry point that takes one initial state validates a matrix on
entry and raises ``ValueError`` on a non-state; a
:class:`~fluctua.qcore.DensityState` is taken as already validated.  The
last matrix validated is remembered: a matrix with the same shape and
bytes reuses its spectrum, so one raw state passed to several entry
points is validated once.  :func:`~fluctua.qcore.density_spectrum` stays
the explicit way to validate a state once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .qcore import (
    DensityState,
    SpectralDecomposition,
    as_complex_matrix,
    coherence_split,
    density_spectrum,
    dephase,
    matrix_phase_exp,
    spectral_sum,
)
from .sampling import _rng

__all__ = [
    "NegativeProbability",
    "SupportMismatch",
    "DegenerateEigenbasis",
    "NonThermalDiagonal",
    "JointEnergyDistribution",
    "EnergyChangeDistribution",
    "JarzynskiReport",
    "SecondMomentSplit",
    "initial_probabilities",
    "epm_joint",
    "tpm_joint",
    "mll_joint",
    "protocol_joint",
    "delta_distribution",
    "moment",
    "epm_second_moment_split",
    "characteristic_function",
    "characteristic_of_distribution",
    "characteristic_split",
    "jarzynski",
    "shannon_entropy",
    "mutual_information",
    "sample_shots",
    "convexity_witness",
]

# A probability down to -CLAMP_TOL is float noise and clamps to zero.
CLAMP_TOL = 1e-12
# Energy changes closer than this times the summed energy scales of the two
# measurements are one value (closer than 1e-15 when both scales are zero).
MERGE_TOL = 1e-9
# A dephased state within this of the Gibbs state (largest entry) is thermal.
THERMAL_TOL = 1e-8
# MLL drops eigenstates whose weight is at or below this.
EIGEN_CUTOFF = 1e-12

PROTOCOLS = ("EPM", "TPM", "MLL")

# The shot sampler's picks are uint8 counts.
MAX_LEVELS = 255


class NegativeProbability(ValueError):
    """A probability below the clamping tolerance, i.e. a genuine negativity."""


class SupportMismatch(ValueError):
    """Reference distribution vanishes where the compared one does not."""


class DegenerateEigenbasis(UserWarning):
    """Repeated nonzero eigenvalues make the eigenstate unravelling ambiguous."""


class NonThermalDiagonal(UserWarning):
    """The state's diagonal is not the Gibbs distribution the relation assumes."""


def _scalar(x, kind=float):
    """A 0-d result as a Python number; a batched result stays an array."""
    return x if isinstance(x, np.ndarray) and x.ndim else kind(x)


def _trace(m: np.ndarray) -> np.ndarray:
    """Trace of a matrix or of each matrix of a stack."""
    return np.trace(m, axis1=-2, axis2=-1)


def _clamp(p: np.ndarray) -> np.ndarray:
    """Zero out float-noise negatives; anything more negative, or non-finite, is an error."""
    p = np.array(p, dtype=float)
    low, high = (p.min(), p.max()) if p.size else (0.0, 0.0)
    # a NaN anywhere makes both extremes NaN
    if not (math.isfinite(low) and math.isfinite(high)):
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(p))[0])
        raise ValueError(f"non-finite probability {p[index]} at index {index}")
    if low < -CLAMP_TOL:
        raise NegativeProbability(f"probability {low:.3e} below -{CLAMP_TOL:g}")
    p[p < 0.0] = 0.0
    return p


@dataclass
class JointEnergyDistribution:
    """Joint probabilities over (initial level, final level) pairs.

    ``probs[l, k]`` is the probability of starting at ``initial_energies[l]``
    and ending at ``final_energies[k]``.  Construction clamps float-noise
    negatives to zero and normalizes the total to one (an off-by-more than
    1e-9 total indicates a bug upstream and raises).  ``n_shots`` is set on
    empirical distributions produced by :func:`sample_shots`, and ``exact``
    to the joint their shots were drawn from.  A batch of tables has
    ``probs`` (T, levels_i, levels_f), with energy axes given once or per table.
    """

    initial_energies: np.ndarray
    final_energies: np.ndarray
    probs: np.ndarray
    protocol: str
    n_shots: int | None = None
    exact: JointEnergyDistribution | None = None

    def __post_init__(self):
        self.initial_energies = np.asarray(self.initial_energies, dtype=float)
        self.final_energies = np.asarray(self.final_energies, dtype=float)
        p = _clamp(self.probs)
        if p.shape[-2:] != (self.initial_energies.shape[-1], self.final_energies.shape[-1]):
            raise ValueError("probability table shape does not match energy axes")
        total = p.sum(axis=(-2, -1))
        worst = total.flat[np.abs(total - 1.0).argmax()]
        if abs(worst - 1.0) > 1e-9:
            raise ValueError(f"joint probabilities sum to {worst:.12g}, not 1")
        self.probs = p / total[..., None, None]
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol tag {self.protocol!r}")

    def initial_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=-1)

    def final_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=-2)

    def delta_grid(self) -> np.ndarray:
        """Energy change for every cell, same shape as ``probs``."""
        grid = self.final_energies[..., None, :] - self.initial_energies[..., :, None]
        return grid if grid.shape == self.probs.shape else np.broadcast_to(grid, self.probs.shape)


@dataclass
class EnergyChangeDistribution:
    """Probabilities over distinct energy-change values, ascending.

    Values are distinct to :data:`MERGE_TOL` (see :func:`delta_distribution`).
    A batch holds one distribution per row of ``values``/``probs``; rows
    with fewer values than the longest are padded with zero-probability
    entries of value 0.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)


def _populations(states, decomposition: SpectralDecomposition) -> np.ndarray:
    """Level populations Re tr(P_l sigma) of a (..., members, d, d) stack, clamped."""
    return _clamp(np.einsum("...lij,...sji->...sl", decomposition.projectors, states).real)


# The last plain matrix _state validated: its key (shape, bytes) and its
# spectrum, made read-only.  Replaced whole, in one assignment, so a reader
# always sees a key together with its own spectrum.
_last_state = (None, None, None)


def _state(rho) -> DensityState:
    """The protocols' one state intake.

    A :class:`DensityState` is taken as it is.  A matrix is validated by
    :func:`~fluctua.qcore.density_spectrum`, unless its shape and bytes
    equal those of the last matrix validated here: then the caller's own
    matrix is returned with that matrix's spectrum, so a user passing one
    raw state to several protocol functions pays for one validation.  The
    stored spectrum is read-only, and a matrix that fails validation is not
    stored.
    """
    global _last_state
    if isinstance(rho, DensityState):
        return rho
    a = as_complex_matrix(rho, "density operator")
    key = (a.shape, a.tobytes())
    last_key, vals, vecs = _last_state
    if key == last_key:
        return DensityState(a, vals, vecs)
    state = density_spectrum(a)
    state.eigenvalues.flags.writeable = False
    state.eigenvectors.flags.writeable = False
    _last_state = (key, state.eigenvalues, state.eigenvectors)
    return state


def initial_probabilities(rho, decomposition: SpectralDecomposition) -> np.ndarray:
    """Level populations Tr(rho P_l) of a state, clamped to [0, 1]."""
    return _populations(_state(rho).matrix[None], decomposition)[0]


def _eigen_mixture(vals: np.ndarray, vecs: np.ndarray):
    """A state's eigendecomposition as (weights, |s><s| stack), small weights dropped.

    Eigenvalues at or below :data:`EIGEN_CUTOFF` are dropped and the kept
    weights renormalized.  Repeated kept eigenvalues trigger
    :class:`DegenerateEigenbasis` since any basis of the degenerate
    subspace is then equally valid.
    """
    keep = vals > EIGEN_CUTOFF
    w = vals[keep]
    v = vecs[:, keep]
    if w.size == 0:
        raise ValueError("state has no eigenvalue above the cutoff")
    if w.size > 1 and np.min(np.diff(np.sort(w))) <= 1e-10:
        warnings.warn("repeated nonzero eigenvalues; eigenstate unravelling "
                      "is basis dependent", DegenerateEigenbasis)
    return w / w.sum(), np.einsum("is,js->sij", v, v.conj())


def _ensemble(protocol: str, state, spec_i: SpectralDecomposition):
    """The weighted states ``(weights, states)`` a scheme sends through the channel.

    ``state`` is a :class:`~fluctua.qcore.DensityState`.  EPM sends the state itself,
    TPM each rank-normalized eigenprojector weighted by its level
    population, MLL each eigenstate of the state weighted by its
    eigenvalue.  ``states`` is stacked ``(members, d, d)``.
    """
    r, vals, vecs = state
    if protocol == "EPM":
        return np.ones(1), r[None]
    if protocol == "TPM":
        return _populations(r[None], spec_i)[0], spec_i.projectors / spec_i.ranks[:, None, None]
    if protocol == "MLL":
        return _eigen_mixture(vals, vecs)
    raise ValueError(f"unknown protocol tag {protocol!r}")


def _member_populations(protocol: str, rho, channel: Channel,
                        spec_i: SpectralDecomposition, spec_f: SpectralDecomposition):
    """Ensemble weights with each member's initial- and final-level populations."""
    weights, states = _ensemble(protocol, _state(rho), spec_i)
    return (weights, _populations(states, spec_i),
            _populations(channel.apply_matrix(states), spec_f))


def protocol_joint(protocol: str, rho, channel: Channel,
                   spec_i: SpectralDecomposition,
                   spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    """Joint of a scheme: sum_s w_s tr(P_l sigma_s) tr(P_k Phi[sigma_s]) over its ensemble."""
    return _members_joint(protocol, _member_populations(protocol, rho, channel, spec_i, spec_f),
                          spec_i, spec_f)


def _members_joint(protocol: str, members, spec_i: SpectralDecomposition,
                   spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    weights, before, after = members
    probs = np.einsum("s,sl,...sk->...lk", weights, before, after)
    return JointEnergyDistribution(spec_i.energies, spec_f.energies, probs, protocol)


def epm_joint(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    """End-point scheme: product of the initial and evolved-state marginals."""
    return protocol_joint("EPM", rho, channel, spec_i, spec_f)


def tpm_joint(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    """Two-point scheme with rank-normalized post-measurement projectors."""
    return protocol_joint("TPM", rho, channel, spec_i, spec_f)


def mll_joint(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    """Eigenstate-resolved scheme: unravel, measure each eigenstate, remix."""
    return protocol_joint("MLL", rho, channel, spec_i, spec_f)


def _merge_groups(values: np.ndarray, tol):
    """Sort ``values`` along the last axis and label its merged groups.

    Returns ``(order, labels)``: the stable sort order, and for each sorted
    value the index of its group, counted from 0 in each row and offset by
    row * N over the rows of a batch, so the labels of all rows index one
    flat array of segment sums.  A sorted value starts a new group when it
    exceeds the previous one by more than ``tol`` (a scalar, or one per
    row), so a chain of close neighbors is one group even when the chain
    spans more than ``tol``.
    """
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    starts = ~(np.diff(ordered, axis=-1) <= np.asarray(tol)[..., None])
    n = values.shape[-1]
    rows = np.arange(values.size // n).reshape(values.shape[:-1])
    labels = np.concatenate([np.zeros(values.shape[:-1] + (1,), dtype=int),
                             np.cumsum(starts, axis=-1)], axis=-1)
    return order, labels + n * rows[..., None]


def _segment_sums(labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sums of ``weights`` per label of :func:`_merge_groups`, shaped like ``labels``."""
    return np.bincount(labels.ravel(), weights.ravel(),
                       minlength=labels.size).reshape(labels.shape)


def delta_distribution(joint: JointEnergyDistribution) -> EnergyChangeDistribution:
    """Collapse the joint onto the energy change E_final - E_initial.

    Sorted cell values closer than :data:`MERGE_TOL` times the summed
    energy scales to their neighbor are combined, a chain of them into one;
    the merged value is the probability-weighted mean, so moments are
    preserved to first order in the merge width.  A group of zero mass
    takes the plain mean of its values.
    """
    return _collapse(joint.initial_energies, joint.final_energies, joint.probs)


def _collapse(initial_energies, final_energies, probs: np.ndarray) -> EnergyChangeDistribution:
    """:func:`delta_distribution` of tables (..., levels_i, levels_f), each row on its own."""
    # one tolerance per row
    scale = (np.max(np.abs(final_energies), axis=-1, initial=0.0)
             + np.max(np.abs(initial_energies), axis=-1, initial=0.0))
    tols = np.where(scale > 0, MERGE_TOL * scale, 1e-15)
    deltas = final_energies[..., None, :] - initial_energies[..., :, None]
    if deltas.shape != probs.shape:
        deltas = np.broadcast_to(deltas, probs.shape)
    deltas = deltas.reshape(*probs.shape[:-2], -1)
    if deltas.shape[-1] == 0:
        return EnergyChangeDistribution(np.array([]), np.array([]))
    order, labels = _merge_groups(deltas, tols)
    deltas = np.take_along_axis(deltas, order, axis=-1)
    probs = np.take_along_axis(probs.reshape(deltas.shape), order, axis=-1)
    mass = _segment_sums(labels, probs)
    count = _segment_sums(labels, np.ones(deltas.shape))
    values = np.divide(_segment_sums(labels, deltas), count,
                       out=np.zeros(deltas.shape), where=count > 0)
    np.divide(_segment_sums(labels, probs * deltas), mass, out=values, where=mass > 0)
    if deltas.ndim == 1:
        groups = labels[-1] + 1
        values, mass = values[:groups], mass[:groups]
    return EnergyChangeDistribution(values, mass)


def moment(distribution, n: int) -> float:
    """n-th raw moment of the energy change."""
    if isinstance(distribution, JointEnergyDistribution):
        return _scalar((distribution.probs * distribution.delta_grid() ** n).sum(axis=(-2, -1)))
    return _scalar((distribution.probs * distribution.values ** n).sum(axis=-1))


# ---------------------------------------------------------------------------
# characteristic functions


def characteristic_of_distribution(distribution, u: complex) -> complex:
    """sum_j p_j exp(i u dE_j); accepts a joint or an energy-change distribution."""
    if isinstance(distribution, JointEnergyDistribution):
        return _scalar((distribution.probs * np.exp(1j * u * distribution.delta_grid()))
                       .sum(axis=(-2, -1)), complex)
    return _scalar((distribution.probs * np.exp(1j * u * distribution.values)).sum(axis=-1),
                   complex)


def characteristic_function(protocol: str, rho, channel: Channel,
                            spec_i: SpectralDecomposition,
                            spec_f: SpectralDecomposition, u: complex) -> complex:
    """Operator-form characteristic function <exp(i u dE)> of a protocol.

    Evaluated over the scheme's ensemble as
    sum_s w_s tr(exp(-iuH_i) sigma_s) tr(exp(iuH_f) Phi[sigma_s]), from
    traces against exp(+-iuH) rather than from the joint table, so it
    serves as an independent cross-check of the distributions and extends
    to complex u (u = i beta gives the exponential averages of the
    fluctuation relations).
    """
    weights, states = _ensemble(protocol, _state(rho), spec_i)
    return _characteristic(weights, states, channel, spec_i, spec_f, u)


def _characteristic(weights, states, channel: Channel, spec_i: SpectralDecomposition,
                    spec_f: SpectralDecomposition, u: complex) -> complex:
    """sum_s w_s tr(exp(-iuH_i) sigma_s) tr(exp(iuH_f) Phi[sigma_s]) over an ensemble."""
    exp_i = matrix_phase_exp(spec_i, -1j * u)
    exp_f = matrix_phase_exp(spec_f, 1j * u)
    front = _trace(exp_i @ states)
    back = _trace(exp_f[..., None, :, :] @ channel.apply_matrix(states))
    return _scalar(np.sum(weights * front * back, axis=-1), complex)


def characteristic_split(rho, channel: Channel, spec_i: SpectralDecomposition,
                         spec_f: SpectralDecomposition, u: complex, basis=None):
    """EPM characteristic function split into population and coherence parts.

    Returns ``(g_pop, g_coh)`` with g_pop built from the dephased state and
    g_coh carrying everything the initial coherences contribute.  When the
    dephasing basis diagonalizes the initial Hamiltonian (the intended
    use), g_pop + g_coh equals the EPM characteristic function.
    """
    split = coherence_split(_state(rho), basis=basis)
    exp_i = matrix_phase_exp(spec_i, -1j * u)
    exp_f = matrix_phase_exp(spec_f, 1j * u)
    front = _trace(exp_i @ split.populations)
    g_pop = front * _trace(exp_f @ channel.apply_matrix(split.populations))
    g_coh = front * _trace(exp_f @ channel.apply_matrix(split.coherences))
    return _scalar(g_pop, complex), _scalar(g_coh, complex)


# ---------------------------------------------------------------------------
# moments of the energy change in operator form


@dataclass
class SecondMomentSplit:
    """<dE^2> decomposed into dephased-state and coherence contributions."""

    total: float
    population_part: float
    coherence_part: float


def epm_second_moment_split(rho, channel: Channel, spec_i: SpectralDecomposition,
                            spec_f: SpectralDecomposition, basis=None) -> SecondMomentSplit:
    """Split <dE^2> under EPM into the dephased part plus coherence terms.

    The population part is the second moment the protocol would give for
    the dephased state; the coherence part is
    tr(H_f^2 Phi[chi]) - 2 tr(Phi[chi] H_f) tr(P H_i).
    """
    split = coherence_split(_state(rho), basis=basis)
    h_i = spec_i.reconstruct()
    h_f = spec_f.reconstruct()
    h_i2 = spectral_sum(spec_i.energies ** 2, spec_i)
    h_f2 = spectral_sum(spec_f.energies ** 2, spec_f)
    pops = split.populations
    chi = split.coherences
    phi_pops = channel.apply_matrix(pops)
    phi_chi = channel.apply_matrix(chi)
    mean_i_pop = _trace(pops @ h_i).real
    population = (_trace(h_i2 @ pops).real + _trace(h_f2 @ phi_pops).real
                  - 2.0 * _trace(phi_pops @ h_f).real * mean_i_pop)
    coherence = (_trace(h_f2 @ phi_chi).real
                 - 2.0 * _trace(phi_chi @ h_f).real * mean_i_pop)
    return SecondMomentSplit(population + coherence, population, coherence)


# ---------------------------------------------------------------------------
# exponential fluctuation relation


@dataclass
class JarzynskiReport:
    """Exponential average <exp(-beta(dE - dF))> and its decomposition.

    ``total`` is the characteristic function at u = i*beta times
    exp(beta dF).  ``diagonal_part``/``coherence_part`` are the
    dimension-scaled overlaps d tr(rho_f_th Phi[rho_i_th]) and
    d tr(rho_f_th Phi[chi]); they sum to ``total`` when the state's
    diagonal is thermal at this beta, which is the relation's regime.
    """

    beta: float
    delta_free_energy: float
    total: float
    diagonal_part: float
    coherence_part: float


def _partition_terms(spec: SpectralDecomposition, beta: float):
    """Partition function and Gibbs weights per level (rank-aware)."""
    w = np.exp(-beta * spec.energies)
    return np.sum(w * spec.ranks, axis=-1), w


def _warn_unless_thermal(dephased: np.ndarray, gibbs: np.ndarray) -> None:
    """Warn :class:`NonThermalDiagonal` unless a dephased state is the Gibbs state."""
    if float(np.max(np.abs(dephased - gibbs))) > THERMAL_TOL:
        warnings.warn("state diagonal is not the Gibbs distribution at this "
                      "beta; the decomposition identity does not apply",
                      NonThermalDiagonal)


def jarzynski(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition, beta: float, basis=None) -> JarzynskiReport:
    """Exponential average of the energy change under the end-point scheme.

    The decomposition assumes the dephased initial state is the Gibbs
    state exp(-beta H_i)/Z_i; a :class:`NonThermalDiagonal` warning is
    issued (and the parts no longer sum to the total) when it is not, to
    :data:`THERMAL_TOL`.
    """
    state = _state(rho)
    d = state.matrix.shape[0]
    z_i, w_i = _partition_terms(spec_i, beta)
    z_f, w_f = _partition_terms(spec_f, beta)
    rho_i_th = spectral_sum(w_i / z_i, spec_i)
    rho_f_th = spectral_sum(w_f / z_f[..., None], spec_f)

    split = coherence_split(state, basis)
    _warn_unless_thermal(split.populations, rho_i_th)

    if beta != 0.0:
        delta_f = -np.log(z_f / z_i) / beta
    else:
        # beta -> 0 limit of -ln(Z_f/Z_i)/beta
        delta_f = (np.sum(spec_f.energies * spec_f.ranks, axis=-1)
                   - np.sum(spec_i.energies * spec_i.ranks, axis=-1)) / d

    weights, states = _ensemble("EPM", state, spec_i)
    g_total = _characteristic(weights, states, channel, spec_i, spec_f, 1j * beta)
    total = (g_total * (z_i / z_f)).real
    diagonal = d * _trace(rho_f_th @ channel.apply_matrix(rho_i_th)).real
    coherence = d * _trace(rho_f_th @ channel.apply_matrix(split.coherences)).real
    return JarzynskiReport(beta, _scalar(delta_f), _scalar(total), _scalar(diagonal),
                           _scalar(coherence))


# ---------------------------------------------------------------------------
# entropies


def shannon_entropy(distribution) -> float:
    """Shannon entropy (natural log) of a joint or energy-change distribution.

    A plain array counts as one distribution over all its entries.
    """
    if isinstance(distribution, JointEnergyDistribution):
        p = distribution.probs
        p = p.reshape(*p.shape[:-2], -1)
    elif isinstance(distribution, EnergyChangeDistribution):
        p = distribution.probs
    else:
        p = np.asarray(distribution, dtype=float).reshape(-1)
    # 0 log 0 = 0: the log of a nonpositive entry is left at 0
    logs = np.log(p, out=np.zeros(p.shape), where=p > 0)
    # 0.0 - s, not -s: a point mass has entropy +0.0, not -0.0
    return _scalar(0.0 - (p * logs).sum(axis=-1))


def mutual_information(p: JointEnergyDistribution,
                       q: JointEnergyDistribution) -> float:
    """Relative entropy sum p log(p/q) over the shared outcome grid.

    With ``q`` the product of ``p``'s marginals this is the mutual
    information between the two energy records.  Raises
    :class:`SupportMismatch` when q vanishes on p's support or the energy
    grids differ.
    """
    if (p.initial_energies.size != q.initial_energies.size
            or p.final_energies.size != q.final_energies.size
            or np.max(np.abs(p.initial_energies - q.initial_energies)) > 1e-9
            or np.max(np.abs(p.final_energies - q.final_energies)) > 1e-9):
        raise SupportMismatch("distributions live on different energy grids")
    pi = p.probs.reshape(-1)
    qi = q.probs.reshape(-1)
    mask = pi > 0
    if np.any(qi[mask] <= 0):
        raise SupportMismatch("reference distribution vanishes on the support")
    return float(np.dot(pi[mask], np.log(pi[mask] / qi[mask])))


# ---------------------------------------------------------------------------
# finite-shot emulation


def _draw(rngs, probs: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """A uint8 index per shot j of stream t, drawn from row ``rows[t, j]`` of ``probs``.

    ``u`` is the call's (T, n_shots) uniform buffer, which every draw of
    the call reuses: row t is refilled by one ``rngs[t].random(n_shots)``,
    so each stream is read exactly as by a draw of its own.  ``probs`` is
    (rows, K), shared by the batch, or (T, rows, K) with a table per batch
    member.  A pick is the number of the row's cumulative sums, the last
    one excluded, that are at or below the uniform, so a uniform above a
    total of 1 - 1e-16 picks the last index instead of running past it.
    With one row the sums of member t are compared with row t of ``u`` and
    ``rows`` is not read; with more, the count against each row r is zeroed
    where ``rows != r`` and added, so each shot keeps the count of its own
    row.  No index array is built and nothing is gathered.
    """
    n_rows, n_levels = probs.shape[-2:]
    if n_levels > MAX_LEVELS:
        raise ValueError(f"the shot sampler draws from at most {MAX_LEVELS} "
                         f"levels, not {n_levels}")
    below = np.cumsum(probs, axis=-1).reshape(-1, n_rows, n_levels)[..., None]
    for t, rng in enumerate(rngs):
        u[t] = rng.random(u.shape[1])
    picked = np.zeros(u.shape, dtype=np.uint8)
    count = picked if n_rows == 1 else np.empty_like(picked)
    hit = np.empty(u.shape, dtype=bool)
    for r in range(n_rows):
        count.fill(0)
        for k in range(n_levels - 1):
            count += np.less_equal(below[:, r, k], u, out=hit)
        if n_rows > 1:
            count *= np.equal(rows, r, out=hit)
            picked += count
    return picked


def sample_shots(protocol: str, rho, channel: Channel,
                 spec_i: SpectralDecomposition, spec_f: SpectralDecomposition,
                 n_shots: int, gen) -> JointEnergyDistribution:
    """Empirical joint from ``n_shots`` runs of the protocol's actual flow.

    Every shot draws its ensemble member, then its initial level from that
    member, then its final level from the member's evolved state.  EPM
    has one member and draws no member; a TPM member is the level it
    measured, so TPM draws no separate initial level; MLL draws all three.
    All draws come from one stream, ``gen`` resolved once.  A batch of T
    channels takes a sequence of T streams as ``gen`` and gives T tables:
    table t holds exactly what a call with channel t and stream t draws.
    The result carries ``n_shots`` so shot-noise standard errors can be
    attached downstream, and as ``exact`` the :func:`protocol_joint` it draws from.

    The call allocates one (T, n_shots) float64 uniform buffer, and every
    draw refills it (see :func:`_draw`).  Picks are uint8, and the buffer
    then holds the codes ``level * levels_f + final + t * levels_i * levels_f``
    of stream t, all tables in one bincount.  Each stream still gives one
    ``random(n_shots)`` per draw, in the order member, level, final, so the
    tables are the same bit for bit as from one array per draw.  A draw
    has at most :data:`MAX_LEVELS` outcomes; more raise ``ValueError``.
    """
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    weights, before, after = members = _member_populations(protocol, rho, channel, spec_i, spec_f)
    batch = after.shape[:-2]
    rngs = [_rng(g) for g in (gen if isinstance(gen, (list, tuple)) else [gen])]
    if len(rngs) != math.prod(batch):
        raise ValueError(f"{len(rngs)} streams for a batch of {math.prod(batch)} channels")
    u = np.empty((len(rngs), n_shots))
    member = None if protocol == "EPM" else _draw(rngs, weights[None], None, u)
    level = member if protocol == "TPM" else _draw(rngs, before, member, u)
    final = _draw(rngs, after, member, u)
    n_i, n_f = spec_i.energies.shape[-1], spec_f.energies.shape[-1]
    codes = np.multiply(level, n_f, out=u.view(np.int64), dtype=np.int64)  # the uniforms are spent
    codes += final
    codes += n_i * n_f * np.arange(len(rngs))[:, None]
    counts = np.bincount(codes.ravel(), minlength=len(rngs) * n_i * n_f)
    return JointEnergyDistribution(spec_i.energies, spec_f.energies,
                                   counts.reshape(batch + (n_i, n_f)) / n_shots, protocol,
                                   n_shots=n_shots,
                                   exact=_members_joint(protocol, members, spec_i, spec_f))


# ---------------------------------------------------------------------------
# non-convexity of the coherence contribution


def convexity_witness(rho1, rho2, zeta: float, channel: Channel,
                      spec_i: SpectralDecomposition, spec_f: SpectralDecomposition,
                      basis=None) -> float:
    """Total-variation gap showing the coherence part is not mixture-linear.

    The coherence contribution to the EPM energy-change distribution is
    P(rho) - P(dephase(rho)), a signed measure.  The witness compares that
    contribution for the mixture zeta rho1 + (1-zeta) rho2 against the
    mixture of the individual contributions; a strictly positive value
    certifies the map rho -> coherence part is not affine.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")

    def coherent_cells(rho):
        full = epm_joint(rho, channel, spec_i, spec_f).probs
        pops = epm_joint(dephase(rho, basis), channel, spec_i, spec_f).probs
        return full - pops

    mix = zeta * as_complex_matrix(rho1) + (1 - zeta) * as_complex_matrix(rho2)
    gap_cells = coherent_cells(mix) - (zeta * coherent_cells(rho1)
                                       + (1 - zeta) * coherent_cells(rho2))
    # aggregate cells by energy change before taking the total variation
    gap = _collapse(spec_i.energies, spec_f.energies, gap_cells)
    return 0.5 * float(np.sum(np.abs(gap.probs)))
