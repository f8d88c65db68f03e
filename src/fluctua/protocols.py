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

Distributions of the energy change are derived from the joints, and the
characteristic functions are also available in operator (trace) form,
which is how the exponential fluctuation relations are evaluated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .qcore import (
    SpectralDecomposition,
    as_complex_matrix,
    coherence_split,
    dephase,
    hermitian_eig,
    matrix_phase_exp,
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

CLAMP_TOL = 1e-12

PROTOCOLS = ("EPM", "TPM", "MLL")


class NegativeProbability(ValueError):
    """A probability below the clamping tolerance, i.e. a genuine negativity."""


class SupportMismatch(ValueError):
    """Reference distribution vanishes where the compared one does not."""


class DegenerateEigenbasis(UserWarning):
    """Repeated nonzero eigenvalues make the eigenstate unravelling ambiguous."""


class NonThermalDiagonal(UserWarning):
    """The state's diagonal is not the Gibbs distribution the relation assumes."""


def _clamp(p: np.ndarray, tol: float = CLAMP_TOL) -> np.ndarray:
    """Zero out float-noise negatives; anything more negative is an error."""
    p = np.array(p, dtype=float)
    low = p.min() if p.size else 0.0
    if low < -tol:
        raise NegativeProbability(f"probability {low:.3e} below -{tol:g}")
    p[p < 0.0] = 0.0
    return p


@dataclass
class JointEnergyDistribution:
    """Joint probabilities over (initial level, final level) pairs.

    ``probs[l, k]`` is the probability of starting at ``initial_energies[l]``
    and ending at ``final_energies[k]``.  Construction clamps float-noise
    negatives to zero and normalizes the total to one (an off-by-more than
    1e-9 total indicates a bug upstream and raises).  ``n_shots`` is set on
    empirical distributions produced by :func:`sample_shots`.
    """

    initial_energies: np.ndarray
    final_energies: np.ndarray
    probs: np.ndarray
    protocol: str
    n_shots: int | None = None

    def __post_init__(self):
        self.initial_energies = np.asarray(self.initial_energies, dtype=float)
        self.final_energies = np.asarray(self.final_energies, dtype=float)
        p = _clamp(self.probs)
        if p.shape != (self.initial_energies.size, self.final_energies.size):
            raise ValueError("probability table shape does not match energy axes")
        total = p.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint probabilities sum to {total:.12g}, not 1")
        self.probs = p / total
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol tag {self.protocol!r}")

    def initial_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def final_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def delta_grid(self) -> np.ndarray:
        """Energy change for every cell, same shape as ``probs``."""
        return self.final_energies[None, :] - self.initial_energies[:, None]


@dataclass
class EnergyChangeDistribution:
    """Probabilities over distinct energy-change values, ascending."""

    values: np.ndarray
    probs: np.ndarray
    merge_tol: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)


def initial_probabilities(rho, decomposition: SpectralDecomposition) -> np.ndarray:
    """Level populations Tr(rho P_l) of a state, clamped to [0, 1]."""
    r = as_complex_matrix(rho, "state")
    p = np.array([np.trace(proj @ r).real for proj in decomposition.projectors])
    return _clamp(p)


def epm_joint(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    """End-point scheme: product of the initial and evolved-state marginals."""
    p_i = initial_probabilities(rho, spec_i)
    p_f = initial_probabilities(channel.apply(rho), spec_f)
    return JointEnergyDistribution(spec_i.energies, spec_f.energies,
                                   np.outer(p_i, p_f), "EPM")


def tpm_joint(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    """Two-point scheme with rank-normalized post-measurement projectors."""
    p_i = initial_probabilities(rho, spec_i)
    rows = []
    for proj, rank in zip(spec_i.projectors, spec_i.ranks):
        evolved = channel.apply(proj / rank)
        rows.append(initial_probabilities(evolved, spec_f))
    probs = p_i[:, None] * np.array(rows)
    return JointEnergyDistribution(spec_i.energies, spec_f.energies, probs, "TPM")


def _eigen_mixture(rho, cutoff: float = 1e-12):
    """Eigendecomposition of a state as (weights, vectors), small weights dropped.

    Weights are renormalized after the cutoff.  Repeated kept eigenvalues
    trigger :class:`DegenerateEigenbasis` since any basis of the degenerate
    subspace is then equally valid.
    """
    vals, vecs = hermitian_eig(as_complex_matrix(rho, "state"))
    keep = vals > cutoff
    w = vals[keep]
    v = vecs[:, keep]
    if w.size == 0:
        raise ValueError("state has no eigenvalue above the cutoff")
    if w.size > 1 and np.min(np.diff(np.sort(w))) <= 1e-10:
        warnings.warn("repeated nonzero eigenvalues; eigenstate unravelling "
                      "is basis dependent", DegenerateEigenbasis)
    return w / w.sum(), v


def mll_joint(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition,
              cutoff: float = 1e-12) -> JointEnergyDistribution:
    """Eigenstate-resolved scheme: unravel, measure each eigenstate, remix."""
    weights, vectors = _eigen_mixture(rho, cutoff)
    probs = np.zeros((spec_i.energies.size, spec_f.energies.size))
    for w, s in zip(weights, vectors.T):
        pure = np.outer(s, s.conj())
        a = initial_probabilities(pure, spec_i)
        b = initial_probabilities(channel.apply(pure), spec_f)
        probs += w * np.outer(a, b)
    return JointEnergyDistribution(spec_i.energies, spec_f.energies, probs, "MLL")


def protocol_joint(protocol: str, rho, channel: Channel,
                   spec_i: SpectralDecomposition,
                   spec_f: SpectralDecomposition) -> JointEnergyDistribution:
    """Dispatch by protocol tag."""
    if protocol == "EPM":
        return epm_joint(rho, channel, spec_i, spec_f)
    if protocol == "TPM":
        return tpm_joint(rho, channel, spec_i, spec_f)
    if protocol == "MLL":
        return mll_joint(rho, channel, spec_i, spec_f)
    raise ValueError(f"unknown protocol tag {protocol!r}")


def _merge_groups(values: np.ndarray, tol: float):
    """Indices of ``values`` grouped so that neighbors within tol coalesce."""
    order = np.argsort(values, kind="stable")
    groups = []
    current = [order[0]]
    for idx in order[1:]:
        if values[idx] - values[current[-1]] <= tol:
            current.append(idx)
        else:
            groups.append(current)
            current = [idx]
    groups.append(current)
    return groups


def delta_distribution(joint: JointEnergyDistribution,
                       merge_tol: float | None = None) -> EnergyChangeDistribution:
    """Collapse the joint onto the energy change E_final - E_initial.

    Cell values closer than ``merge_tol`` (default 1e-9 times the summed
    energy scales) are combined; the merged value is the probability-
    weighted mean, so moments are preserved to first order in the merge
    width.
    """
    if merge_tol is None:
        scale = (float(np.max(np.abs(joint.final_energies)))
                 + float(np.max(np.abs(joint.initial_energies))))
        merge_tol = 1e-9 * scale if scale > 0 else 1e-15
    deltas = joint.delta_grid().reshape(-1)
    if deltas.size == 0:
        return EnergyChangeDistribution(np.array([]), np.array([]), merge_tol)
    probs = joint.probs.reshape(-1)
    values = []
    masses = []
    for group in _merge_groups(deltas, merge_tol):
        mass = probs[group].sum()
        if mass > 0:
            values.append(float(np.dot(probs[group], deltas[group]) / mass))
        else:
            values.append(float(np.mean(deltas[group])))
        masses.append(mass)
    return EnergyChangeDistribution(np.array(values), np.array(masses), merge_tol)


def moment(distribution, n: int) -> float:
    """n-th raw moment of the energy change."""
    if isinstance(distribution, JointEnergyDistribution):
        return float(np.sum(distribution.probs * distribution.delta_grid() ** n))
    return float(np.dot(distribution.probs, distribution.values ** n))


# ---------------------------------------------------------------------------
# characteristic functions


def characteristic_of_distribution(distribution, u: complex) -> complex:
    """sum_j p_j exp(i u dE_j); accepts a joint or an energy-change distribution."""
    if isinstance(distribution, JointEnergyDistribution):
        return complex(np.sum(distribution.probs
                              * np.exp(1j * u * distribution.delta_grid())))
    return complex(np.dot(distribution.probs,
                          np.exp(1j * u * distribution.values)))


def characteristic_function(protocol: str, rho, channel: Channel,
                            spec_i: SpectralDecomposition,
                            spec_f: SpectralDecomposition, u: complex) -> complex:
    """Operator-form characteristic function <exp(i u dE)> of a protocol.

    Evaluated from traces against exp(+-iuH) rather than from the joint
    table, so it serves as an independent cross-check of the distributions
    and extends to complex u (u = i beta gives the exponential averages of
    the fluctuation relations).
    """
    r = as_complex_matrix(rho, "state")
    # exp(-iu H_i) and exp(+iu H_f) from the spectral data
    exp_i = matrix_phase_exp(None, -1j * u, decomposition=spec_i)
    exp_f = matrix_phase_exp(None, 1j * u, decomposition=spec_f)
    if protocol == "EPM":
        return complex(np.trace(exp_i @ r) * np.trace(exp_f @ channel.apply_matrix(r)))
    if protocol == "TPM":
        total = 0.0j
        p_i = initial_probabilities(r, spec_i)
        for e, proj, rank, p in zip(spec_i.energies, spec_i.projectors,
                                    spec_i.ranks, p_i):
            if p == 0.0:
                continue
            evolved = channel.apply_matrix(proj / rank)
            total += np.exp(-1j * u * e) * p * np.trace(exp_f @ evolved)
        return complex(total)
    if protocol == "MLL":
        weights, vectors = _eigen_mixture(r)
        total = 0.0j
        for w, s in zip(weights, vectors.T):
            pure = np.outer(s, s.conj())
            total += (w * np.trace(exp_i @ pure)
                      * np.trace(exp_f @ channel.apply_matrix(pure)))
        return complex(total)
    raise ValueError(f"unknown protocol tag {protocol!r}")


def characteristic_split(rho, channel: Channel, spec_i: SpectralDecomposition,
                         spec_f: SpectralDecomposition, u: complex,
                         basis=None, sectors: SpectralDecomposition | None = None):
    """EPM characteristic function split into population and coherence parts.

    Returns ``(g_pop, g_coh)`` with g_pop built from the dephased state and
    g_coh carrying everything the initial coherences contribute.  When the
    dephasing basis diagonalizes the initial Hamiltonian (the intended
    use), g_pop + g_coh equals the EPM characteristic function.
    """
    split = coherence_split(rho, basis=basis, sectors=sectors)
    exp_i = matrix_phase_exp(None, -1j * u, decomposition=spec_i)
    exp_f = matrix_phase_exp(None, 1j * u, decomposition=spec_f)
    front = np.trace(exp_i @ split.populations)
    g_pop = front * np.trace(exp_f @ channel.apply_matrix(split.populations))
    g_coh = front * np.trace(exp_f @ channel.apply_matrix(split.coherences))
    return complex(g_pop), complex(g_coh)


# ---------------------------------------------------------------------------
# moments of the energy change in operator form


@dataclass
class SecondMomentSplit:
    """<dE^2> decomposed into dephased-state and coherence contributions."""

    total: float
    population_part: float
    coherence_part: float


def epm_second_moment_split(rho, channel: Channel, spec_i: SpectralDecomposition,
                            spec_f: SpectralDecomposition, basis=None,
                            sectors: SpectralDecomposition | None = None) -> SecondMomentSplit:
    """Split <dE^2> under EPM into the dephased part plus coherence terms.

    The population part is the second moment the protocol would give for
    the dephased state; the coherence part is
    tr(H_f^2 Phi[chi]) - 2 tr(Phi[chi] H_f) tr(P H_i).
    """
    split = coherence_split(rho, basis=basis, sectors=sectors)
    h_i = spec_i.reconstruct()
    h_f = spec_f.reconstruct()
    h_i2 = sum(e * e * p for e, p in zip(spec_i.energies, spec_i.projectors))
    h_f2 = sum(e * e * p for e, p in zip(spec_f.energies, spec_f.projectors))
    pops = split.populations
    chi = split.coherences
    phi_pops = channel.apply_matrix(pops)
    phi_chi = channel.apply_matrix(chi)
    mean_i_pop = np.trace(pops @ h_i).real
    population = (np.trace(h_i2 @ pops).real + np.trace(h_f2 @ phi_pops).real
                  - 2.0 * np.trace(phi_pops @ h_f).real * mean_i_pop)
    coherence = (np.trace(h_f2 @ phi_chi).real
                 - 2.0 * np.trace(phi_chi @ h_f).real * mean_i_pop)
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
    e = spec.energies
    w = np.exp(-beta * e)
    z = float(np.dot(w, spec.ranks))
    return z, w


def jarzynski(rho, channel: Channel, spec_i: SpectralDecomposition,
              spec_f: SpectralDecomposition, beta: float, basis=None,
              thermal_tol: float = 1e-8) -> JarzynskiReport:
    """Exponential average of the energy change under the end-point scheme.

    The decomposition assumes the dephased initial state is the Gibbs
    state exp(-beta H_i)/Z_i; a :class:`NonThermalDiagonal` warning is
    issued (and the parts no longer sum to the total) when it is not.
    """
    r = as_complex_matrix(rho, "state")
    d = r.shape[0]
    z_i, w_i = _partition_terms(spec_i, beta)
    z_f, w_f = _partition_terms(spec_f, beta)
    rho_i_th = sum((wl / z_i) * p for wl, p in zip(w_i, spec_i.projectors))
    rho_f_th = sum((wk / z_f) * p for wk, p in zip(w_f, spec_f.projectors))

    pops = dephase(r, basis)
    chi = r - pops
    if float(np.max(np.abs(pops - rho_i_th))) > thermal_tol:
        warnings.warn("state diagonal is not the Gibbs distribution at this "
                      "beta; the decomposition identity does not apply",
                      NonThermalDiagonal)

    if beta != 0.0:
        delta_f = -math.log(z_f / z_i) / beta
    else:
        # beta -> 0 limit of -ln(Z_f/Z_i)/beta
        ranks_i = np.asarray(spec_i.ranks, dtype=float)
        ranks_f = np.asarray(spec_f.ranks, dtype=float)
        delta_f = (float(np.dot(spec_f.energies, ranks_f)) -
                   float(np.dot(spec_i.energies, ranks_i))) / d

    g_total = characteristic_function("EPM", r, channel, spec_i, spec_f, 1j * beta)
    total = float((g_total * (z_i / z_f)).real)
    diagonal = d * float(np.trace(rho_f_th @ channel.apply_matrix(rho_i_th)).real)
    coherence = d * float(np.trace(rho_f_th @ channel.apply_matrix(chi)).real)
    return JarzynskiReport(beta, delta_f, total, diagonal, coherence)


# ---------------------------------------------------------------------------
# entropies


def shannon_entropy(distribution) -> float:
    """Shannon entropy (natural log) of a joint or energy-change distribution."""
    if isinstance(distribution, JointEnergyDistribution):
        p = distribution.probs.reshape(-1)
    elif isinstance(distribution, EnergyChangeDistribution):
        p = distribution.probs
    else:
        p = np.asarray(distribution, dtype=float).reshape(-1)
    p = p[p > 0]
    return float(-np.dot(p, np.log(p)))


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


def _draw(gen, cumulative: np.ndarray, n: int) -> np.ndarray:
    u = _rng(gen).random(n)
    return np.searchsorted(cumulative, u, side="right")


def sample_shots(protocol: str, rho, channel: Channel,
                 spec_i: SpectralDecomposition, spec_f: SpectralDecomposition,
                 n_shots: int, gen) -> JointEnergyDistribution:
    """Empirical joint from ``n_shots`` runs of the protocol's actual flow.

    EPM draws the two records independently, TPM draws the final record
    conditioned on the initial one, and MLL first draws which eigenstate
    is prepared.  The result carries ``n_shots`` so resampling errors can
    be attached downstream.
    """
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    L = spec_i.energies.size
    K = spec_f.energies.size
    counts = np.zeros((L, K))
    if protocol == "EPM":
        joint = epm_joint(rho, channel, spec_i, spec_f)
        li = _draw(gen, np.cumsum(joint.initial_marginal()), n_shots)
        ki = _draw(gen, np.cumsum(joint.final_marginal()), n_shots)
        np.add.at(counts, (li, ki), 1.0)
    elif protocol == "TPM":
        joint = tpm_joint(rho, channel, spec_i, spec_f)
        p_i = joint.initial_marginal()
        li = _draw(gen, np.cumsum(p_i), n_shots)
        u = _rng(gen).random(n_shots)
        for l in range(L):
            sel = li == l
            if not np.any(sel):
                continue
            row = joint.probs[l]
            if p_i[l] <= 0:
                continue
            cond = np.cumsum(row / p_i[l])
            ki = np.searchsorted(cond, u[sel], side="right")
            np.add.at(counts, (np.full(ki.size, l), ki), 1.0)
    elif protocol == "MLL":
        weights, vectors = _eigen_mixture(as_complex_matrix(rho, "state"))
        si = _draw(gen, np.cumsum(weights), n_shots)
        ua = _rng(gen).random(n_shots)
        ub = _rng(gen).random(n_shots)
        for s in range(weights.size):
            sel = si == s
            if not np.any(sel):
                continue
            pure = np.outer(vectors[:, s], vectors[:, s].conj())
            a = np.cumsum(initial_probabilities(pure, spec_i))
            b = np.cumsum(initial_probabilities(channel.apply(pure), spec_f))
            li = np.searchsorted(a, ua[sel], side="right")
            ki = np.searchsorted(b, ub[sel], side="right")
            np.add.at(counts, (li, ki), 1.0)
    else:
        raise ValueError(f"unknown protocol tag {protocol!r}")
    return JointEnergyDistribution(spec_i.energies, spec_f.energies,
                                   counts / n_shots, protocol, n_shots=n_shots)


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

    mix = zeta * np.asarray(rho1, dtype=complex) + (1 - zeta) * np.asarray(rho2, dtype=complex)
    gap_cells = coherent_cells(mix) - (zeta * coherent_cells(rho1)
                                       + (1 - zeta) * coherent_cells(rho2))
    # aggregate cells by energy change before taking the total variation
    deltas = (spec_f.energies[None, :] - spec_i.energies[:, None]).reshape(-1)
    flat = gap_cells.reshape(-1)
    scale = (float(np.max(np.abs(spec_f.energies)))
             + float(np.max(np.abs(spec_i.energies))))
    tol = 1e-9 * scale if scale > 0 else 1e-15
    total = 0.0
    for group in _merge_groups(deltas, tol):
        total += abs(flat[group].sum())
    return 0.5 * total
