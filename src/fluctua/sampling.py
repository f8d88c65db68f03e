"""Seeded random instances: states and coherence perturbations.

All randomness in the package flows through :class:`SeededGenerator`, a
thin wrapper over numpy's PCG64 bit generator.  PCG64 produces the same
stream for the same seed on every platform, and child streams are derived
arithmetically (seed XOR odd multiples of the 64-bit golden-ratio
constant), so independent substreams can be handed out by index without
any global state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qcore import hermitian_eig

__all__ = [
    "DegenerateTarget",
    "SeededGenerator",
    "haar_random_pure",
    "random_density",
    "random_coherence",
]

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class DegenerateTarget(UserWarning):
    """The requested diagonal cannot support any coherence (zero populations)."""


@dataclass
class SeededGenerator:
    """Deterministic random stream with index-addressable child streams.

    The PCG64 generator is built on first use, so a stream that only
    spawns children never builds one.
    """

    seed: int

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, index: int) -> "SeededGenerator":
        """Child stream number ``index`` (deterministic, order-independent)."""
        child = self.seed ^ (((index + 1) * _GOLDEN64) & _MASK64)
        return SeededGenerator(child)

    # pass-throughs used all over the package
    def normal(self, size=None):
        return self.rng.normal(size=size)

    def random(self, size=None):
        return self.rng.random(size)

    def integers(self, low, high=None, size=None):
        return self.rng.integers(low, high=high, size=size)


def _rng(gen) -> np.random.Generator:
    if gen is None:
        return SeededGenerator(0).rng
    if isinstance(gen, SeededGenerator):
        return gen.rng
    if isinstance(gen, np.random.Generator):
        return gen
    return SeededGenerator(int(gen)).rng


def haar_random_pure(dim: int, gen) -> np.ndarray:
    """Haar-uniform pure state as a rank-one density operator.

    A vector of iid complex Gaussians, normalized, is Haar distributed
    because the Gaussian measure is unitarily invariant.
    """
    r = _rng(gen)
    psi = r.normal(size=dim) + 1j * r.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_density(dim: int, rank: int | None = None, gen=None) -> np.ndarray:
    """Random mixed state GG^dag / tr(GG^dag) with G a dim x rank Ginibre block.

    For ``rank == dim`` this is the Hilbert-Schmidt ensemble; smaller ranks
    give states supported on a random rank-dimensional subspace.
    """
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    r = _rng(gen)
    g = r.normal(size=(dim, rank)) + 1j * r.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_coherence(diag_target, gen, scale: float = 1.0) -> np.ndarray:
    """Random zero-diagonal Hermitian chi with diag(diag_target) + chi PSD.

    Draws a random coherence direction supported on the strictly positive
    populations and normalizes it to unit spectral norm.  It is then scaled
    by the multiplier m nearest ``scale``, between 0 and ``scale``, that
    keeps the smallest eigenvalue of the total matrix at or above -1e-12.
    On the support S that holds exactly when I + m W chi W is positive
    semidefinite, with W = diag(p_S + 1e-12)^(-1/2), so m is ``scale``
    clipped to [-1/lambda_max, -1/lambda_min] of W chi W.  Populations at
    (numerical) zero cannot carry
    coherence; if fewer than two positive populations remain, the zero
    matrix is returned under a :class:`DegenerateTarget` warning.
    """
    p = np.asarray(diag_target, dtype=float).reshape(-1)
    d = p.size
    if np.any(p < -1e-12):
        raise ValueError("diagonal target has negative populations")
    support = np.flatnonzero(p > 1e-12)
    chi = np.zeros((d, d), dtype=np.complex128)
    if support.size < 2:
        warnings.warn("populations leave no room for coherence; returning zero",
                      DegenerateTarget)
        return chi
    r = _rng(gen)
    for a in range(support.size):
        for b in range(a + 1, support.size):
            z = (r.normal() + 1j * r.normal()) / np.sqrt(2.0)
            chi[support[a], support[b]] = z
            chi[support[b], support[a]] = np.conj(z)
    evals, _ = hermitian_eig(chi)
    spectral = float(np.max(np.abs(evals)))
    if spectral == 0.0:
        return chi
    chi /= spectral
    # W chi W has a zero diagonal and is not zero, so its extreme
    # eigenvalues have opposite signs
    w = 1.0 / np.sqrt(p[support] + 1e-12)
    vals, _ = hermitian_eig(w[:, None] * chi[np.ix_(support, support)] * w)
    return float(np.clip(scale, -1.0 / vals[-1], -1.0 / vals[0])) * chi
