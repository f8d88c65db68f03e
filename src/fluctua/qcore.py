"""Dense complex linear algebra for small quantum systems.

Everything in this package works on plain numpy arrays of complex128.
A Hamiltonian is a Hermitian matrix, a state is a density operator
(Hermitian, unit trace, positive semidefinite), and an energy basis is
the column set returned by the eigensolver below.

The eigensolver is LAPACK's (``numpy.linalg.eigh``) followed by a
canonical gauge: each eigenvector column is multiplied by the phase that
makes its largest-magnitude component real and positive, the first such
component winning a tie.  An eigenvector's phase is part of the input
wherever a state is built from coherences drawn in an energy basis, so
the gauge makes those states independent of LAPACK's own convention.

Conventions used throughout:

* eigenvalues are returned in ascending order;
* eigenvectors are columns of a unitary matrix;
* a "basis" argument is a matrix whose columns are the basis vectors;
  ``None`` means the computational basis;
* dephasing means removing off-diagonal entries in a given basis, or
  removing inter-sector blocks when done per energy sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionMismatch",
    "NonHermitianInput",
    "NonOrthonormalBasis",
    "SpectralDecomposition",
    "CoherenceSplit",
    "as_complex_matrix",
    "is_hermitian",
    "assert_density_operator",
    "hermitian_eig",
    "spectral_decompose",
    "gibbs_state",
    "dephase",
    "dephase_sectors",
    "coherence_split",
    "coherence_l1",
    "matrix_phase_exp",
]


class DimensionMismatch(ValueError):
    """Operands act on different Hilbert space dimensions."""


class NonHermitianInput(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NonOrthonormalBasis(ValueError):
    """A basis matrix whose columns are not orthonormal."""


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a non-empty square complex128 array, copying only if needed."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be square and non-empty, got shape {a.shape}")
    return a


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    return float(np.max(np.abs(m - m.conj().T))) <= tol * scale


def assert_density_operator(rho, *, herm_tol: float = 1e-10,
                            trace_tol: float = 1e-8,
                            psd_tol: float = 1e-9) -> np.ndarray:
    """Validate a density operator and return it as complex128.

    Checks Hermiticity, unit trace and positive semidefiniteness (the
    smallest eigenvalue may be slightly negative, down to -psd_tol, to
    admit states assembled from floating-point arithmetic).
    """
    a = as_complex_matrix(rho, "density operator")
    if not is_hermitian(a, herm_tol):
        raise NonHermitianInput("density operator is not Hermitian")
    tr = a.trace()
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density operator trace {tr:.12g} differs from 1")
    evals, _ = hermitian_eig(a)
    if evals[0] < -psd_tol:
        raise ValueError(f"density operator has negative eigenvalue {evals[0]:.3e}")
    return a


# ---------------------------------------------------------------------------
# Eigensolver with a canonical eigenvector gauge.

# Components whose magnitudes differ by less than this count as tied, so
# roundoff cannot move the gauge's pivot between equal-magnitude entries.
_GAUGE_TIE = 1e-12


def hermitian_eig(matrix):
    """Eigendecomposition of a complex Hermitian matrix in a canonical gauge.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns, so that
    ``matrix @ vecs[:, j] == vals[j] * vecs[:, j]``.  Each column's
    largest-magnitude component (the first one, on a tie to within
    1e-12) is real and positive.  Raises :class:`numpy.linalg.LinAlgError` if LAPACK does not
    converge.
    """
    a = as_complex_matrix(matrix, "eig input")
    if not is_hermitian(a):
        raise NonHermitianInput("hermitian_eig requires a Hermitian matrix")
    # Work on the exactly Hermitian average so roundoff in the input does
    # not leak into complex eigenvalues.
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    mag = np.abs(vecs)
    pivot_rows = np.argmax(mag >= mag.max(axis=0) - _GAUGE_TIE, axis=0)
    pivots = vecs[pivot_rows, np.arange(vecs.shape[1])]
    return vals, vecs * (np.abs(pivots) / pivots)


@dataclass
class SpectralDecomposition:
    """Distinct energy levels of a Hamiltonian with their eigenprojectors.

    ``energies[k]`` is the (possibly degenerate) level value and
    ``projectors[k]`` the rank-``ranks[k]`` orthogonal projector onto its
    eigenspace; ``projectors`` is one stacked ``(levels, d, d)`` array, so
    a spectral sum sum_k f(E_k) P_k is one contraction over its first axis.
    Levels are ascending and the projectors resolve the identity.
    """

    energies: np.ndarray
    projectors: np.ndarray
    grouping_tol: float = 0.0

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def ranks(self) -> list[int]:
        return [int(round(p.trace().real)) for p in self.projectors]

    def reconstruct(self) -> np.ndarray:
        return np.einsum("l,lij->ij", self.energies, self.projectors)


def spectral_decompose(hamiltonian, grouping_tol: float | None = None) -> SpectralDecomposition:
    """Group eigenvalues into degenerate levels and build their projectors.

    Eigenvalues closer than ``grouping_tol`` (default ``1e-8 * max|E|``)
    are merged into a single level whose projector spans the combined
    eigenvectors; the reported level value is the group mean.
    """
    vals, vecs = hermitian_eig(hamiltonian)
    if grouping_tol is None:
        grouping_tol = 1e-8 * float(np.max(np.abs(vals)))
    energies = []
    projectors = []
    start = 0
    n = len(vals)
    for j in range(1, n + 1):
        if j < n and vals[j] - vals[j - 1] <= grouping_tol:
            continue
        block = vecs[:, start:j]
        projectors.append(block @ block.conj().T)
        energies.append(float(np.mean(vals[start:j])))
        start = j
    return SpectralDecomposition(np.array(energies), np.array(projectors), grouping_tol)


def gibbs_state(hamiltonian, beta: float,
                decomposition: SpectralDecomposition | None = None) -> np.ndarray:
    """Thermal state exp(-beta H) / Z."""
    if decomposition is None:
        decomposition = spectral_decompose(hamiltonian)
    # Shift energies so the exponentials stay in range for large beta.
    e0 = float(np.min(decomposition.energies))
    weights = np.exp(-beta * (decomposition.energies - e0))
    z = float(np.dot(weights, decomposition.ranks))
    return np.einsum("l,lij->ij", weights / z, decomposition.projectors)


# ---------------------------------------------------------------------------
# Dephasing and coherence bookkeeping.


def _check_basis(basis, dim: int) -> np.ndarray:
    b = as_complex_matrix(basis, "basis")
    if b.shape[0] != dim:
        raise DimensionMismatch(f"basis dimension {b.shape[0]} != state dimension {dim}")
    gram = b.conj().T @ b
    if float(np.max(np.abs(gram - np.eye(dim)))) > 1e-10:
        raise NonOrthonormalBasis("basis columns are not orthonormal")
    return b


def dephase(rho, basis=None) -> np.ndarray:
    """Remove off-diagonal entries of ``rho`` in the given basis.

    ``basis`` is a matrix whose columns are the basis vectors; ``None``
    means the computational basis.  The result is returned in the original
    (computational) representation.
    """
    a = as_complex_matrix(rho, "state")
    if basis is None:
        return np.diag(np.diag(a).copy())
    b = _check_basis(basis, a.shape[0])
    diag = np.diag(b.conj().T @ a @ b)
    return (b * diag) @ b.conj().T


def dephase_sectors(rho, decomposition: SpectralDecomposition) -> np.ndarray:
    """Project out inter-sector blocks: sum_l P_l rho P_l.

    Unlike :func:`dephase` this keeps coherence inside each degenerate
    energy sector, which is the right notion when only level populations
    (not individual basis states) are resolved.
    """
    a = as_complex_matrix(rho, "state")
    if a.shape[0] != decomposition.dim:
        raise DimensionMismatch("state and decomposition dimensions differ")
    p = decomposition.projectors
    return (p @ a @ p).sum(axis=0)


@dataclass
class CoherenceSplit:
    """A state written as populations plus coherences, rho = P + chi.

    ``populations`` is the dephased part and ``coherences`` the traceless
    remainder.  ``basis`` records the basis the split was taken in
    (``None`` for the computational basis or for a per-sector split).
    """

    populations: np.ndarray
    coherences: np.ndarray
    basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.populations.shape[0]


def coherence_split(rho, basis=None,
                    sectors: SpectralDecomposition | None = None) -> CoherenceSplit:
    """Split a state into its dephased part and the coherence remainder.

    With ``sectors`` given, the split keeps intra-sector blocks intact
    (useful for degenerate Hamiltonians); otherwise it removes every
    off-diagonal entry in ``basis``.
    """
    a = as_complex_matrix(rho, "state")
    if sectors is not None:
        pops = dephase_sectors(a, sectors)
        return CoherenceSplit(pops, a - pops, None)
    pops = dephase(a, basis)
    return CoherenceSplit(pops, a - pops, None if basis is None else np.asarray(basis, dtype=np.complex128))


def coherence_l1(rho, basis=None) -> float:
    """l1 coherence measure: half the sum of off-diagonal magnitudes."""
    a = as_complex_matrix(rho, "state")
    if basis is not None:
        b = _check_basis(basis, a.shape[0])
        a = b.conj().T @ a @ b
    off = np.abs(a - np.diag(np.diag(a)))
    return 0.5 * float(np.sum(off))


def matrix_phase_exp(hamiltonian, z: complex,
                     decomposition: SpectralDecomposition | None = None) -> np.ndarray:
    """exp(z H) for Hermitian H and arbitrary complex z.

    Built from the spectral decomposition, sum_l exp(z E_l) P_l, so purely
    imaginary z gives the unitary phase and real z the Boltzmann-type
    weighting used in exponential averages.
    """
    if decomposition is None:
        decomposition = spectral_decompose(hamiltonian)
    return np.einsum("l,lij->ij", np.exp(z * decomposition.energies),
                     decomposition.projectors)
