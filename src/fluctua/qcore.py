"""Dense complex linear algebra for small quantum systems.

Everything in this package works on plain numpy arrays of complex128.
A Hamiltonian is a Hermitian matrix, a state is a density operator
(Hermitian, unit trace, positive semidefinite), and an energy basis is
the column set returned by the eigensolver below.  Each operator is
decomposed once: a :class:`SpectralDecomposition` keeps its eigenvectors
as ``basis``, and a :class:`DensityState` is a validated state with its
spectrum.

The eigensolver is LAPACK's (``numpy.linalg.eigh``) followed by a
canonical gauge: each eigenvector column is multiplied by the phase that
makes its largest-magnitude component real and positive, the first such
component winning a tie.  An eigenvector's phase is part of the input
wherever a state is built from coherences drawn in an energy basis, so
the gauge makes those states independent of LAPACK's own convention.

Conventions used throughout:

* eigenvalues are returned in ascending order;
* eigenvectors are columns of a unitary matrix;
* a "basis" argument is a matrix whose columns are the basis vectors,
  or a :class:`SpectralDecomposition` for its eigenvectors; ``None``
  means the computational basis;
* dephasing means removing off-diagonal entries in a given basis, or
  removing inter-sector blocks when done per energy sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DimensionMismatch",
    "NonHermitianInput",
    "NonOrthonormalBasis",
    "SpectralDecomposition",
    "DensityState",
    "CoherenceSplit",
    "as_complex_matrix",
    "is_hermitian",
    "assert_density_operator",
    "density_spectrum",
    "hermitian_eig",
    "spectral_decompose",
    "spectral_sum",
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


def as_complex_matrix(m, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    """Coerce to a non-empty square complex128 array, copying only if needed.

    With ``stack`` a (T, d, d) stack of square matrices is accepted as well.
    A :class:`DensityState` gives its matrix.
    """
    a = np.asarray(m.matrix if isinstance(m, DensityState) else m, dtype=np.complex128)
    if (a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2]
            or a.size == 0):
        raise DimensionMismatch(f"{name} must be square and non-empty, got shape {a.shape}")
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.swapaxes(-1, -2).conj()


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether the matrix, or every matrix of a stack, is Hermitian to ``tol``.

    The tolerance scales with each matrix's largest entry (at least 1).
    """
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    return bool((np.abs(m - _dagger(m)).max(axis=(-2, -1)) <= tol * scale).all())


class DensityState(NamedTuple):
    """A density operator validated by :func:`density_spectrum`, with its spectrum."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def density_spectrum(rho, *, herm_tol: float = 1e-10, trace_tol: float = 1e-8,
                     psd_tol: float = 1e-9) -> DensityState:
    """Validate a density operator; return it with its eigendecomposition.

    Returns a :class:`DensityState`, the state as complex128 and its
    eigendecomposition as :func:`hermitian_eig` gives it (checked to
    ``herm_tol`` rather than that function's 1e-10), so a caller that
    needs the spectrum does not decompose the state a second time and a
    protocol that receives it does not validate it again.  Checks
    Hermiticity, unit trace and positive semidefiniteness (the smallest
    eigenvalue may be slightly negative, down to -psd_tol, to admit
    states assembled from floating-point arithmetic).
    """
    a = as_complex_matrix(rho, "density operator")
    if not is_hermitian(a, herm_tol):
        raise NonHermitianInput("density operator is not Hermitian")
    tr = a.trace()
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density operator trace {tr:.12g} differs from 1")
    evals, evecs = _gauged_eigh(a)
    if evals[0] < -psd_tol:
        raise ValueError(f"density operator has negative eigenvalue {evals[0]:.3e}")
    return DensityState(a, evals, evecs)


def assert_density_operator(rho, *, herm_tol: float = 1e-10,
                            trace_tol: float = 1e-8,
                            psd_tol: float = 1e-9) -> np.ndarray:
    """Validate a density operator and return it as complex128.

    The checks are those of :func:`density_spectrum`; a
    :class:`DensityState` passes as it is.
    """
    if isinstance(rho, DensityState):
        return rho.matrix
    return density_spectrum(rho, herm_tol=herm_tol, trace_tol=trace_tol,
                            psd_tol=psd_tol).matrix


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
    1e-12) is real and positive.  A (T, d, d) stack is decomposed by one
    LAPACK call and gives (T, d) eigenvalues and (T, d, d) eigenvectors,
    each member equal to its matrix's own decomposition.  Raises
    :class:`numpy.linalg.LinAlgError` if LAPACK does not converge.
    """
    a = as_complex_matrix(matrix, "eig input", stack=True)
    if not is_hermitian(a):
        raise NonHermitianInput("hermitian_eig requires a Hermitian matrix")
    return _gauged_eigh(a)


def _gauged_eigh(a: np.ndarray):
    """:func:`hermitian_eig` of a complex128 matrix or stack its caller checked.

    Each caller checks Hermiticity once, to its own tolerance.
    """
    # Work on the exactly Hermitian average so roundoff in the input does
    # not leak into complex eigenvalues.
    vals, vecs = np.linalg.eigh(0.5 * (a + _dagger(a)))
    mag = np.abs(vecs)
    pivot_rows = np.argmax(mag >= mag.max(axis=-2, keepdims=True) - _GAUGE_TIE, axis=-2)
    d = vecs.shape[-1]
    stack = vecs.reshape(-1, d, d)
    pivots = stack[np.arange(len(stack))[:, None], pivot_rows.reshape(-1, d), np.arange(d)]
    return vals, vecs * (np.abs(pivots) / pivots).reshape(vals.shape)[..., None, :]


@dataclass
class SpectralDecomposition:
    """Distinct energy levels of a Hamiltonian with their eigenprojectors.

    ``energies[k]`` is the (possibly degenerate) level value and
    ``projectors[k]`` the rank-``ranks[k]`` orthogonal projector onto its
    eigenspace; ``projectors`` is one stacked ``(levels, d, d)`` array, so
    a spectral sum sum_k f(E_k) P_k is one contraction over its first axis.
    Levels are ascending and the projectors resolve the identity.
    ``basis`` holds the gauge-fixed eigenvectors the levels were grouped
    from, ``ranks[k]`` consecutive columns per level.

    A batch of T Hamiltonians with the same level pattern is one
    decomposition with a leading axis: ``energies`` (T, levels),
    ``projectors`` (T, levels, d, d) and ``basis`` (T, d, d), as a
    stacked :func:`spectral_decompose` returns it.
    """

    energies: np.ndarray
    projectors: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @property
    def ranks(self) -> np.ndarray:
        """Rank of each level as an int array, (levels,) or (T, levels) for a batch."""
        return np.rint(np.trace(self.projectors, axis1=-2, axis2=-1).real).astype(int)

    def reconstruct(self) -> np.ndarray:
        return spectral_sum(self.energies, self)


def spectral_sum(values, decomposition: SpectralDecomposition) -> np.ndarray:
    """sum_l values_l P_l, broadcast over a batch axis of either operand."""
    return np.einsum("...l,...lij->...ij", values, decomposition.projectors)


def spectral_decompose(hamiltonian, grouping_tol: float | None = None):
    """Group eigenvalues into degenerate levels and build their projectors.

    Eigenvalues closer than ``grouping_tol`` (default ``1e-8 * max|E|``)
    are merged into a single level whose projector spans the combined
    eigenvectors; the reported level value is the group mean.

    A (T, d, d) stack takes one :func:`hermitian_eig` call and gives a
    list of ``(members, decomposition)`` pairs, one per level pattern
    (which adjacent eigenvalues merge), in order of each pattern's first
    member: ``members`` is the array of stack indices with that pattern,
    together a partition of ``range(T)``, and ``decomposition`` is their
    batch.  Each member equals the decomposition of its matrix alone.
    """
    vals, vecs = hermitian_eig(hamiltonian)
    stacked = vals.ndim == 2
    if not stacked:
        vals, vecs = vals[None], vecs[None]
    tols = (1e-8 * np.abs(vals).max(axis=-1, keepdims=True) if grouping_tol is None
            else float(grouping_tol))
    # a level ends after eigenvalue j unless eigenvalue j + 1 lies within tol
    ends = ~(np.diff(vals, axis=-1) <= tols)
    patterns: dict[bytes, list[int]] = {}
    for member, row in enumerate(ends):
        patterns.setdefault(row.tobytes(), []).append(member)
    groups = []
    for members in patterns.values():
        rows = slice(None) if len(members) == len(vals) else members
        v = vecs[rows]
        bounds = [0, *(np.flatnonzero(ends[members[0]]) + 1).tolist(), vals.shape[-1]]
        projectors = np.stack([v[..., lo:hi] @ _dagger(v[..., lo:hi])
                               for lo, hi in zip(bounds, bounds[1:])], axis=1)
        energies = np.add.reduceat(vals[rows], bounds[:-1], axis=-1) / np.diff(bounds)
        groups.append((np.array(members), SpectralDecomposition(energies, projectors, v)))
    return groups if stacked else SpectralDecomposition(energies[0], projectors[0], v[0])


def gibbs_state(hamiltonian, beta: float,
                decomposition: SpectralDecomposition | None = None) -> np.ndarray:
    """Thermal state exp(-beta H) / Z."""
    if decomposition is None:
        decomposition = spectral_decompose(hamiltonian)
    # Shift energies so the exponentials stay in range for large beta.
    e0 = float(np.min(decomposition.energies))
    weights = np.exp(-beta * (decomposition.energies - e0))
    z = float(np.dot(weights, decomposition.ranks))
    return spectral_sum(weights / z, decomposition)


# ---------------------------------------------------------------------------
# Dephasing and coherence bookkeeping.


def _check_basis(basis, dim: int) -> np.ndarray:
    """A basis matrix, or a stack of them, with orthonormal columns.

    A :class:`SpectralDecomposition` gives its gauge-fixed eigenvectors,
    orthonormal by construction, so only their dimension is checked.
    """
    trusted = isinstance(basis, SpectralDecomposition)
    b = as_complex_matrix(basis.basis if trusted else basis, "basis", stack=True)
    if b.shape[-1] != dim:
        raise DimensionMismatch(f"basis dimension {b.shape[-1]} != state dimension {dim}")
    if not trusted and float(np.max(np.abs(_dagger(b) @ b - np.eye(dim)))) > 1e-10:
        raise NonOrthonormalBasis("basis columns are not orthonormal")
    return b


def dephase(rho, basis=None) -> np.ndarray:
    """Remove off-diagonal entries of ``rho`` in the given basis.

    ``basis`` is a matrix whose columns are the basis vectors, or a
    :class:`SpectralDecomposition` whose eigenvectors are used; ``None``
    means the computational basis.  The result is returned in the original
    (computational) representation.  A (T, d, d) stack of bases (or a
    batched decomposition) gives the T dephased states as a stack, as
    :func:`coherence_l1` gives T measures.
    """
    a = as_complex_matrix(rho, "state")
    if basis is None:
        return np.diag(np.diag(a).copy())
    b = _check_basis(basis, a.shape[0])
    diag = np.diagonal(_dagger(b) @ a @ b, axis1=-2, axis2=-1)
    return (b * diag[..., None, :]) @ _dagger(b)


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
    remainder.
    """

    populations: np.ndarray
    coherences: np.ndarray

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
    pops = dephase(a, basis) if sectors is None else dephase_sectors(a, sectors)
    return CoherenceSplit(pops, a - pops)


def coherence_l1(rho, basis=None) -> float:
    """l1 coherence measure: half the sum of off-diagonal magnitudes.

    ``basis`` is taken as by :func:`dephase`.  A (T, d, d) stack of
    states, with one basis or a stack of T bases (or a batched
    decomposition), gives the T measures as an array.
    """
    a = as_complex_matrix(rho, "state", stack=True)
    if basis is not None:
        b = _check_basis(basis, a.shape[-1])
        a = _dagger(b) @ a @ b
    off = np.abs(a)
    diag = np.arange(a.shape[-1])
    off[..., diag, diag] = 0.0
    total = 0.5 * np.sum(off, axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def matrix_phase_exp(hamiltonian, z: complex,
                     decomposition: SpectralDecomposition | None = None) -> np.ndarray:
    """exp(z H) for Hermitian H and arbitrary complex z.

    Built from the spectral decomposition, sum_l exp(z E_l) P_l, so purely
    imaginary z gives the unitary phase and real z the Boltzmann-type
    weighting used in exponential averages.
    """
    if decomposition is None:
        decomposition = spectral_decompose(hamiltonian)
    return spectral_sum(np.exp(z * decomposition.energies), decomposition)
