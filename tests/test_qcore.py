import math

import numpy as np
import pytest

from fluctua.qcore import (
    CoherenceSplit,
    DensityState,
    DimensionMismatch,
    NonHermitianInput,
    NonOrthonormalBasis,
    assert_density_operator,
    coherence_l1,
    coherence_split,
    dephase,
    density_spectrum,
    gibbs_state,
    hermitian_eig,
    matrix_phase_exp,
    spectral_decompose,
)
from fluctua.sampling import random_density, random_hamiltonian, random_unitary


# ---------------------------------------------------------------------------
# hermitian_eig


def test_eig_matches_lapack_oracle():
    # eigenvalues against LAPACK's eigvalsh; orthonormality and residuals
    # of the gauged eigenvectors
    rng = np.random.default_rng(7)
    for d in range(2, 10):
        for _ in range(5):
            a = 3.0 * random_hamiltonian(d, rng)
            vals, vecs = hermitian_eig(a)
            ref = np.linalg.eigvalsh(a)
            assert np.max(np.abs(vals - ref)) < 1e-10
            # orthonormal columns
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) < 1e-12
            # eigenpair residuals
            res = a @ vecs - vecs * vals
            assert np.max(np.abs(res)) < 1e-9


def test_eig_gauge_pivot_is_real_positive():
    rng = np.random.default_rng(20)
    for d in range(2, 10):
        for _ in range(25):
            for a in (random_hamiltonian(d, rng), rng.normal(size=(d, d))):
                _, vecs = hermitian_eig(0.5 * (a + a.conj().T))
                pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
                assert np.max(np.abs(pivots.imag)) < 1e-12
                assert np.min(pivots.real) > 0.0


def test_eig_gauge_ignores_input_phases():
    # H is the same operator whatever phases V's columns carry, so the
    # returned columns must not depend on them (nor on LAPACK's convention).
    rng = np.random.default_rng(21)
    cases = [(random_unitary(d, rng), np.sort(rng.normal(size=d)))
             for d in range(2, 10) for _ in range(10)]
    # DFT eigenvectors have components of exactly equal magnitude, so the
    # pivot is decided by the tie rule rather than by roundoff.
    cases += [(np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
               / np.sqrt(d), np.arange(d, dtype=float)) for d in range(2, 6)]
    for v, e in cases:
        d = e.size
        _, ref = hermitian_eig(v @ np.diag(e) @ v.conj().T)
        for _ in range(5):
            w = v * np.exp(2j * np.pi * rng.random(d))
            _, vecs = hermitian_eig(w @ np.diag(e) @ w.conj().T)
            assert np.max(np.abs(vecs - ref)) < 1e-10


def test_eig_sorted_diagonal_input():
    vals, vecs = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    # eigenvectors are permuted basis vectors
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])


def test_eig_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    vals, vecs = hermitian_eig(sx)
    assert np.allclose(vals, [-1.0, 1.0])
    for j in range(2):
        assert np.max(np.abs(sx @ vecs[:, j] - vals[j] * vecs[:, j])) < 1e-12


def test_eig_identity_and_zero():
    vals, vecs = hermitian_eig(np.eye(4))
    assert np.allclose(vals, 1.0)
    vals, _ = hermitian_eig(np.zeros((3, 3)))
    assert np.allclose(vals, 0.0)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))


def test_eig_rejects_empty():
    # every caller validates through as_complex_matrix, which rejects 0 x 0
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        spectral_decompose(np.zeros((0, 0)))


def test_eig_rejects_stack_with_one_nonhermitian_member():
    stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(NonHermitianInput):
        hermitian_eig(stack)
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 2, 3, 3)))


def test_eig_complex_phases():
    # purely imaginary off-diagonal part (i * antisymmetric is Hermitian)
    rng = np.random.default_rng(11)
    k = rng.normal(size=(5, 5))
    m = np.diag(rng.normal(size=5)) + 0.5j * (k - k.T)
    vals, vecs = hermitian_eig(m)
    assert np.max(np.abs(m @ vecs - vecs * vals)) < 1e-9
    assert np.max(np.abs(vals - np.linalg.eigvalsh(m))) < 1e-10


# ---------------------------------------------------------------------------
# spectral_decompose


def test_spectral_two_qubit_levels():
    h = np.diag([2.0, 0.0, 0.0, -2.0])
    dec = spectral_decompose(h)
    assert np.allclose(dec.energies, [-2.0, 0.0, 2.0])
    assert np.array_equal(dec.ranks, [1, 2, 1])
    assert np.max(np.abs(dec.reconstruct() - h)) < 1e-12


def test_spectral_projector_algebra():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 6):
        h = 2.0 * random_hamiltonian(d, rng)
        dec = spectral_decompose(h)
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(dec.projectors):
            total += p
            # idempotent and Hermitian
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            for j, q in enumerate(dec.projectors):
                if i != j:
                    assert np.max(np.abs(p @ q)) < 1e-10
        assert np.max(np.abs(total - np.eye(d))) < 1e-10
        assert np.max(np.abs(dec.reconstruct() - h)) < 1e-9


def test_spectral_grouping_merges_near_degenerate():
    rng = np.random.default_rng(5)
    a = random_hamiltonian(3, rng)
    _, v = np.linalg.eigh(a)
    h = v @ np.diag([1.0, 1.0 + 1e-12, 2.0]) @ v.conj().T
    h = 0.5 * (h + h.conj().T)
    dec = spectral_decompose(h)
    assert len(dec.energies) == 2
    assert np.array_equal(dec.ranks, [2, 1])


def mixed_degeneracy_stack(rng, d=4):
    """Hamiltonians sharing no level pattern: degenerate, merged and resolved pairs."""
    patterns = ([1.0, 1.0, 2.0, 3.0], [1.0, 1.0 + 1e-12, 2.0, 2.0],
                [1.0, 1.0 + 1e-6, 2.0, 3.0], [-1.0, 0.5, 0.5, 0.5],
                [0.3, 0.3, 0.3, 0.3])
    stack = []
    for energies in patterns:
        _, v = np.linalg.eigh(random_hamiltonian(d, rng))
        h = v @ np.diag(energies) @ v.conj().T
        stack.append(0.5 * (h + h.conj().T))
    stack += [random_hamiltonian(d, rng) for _ in range(3)]
    return np.array(stack)


def assert_groups_equal_each_matrix(stack, groups):
    """The groups partition the stack, each member bitwise its matrix's own decomposition."""
    members = np.concatenate([idx for idx, _ in groups])
    assert np.array_equal(np.sort(members), np.arange(len(stack)))
    for idx, batch in groups:
        assert batch.energies.shape[0] == batch.projectors.shape[0] == len(idx)
        for k, m in enumerate(idx):
            ref = spectral_decompose(stack[m])
            assert np.array_equal(batch.energies[k], ref.energies)
            assert np.array_equal(batch.projectors[k], ref.projectors)
            assert np.array_equal(batch.basis[k], ref.basis)
            assert np.array_equal(batch.ranks[k], ref.ranks)


def test_stacked_eig_and_decomposition_equal_each_matrix():
    stack = mixed_degeneracy_stack(np.random.default_rng(8))
    vals, vecs = hermitian_eig(stack)
    for h, v, w in zip(stack, vals, vecs):
        ref_vals, ref_vecs = hermitian_eig(h)
        assert np.array_equal(v, ref_vals) and np.array_equal(w, ref_vecs)
        # the basis is the matrix's own gauge-fixed eigenvectors
        assert np.array_equal(spectral_decompose(h).basis, ref_vecs)
    groups = spectral_decompose(stack)
    # one group per level pattern, in order of first member: level counts
    # 1, 2, 3 and 4, with two patterns of two levels (2 + 2 and 1 + 3)
    assert [idx.tolist() for idx, _ in groups] == [[0], [1], [2, 5, 6, 7], [3], [4]]
    assert [batch.energies.shape[1] for _, batch in groups] == [3, 2, 4, 2, 1]
    assert_groups_equal_each_matrix(stack, groups)


def test_stacked_decomposition_broadcasts_spectral_sums():
    rng = np.random.default_rng(9)
    stack = np.array([random_hamiltonian(3, rng) for _ in range(4)])
    [(members, batch)] = spectral_decompose(stack)
    assert np.array_equal(members, np.arange(4))
    decs = [spectral_decompose(h) for h in stack]
    assert batch.energies.shape == (4, 3) and batch.projectors.shape == (4, 3, 3, 3)
    # the ranks of a batch are one (T, levels) int array, a row per member
    assert batch.ranks.shape == (4, 3) and batch.ranks.dtype.kind == "i"
    assert np.array_equal(batch.ranks, [dec.ranks for dec in decs])
    assert batch.basis.shape == (4, 3, 3)
    for k, dec in enumerate(decs):
        assert np.array_equal(batch.basis[k], dec.basis)
        assert np.array_equal(batch.reconstruct()[k], dec.reconstruct())
        assert np.array_equal(matrix_phase_exp(batch, 0.7j)[k], matrix_phase_exp(dec, 0.7j))


# ---------------------------------------------------------------------------
# gibbs_state

# frozen oracle: elementwise exp(-beta*E)/Z for E = (2, 0, 0, -2) at
# beta = log(tan(1)) = 0.4430227241169226 (two-qubit model value)
TWO_QUBIT_BETA = 0.4430227241169226
TWO_QUBIT_THERMAL_DIAG = (0.08522112911847729, 0.20670545260795144,
                          0.20670545260795144, 0.5013679656656197)


def test_gibbs_two_qubit_frozen_values():
    h = np.diag([2.0, 0.0, 0.0, -2.0])
    rho = gibbs_state(h, TWO_QUBIT_BETA)
    assert np.max(np.abs(rho - np.diag(TWO_QUBIT_THERMAL_DIAG))) < 1e-12
    assert abs(rho.trace() - 1.0) < 1e-12


def test_gibbs_nondiagonal_matches_transformed():
    rng = np.random.default_rng(9)
    h = random_hamiltonian(4, rng)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-0.7 * vals)
    ref = (vecs * (w / w.sum())) @ vecs.conj().T
    assert np.max(np.abs(gibbs_state(h, 0.7) - ref)) < 1e-10


def test_gibbs_large_beta_stable():
    rho = gibbs_state(np.diag([0.0, 50.0]), 100.0)
    assert np.isfinite(rho).all()
    assert abs(rho[0, 0] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# dephasing and coherence


def test_dephase_computational():
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    p = dephase(rho)
    assert np.allclose(p, np.diag([0.6, 0.4]))
    # idempotent
    assert np.allclose(dephase(p), p)


def test_dephase_in_rotated_basis():
    rng = np.random.default_rng(13)
    rho = random_density(3, gen=rng)
    h = random_hamiltonian(3, rng)
    _, basis = hermitian_eig(h)
    p = dephase(rho, basis)
    # diagonal in that basis, trace preserved
    pb = basis.conj().T @ p @ basis
    assert np.max(np.abs(pb - np.diag(np.diag(pb)))) < 1e-12
    assert abs(p.trace() - rho.trace()) < 1e-12
    # diagonal entries match the measured populations
    assert np.allclose(np.diag(pb).real,
                       [np.real(basis[:, k].conj() @ rho @ basis[:, k]) for k in range(3)])


def test_dephase_rejects_bad_basis():
    rho = np.eye(2) / 2
    with pytest.raises(NonOrthonormalBasis):
        dephase(rho, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        dephase(rho, np.eye(3))


def test_decomposition_basis_is_taken_as_its_eigenvectors():
    # a decomposition and its own basis give the same bits; a degenerate
    # level has no unique eigenvectors, so this uses the ones it was built from
    rng = np.random.default_rng(19)
    stack = np.array([random_hamiltonian(3, rng) for _ in range(4)])
    stack[0] = np.diag([1.0, 1.0, 2.0])
    [(_, batch)] = spectral_decompose(stack[1:])
    states = np.array([random_density(3, gen=rng) for _ in range(4)])
    for h, rho in zip(stack, states):
        dec = spectral_decompose(h)
        assert np.array_equal(dephase(rho, dec), dephase(rho, dec.basis))
        assert coherence_l1(rho, dec) == coherence_l1(rho, dec.basis)
    assert np.array_equal(coherence_l1(states[1:], batch), coherence_l1(states[1:], batch.basis))
    with pytest.raises(DimensionMismatch):
        dephase(np.eye(2) / 2, batch)


def test_dephase_on_a_stack_of_bases_dephases_in_each():
    # a batched decomposition, or a raw (T, d, d) stack of bases, gives
    # one dephased state per basis, each its member's own dephase
    rng = np.random.default_rng(23)
    rho = random_density(3, gen=rng)
    [(_, batch)] = spectral_decompose(np.array([random_hamiltonian(3, rng) for _ in range(4)]))
    bases = np.array([random_unitary(3, rng) for _ in range(4)])
    for stack in (batch, batch.basis, bases):
        out = dephase(rho, stack)
        assert out.shape == (4, 3, 3)
        members = stack.basis if stack is batch else stack
        for b, single in zip(members, out):
            assert np.array_equal(single, dephase(rho, b))


def test_coherence_split_roundtrip():
    rng = np.random.default_rng(17)
    for d in (2, 4):
        rho = random_density(d, gen=rng)
        h = random_hamiltonian(d, rng)
        _, basis = hermitian_eig(h)
        for kwargs in ({}, {"basis": basis}):
            split = coherence_split(rho, **kwargs)
            assert isinstance(split, CoherenceSplit)
            assert np.max(np.abs(split.populations + split.coherences - rho)) < 1e-12
            assert abs(split.coherences.trace()) < 1e-12


def test_coherence_l1_plus_state():
    plus = np.full((2, 2), 0.5)
    assert abs(coherence_l1(plus) - 0.5) < 1e-14
    # vanishes in its own eigenbasis
    _, basis = hermitian_eig(plus)
    assert coherence_l1(plus, basis) < 1e-12


def test_coherence_l1_of_a_stack():
    rng = np.random.default_rng(31)
    states = np.array([random_density(3, gen=rng) for _ in range(4)])
    _, bases = hermitian_eig(np.array([random_hamiltonian(3, rng) for _ in range(4)]))
    plain = coherence_l1(states)
    per_basis = coherence_l1(states, bases)
    one_basis = coherence_l1(states, bases[0])
    for k, rho in enumerate(states):
        assert plain[k] == coherence_l1(rho)
        assert abs(per_basis[k] - coherence_l1(rho, bases[k])) < 1e-15
        assert abs(one_basis[k] - coherence_l1(rho, bases[0])) < 1e-15


# ---------------------------------------------------------------------------
# matrix_phase_exp


def test_matrix_phase_exp_against_eigh_oracle():
    rng = np.random.default_rng(21)
    h = random_hamiltonian(4, rng)
    vals, vecs = np.linalg.eigh(h)
    for z in (0.0, -0.443, 1.2j, 0.5 - 0.25j):
        ref = (vecs * np.exp(z * vals)) @ vecs.conj().T
        assert np.max(np.abs(matrix_phase_exp(spectral_decompose(h), z) - ref)) < 1e-9


def test_matrix_phase_exp_zero_is_identity():
    assert np.allclose(matrix_phase_exp(spectral_decompose(np.diag([1.0, -1.0])), 0.0),
                       np.eye(2))


def test_matrix_phase_exp_imaginary_is_unitary():
    rng = np.random.default_rng(23)
    h = random_hamiltonian(5, rng)
    u = matrix_phase_exp(spectral_decompose(h), 0.9j)
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-10


# ---------------------------------------------------------------------------
# density operator validation


def test_assert_density_accepts_valid():
    rng = np.random.default_rng(29)
    rho = random_density(3, gen=rng)
    out = assert_density_operator(rho)
    assert out.dtype == np.complex128


def test_assert_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        assert_density_operator(np.eye(2))


def test_assert_density_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        assert_density_operator(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_assert_density_rejects_negative():
    with pytest.raises(ValueError):
        assert_density_operator(np.diag([1.5, -0.5]))


def test_density_spectrum_returns_the_validated_decomposition():
    rho = random_density(3, gen=np.random.default_rng(30))
    state = density_spectrum(rho)
    assert isinstance(state, DensityState)
    assert state._fields == ("matrix", "eigenvalues", "eigenvectors")
    a, vals, vecs = state
    assert np.array_equal(a, assert_density_operator(rho))
    ref_vals, ref_vecs = hermitian_eig(rho)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
    # a validated state is taken as it is wherever a state is
    assert assert_density_operator(state) is state.matrix
    assert np.array_equal(dephase(state), dephase(rho))


def test_density_spectrum_takes_the_eigenpairs_of_the_hermitian_average():
    rho = np.array([[0.5, 0.1 + 1e-8], [0.1, 0.5]])
    with pytest.raises(NonHermitianInput, match="density operator"):
        density_spectrum(rho)
    # a defect the Hermiticity check admits: the eigenpairs are those of the
    # Hermitian average, as hermitian_eig gives them for it, bit for bit
    a, vals, vecs = density_spectrum(np.array([[0.5, 0.1 + 5e-11], [0.1, 0.5]]))
    ref_vals, ref_vecs = hermitian_eig(0.5 * (a + a.conj().T))
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def _at_density_tolerances():
    """(state, accepted) pairs on either side of each density tolerance.

    The Hermiticity defect is one off-diagonal entry, the trace defect one
    diagonal entry, and the negative eigenvalue one diagonal entry of a
    diagonal state whose other entry keeps the trace 1.
    """
    base = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
    for defect, accepted in ((2e-10, False), (5e-11, True)):
        rho = base.copy()
        rho[0, 1] += defect
        yield rho, accepted
    for defect, accepted in ((2e-8, False), (-2e-8, False), (5e-9, True), (-5e-9, True)):
        rho = base.copy()
        rho[0, 0] += defect
        yield rho, accepted
    for low, accepted in ((-2e-9, False), (-5e-10, True)):
        yield np.diag([1.0 - low, low]).astype(complex), accepted


@pytest.mark.parametrize("validate", [density_spectrum, assert_density_operator])
def test_density_checks_reject_and_accept_at_their_tolerances(validate):
    for rho, accepted in _at_density_tolerances():
        if accepted:
            validate(rho)
        else:
            with pytest.raises(ValueError, match="density operator"):
                validate(rho)
