import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fluctua.channels import SuperoperatorChannel, UnitaryChannel, identity_channel
from fluctua.models import TwoQubitExperimentConfig, two_qubit_sweep
from fluctua.protocols import (
    DegenerateEigenbasis,
    JointEnergyDistribution,
    NegativeProbability,
    NonThermalDiagonal,
    SupportMismatch,
    characteristic_function,
    characteristic_of_distribution,
    characteristic_split,
    convexity_witness,
    delta_distribution,
    epm_joint,
    epm_second_moment_split,
    initial_probabilities,
    jarzynski,
    mll_joint,
    moment,
    mutual_information,
    protocol_joint,
    sample_shots,
    shannon_entropy,
    tpm_joint,
)
from fluctua import protocols, qcore
from fluctua.qcore import (
    SpectralDecomposition,
    coherence_l1,
    dephase,
    gibbs_state,
    spectral_decompose,
)
from fluctua.sampling import (
    SeededGenerator,
    haar_random_pure,
    random_coherence,
    random_cptp,
    random_density,
    random_hamiltonian,
    random_unitary,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

# Pair of qubits with local gap epsilon = 1: energies 2, 0, 0, -2.
H_PAIR = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)


def tv(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def joint_tv(a, b):
    return 0.5 * float(np.sum(np.abs(a.probs - b.probs)))


def two_qubit_pure(theta0=2.0):
    c, s = math.cos(theta0 / 2.0), math.sin(theta0 / 2.0)
    psi = np.array([c * c, c * s, c * s, s * s], dtype=complex)
    return np.outer(psi, psi.conj())


def controlled_rotation(theta):
    """|0><0| x I + |1><1| x R with R the half-angle rotation."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = np.array([[c, -s], [s, c]])
    return u


# ---------------------------------------------------------------------------
# initial probabilities and joint tables


def level_index(spec, energy):
    return int(np.argmin(np.abs(spec.energies - energy)))


def test_initial_probabilities_eigenstate_indicator():
    spec = spectral_decompose(SZ)
    rho = np.diag([0.0, 1.0]).astype(complex)  # the E = -1 eigenstate
    p = initial_probabilities(rho, spec)
    expect = np.zeros(2)
    expect[level_index(spec, -1.0)] = 1.0
    assert np.allclose(p, expect, atol=1e-14)


def test_initial_probabilities_maximally_mixed_ranks():
    spec = spectral_decompose(H_PAIR)
    p = initial_probabilities(np.eye(4, dtype=complex) / 4.0, spec)
    # level ranks 1, 2, 1
    assert np.allclose(p, [0.25, 0.5, 0.25], atol=1e-14)


def test_initial_probabilities_two_qubit_thermal_values():
    # populations of the theta0 = 2 preparation, quoted to five digits
    spec = spectral_decompose(H_PAIR)
    p = initial_probabilities(two_qubit_pure(), spec)
    assert abs(p[level_index(spec, 2.0)] - 0.08523) < 2e-5
    assert abs(p[level_index(spec, 0.0)] - 0.41342) < 2e-5
    assert abs(p[level_index(spec, -2.0)] - 0.50135) < 2e-5
    assert abs(p.sum() - 1.0) < 1e-12


def test_epm_joint_is_product_of_marginals():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for _ in range(10):
            h_i = random_hamiltonian(d, rng)
            h_f = random_hamiltonian(d, rng)
            rho = random_density(d, gen=SeededGenerator(int(rng.integers(1 << 32))))
            chan = UnitaryChannel(random_unitary(d, rng))
            j = epm_joint(rho, chan, spectral_decompose(h_i), spectral_decompose(h_f))
            outer = np.outer(j.initial_marginal(), j.final_marginal())
            assert np.max(np.abs(j.probs - outer)) < 1e-12


def test_epm_joint_eigenstate_identity_channel():
    spec = spectral_decompose(H_PAIR)
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0  # the E = -2 product state
    j = epm_joint(rho, identity_channel(4), spec, spec)
    expect = np.zeros((3, 3))
    low = level_index(spec, -2.0)
    expect[low, low] = 1.0
    assert np.max(np.abs(j.probs - expect)) < 1e-13


def test_epm_joint_uniform_qubit():
    spec = spectral_decompose(SZ)
    j = epm_joint(np.eye(2, dtype=complex) / 2.0, identity_channel(2), spec, spec)
    assert np.allclose(j.probs, 0.25, atol=1e-14)


def test_epm_joint_matches_sixteen_entry_oracle():
    """Hand-built product table for the pair circuit at gate angle pi/2."""
    c, s = math.cos(1.0), math.sin(1.0)
    psi = np.array([c * c, c * s, c * s, s * s])
    gate = controlled_rotation(math.pi / 2.0)
    psi_out = gate @ psi.astype(complex)
    p_state = psi ** 2
    q_state = np.abs(psi_out) ** 2
    table16 = np.outer(p_state, q_state)
    # aggregate basis states into energy levels, in the decomposition's order
    spec = spectral_decompose(H_PAIR)
    diag = np.real(np.diag(H_PAIR))
    groups = [np.flatnonzero(np.abs(diag - e) < 1e-12) for e in spec.energies]
    oracle = np.array([[table16[np.ix_(a, b)].sum() for b in groups] for a in groups])

    j = epm_joint(two_qubit_pure(), UnitaryChannel(gate), spec, spec)
    assert np.max(np.abs(j.probs - oracle)) < 1e-12


def test_tpm_joint_uniform_state_hadamard():
    spec = spectral_decompose(SZ)
    j = tpm_joint(np.eye(2, dtype=complex) / 2.0, UnitaryChannel(HADAMARD), spec, spec)
    assert np.allclose(j.probs, 0.25, atol=1e-13)


def test_tpm_joint_eigenstate_commuting_unitary():
    spec = spectral_decompose(SZ)
    rho = np.diag([1.0, 0.0]).astype(complex)
    u = np.diag(np.exp(1j * np.array([0.3, -1.2])))
    j = tpm_joint(rho, UnitaryChannel(u), spec, spec)
    d = delta_distribution(j)
    assert abs(d.probs[np.argmin(np.abs(d.values))] - 1.0) < 1e-13


# ---------------------------------------------------------------------------
# collapse theorems


def test_pure_state_epm_equals_mll():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        spec_i = spectral_decompose(random_hamiltonian(d, rng))
        spec_f = spectral_decompose(random_hamiltonian(d, rng))
        for k in range(12):
            rho = random_density(d, rank=1, gen=SeededGenerator(900 + k + d))
            chan = (UnitaryChannel(random_unitary(d, rng)) if k % 2
                    else random_cptp(d, rng))
            a = epm_joint(rho, chan, spec_i, spec_f)
            b = mll_joint(rho, chan, spec_i, spec_f)
            assert joint_tv(a, b) < 1e-10


def test_diagonal_state_mll_equals_tpm():
    rng = np.random.default_rng(22)
    for d in (2, 3, 4):
        # nondegenerate spectra so level projectors are rank one
        e_i = np.sort(rng.normal(size=d))
        e_f = np.sort(rng.normal(size=d))
        spec_i = spectral_decompose(np.diag(e_i).astype(complex))
        spec_f = spectral_decompose(np.diag(e_f).astype(complex))
        for k in range(12):
            pops = rng.random(d) + 0.05 * np.arange(1, d + 1)
            pops /= pops.sum()
            rho = np.diag(pops).astype(complex)
            chan = (UnitaryChannel(random_unitary(d, rng)) if k % 2
                    else random_cptp(d, rng))
            a = mll_joint(rho, chan, spec_i, spec_f)
            b = tpm_joint(rho, chan, spec_i, spec_f)
            assert joint_tv(a, b) < 1e-10


def test_eigenstate_all_protocols_agree():
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        h = random_hamiltonian(d, rng)
        spec = spectral_decompose(h)
        vals, vecs = np.linalg.eigh(h)
        for k in range(8):
            v = vecs[:, int(rng.integers(d))]
            rho = np.outer(v, v.conj())
            chan = (UnitaryChannel(random_unitary(d, rng)) if k % 2
                    else random_cptp(d, rng))
            a = epm_joint(rho, chan, spec, spec)
            b = tpm_joint(rho, chan, spec, spec)
            c = mll_joint(rho, chan, spec, spec)
            assert joint_tv(a, b) < 1e-10
            assert joint_tv(a, c) < 1e-10


def test_diagonal_witness_epm_differs_from_tpm():
    """Analytic witness: diagonal non-eigenstate under a pi/6 rotation.

    Both joints and energy-change laws sit a total variation of exactly
    0.21 apart, so the protocols are genuinely different even without
    initial coherence.
    """
    spec = spectral_decompose(SZ)
    rho = np.diag([0.3, 0.7]).astype(complex)
    a = math.pi / 6.0
    u = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]],
                 dtype=complex)
    chan = UnitaryChannel(u)
    je = epm_joint(rho, chan, spec, spec)
    jt = tpm_joint(rho, chan, spec, spec)
    assert abs(joint_tv(je, jt) - 0.21) < 1e-12
    de = delta_distribution(je)
    dt = delta_distribution(jt)
    assert np.allclose(de.values, dt.values)
    assert abs(tv(de.probs, dt.probs) - 0.21) < 1e-12


def test_mll_degenerate_spectrum_warns():
    rng = np.random.default_rng(24)
    u = random_unitary(3, rng)
    rho = u @ np.diag([0.4, 0.4, 0.2]).astype(complex) @ u.conj().T
    spec = spectral_decompose(np.diag([1.0, 0.0, -1.0]).astype(complex))
    with pytest.warns(DegenerateEigenbasis):
        mll_joint(rho, identity_channel(3), spec, spec)


# ---------------------------------------------------------------------------
# energy-change distributions and moments


def test_delta_distribution_merges_zero():
    spec = spectral_decompose(SZ)
    j = epm_joint(np.eye(2, dtype=complex) / 2.0, identity_channel(2), spec, spec)
    d = delta_distribution(j)
    assert np.allclose(d.values, [-2.0, 0.0, 2.0], atol=1e-12)
    assert np.allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-12)


def test_delta_distribution_two_qubit_grid():
    spec = spectral_decompose(H_PAIR)
    j = epm_joint(two_qubit_pure(), identity_channel(4), spec, spec)
    d = delta_distribution(j)
    assert np.allclose(d.values, [-4.0, -2.0, 0.0, 2.0, 4.0], atol=1e-12)
    assert abs(d.probs.sum() - 1.0) < 1e-12


def test_delta_single_entry():
    j = JointEnergyDistribution(np.array([0.5]), np.array([1.5]),
                                np.array([[1.0]]), "EPM")
    d = delta_distribution(j)
    assert d.values.size == 1 and abs(d.values[0] - 1.0) < 1e-15
    assert abs(d.probs[0] - 1.0) < 1e-15


def test_delta_distribution_merges_chains_and_zero_mass_groups():
    # Changes 0, 0.08, 0.16, 0.24 each lie within tol = 0.1 of the previous
    # one, so they form one group although they span 0.24; 2.0 and 2.05 form
    # a group of zero mass, whose value is the plain mean of its changes.
    final = np.array([0.0, 0.08, 0.16, 0.24, 1.0, 2.0, 2.05])
    probs = np.array([[0.1, 0.2, 0.3, 0.0, 0.4, 0.0, 0.0]])
    j = JointEnergyDistribution(np.array([0.0]), final, probs, "EPM")
    d = delta_distribution(j, merge_tol=0.1)
    assert np.allclose(d.values, [(0.08 * 0.2 + 0.16 * 0.3) / 0.6, 1.0, 2.025],
                       rtol=0, atol=1e-15)
    assert np.allclose(d.probs, [0.6, 0.4, 0.0], rtol=0, atol=1e-15)


def test_mean_matches_trace_formula():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        h_i = random_hamiltonian(d, rng)
        h_f = random_hamiltonian(d, rng)
        rho = random_density(d, gen=SeededGenerator(int(rng.integers(1 << 32))))
        chan = random_cptp(d, rng)
        expect = float(np.trace(h_f @ chan.apply(rho)).real
                       - np.trace(h_i @ rho).real)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        m_epm = moment(epm_joint(rho, chan, spec_i, spec_f), 1)
        m_mll = moment(mll_joint(rho, chan, spec_i, spec_f), 1)
        assert abs(m_epm - expect) < 1e-9
        assert abs(m_mll - expect) < 1e-9


def test_point_mass_moments_vanish():
    j = JointEnergyDistribution(np.array([1.0]), np.array([1.0]),
                                np.array([[1.0]]), "TPM")
    for n in (1, 2, 3, 4):
        assert moment(j, n) == 0.0


def test_second_moment_split_reconstructs_distribution():
    rng = np.random.default_rng(32)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        h_i = random_hamiltonian(d, rng)
        h_f = random_hamiltonian(d, rng)
        rho = random_density(d, gen=SeededGenerator(int(rng.integers(1 << 32))))
        chan = (UnitaryChannel(random_unitary(d, rng)) if rng.random() < 0.5
                else random_cptp(d, rng))
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        vals, vecs = np.linalg.eigh(h_i)
        split = epm_second_moment_split(rho, chan, spec_i, spec_f, basis=vecs)
        m2 = moment(epm_joint(rho, chan, spec_i, spec_f), 2)
        assert abs(split.total - m2) < 1e-9
        assert abs(split.population_part + split.coherence_part - split.total) < 1e-9


def test_second_moment_split_no_coherence():
    rng = np.random.default_rng(33)
    spec = spectral_decompose(np.diag([1.5, 0.3, -0.8]).astype(complex))
    pops = np.array([0.5, 0.3, 0.2])
    rho = np.diag(pops).astype(complex)
    chan = UnitaryChannel(random_unitary(3, rng))
    split = epm_second_moment_split(rho, chan, spec, spec)
    assert abs(split.coherence_part) < 1e-10
    assert abs(split.total - split.population_part) < 1e-10


def test_second_moment_pure_state_equals_mll():
    rng = np.random.default_rng(34)
    for k in range(10):
        h = random_hamiltonian(3, rng)
        spec = spectral_decompose(h)
        rho = random_density(3, rank=1, gen=SeededGenerator(70 + k))
        chan = UnitaryChannel(random_unitary(3, rng))
        vals, vecs = np.linalg.eigh(h)
        split = epm_second_moment_split(rho, chan, spec, spec, basis=vecs)
        m2_mll = moment(mll_joint(rho, chan, spec, spec), 2)
        assert abs(split.total - m2_mll) < 1e-9


# ---------------------------------------------------------------------------
# characteristic functions


def test_characteristic_function_at_zero_is_one():
    rng = np.random.default_rng(41)
    h = random_hamiltonian(3, rng)
    spec = spectral_decompose(h)
    rho = random_density(3, gen=SeededGenerator(5))
    chan = random_cptp(3, rng)
    for tag in ("EPM", "TPM", "MLL"):
        g = characteristic_function(tag, rho, chan, spec, spec, 0.0)
        assert abs(g - 1.0) < 1e-12


def test_characteristic_function_matches_distribution():
    rng = np.random.default_rng(42)
    us = list(np.linspace(-3.0, 3.0, 9)) + [0.443j, 1.1 + 0.25j]
    for k in range(6):
        d = 2 + k % 3
        h_i = random_hamiltonian(d, rng)
        h_f = random_hamiltonian(d, rng)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        rho = random_density(d, gen=SeededGenerator(400 + k))
        chan = (UnitaryChannel(random_unitary(d, rng)) if k % 2
                else random_cptp(d, rng))
        for tag in ("EPM", "TPM", "MLL"):
            j = protocol_joint(tag, rho, chan, spec_i, spec_f)
            for u in us:
                a = characteristic_function(tag, rho, chan, spec_i, spec_f, u)
                b = characteristic_of_distribution(j, u)
                assert abs(a - b) < 1e-9


def test_characteristic_spot_value_pair_of_qubits():
    # EPM at u = i*0.443 with the identity channel; quoted 1.37632
    spec = spectral_decompose(H_PAIR)
    g = characteristic_function("EPM", two_qubit_pure(), identity_channel(4),
                                spec, spec, 1j * 0.443)
    assert abs(g.real - 1.37632) < 1e-4
    assert abs(g.imag) < 1e-12


def test_characteristic_split_adds_up():
    rng = np.random.default_rng(43)
    spec = spectral_decompose(H_PAIR)
    rho = two_qubit_pure()
    for theta in (0.4, 1.1, 2.7, 5.0):
        chan = UnitaryChannel(controlled_rotation(theta))
        for u in (0.7, 1j * 0.443, -1.9):
            g_pop, g_coh = characteristic_split(rho, chan, spec, spec, u)
            g = characteristic_function("EPM", rho, chan, spec, spec, u)
            assert abs(g_pop + g_coh - g) < 1e-10


def test_characteristic_split_no_coherence():
    rng = np.random.default_rng(44)
    spec = spectral_decompose(np.diag([1.0, 0.2, -1.3]).astype(complex))
    rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
    chan = random_cptp(3, rng)
    g_pop, g_coh = characteristic_split(rho, chan, spec, spec, 0.9)
    assert abs(g_coh) < 1e-12
    g = characteristic_function("EPM", rho, chan, spec, spec, 0.9)
    assert abs(g_pop - g) < 1e-10


def test_characteristic_split_eigenstate_population_equals_tpm():
    spec = spectral_decompose(np.diag([1.0, 0.2, -1.3]).astype(complex))
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1.0
    rng = np.random.default_rng(45)
    chan = UnitaryChannel(random_unitary(3, rng))
    for u in (0.3, 1j * 0.5):
        g_pop, g_coh = characteristic_split(rho, chan, spec, spec, u)
        g_tpm = characteristic_function("TPM", rho, chan, spec, spec, u)
        assert abs(g_pop - g_tpm) < 1e-12
        assert abs(g_coh) < 1e-12


def test_tpm_characteristic_is_unity_for_thermal_diagonal():
    """Unitary dynamics on a thermal-diagonal state: G_TPM(i beta) = 1."""
    rng = np.random.default_rng(46)
    beta = math.log(math.tan(1.0))
    spec = spectral_decompose(H_PAIR)
    rho = two_qubit_pure()
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        chan = UnitaryChannel(controlled_rotation(theta))
        g = characteristic_function("TPM", rho, chan, spec, spec, 1j * beta)
        assert abs(g - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Jarzynski functional


def thermal_plus_coherence(h, beta, seed, scale=1.0):
    rho_th = gibbs_state(h, beta)
    pops = np.real(np.diag(rho_th))
    chi = random_coherence(pops, SeededGenerator(seed), scale=scale)
    return rho_th + chi


def test_jarzynski_parts_sum_to_total():
    rng = np.random.default_rng(51)
    h = np.diag([1.3, 0.2, -0.9, -1.8]).astype(complex)
    spec = spectral_decompose(h)
    beta = 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(10):
            rho = thermal_plus_coherence(h, beta, 600 + k, scale=0.8)
            chan = (UnitaryChannel(random_unitary(4, rng)) if k % 2
                    else random_cptp(4, rng))
            rep = jarzynski(rho, chan, spec, spec, beta)
            assert abs(rep.total - rep.diagonal_part - rep.coherence_part) < 1e-10
            assert rep.beta == beta
            assert abs(rep.delta_free_energy) < 1e-12  # same spectrum both ends


def test_jarzynski_beta_zero_limit():
    h_i = np.diag([1.0, 0.0, -1.0]).astype(complex)
    h_f = np.diag([2.0, 0.5, -0.5]).astype(complex)
    rho = np.eye(3, dtype=complex) / 3.0
    rng = np.random.default_rng(52)
    chan = UnitaryChannel(random_unitary(3, rng))
    rep = jarzynski(rho, chan, spectral_decompose(h_i), spectral_decompose(h_f), 0.0)
    assert abs(rep.total - 1.0) < 1e-12
    # beta -> 0 free energy difference tends to the mean energy change
    assert abs(rep.delta_free_energy - (2.0 / 3.0 - 0.0)) < 1e-12


def test_jarzynski_warns_off_thermal():
    h = np.diag([1.0, -1.0]).astype(complex)
    spec = spectral_decompose(h)
    rho = np.diag([0.5, 0.5]).astype(complex)  # not thermal at beta = 1
    with pytest.warns(NonThermalDiagonal):
        jarzynski(rho, identity_channel(2), spec, spec, 1.0)


def test_jarzynski_tpm_counterpart_is_unity():
    """<exp(-beta(dE - dF))> under the two-point scheme for unitary maps."""
    beta = 0.6
    rng = np.random.default_rng(53)
    h_i = np.diag([1.1, 0.4, -0.7]).astype(complex)
    h_f = np.diag([0.9, 0.1, -1.2]).astype(complex)
    spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
    z_i = float(np.sum(np.exp(-beta * spec_i.energies) * spec_i.ranks))
    z_f = float(np.sum(np.exp(-beta * spec_f.energies) * spec_f.ranks))
    rho = gibbs_state(h_i, beta)
    for _ in range(5):
        chan = UnitaryChannel(random_unitary(3, rng))
        g = characteristic_function("TPM", rho, chan, spec_i, spec_f, 1j * beta)
        assert abs(g * (z_i / z_f) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# entropies, mutual information, recovery


def test_entropy_ordering_mll_below_epm():
    rng = np.random.default_rng(61)
    for k in range(20):
        h_i = random_hamiltonian(3, rng)
        h_f = random_hamiltonian(3, rng)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        rho = random_density(3, gen=SeededGenerator(800 + k))
        chan = (UnitaryChannel(random_unitary(3, rng)) if k % 2
                else random_cptp(3, rng))
        h_mll = shannon_entropy(mll_joint(rho, chan, spec_i, spec_f))
        h_epm = shannon_entropy(epm_joint(rho, chan, spec_i, spec_f))
        assert h_mll <= h_epm + 1e-12


def test_no_coherence_epm_is_product_of_tpm_marginals():
    rng = np.random.default_rng(62)
    spec = spectral_decompose(np.diag([1.4, 0.1, -1.1]).astype(complex))
    for k in range(10):
        pops = rng.random(3) + 0.1
        pops /= pops.sum()
        rho = np.diag(pops).astype(complex)
        chan = (UnitaryChannel(random_unitary(3, rng)) if k % 2
                else random_cptp(3, rng))
        je = epm_joint(rho, chan, spec, spec)
        jt = tpm_joint(rho, chan, spec, spec)
        outer = np.outer(jt.initial_marginal(), jt.final_marginal())
        assert np.max(np.abs(je.probs - outer)) < 1e-10
        assert shannon_entropy(jt) <= shannon_entropy(je) + 1e-12


def test_mutual_information_nonnegative_zero_iff_pure():
    rng = np.random.default_rng(63)
    for k in range(15):
        h_i = random_hamiltonian(3, rng)
        h_f = random_hamiltonian(3, rng)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        chan = UnitaryChannel(random_unitary(3, rng))
        pure = random_density(3, rank=1, gen=SeededGenerator(910 + k))
        mixed = random_density(3, gen=SeededGenerator(950 + k))
        mi_pure = mutual_information(mll_joint(pure, chan, spec_i, spec_f),
                                     epm_joint(pure, chan, spec_i, spec_f))
        mi_mixed = mutual_information(mll_joint(mixed, chan, spec_i, spec_f),
                                      epm_joint(mixed, chan, spec_i, spec_f))
        assert mi_pure > -1e-14
        assert abs(mi_pure) < 1e-10
        assert mi_mixed > 1e-8


def test_mutual_information_grid_mismatch_raises():
    spec_a = spectral_decompose(SZ)
    spec_b = spectral_decompose(np.diag([1.5, -1.5]).astype(complex))
    rho = np.eye(2, dtype=complex) / 2.0
    a = epm_joint(rho, identity_channel(2), spec_a, spec_a)
    b = epm_joint(rho, identity_channel(2), spec_b, spec_b)
    with pytest.raises(SupportMismatch):
        mutual_information(a, b)


def test_tpm_recovered_from_projector_epm_runs():
    """Mixing per-level end-point runs with p_l reproduces the two-point law."""
    rng = np.random.default_rng(64)
    for k in range(10):
        d = 3 if k % 2 else 4
        if k % 3 == 0:  # include degenerate initial spectra
            h_i = np.diag([1.0] * (d - 1) + [-1.0]).astype(complex)
        else:
            h_i = np.diag(np.sort(rng.normal(size=d))).astype(complex)
        spec_i = spectral_decompose(h_i)
        spec_f = spectral_decompose(random_hamiltonian(d, rng))
        rho = random_density(d, gen=SeededGenerator(1000 + k))
        chan = (UnitaryChannel(random_unitary(d, rng)) if k % 2
                else random_cptp(d, rng))
        jt = tpm_joint(rho, chan, spec_i, spec_f)
        p = initial_probabilities(rho, spec_i)
        mix = np.zeros_like(jt.probs)
        for l, proj in enumerate(spec_i.projectors):
            state = proj / np.trace(proj)
            sub = epm_joint(state, chan, spec_i, spec_f)
            mix += p[l] * sub.probs
        assert np.max(np.abs(mix - jt.probs)) < 1e-12


# ---------------------------------------------------------------------------
# sampling, shot errors, convexity witness


def test_sample_shots_deterministic_and_tagged():
    spec = spectral_decompose(H_PAIR)
    rho = two_qubit_pure()
    chan = UnitaryChannel(controlled_rotation(1.3))
    a = sample_shots("EPM", rho, chan, spec, spec, 512, SeededGenerator(7))
    b = sample_shots("EPM", rho, chan, spec, spec, 512, SeededGenerator(7))
    assert np.array_equal(a.probs, b.probs)
    assert a.n_shots == 512 and a.protocol == "EPM"


def test_sample_shots_default_generator_is_one_stream():
    # a maximally mixed qubit through a Hadamard fills every EPM cell with
    # 1/4; records drawn from repeated copies of one stream would fill only
    # the diagonal
    spec = spectral_decompose(SZ)
    rho = np.eye(2, dtype=complex) / 2.0
    emp = sample_shots("EPM", rho, UnitaryChannel(HADAMARD), spec, spec, 4000, None)
    assert np.max(np.abs(emp.probs - 0.25)) < 0.03


def test_sample_shots_converges_to_exact():
    spec = spectral_decompose(H_PAIR)
    rho = two_qubit_pure()
    chan = UnitaryChannel(controlled_rotation(2.2))
    for tag in ("EPM", "TPM", "MLL"):
        exact = protocol_joint(tag, rho, chan, spec, spec)
        emp = sample_shots(tag, rho, chan, spec, spec, 20000, SeededGenerator(41))
        assert joint_tv(exact, emp) < 0.02


def test_sample_shots_counts_are_pinned():
    # count tables captured before the three schemes shared one sampler;
    # any change to the draw order or to the streams it consumes fails here
    rng = np.random.default_rng(404)
    spec_i = spectral_decompose(random_hamiltonian(3, rng))
    spec_f = spectral_decompose(random_hamiltonian(3, rng))
    chan = random_cptp(3, rng)
    rho = random_density(3, gen=SeededGenerator(4040))
    pinned = {"EPM": [[101, 43, 43], [77, 47, 35], [81, 39, 34]],
              "TPM": [[138, 39, 10], [42, 55, 62], [82, 51, 21]],
              "MLL": [[84, 61, 28], [74, 28, 55], [83, 62, 25]]}
    for tag, counts in pinned.items():
        emp = sample_shots(tag, rho, chan, spec_i, spec_f, 500, SeededGenerator(4041))
        assert np.array_equal(np.rint(emp.probs * 500), counts)


def test_sample_shots_uniform_above_rounded_total():
    # level populations whose cumulative sum rounds to just under 1, and a
    # generator that returns the largest uniform below 1: every draw must
    # land in the last level, not past it
    class TopUniform:
        def random(self, n):
            return np.full(n, np.nextafter(1.0, 0.0))

    spec = spectral_decompose(np.diag([0.0, 1.0, 2.0]).astype(complex))
    rho = np.diag([0.432, 0.461, 1.0 - 0.432 - 0.461]).astype(complex)
    gen = SeededGenerator(1)
    gen.rng = TopUniform()
    # the last MLL member is the eigenstate of the largest weight, 0.461
    last = {"EPM": (2, 2), "TPM": (2, 2), "MLL": (1, 1)}
    for tag, cell in last.items():
        emp = sample_shots(tag, rho, identity_channel(3), spec, spec, 8, gen)
        assert emp.probs[cell] == 1.0


def test_sample_shots_validates_input():
    spec = spectral_decompose(SZ)
    rho = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError):
        sample_shots("EPM", rho, identity_channel(2), spec, spec, 0,
                     SeededGenerator(1))
    with pytest.raises(ValueError):
        sample_shots("XYZ", rho, identity_channel(2), spec, spec, 4,
                     SeededGenerator(1))


def random_cptp_batch(rng, d, size):
    return SuperoperatorChannel(np.stack([random_cptp(d, rng).superoperator
                                          for _ in range(size)]))


@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate-d3"])
def test_batched_sample_shots_matches_single_calls(degenerate):
    rng = np.random.default_rng(505)
    if degenerate:
        d = 3
        spec_i = spectral_decompose(np.diag([1.0, 1.0, -1.0]).astype(complex))
    else:
        d = 4
        spec_i = spectral_decompose(random_hamiltonian(d, rng))
    spec_f = spectral_decompose(random_hamiltonian(d, rng))
    batch = random_cptp_batch(rng, d, 5)
    rho = random_density(d, gen=SeededGenerator(5050))
    master = SeededGenerator(5051)
    for tag in ("EPM", "TPM", "MLL"):
        streams = [master.spawn(t) for t in range(5)]
        emp = sample_shots(tag, rho, batch, spec_i, spec_f, 300, streams)
        assert emp.probs.shape == (5,) + emp.probs.shape[-2:] and emp.n_shots == 300
        for t in range(5):
            one = sample_shots(tag, rho, SuperoperatorChannel(batch.superoperator[t]),
                               spec_i, spec_f, 300, master.spawn(t))
            assert np.array_equal(emp.probs[t], one.probs), (tag, t)


def test_batched_sample_shots_needs_one_stream_per_channel():
    rng = np.random.default_rng(506)
    spec = spectral_decompose(H_PAIR)
    batch = random_cptp_batch(rng, 4, 3)
    streams = [SeededGenerator(k) for k in range(2)]
    with pytest.raises(ValueError, match="2 streams for a batch of 3 channels"):
        sample_shots("EPM", two_qubit_pure(), batch, spec, spec, 16, streams)
    with pytest.raises(ValueError, match="1 streams for a batch of 3 channels"):
        sample_shots("TPM", two_qubit_pure(), batch, spec, spec, 16, SeededGenerator(1))
    with pytest.raises(ValueError, match="2 streams for a batch of 1 channels"):
        sample_shots("EPM", two_qubit_pure(), UnitaryChannel(controlled_rotation(0.4)),
                     spec, spec, 16, streams)


def take_draw(rngs, probs, rows):
    """Reference for the sampler's draw: int64 picks gathered with ``take``.

    Each level's cumulative sums are one flat (members * rows) array, read
    at the flat index row + rows * member of every shot.
    """
    below = np.cumsum(probs, axis=-1)
    n_rows, n_levels = below.shape[-2:]
    levels = np.ascontiguousarray(below.reshape(-1, n_levels).T[:-1])
    flat = rows
    if levels.shape[1] > n_rows:  # a table of rows for each batch member
        flat = rows + n_rows * np.arange(len(rngs)).reshape(-1, 1)
    u = np.stack([rng.random(rows.shape[-1]) for rng in rngs]).reshape(rows.shape)
    picked = np.zeros(rows.shape, dtype=int)
    for level in levels:
        picked += level.take(flat) <= u
    return picked


def take_sample_shots(protocol, rho, channel, spec_i, spec_f, n_shots, streams):
    """Reference for :func:`sample_shots`: :func:`take_draw` and one bincount
    over the int64 codes of all streams, each offset into a range of its own."""
    weights, before, after = protocols._member_populations(protocol, rho, channel,
                                                           spec_i, spec_f)
    batch = after.shape[:-2]
    rngs = [stream.rng for stream in streams]
    first = np.zeros(batch + (n_shots,), dtype=int)
    member = first if protocol == "EPM" else take_draw(rngs, weights[None], first)
    level = member if protocol == "TPM" else take_draw(rngs, before, member)
    final = take_draw(rngs, after, member)
    n_i, n_f = spec_i.energies.shape[-1], spec_f.energies.shape[-1]
    offset = n_i * n_f * np.arange(len(rngs)).reshape(batch + (1,))
    counts = np.bincount((offset + level * n_f + final).ravel(),
                         minlength=len(rngs) * n_i * n_f).reshape(batch + (n_i, n_f))
    return JointEnergyDistribution(spec_i.energies, spec_f.energies,
                                   counts / n_shots, protocol, n_shots=n_shots)


SAMPLER_CASES = {"d2": 2, "d3": 3, "d4": 4, "d9": 9, "degenerate-d3": 3, "pure-d4": 4}


@pytest.mark.parametrize("size", [None, 5, 21], ids=["one-channel", "T5", "T21"])
@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_sample_shots_matches_take_based_draws(case, size):
    d = SAMPLER_CASES[case]
    rng = np.random.default_rng([606, d, size or 1])
    if case == "degenerate-d3":
        spec_i = spectral_decompose(np.diag([1.0, 1.0, -1.0]).astype(complex))
    else:
        spec_i = spectral_decompose(random_hamiltonian(d, rng))
    spec_f = spectral_decompose(random_hamiltonian(d, rng))
    if case == "pure-d4":
        rho = haar_random_pure(d, SeededGenerator(6060))
    else:
        rho = random_density(d, gen=SeededGenerator(6061))
    chan = random_cptp(d, rng) if size is None else random_cptp_batch(rng, d, size)
    master = SeededGenerator(6062)
    for n_shots in (1, 7, 2048):
        for tag in ("EPM", "TPM", "MLL"):
            streams = [master.spawn(t) for t in range(size or 1)]
            gen = streams[0] if size is None else streams
            emp = sample_shots(tag, rho, chan, spec_i, spec_f, n_shots, gen)
            ref = take_sample_shots(tag, rho, chan, spec_i, spec_f, n_shots,
                                    [master.spawn(t) for t in range(size or 1)])
            assert np.array_equal(emp.probs, ref.probs), (tag, n_shots)


@pytest.mark.parametrize("size", [None, 5], ids=["one-channel", "T5"])
def test_sampled_joint_carries_the_exact_joint_it_was_drawn_from(size):
    # the exact joint comes from the same member populations as the draws,
    # so it is the protocol's joint bit for bit
    rng = np.random.default_rng([607, size or 1])
    spec_i = spectral_decompose(random_hamiltonian(3, rng))
    spec_f = spectral_decompose(random_hamiltonian(3, rng))
    rho = random_density(3, gen=SeededGenerator(6071))
    chan = random_cptp(3, rng) if size is None else random_cptp_batch(rng, 3, size)
    for tag in ("EPM", "TPM", "MLL"):
        streams = [SeededGenerator(6072).spawn(t) for t in range(size or 1)]
        emp = sample_shots(tag, rho, chan, spec_i, spec_f, 64,
                           streams[0] if size is None else streams)
        exact = protocol_joint(tag, rho, chan, spec_i, spec_f)
        assert emp.exact.probs.tobytes() == exact.probs.tobytes(), tag
        assert (emp.exact.protocol, emp.exact.n_shots, emp.exact.exact) == (tag, None, None)


def test_sampler_rejects_more_than_255_levels():
    probs = np.full((1, 256), 1.0 / 256)
    with pytest.raises(ValueError, match="at most 255 levels"):
        protocols._draw([np.random.default_rng(1)], probs, None, np.empty((1, 4)))
    assert protocols._draw([np.random.default_rng(1)], probs[:, 1:], None,
                           np.empty((1, 4))).dtype == np.uint8


def test_shot_sweep_memory_is_bounded():
    # 21 points x 2048 shots: the sampler reuses one uniform buffer per
    # record and keeps uint8 picks, so no (21, 2048) int64 arrays pile up;
    # an untraced first call loads the modules numpy's seeding imports lazily
    config = TwoQubitExperimentConfig(n_shots=2048)
    two_qubit_sweep(config, SeededGenerator(5))
    tracemalloc.start()
    try:
        two_qubit_sweep(config, SeededGenerator(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_bootstrap_standard_error_scales():
    # the sweep's closed-form errors drop as 1/sqrt(n): factor 4 from 400 to 6400
    def se(n):
        cfg = TwoQubitExperimentConfig(n_shots=n)
        return two_qubit_sweep(cfg, gen=SeededGenerator(9)).columns["G_TPM_se"]

    small, large = se(400), se(6400)
    # at some angles the two-point record is deterministic and both errors vanish
    live = small > 1e-6
    assert live.sum() >= 10
    assert np.all((2.0 < small[live] / large[live]) & (small[live] / large[live] < 8.0))
    assert np.array_equal(se(400), small)


def test_convexity_witness_zero_at_endpoints():
    rng = np.random.default_rng(71)
    spec = spectral_decompose(SZ)
    r1 = random_density(2, gen=SeededGenerator(3001))
    r2 = random_density(2, gen=SeededGenerator(3002))
    chan = UnitaryChannel(random_unitary(2, rng))
    for zeta in (0.0, 1.0):
        assert convexity_witness(r1, r2, zeta, chan, spec, spec) < 1e-12


def test_convexity_witness_finds_gap():
    """The coherent part of the law is not linear in the state."""
    rng = np.random.default_rng(72)
    spec = spectral_decompose(SZ)
    best = 0.0
    for k in range(20):
        r1 = random_density(2, rank=1, gen=SeededGenerator(3100 + k))
        r2 = random_density(2, rank=1, gen=SeededGenerator(3200 + k))
        chan = UnitaryChannel(random_unitary(2, rng))
        gap = convexity_witness(r1, r2, 0.5, chan, spec, spec)
        assert gap >= -1e-15
        states = qcore.density_spectrum(r1), qcore.density_spectrum(r2)
        assert convexity_witness(*states, 0.5, chan, spec, spec) == gap
        best = max(best, gap)
    assert best > 1e-6


# ---------------------------------------------------------------------------
# joint-table hygiene


def test_joint_clamps_float_noise():
    probs = np.array([[0.5, -5e-13], [0.25, 0.25 + 5e-13]])
    j = JointEnergyDistribution(np.array([1.0, -1.0]), np.array([1.0, -1.0]),
                                probs, "EPM")
    assert np.min(j.probs) == 0.0
    assert abs(j.probs.sum() - 1.0) < 1e-15


def test_joint_rejects_genuine_negative():
    probs = np.array([[0.5, -1e-6], [0.25, 0.25 + 1e-6]])
    with pytest.raises(NegativeProbability):
        JointEnergyDistribution(np.array([1.0, -1.0]), np.array([1.0, -1.0]),
                                probs, "EPM")


def test_joint_rejects_bad_total():
    probs = np.array([[0.5, 0.1], [0.25, 0.25]])
    with pytest.raises(ValueError):
        JointEnergyDistribution(np.array([1.0, -1.0]), np.array([1.0, -1.0]),
                                probs, "EPM")


def test_joint_rejects_non_finite_probability():
    probs = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"non-finite probability nan at index \(0, 0\)"):
        JointEnergyDistribution(np.array([0.0, 1.0]), np.array([0.0, 1.0]), probs, "EPM")


def test_sampler_rejects_non_finite_channel():
    # a NaN in the superoperator must not pass as a plausible table
    spec = spectral_decompose(SZ)
    superop = np.eye(4, dtype=complex)
    superop[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite probability"):
        sample_shots("EPM", np.diag([0.5, 0.5]).astype(complex),
                     SuperoperatorChannel(superop), spec, spec, 64, SeededGenerator(1))


def test_non_states_are_rejected():
    # Hermitian with unit trace, but one eigenvalue is negative
    spec = spectral_decompose(SZ)
    bad = np.diag([1.1, -0.1]).astype(complex)
    chan = UnitaryChannel(HADAMARD)
    with pytest.raises(ValueError):
        mll_joint(bad, chan, spec, spec)
    with pytest.raises(ValueError):
        characteristic_function("MLL", bad, chan, spec, spec, 0.3)
    with pytest.raises(ValueError):
        sample_shots("MLL", bad, chan, spec, spec, 16, SeededGenerator(1))


# Every protocol entry point that takes one initial state, reduced to its numbers.
SINGLE_STATE_ENTRY_POINTS = {
    "protocol_joint": lambda rho, chan, spec: protocol_joint("MLL", rho, chan, spec, spec).probs,
    "epm_joint": lambda rho, chan, spec: epm_joint(rho, chan, spec, spec).probs,
    "tpm_joint": lambda rho, chan, spec: tpm_joint(rho, chan, spec, spec).probs,
    "mll_joint": lambda rho, chan, spec: mll_joint(rho, chan, spec, spec).probs,
    "characteristic_function":
        lambda rho, chan, spec: characteristic_function("EPM", rho, chan, spec, spec, 0.3),
    "characteristic_split":
        lambda rho, chan, spec: characteristic_split(rho, chan, spec, spec, 0.3),
    "epm_second_moment_split": lambda rho, chan, spec: tuple(
        vars(epm_second_moment_split(rho, chan, spec, spec)).values()),
    "jarzynski": lambda rho, chan, spec: tuple(
        vars(jarzynski(rho, chan, spec, spec, 0.5)).values()),
    "sample_shots": lambda rho, chan, spec: sample_shots(
        "MLL", rho, chan, spec, spec, 16, SeededGenerator(1)).probs,
    "initial_probabilities": lambda rho, chan, spec: initial_probabilities(rho, spec),
}


@pytest.mark.parametrize("name", sorted(SINGLE_STATE_ENTRY_POINTS))
def test_single_state_entry_points_validate_the_state(name, monkeypatch):
    call = SINGLE_STATE_ENTRY_POINTS[name]
    spec, chan = spectral_decompose(SZ), UnitaryChannel(HADAMARD)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        call(np.diag([1.5, -0.5]), chan, spec)
    with pytest.raises(ValueError, match="trace"):
        call(np.diag([0.5, 0.3]), chan, spec)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    state = qcore.density_spectrum(rho)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonThermalDiagonal)
        expected = call(rho, chan, spec)
        # a validated state is taken as it is, with no second validation
        monkeypatch.setattr(protocols, "density_spectrum", None)
        assert np.array_equal(call(state, chan, spec), expected)


def test_mll_reuses_the_validation_eigendecomposition(monkeypatch):
    # every eigendecomposition, through hermitian_eig or a state's
    # validation, runs the one gauged solver
    original, calls = qcore._gauged_eigh, []
    monkeypatch.setattr(qcore, "_gauged_eigh",
                        lambda matrix: calls.append(1) or original(matrix))
    spec = spectral_decompose(H_PAIR)
    calls.clear()
    mll_joint(random_density(4, gen=SeededGenerator(9)), identity_channel(4), spec, spec)
    assert len(calls) == 1


def test_protocol_joint_rejects_unknown_tag():
    spec = spectral_decompose(SZ)
    with pytest.raises(ValueError):
        protocol_joint("ABC", np.eye(2, dtype=complex) / 2.0,
                       identity_channel(2), spec, spec)


# ---------------------------------------------------------------------------
# evaluation over a batch of channels


def assert_batch_matches(batch, singles, tol=1e-14):
    # a quantity that does not depend on the channel stays unbatched
    batch = np.broadcast_to(batch, (len(singles),) + np.shape(singles[0]))
    for k, single in enumerate(singles):
        assert np.abs(batch[k] - single).max() <= tol


@pytest.mark.parametrize("batched_final", [False, True])
def test_protocols_broadcast_over_a_channel_batch(batched_final):
    rng = np.random.default_rng(81)
    d, n = 3, 4
    chans = [random_cptp(d, rng) for _ in range(n)]
    batch = SuperoperatorChannel(np.array([c.superoperator for c in chans]))
    h_i = random_hamiltonian(d, rng)
    spec_i = spectral_decompose(h_i)
    energies, basis = np.linalg.eigh(h_i)
    specs_f = (spectral_decompose(np.array([random_hamiltonian(d, rng) for _ in range(n)]))
               if batched_final else [spec_i] * n)
    spec_f = SpectralDecomposition.stack(specs_f) if batched_final else spec_i
    beta = 0.6
    pops = np.exp(-beta * energies)
    pops /= pops.sum()
    rho = basis @ (np.diag(pops) + random_coherence(pops, SeededGenerator(4))) @ basis.conj().T
    pairs = list(zip(chans, specs_f))

    for protocol in ("EPM", "TPM", "MLL"):
        joint = protocol_joint(protocol, rho, batch, spec_i, spec_f)
        singles = [protocol_joint(protocol, rho, c, spec_i, s) for c, s in pairs]
        assert_batch_matches(joint.probs, [j.probs for j in singles])
        dist = delta_distribution(joint)
        for k, single in enumerate(singles):
            ref = delta_distribution(single)
            m = ref.values.size
            assert np.abs(dist.values[k, :m] - ref.values).max() <= 1e-14
            assert np.abs(dist.probs[k, :m] - ref.probs).max() <= 1e-14
            assert not dist.probs[k, m:].any()
        assert_batch_matches(shannon_entropy(dist),
                             [shannon_entropy(delta_distribution(j)) for j in singles])
        assert_batch_matches(moment(dist, 2),
                             [moment(delta_distribution(j), 2) for j in singles])
        assert_batch_matches(moment(joint, 3), [moment(j, 3) for j in singles])
        assert_batch_matches(characteristic_of_distribution(joint, 0.4j),
                             [characteristic_of_distribution(j, 0.4j) for j in singles])
        assert_batch_matches(
            characteristic_function(protocol, rho, batch, spec_i, spec_f, 1j * beta),
            [characteristic_function(protocol, rho, c, spec_i, s, 1j * beta)
             for c, s in pairs])
    g_pop, g_coh = characteristic_split(rho, batch, spec_i, spec_f, 0.8, basis=basis)
    singles = [characteristic_split(rho, c, spec_i, s, 0.8, basis=basis) for c, s in pairs]
    assert_batch_matches(g_pop, [g[0] for g in singles])
    assert_batch_matches(g_coh, [g[1] for g in singles])
    split = epm_second_moment_split(rho, batch, spec_i, spec_f, basis=basis)
    singles = [epm_second_moment_split(rho, c, spec_i, s, basis=basis) for c, s in pairs]
    for field in ("total", "population_part", "coherence_part"):
        assert_batch_matches(getattr(split, field), [getattr(x, field) for x in singles])
    rep = jarzynski(rho, batch, spec_i, spec_f, beta, basis=basis)
    singles = [jarzynski(rho, c, spec_i, s, beta, basis=basis) for c, s in pairs]
    for field in ("delta_free_energy", "total", "diagonal_part", "coherence_part"):
        assert_batch_matches(getattr(rep, field), [getattr(x, field) for x in singles])
    assert_batch_matches(coherence_l1(batch.apply(rho)),
                         [coherence_l1(c.apply(rho)) for c in chans])


def test_batched_joint_rejects_any_bad_total():
    probs = np.array([[[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.1], [0.25, 0.25]]])
    with pytest.raises(ValueError, match="sum to 1.1"):
        JointEnergyDistribution(np.array([1.0, -1.0]), np.array([1.0, -1.0]),
                                probs, "EPM")
