import math
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
from fluctua.qcore import dephase, gibbs_state, spectral_decompose
from fluctua.sampling import SeededGenerator, random_coherence, random_density

SZ = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

# Pair of qubits with local gap epsilon = 1: energies 2, 0, 0, -2.
H_PAIR = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp(rng, d, env=2):
    """Random channel from an isometry into d x env, traced over env."""
    g = rng.normal(size=(env * d, d)) + 1j * rng.normal(size=(env * d, d))
    q, _ = np.linalg.qr(g)
    s = np.zeros((d * d, d * d), dtype=complex)
    for e in range(env):
        k = q[e * d:(e + 1) * d, :]
        s += np.kron(k, k.conj())
    return SuperoperatorChannel(s)


def random_hamiltonian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


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
            h_i = random_hamiltonian(rng, d)
            h_f = random_hamiltonian(rng, d)
            rho = random_density(d, gen=SeededGenerator(int(rng.integers(1 << 32))))
            chan = UnitaryChannel(random_unitary(rng, d))
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
        spec_i = spectral_decompose(random_hamiltonian(rng, d))
        spec_f = spectral_decompose(random_hamiltonian(rng, d))
        for k in range(12):
            rho = random_density(d, rank=1, gen=SeededGenerator(900 + k + d))
            chan = (UnitaryChannel(random_unitary(rng, d)) if k % 2
                    else random_cptp(rng, d))
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
            chan = (UnitaryChannel(random_unitary(rng, d)) if k % 2
                    else random_cptp(rng, d))
            a = mll_joint(rho, chan, spec_i, spec_f)
            b = tpm_joint(rho, chan, spec_i, spec_f)
            assert joint_tv(a, b) < 1e-10


def test_eigenstate_all_protocols_agree():
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        h = random_hamiltonian(rng, d)
        spec = spectral_decompose(h)
        vals, vecs = np.linalg.eigh(h)
        for k in range(8):
            v = vecs[:, int(rng.integers(d))]
            rho = np.outer(v, v.conj())
            chan = (UnitaryChannel(random_unitary(rng, d)) if k % 2
                    else random_cptp(rng, d))
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
    u = random_unitary(rng, 3)
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


def test_mean_matches_trace_formula():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        h_i = random_hamiltonian(rng, d)
        h_f = random_hamiltonian(rng, d)
        rho = random_density(d, gen=SeededGenerator(int(rng.integers(1 << 32))))
        chan = random_cptp(rng, d)
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
        h_i = random_hamiltonian(rng, d)
        h_f = random_hamiltonian(rng, d)
        rho = random_density(d, gen=SeededGenerator(int(rng.integers(1 << 32))))
        chan = (UnitaryChannel(random_unitary(rng, d)) if rng.random() < 0.5
                else random_cptp(rng, d))
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
    chan = UnitaryChannel(random_unitary(rng, 3))
    split = epm_second_moment_split(rho, chan, spec, spec)
    assert abs(split.coherence_part) < 1e-10
    assert abs(split.total - split.population_part) < 1e-10


def test_second_moment_pure_state_equals_mll():
    rng = np.random.default_rng(34)
    for k in range(10):
        h = random_hamiltonian(rng, 3)
        spec = spectral_decompose(h)
        rho = random_density(3, rank=1, gen=SeededGenerator(70 + k))
        chan = UnitaryChannel(random_unitary(rng, 3))
        vals, vecs = np.linalg.eigh(h)
        split = epm_second_moment_split(rho, chan, spec, spec, basis=vecs)
        m2_mll = moment(mll_joint(rho, chan, spec, spec), 2)
        assert abs(split.total - m2_mll) < 1e-9


# ---------------------------------------------------------------------------
# characteristic functions


def test_characteristic_function_at_zero_is_one():
    rng = np.random.default_rng(41)
    h = random_hamiltonian(rng, 3)
    spec = spectral_decompose(h)
    rho = random_density(3, gen=SeededGenerator(5))
    chan = random_cptp(rng, 3)
    for tag in ("EPM", "TPM", "MLL"):
        g = characteristic_function(tag, rho, chan, spec, spec, 0.0)
        assert abs(g - 1.0) < 1e-12


def test_characteristic_function_matches_distribution():
    rng = np.random.default_rng(42)
    us = list(np.linspace(-3.0, 3.0, 9)) + [0.443j, 1.1 + 0.25j]
    for k in range(6):
        d = 2 + k % 3
        h_i = random_hamiltonian(rng, d)
        h_f = random_hamiltonian(rng, d)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        rho = random_density(d, gen=SeededGenerator(400 + k))
        chan = (UnitaryChannel(random_unitary(rng, d)) if k % 2
                else random_cptp(rng, d))
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
    chan = random_cptp(rng, 3)
    g_pop, g_coh = characteristic_split(rho, chan, spec, spec, 0.9)
    assert abs(g_coh) < 1e-12
    g = characteristic_function("EPM", rho, chan, spec, spec, 0.9)
    assert abs(g_pop - g) < 1e-10


def test_characteristic_split_eigenstate_population_equals_tpm():
    spec = spectral_decompose(np.diag([1.0, 0.2, -1.3]).astype(complex))
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1.0
    rng = np.random.default_rng(45)
    chan = UnitaryChannel(random_unitary(rng, 3))
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
            chan = (UnitaryChannel(random_unitary(rng, 4)) if k % 2
                    else random_cptp(rng, 4))
            rep = jarzynski(rho, chan, spec, spec, beta)
            assert abs(rep.total - rep.diagonal_part - rep.coherence_part) < 1e-10
            assert rep.beta == beta
            assert abs(rep.delta_free_energy) < 1e-12  # same spectrum both ends


def test_jarzynski_beta_zero_limit():
    h_i = np.diag([1.0, 0.0, -1.0]).astype(complex)
    h_f = np.diag([2.0, 0.5, -0.5]).astype(complex)
    rho = np.eye(3, dtype=complex) / 3.0
    rng = np.random.default_rng(52)
    chan = UnitaryChannel(random_unitary(rng, 3))
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
        chan = UnitaryChannel(random_unitary(rng, 3))
        g = characteristic_function("TPM", rho, chan, spec_i, spec_f, 1j * beta)
        assert abs(g * (z_i / z_f) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# entropies, mutual information, recovery


def test_entropy_ordering_mll_below_epm():
    rng = np.random.default_rng(61)
    for k in range(20):
        h_i = random_hamiltonian(rng, 3)
        h_f = random_hamiltonian(rng, 3)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        rho = random_density(3, gen=SeededGenerator(800 + k))
        chan = (UnitaryChannel(random_unitary(rng, 3)) if k % 2
                else random_cptp(rng, 3))
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
        chan = (UnitaryChannel(random_unitary(rng, 3)) if k % 2
                else random_cptp(rng, 3))
        je = epm_joint(rho, chan, spec, spec)
        jt = tpm_joint(rho, chan, spec, spec)
        outer = np.outer(jt.initial_marginal(), jt.final_marginal())
        assert np.max(np.abs(je.probs - outer)) < 1e-10
        assert shannon_entropy(jt) <= shannon_entropy(je) + 1e-12


def test_mutual_information_nonnegative_zero_iff_pure():
    rng = np.random.default_rng(63)
    for k in range(15):
        h_i = random_hamiltonian(rng, 3)
        h_f = random_hamiltonian(rng, 3)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        chan = UnitaryChannel(random_unitary(rng, 3))
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
        spec_f = spectral_decompose(random_hamiltonian(rng, d))
        rho = random_density(d, gen=SeededGenerator(1000 + k))
        chan = (UnitaryChannel(random_unitary(rng, d)) if k % 2
                else random_cptp(rng, d))
        jt = tpm_joint(rho, chan, spec_i, spec_f)
        p = initial_probabilities(rho, spec_i)
        mix = np.zeros_like(jt.probs)
        for l, proj in enumerate(spec_i.projectors):
            state = proj / np.trace(proj)
            sub = epm_joint(state, chan, spec_i, spec_f)
            mix += p[l] * sub.probs
        assert np.max(np.abs(mix - jt.probs)) < 1e-12


# ---------------------------------------------------------------------------
# sampling, bootstrap, convexity witness


def test_sample_shots_deterministic_and_tagged():
    spec = spectral_decompose(H_PAIR)
    rho = two_qubit_pure()
    chan = UnitaryChannel(controlled_rotation(1.3))
    a = sample_shots("EPM", rho, chan, spec, spec, 512, SeededGenerator(7))
    b = sample_shots("EPM", rho, chan, spec, spec, 512, SeededGenerator(7))
    assert np.array_equal(a.probs, b.probs)
    assert a.n_shots == 512 and a.protocol == "EPM"


def test_sample_shots_converges_to_exact():
    spec = spectral_decompose(H_PAIR)
    rho = two_qubit_pure()
    chan = UnitaryChannel(controlled_rotation(2.2))
    for tag in ("EPM", "TPM", "MLL"):
        exact = protocol_joint(tag, rho, chan, spec, spec)
        emp = sample_shots(tag, rho, chan, spec, spec, 20000, SeededGenerator(41))
        assert joint_tv(exact, emp) < 0.02


def test_sample_shots_validates_input():
    spec = spectral_decompose(SZ)
    rho = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError):
        sample_shots("EPM", rho, identity_channel(2), spec, spec, 0,
                     SeededGenerator(1))
    with pytest.raises(ValueError):
        sample_shots("XYZ", rho, identity_channel(2), spec, spec, 4,
                     SeededGenerator(1))


def test_bootstrap_standard_error_scales():
    # the sweep's bootstrap errors drop as 1/sqrt(n): factor 4 from 400 to 6400
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
    chan = UnitaryChannel(random_unitary(rng, 2))
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
        chan = UnitaryChannel(random_unitary(rng, 2))
        gap = convexity_witness(r1, r2, 0.5, chan, spec, spec)
        assert gap >= -1e-15
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


def test_protocol_joint_rejects_unknown_tag():
    spec = spectral_decompose(SZ)
    with pytest.raises(ValueError):
        protocol_joint("ABC", np.eye(2, dtype=complex) / 2.0,
                       identity_channel(2), spec, spec)
