import math
import tracemalloc

import numpy as np
import pytest

from fluctua import channels
from fluctua.channels import (
    BLOCK_BYTES,
    CPTPReport,
    HamiltonianSchedule,
    IntegrationFailure,
    JumpOperatorSet,
    SuperoperatorChannel,
    UnitaryChannel,
    check_cptp,
    choi_matrix,
    identity_channel,
    lindblad_generator,
    propagate,
    propagator_series,
    unvec,
    vec,
)
from fluctua.models import PRESETS, three_level_model
from fluctua.qcore import DimensionMismatch, NonHermitianInput, hermitian_eig
from fluctua.sampling import random_density, random_hamiltonian, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)  # lowers |1> to |0>


def operator_form_rhs(h, ops, rho):
    """-i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2), term by term."""
    out = -1j * (h @ rho - rho @ h)
    for L in ops:
        k = L.conj().T @ L
        out = out + L @ rho @ L.conj().T - 0.5 * (k @ rho + rho @ k)
    return out


# ---------------------------------------------------------------------------
# vectorization and unitary channels


def test_vec_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(unvec(vec(m)), m)


def test_unitary_superoperator_is_kron():
    # S = kron(U, conj(U)) must reproduce direct conjugation
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        u = random_unitary(d, rng)
        chan = UnitaryChannel(u)
        s = chan.superoperator
        assert np.allclose(s, np.kron(u, u.conj()))
        for _ in range(20):
            rho = random_density(d, gen=rng)
            direct = u @ rho @ u.conj().T
            assert np.max(np.abs(unvec(s @ vec(rho)) - direct)) < 1e-12


def test_unitary_channel_preserves_spectrum():
    rng = np.random.default_rng(3)
    rho = random_density(4, gen=rng)
    u = random_unitary(4, rng)
    out = UnitaryChannel(u).apply(rho)
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(out))
                         - np.sort(np.linalg.eigvalsh(rho)))) < 1e-12


def test_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        UnitaryChannel(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_identity_channel():
    rho = np.diag([0.2, 0.8]).astype(complex)
    assert np.allclose(identity_channel(2).apply(rho), rho)


# ---------------------------------------------------------------------------
# lindblad_generator


def test_rhs_pure_hamiltonian_commutator():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = unvec(lindblad_generator(SZ, None) @ vec(rho))
    assert np.allclose(out, -1j * (SZ @ rho - rho @ SZ))


def test_rhs_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(5)
    rho = random_density(3, gen=rng)
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    h = rng.normal(size=(3, 3))
    h = h + h.T
    out = unvec(lindblad_generator(h, JumpOperatorSet(ops)) @ vec(rho))
    assert abs(out.trace()) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    # the row-major superoperator is the master equation term by term
    assert np.max(np.abs(out - operator_form_rhs(h, ops, rho))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_dissipator_matches_kron_reference(d):
    # the broadcast build takes the products and sums np.kron would
    rng = np.random.default_rng(70 + d)
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
    eye = np.eye(d)
    reference = np.zeros((d * d, d * d), dtype=complex)
    for L in ops:
        k = L.conj().T @ L
        reference += np.kron(L, L.conj()) - 0.5 * (np.kron(k, eye) + np.kron(eye, k.T))
    assert np.array_equal(channels._dissipator(ops, d), reference)


# ---------------------------------------------------------------------------
# propagation against closed-form solutions

# frozen analytic values, amplitude damping at rate 0.8 for t = 1
DAMP_E = 0.44932896411722156      # exp(-0.8)
DAMP_EHALF = 0.6703200460356393   # exp(-0.4)


def test_amplitude_damping_matches_analytic():
    gamma = 0.8
    rho0 = np.array([[0.25, 0.3 - 0.1j], [0.3 + 0.1j, 0.75]])
    sched = HamiltonianSchedule(np.zeros((2, 2)), t_final=1.0)
    out = propagate(sched, [math.sqrt(gamma) * SM], rho0, step=1e-3)
    assert abs(out[1, 1] - 0.75 * DAMP_E) < 1e-9
    assert abs(out[0, 0] - (1 - 0.75 * DAMP_E)) < 1e-9
    assert abs(out[0, 1] - (0.3 - 0.1j) * DAMP_EHALF) < 1e-9


def test_rabi_oscillation_matches_analytic():
    # H = sigma_x from |0><0|: excited population sin^2(t)
    sched = HamiltonianSchedule(SX, t_final=0.7)
    out = propagate(sched, None, np.diag([1.0, 0.0]), step=1e-3)
    assert abs(out[1, 1].real - 0.41501642854987947) < 1e-9


def test_driven_dephasing_phase():
    # H(t) = sin(t) sz commutes with itself; coherence picks up
    # exp(-2i * integral sin) = exp(-2i (1 - cos t))
    sched = HamiltonianSchedule(np.zeros((2, 2)), [SZ],
                                lambda t: [np.sin(t)], t_final=2.0)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = propagate(sched, None, rho0, step=1e-3)
    expected = 0.5 * (-0.9525471879205125 - 0.30439095713362413j)
    assert abs(out[0, 1] - expected) < 1e-9


def test_propagate_zero_window_is_identity():
    sched = HamiltonianSchedule(SX)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    assert np.allclose(propagate(sched, None, rho0), rho0)


def test_propagate_keeps_state_valid():
    rng = np.random.default_rng(8)
    sched = HamiltonianSchedule(SX + 0.3 * SZ, t_final=3.0)
    out = propagate(sched, [0.5 * SM], random_density(2, gen=rng), step=1e-3)
    assert abs(out.trace() - 1.0) < 1e-10
    assert np.min(np.linalg.eigvalsh(out)) > -1e-9


def _drive_lost_after(t_lost, value=np.nan):
    """A qubit schedule whose drive reads ``value`` past ``t_lost``."""
    return HamiltonianSchedule(np.zeros((2, 2)), [SX],
                               lambda t: [np.where(t > t_lost, value, 0.5)],
                               t_final=50.0)


def test_propagate_detects_blowup():
    # a drive that turns NaN from t = 1.3 on poisons the step over [1.2, 1.4]
    # (its last two Gauss nodes lie past 1.3), and the abort names that step
    sched = _drive_lost_after(1.3)
    with pytest.raises(IntegrationFailure, match=r"at t = 1\.4 \(step 0\.2\)"):
        propagate(sched, [math.sqrt(50.0) * SM], np.diag([0.0, 1.0]), step=0.2)


def test_propagate_detects_blowup_in_a_later_window_of_a_block():
    # one 0.04 step, then a window of 0.2 steps whose seventh step, over
    # [1.24, 1.44], reads the drive past 1.3; both windows share one block,
    # and the failure names the later window's step
    sched = _drive_lost_after(1.3)
    with pytest.raises(IntegrationFailure, match=r"at t = 1\.44 \(step 0\.2\)"):
        propagator_series(sched, [math.sqrt(50.0) * SM], [0.04, 2.04], step=0.2)


@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e300])
def test_a_non_finite_step_exponent_reaches_the_drift_check(value):
    # an exponent whose norm is infinite (or overflows) is not scaled by a
    # power of two it has no finite logarithm for; its NaNs abort the run
    sched = _drive_lost_after(1.3, value)
    with pytest.raises(IntegrationFailure, match=r"at t = 1\.4 \(step 0\.2\)"):
        propagate(sched, [math.sqrt(50.0) * SM], np.diag([0.0, 1.0]), step=0.2)


def test_magnus_sixth_order_halving_factor():
    # the global error of a sixth-order step drops ~64x per halving; 48
    # leaves room below the measured 64.8.  At these steps e2 is about 4e-11,
    # far above roundoff (at 0.02/0.01 it would be 1.6e-13)
    sched = HamiltonianSchedule(SX + 0.7 * SZ, [SX],
                                lambda t: [np.sin(3 * t)], t_final=2.0)
    ops = [0.4 * SM]
    rho0 = np.diag([0.2, 0.8]).astype(complex)
    sols = {h: propagate(sched, ops, rho0, step=h) for h in (0.1, 0.05, 0.025)}
    e1 = np.max(np.abs(sols[0.1] - sols[0.025]))
    e2 = np.max(np.abs(sols[0.05] - sols[0.025]))
    assert e2 > 1e-12
    assert e1 / e2 > 48.0


# ---------------------------------------------------------------------------
# superoperator assembly


def _operator_form_rk4(sched, ops, rho, step):
    """Reference RK4 on the density matrix itself, with the operator-form rhs.

    ``rho`` may be a (k, d, d) stack of states, stepped together.
    """
    def rhs(t, r):
        return operator_form_rhs(sched.at(t), ops, r)

    n = math.ceil((sched.t_final - sched.t_initial) / step)
    h = (sched.t_final - sched.t_initial) / n
    for i in range(n):
        t = sched.t_initial + i * h
        a = rhs(t, rho)
        b = rhs(t + h / 2, rho + h / 2 * a)
        c = rhs(t + h / 2, rho + h / 2 * b)
        rho = rho + h / 6 * (a + 2 * b + 2 * c + rhs(t + h, rho + h * c))
    return rho


def test_lindblad_superoperator_matches_propagation():
    # the superoperator applied to a state, applied to the state as a plain
    # matrix, and propagate all give the same state
    rng = np.random.default_rng(9)
    sched = HamiltonianSchedule(SX + 0.2 * SZ, [SX],
                                lambda t: [0.5 * np.cos(t)], t_final=1.5)
    ops = [0.6 * SM]
    chan = propagator_series(sched, ops, [sched.t_final], step=1e-2)[-1]
    states = np.array([random_density(2, gen=rng) for _ in range(5)])
    for rho in states:
        out = chan.apply(rho)
        assert np.max(np.abs(chan.apply_matrix(rho) - out)) < 1e-13
        assert np.max(np.abs(propagate(sched, ops, rho, step=1e-2) - out)) < 1e-13
    # and the state solves the master equation: against RK4 on the operator
    # form at a 5e-4 step the gap measured 3.3e-14, which is RK4's own error
    # (5.3e-13 at 1e-3, 4.0e-15 at 2.5e-4)
    direct = _operator_form_rk4(sched, ops, states, step=5e-4)
    assert np.max(np.abs(chan.apply_matrix(states) - direct)) < 1e-13


# steps in one block at d = 2: the byte bound over one 4 x 4 float64 step map
QUBIT_BLOCK = BLOCK_BYTES // (16 * 8)
# window step counts for the block-edge tests: none a multiple of the block,
# and the longest spans four blocks
EDGE_COUNTS = [5, QUBIT_BLOCK + 44, 3 * QUBIT_BLOCK + 65, 19]
# unequal windows that all fit in one block: an empty first window, a
# repeated time, windows shorter than one chunk of the block's scan, and
# spans that are not whole steps, so each window has a step size of its own
INNER_TIMES = [0.0, 3 / 64, 3 / 64, 0.3, 0.3 + 1 / 64, 1.0]


def test_propagator_series_steps_across_block_edges():
    # each snapshot must be the product of the window propagators, each
    # from a propagator_series call over that window alone
    counts = EDGE_COUNTS
    assert all(n % QUBIT_BLOCK for n in counts) and max(counts) > 3 * QUBIT_BLOCK
    step = 1.0 / 64.0  # a binary fraction: each window is a whole number of exact steps
    sched = HamiltonianSchedule(SX + 0.2 * SZ, [SX, SZ],
                                lambda t: [0.5 * np.cos(3 * t), 0.3 * np.sin(t)],
                                t_final=sum(counts) * step)
    ops = [0.6 * SM, 0.2 * SM.T]
    for times in (np.cumsum(counts) * step, INNER_TIMES):
        series = propagator_series(sched, ops, times, step=step)
        product, t_prev = np.eye(4), sched.t_initial
        for t, snap in zip(times, series):
            if t > t_prev:
                window = HamiltonianSchedule(sched.base, sched.couplings,
                                             sched.envelopes, t_prev, t)
                product = (propagator_series(window, ops, [t], step=step)[-1]
                           .superoperator @ product)
            assert np.max(np.abs(snap.superoperator - product)) < 1e-13
            t_prev = t
    # the unequal windows solve the master equation: against RK4 on the
    # operator form at a step of 1/2048 the gap measured 2.1e-14 (1.8e-13 at
    # 1/1024, where RK4's own error is 16x larger)
    rng = np.random.default_rng(13)
    states = np.array([random_density(2, gen=rng) for _ in range(3)])
    direct, t_prev = states, sched.t_initial
    for t, snap in zip(INNER_TIMES, series):
        if t > t_prev:
            window = HamiltonianSchedule(sched.base, sched.couplings,
                                         sched.envelopes, t_prev, t)
            direct = _operator_form_rk4(window, ops, direct, step / 32.0)
        assert np.max(np.abs(snap.apply_matrix(states) - direct)) < 1e-13
        t_prev = t


def test_envelopes_are_evaluated_once_per_block():
    # the drive is read as arrays, one call per block of step maps, never
    # once per node
    calls = []

    def envelopes(t):
        calls.append(t)
        return [0.5 * np.cos(3 * t)]

    step = 1.0 / 64.0
    counts = EDGE_COUNTS
    sched = HamiltonianSchedule(SX + 0.2 * SZ, [SX], envelopes,
                                t_final=sum(counts) * step)
    calls.clear()  # drop the probe made at construction
    propagator_series(sched, [0.6 * SM], np.cumsum(counts) * step, step=step)
    assert len(calls) <= sum(math.ceil(n / QUBIT_BLOCK) for n in counts)
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 and t.size >= 3
               for t in calls)


def _periodic_qubit(t_final, envelopes=None, period=math.pi, t_initial=0.0):
    """A driven, damped qubit whose envelope sin^2 t repeats with period pi."""
    if envelopes is None:
        def envelopes(t):
            return [0.5 * np.sin(t) ** 2]
    return HamiltonianSchedule(SX + 0.2 * SZ, [SX], envelopes, t_initial, t_final,
                               period=period)


def _max_gap(series, reference):
    return max(np.abs(a.superoperator - b.superoperator).max()
               for a, b in zip(series, reference, strict=True))


PERIODIC_OPS = [0.6 * SM, 0.2 * SM.T]


@pytest.mark.parametrize("times", [
    [0.0, math.pi, 2.0 * math.pi, 3.0 * math.pi],  # exact multiples of the period
    [0.0, 1.0, 1.0, math.pi, 4.0, 4.0, 7.5, 7.5, 3.0 * math.pi],  # repeats, t_max
    [0.3, 2.0 * math.pi + 0.3, 3.0 * math.pi],  # one folded time, two windows
], ids=["multiples", "repeats", "same-fold"])
def test_folded_series_matches_the_full_window(times):
    sched = _periodic_qubit(3.0 * math.pi)
    folded = propagator_series(sched, PERIODIC_OPS, times, step=1e-3)
    full = propagator_series(_periodic_qubit(3.0 * math.pi, period=None),
                             PERIODIC_OPS, times, step=1e-3)
    assert _max_gap(folded, full) < 5e-12
    # the same from a start that is not a zero of the drive
    late = [t + 0.4 for t in times]
    folded = propagator_series(_periodic_qubit(late[-1], t_initial=0.4),
                               PERIODIC_OPS, late, step=1e-3)
    full = propagator_series(_periodic_qubit(late[-1], period=None, t_initial=0.4),
                             PERIODIC_OPS, late, step=1e-3)
    assert _max_gap(folded, full) < 5e-12
    # a time one period on is the propagator over that period applied once more
    by_time = {t: c.superoperator for t, c in zip(times, folded)}
    if 2.0 * math.pi in by_time:
        one = by_time[math.pi]
        assert np.abs(by_time[2.0 * math.pi] - one @ one).max() < 1e-13


@pytest.mark.parametrize("t_max", [2.5, math.pi], ids=["short", "one-period"])
def test_no_fold_within_the_first_period(t_max):
    # with no time past t_initial + period the window table is the same as
    # with no period, so the propagators are the same bit for bit
    times = [0.0, 0.7, 0.7, 1.9, t_max]
    series = propagator_series(_periodic_qubit(t_max), PERIODIC_OPS, times, step=1e-3)
    full = propagator_series(_periodic_qubit(t_max, period=None), PERIODIC_OPS,
                             times, step=1e-3)
    assert _max_gap(series, full) == 0.0


def test_folded_series_reads_the_drive_over_one_period_only():
    read = []

    def envelopes(t):
        read.append(t.max())
        return [0.5 * np.sin(t) ** 2]

    step = 1e-3
    times = np.linspace(0.0, 3.0 * math.pi, 31)
    for period, last in ((math.pi, math.pi), (None, 3.0 * math.pi)):
        sched = _periodic_qubit(3.0 * math.pi, envelopes, period)
        read.clear()  # drop the probes made at construction
        propagator_series(sched, PERIODIC_OPS, times, step=step)
        assert last - step < max(read) <= last + step


def test_schedule_rejects_a_wrong_period():
    with pytest.raises(ValueError, match="not periodic"):
        _periodic_qubit(10.0, period=math.pi / 3.0)
    with pytest.raises(ValueError, match="not periodic"):
        _periodic_qubit(10.0, period=0.5 * math.pi)
    for bad in (0.0, -math.pi, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            _periodic_qubit(10.0, period=bad)
    # a static schedule repeats with any period
    assert HamiltonianSchedule(SZ, t_final=5.0, period=1.0).period == 1.0


def test_composed_snapshots_are_checked_for_trace_drift():
    # a period map that loses trace passes no step check of its own; the
    # composed snapshots are checked once more
    side = 4
    snapshots = np.broadcast_to(np.eye(side), (3, side, side)).copy()
    trace = np.zeros(side)
    trace[:2] = 1.0
    leaky = np.eye(side)
    leaky[0, 0] = 1.0 - 1e-5
    channels._compose_periods(snapshots, np.array([0, 0, 0]), leaky, trace,
                              [0.0, 1.0, 2.0])
    with pytest.raises(IntegrationFailure, match=r"at t = 4 after composing 2 periods"):
        channels._compose_periods(snapshots, np.array([0, 0, 2]), leaky, trace,
                                  [0.0, 1.0, 4.0])


def test_static_schedule_matches_zero_drive():
    # a schedule without a drive takes the same step maps as the same
    # schedule driven by an envelope that stays zero, bit for bit
    base, ops = SX + 0.2 * SZ, [0.6 * SM]
    static = HamiltonianSchedule(base, t_final=3.0)
    zero_drive = HamiltonianSchedule(base, [SX], lambda t: np.zeros((1, t.size)),
                                     t_final=3.0)
    times = [0.0, 0.4, 0.4, 1.9, 3.0]
    step = 1.0 / 64.0
    series = propagator_series(static, ops, times, step=step)
    reference = propagator_series(zero_drive, ops, times, step=step)
    for a, b in zip(series, reference):
        assert np.array_equal(a.superoperator, b.superoperator)


def test_schedule_at_an_array_of_times():
    sched = HamiltonianSchedule(SZ, [SX, SZ], lambda t: np.array([np.sin(t), t ** 2]),
                                t_final=2.0)
    times = np.array([0.0, 0.3, 1.7])
    stack = sched.at(times)
    assert stack.shape == (3, 2, 2)
    for t, h in zip(times, stack):
        assert np.abs(h - sched.at(t)).max() <= 1e-15


def test_superoperator_batch_maps_through_every_member():
    rng = np.random.default_rng(43)
    d = 3
    members = rng.normal(size=(4, d * d, d * d)) + 1j * rng.normal(size=(4, d * d, d * d))
    batch = SuperoperatorChannel(members)
    assert batch.dim == d
    stack = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    rho = random_density(d, gen=rng)
    mapped, applied = batch.apply_matrix(stack), batch.apply(rho)
    assert mapped.shape == (4, 5, d, d) and applied.shape == (4, d, d)
    for k, s in enumerate(members):
        one = SuperoperatorChannel(s)
        assert np.array_equal(mapped[k], one.apply_matrix(stack))
        assert np.array_equal(applied[k], one.apply(rho))
    with pytest.raises(DimensionMismatch):
        SuperoperatorChannel(np.zeros((2, 8, 8)))


def test_propagator_series_memory_is_bounded():
    # one 10 000-step window on the figS3 schedule: the step maps are built
    # a block at a time, so the peak stays far below the ~100 MB that
    # building all 20 001 generators at once would take
    schedule, jumps = three_level_model(PRESETS["figS3-second-moment"].three_level)
    tracemalloc.start()
    try:
        propagator_series(schedule, jumps, [schedule.t_final], step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_apply_matrix_is_linear_extension():
    sched = HamiltonianSchedule(SX, t_final=0.8)
    chan = propagator_series(sched, [0.5 * SM], [sched.t_final], step=1e-3)[-1]
    rng = np.random.default_rng(10)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    za, zb = 0.3 - 0.2j, 1.1 + 0.4j
    combo = chan.apply_matrix(za * a + zb * b)
    split = za * chan.apply_matrix(a) + zb * chan.apply_matrix(b)
    assert np.max(np.abs(combo - split)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_apply_matrix_maps_each_matrix_of_a_stack(d):
    rng = np.random.default_rng(20 + d)
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    stack = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    for chan in (UnitaryChannel(random_unitary(d, rng)), SuperoperatorChannel(g)):
        one_by_one = np.array([chan.apply_matrix(m) for m in stack])
        assert np.array_equal(chan.apply_matrix(stack), one_by_one)
        with pytest.raises(DimensionMismatch):
            chan.apply_matrix(np.zeros((5, d + 1, d + 1)))
        with pytest.raises(DimensionMismatch):
            chan.apply_matrix(np.zeros((5, d, d + 1)))


def test_propagator_series_matches_individual_runs():
    sched = HamiltonianSchedule(SX + 0.1 * SZ, [SZ], lambda t: [np.sin(t)],
                                t_initial=0.0, t_final=2.0)
    ops = [0.3 * SM]
    times = [0.0, 0.5, 1.3, 2.0]
    series = propagator_series(sched, ops, times, step=1e-3)
    rng = np.random.default_rng(11)
    rho = random_density(2, gen=rng)
    for t, snap in zip(times, series):
        one = HamiltonianSchedule(sched.base, sched.couplings, sched.envelopes,
                                  0.0, t)
        direct = propagate(one, ops, rho, step=1e-3)
        assert np.max(np.abs(snap.apply(rho) - direct)) < 1e-8
    # t = 0 snapshot is the identity map
    assert np.max(np.abs(series[0].superoperator - np.eye(4))) < 1e-12


def test_propagator_series_rejects_decreasing_times():
    sched = HamiltonianSchedule(SX, t_final=1.0)
    with pytest.raises(ValueError):
        propagator_series(sched, None, [0.5, 0.2])


def test_propagator_series_rejects_times_outside_window():
    sched = HamiltonianSchedule(SX, t_initial=0.5, t_final=1.0)
    with pytest.raises(ValueError):
        propagator_series(sched, None, [0.4, 0.8])
    with pytest.raises(ValueError):
        propagator_series(sched, None, [0.8, 1.0 + 1e-9])
    # the 1e-12 slack at the end accepts a roundoff-level overshoot
    propagator_series(sched, None, [0.8, 1.0 + 1e-13])


@pytest.mark.parametrize("times, step", [
    ([float("nan")], 1e-3),
    ([0.2, float("nan"), 0.8], 1e-3),
    ([0.8], float("nan")),
    ([0.8], float("inf")),
    ([0.8], 0.0),
], ids=["nan-time", "nan-middle-time", "nan-step", "inf-step", "zero-step"])
def test_propagator_series_rejects_non_finite_times_and_steps(times, step):
    # every comparison with NaN is false, so a NaN would slip past the
    # ordering and window checks without a check of its own
    sched = HamiltonianSchedule(SX, t_final=1.0)
    with pytest.raises(ValueError, match="finite"):
        propagator_series(sched, None, times, step=step)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_hermitian_basis_is_unitary_with_the_diagonal_first(d):
    u = channels._hermitian_basis(d)
    assert u.shape == (d * d, d * d)
    assert np.max(np.abs(u.conj().T @ u - np.eye(d * d))) < 1e-15
    for j in range(d):
        e_jj = np.zeros((d, d))
        e_jj[j, j] = 1.0
        assert np.array_equal(u[:, j], vec(e_jj))
    # every basis element is Hermitian
    for col in u.T:
        m = unvec(col)
        assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_generators_are_real_in_the_hermitian_basis(d):
    rng = np.random.default_rng(60 + d)
    u = channels._hermitian_basis(d)
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
    couplings = np.array([random_hamiltonian(d, rng) for _ in range(2)])
    gens = [lindblad_generator(random_hamiltonian(d, rng), ops),
            *channels._hamiltonian_generator(couplings)]
    for gen in gens:
        in_basis = u.conj().T @ gen @ u
        assert np.max(np.abs(in_basis.imag)) <= 1e-14 * np.max(np.abs(gen))


def _transpose_permutation(d):
    # P vec(X) = vec(X^T)
    p = np.zeros((d * d, d * d))
    for j in range(d):
        for k in range(d):
            p[k * d + j, j * d + k] = 1.0
    return p


@pytest.mark.parametrize("d", [2, 3, 4])
def test_propagator_series_matches_exact_exponential(d):
    # static generator: the propagator is exp(L t), here by eigendecomposition.
    # The Magnus exponent of a static generator is h L exactly, so every step
    # is exact up to roundoff: at most 2.5e-14 measured.  A 1.0 step takes
    # one step per window, with the exponential scaled and squared up to 6
    # times (the 1-norm of L is 6.6 to 17.7)
    rng = np.random.default_rng(20 + d)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (h + h.conj().T)
    ops = [0.4 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
           for _ in range(2)]
    sched = HamiltonianSchedule(h, t_final=2.0)
    w, v = np.linalg.eig(lindblad_generator(h, ops))
    v_inv = np.linalg.inv(v)
    times = [0.0, 0.3, 1.1, 2.0]
    p = _transpose_permutation(d)
    for step in (1e-3, 1.0):
        series = propagator_series(sched, ops, times, step=step)
        for t, snap in zip(times, series):
            s = snap.superoperator
            assert np.max(np.abs(s - (v * np.exp(w * t)) @ v_inv)) < 1e-12
            # Hermiticity preserving, S(X^dag) = S(X)^dag for every X: a
            # real propagator in the Hermitian basis makes this hold
            # exactly, not to roundoff
            assert np.array_equal(s, p @ s.conj() @ p)
            traces = np.einsum("mmjk->jk", s.reshape(d, d, d, d))
            assert np.max(np.abs(traces - np.eye(d))) < 1e-12


# ---------------------------------------------------------------------------
# CPTP diagnostics


def test_choi_of_identity_channel():
    c = choi_matrix(np.eye(4))
    expected = 0.5 * np.array([[1, 0, 0, 1],
                               [0, 0, 0, 0],
                               [0, 0, 0, 0],
                               [1, 0, 0, 1]], dtype=complex)
    assert np.allclose(c, expected)


def test_check_cptp_unitary():
    rng = np.random.default_rng(12)
    rep = check_cptp(UnitaryChannel(random_unitary(3, rng)))
    assert isinstance(rep, CPTPReport)
    assert rep.trace_preserving
    assert abs(rep.choi_min_eig) < 1e-10


def test_check_cptp_flags_transpose_map():
    # the transpose map is positive but not completely positive
    d = 2
    s = np.zeros((4, 4), dtype=complex)
    for j in range(d):
        for k in range(d):
            s[(k * d) + j, (j * d) + k] = 1.0
    rep = check_cptp(s)
    assert rep.trace_preserving
    assert rep.choi_min_eig < -0.4  # exactly -1/2 for a qubit


@pytest.mark.parametrize("channel", [
    UnitaryChannel(np.stack([np.eye(2), SX])),
    np.eye(3),
], ids=["batched-channel", "side-not-a-square"])
def test_check_cptp_rejects_malformed_superoperators(channel):
    with pytest.raises(DimensionMismatch):
        check_cptp(channel)


def test_lindblad_generator_rejects_jump_operator_of_other_size():
    with pytest.raises(DimensionMismatch, match=r"\(2, 2\).*\(3, 3\)"):
        lindblad_generator(np.eye(3), [SM])


def test_check_cptp_lindblad_propagator():
    sched = HamiltonianSchedule(SX + 0.2 * SZ, t_final=2.0)
    rep = check_cptp(propagator_series(sched, [0.7 * SM], [sched.t_final], step=1e-3)[-1])
    assert rep.trace_preserving
    assert rep.choi_min_eig > -1e-10


# ---------------------------------------------------------------------------
# input validation


def test_schedule_rejects_nonhermitian_base():
    with pytest.raises(NonHermitianInput):
        HamiltonianSchedule(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_schedule_rejects_bad_drive():
    with pytest.raises(NonHermitianInput):
        HamiltonianSchedule(SX, [SM], lambda t: [np.sin(t)])
    with pytest.raises(DimensionMismatch):
        HamiltonianSchedule(SX, [np.eye(3)], lambda t: [np.sin(t)])
    # envelope values must come as (couplings, times)
    with pytest.raises(DimensionMismatch):
        HamiltonianSchedule(SX, [SZ], np.sin)
    with pytest.raises(DimensionMismatch):
        HamiltonianSchedule(SX, [SZ], lambda t: [np.sin(t), np.cos(t)])
    with pytest.raises(DimensionMismatch):
        HamiltonianSchedule(SX, [SZ, SX],
                            lambda t: np.stack([np.sin(t), np.cos(t)], axis=1))


def test_jump_set_validation():
    with pytest.raises(DimensionMismatch):
        JumpOperatorSet([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        JumpOperatorSet([np.eye(2)], labels=["a", "b"])
    js = JumpOperatorSet([SM, SM.T], labels=["down", "up"])
    assert len(js) == 2


def test_superoperator_channel_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        SuperoperatorChannel(np.eye(5))


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        UnitaryChannel(np.eye(2)).apply(np.eye(3) / 3)


def test_check_cptp_takes_the_eigenvalues_of_the_hermitian_choi_average():
    # one Hermiticity check, at 1e-8, and the gauged eigensolver of the
    # average; a Choi defect of 1e-9 is above hermitian_eig's own 1e-10
    sched = HamiltonianSchedule(SX + 0.2 * SZ, t_final=2.0)
    s = propagator_series(sched, [0.7 * SM], [sched.t_final])[-1].superoperator.copy()
    s[0, 3] += 1e-9
    c = choi_matrix(s)
    ref_vals, _ = hermitian_eig(0.5 * (c + c.conj().T))
    assert check_cptp(s).choi_min_eig == ref_vals[0]
