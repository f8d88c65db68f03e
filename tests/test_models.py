import dataclasses
import hashlib
import math
import sys
import warnings

import numpy as np
import pytest

from fluctua import qcore
from fluctua.channels import UnitaryChannel, propagate, propagator_series
from fluctua.models import (
    DEFAULT_THETA_GRID,
    PRESETS,
    SWEEP_COLUMNS,
    THREE_LEVEL_COLUMNS,
    InconsistentConfig,
    InitialStateSpec,
    InvalidConfig,
    ThreeLevelConfig,
    TwoQubitExperimentConfig,
    _shot_errors,
    _sweep_errors,
    closed_form_characteristics,
    controlled_gate,
    thermal_occupation,
    three_level_experiment,
    three_level_hamiltonian,
    three_level_initial_state,
    three_level_model,
    two_qubit_hamiltonian,
    two_qubit_initial_state,
    two_qubit_sweep,
    u_gate,
)
from fluctua.protocols import (
    DegenerateEigenbasis,
    NonThermalDiagonal,
    characteristic_function,
    characteristic_of_distribution,
    characteristic_split,
    delta_distribution,
    epm_joint,
    epm_second_moment_split,
    jarzynski,
    mll_joint,
    moment,
    sample_shots,
    shannon_entropy,
    tpm_joint,
)
from fluctua.qcore import (
    coherence_l1,
    dephase,
    gibbs_state,
    hermitian_eig,
    spectral_decompose,
)
from fluctua.sampling import SeededGenerator

SWEEP_QUANTITIES = ("G_TPM", "G_EPM", "G_EPM_diag", "G_EPM_coh")


# ---------------------------------------------------------------------------
# gates and configuration


def test_u_gate_identity_and_unitarity():
    assert np.allclose(u_gate(0.0), np.eye(2), atol=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(20):
        th, ph, la = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
        u = u_gate(th, ph, la)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-13)


def test_u_gate_half_angle_convention():
    u = u_gate(math.pi)
    # A half turn of the parameter moves |0> fully to |1>.
    assert abs(u[0, 0]) < 1e-15 and abs(abs(u[1, 0]) - 1.0) < 1e-15
    u = u_gate(math.pi / 2.0)
    assert abs(u[0, 0] - math.cos(math.pi / 4.0)) < 1e-15


def test_controlled_gate_blocks():
    th, ph, la = 0.7, 0.3, -0.9
    g = controlled_gate(th, ph, la)
    assert np.allclose(g[:2, :2], np.eye(2), atol=1e-15)
    assert np.allclose(g[:2, 2:], 0.0, atol=1e-15)
    assert np.allclose(g[2:, :2], 0.0, atol=1e-15)
    assert np.allclose(g[2:, 2:], u_gate(th, ph, la), atol=1e-15)
    assert np.allclose(g.conj().T @ g, np.eye(4), atol=1e-13)


def test_config_defaults_resolve_to_derived_beta():
    t0, beta = TwoQubitExperimentConfig().resolved()
    assert t0 == 2.0
    assert abs(beta - math.log(math.tan(1.0))) < 1e-15


def test_config_beta_only_inverts_the_relation():
    cfg = TwoQubitExperimentConfig(beta=0.7, epsilon=1.3)
    t0, beta = cfg.resolved()
    assert beta == 0.7
    assert abs(math.log(math.tan(t0 / 2.0)) / 1.3 - 0.7) < 1e-12


def test_config_consistent_pair_accepted():
    t0 = 2.0
    beta = math.log(math.tan(t0 / 2.0))
    out = TwoQubitExperimentConfig(theta0=t0, beta=beta).resolved()
    assert out == (t0, beta)


def test_config_rejects_contradictions():
    with pytest.raises(InconsistentConfig):
        TwoQubitExperimentConfig(theta0=2.0, beta=2.0).resolved()
    with pytest.raises(InconsistentConfig):
        TwoQubitExperimentConfig(theta0=-0.1).resolved()
    with pytest.raises(InconsistentConfig):
        TwoQubitExperimentConfig(theta0=math.pi).resolved()
    with pytest.raises(InvalidConfig):
        TwoQubitExperimentConfig(epsilon=0.0).resolved()


def test_initial_state_is_pure_product_with_thermal_diagonal():
    cfg = TwoQubitExperimentConfig()
    rho = two_qubit_initial_state(cfg)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    _, beta = cfg.resolved()
    target = gibbs_state(two_qubit_hamiltonian(), beta)
    assert np.abs(dephase(rho) - target).max() < 1e-12
    # Both qubits carry the same reduced state.
    r = rho.reshape(2, 2, 2, 2)
    first = np.einsum("ikjk->ij", r)
    second = np.einsum("kikj->ij", r)
    assert np.abs(first - second).max() < 1e-12


def test_initial_state_balanced_at_right_angle():
    rho = two_qubit_initial_state(TwoQubitExperimentConfig(theta0=math.pi / 2.0))
    assert np.abs(np.diag(rho).real - 0.25).max() < 1e-12


# ---------------------------------------------------------------------------
# closed forms and the exact sweep


def test_closed_form_baseline_values():
    for th in (0.0, 0.4, 1.1):
        vals = closed_form_characteristics(th, 0.443)
        assert vals["G_TPM"] == 1.0
    # an array of angles gives every value that shape, equal to the scalar results
    grid = np.array([[0.0, 0.4, 1.1], [2.0, 2.9, 6.0]])
    batch = closed_form_characteristics(grid, 0.443)
    for name, values in batch.items():
        assert values.shape == grid.shape
        scalar = [closed_form_characteristics(float(th), 0.443)[name] for th in grid.flat]
        assert np.abs(values.reshape(-1) - scalar).max() <= 1e-15, name
    # Infinite-temperature limit: every average collapses to one.
    for th in np.linspace(0.0, math.pi, 9):
        assert abs(closed_form_characteristics(th, 0.0)["G_EPM"] - 1.0) < 1e-12
    # sin(4 theta) zeros kill the coherence part.
    for th in (0.0, math.pi / 4.0, math.pi / 2.0):
        assert abs(closed_form_characteristics(th, 0.8)["G_EPM_coh"]) < 1e-15


def test_closed_form_spot_value():
    val = closed_form_characteristics(0.0, 0.443)["G_EPM"]
    assert abs(val - 1.37632) < 1e-4


def test_closed_form_splits_add_up():
    for th in np.linspace(0.0, math.pi, 11):
        vals = closed_form_characteristics(th, 0.443)
        assert abs(vals["G_EPM_diag"] + vals["G_EPM_coh"] - vals["G_EPM"]) < 1e-12


@pytest.mark.parametrize("beta, epsilon", [(100.0, 1.0), (200.0, 2.0)])
def test_closed_form_overflow_names_the_quantity_and_beta_epsilon(beta, epsilon):
    # exp(8 * beta * epsilon) leaves the float range above beta * epsilon ~ 88.7
    with pytest.raises(OverflowError, match=r"closed-form characteristic overflows "
                       rf"at beta\*epsilon = {beta * epsilon:g}$"):
        closed_form_characteristics(0.3, beta, epsilon)


def test_exact_sweep_matches_closed_forms():
    cfg = TwoQubitExperimentConfig()
    _, beta = cfg.resolved()
    res = two_qubit_sweep(cfg)
    assert len(res.columns["theta"]) == 21
    for q in SWEEP_QUANTITIES:
        expected = [closed_form_characteristics(th, beta)[q]
                    for th in res.columns["theta"]]
        assert np.abs(res.columns[q] - expected).max() < 1e-9


def test_exact_sweep_tpm_average_is_one():
    res = two_qubit_sweep(TwoQubitExperimentConfig())
    assert np.abs(res.columns["G_TPM"] - 1.0).max() < 1e-9


def test_sweep_is_pi_periodic():
    grid = (0.1, 0.1 + math.pi, 0.7, 0.7 + math.pi)
    res = two_qubit_sweep(TwoQubitExperimentConfig(theta_grid=grid))
    for q in SWEEP_QUANTITIES + ("m2_EPM", "m3_TPM"):
        col = res.columns[q]
        assert abs(col[0] - col[1]) < 1e-12, q
        assert abs(col[2] - col[3]) < 1e-12, q


def test_exact_sweep_first_moments_match_trace_formula():
    cfg = TwoQubitExperimentConfig()
    rho = two_qubit_initial_state(cfg)
    h = two_qubit_hamiltonian()
    res = two_qubit_sweep(cfg)
    for i, th in enumerate(res.columns["theta"]):
        u = controlled_gate(-4.0 * th)
        out = u @ rho @ u.conj().T
        expected = np.trace(h @ out).real - np.trace(h @ rho).real
        assert abs(res.columns["mean_EPM"][i] - expected) < 1e-9


def test_exact_sweep_has_no_error_columns():
    res = two_qubit_sweep(TwoQubitExperimentConfig())
    assert res.n_shots is None
    assert all(not name.endswith("_se") for name in res.column_names())


def sweep_by_point(config, master):
    """Reference for two_qubit_sweep: the public per-point API, one grid point at a time."""
    _, beta = config.resolved()
    spec = spectral_decompose(two_qubit_hamiltonian(config.epsilon))
    rho = two_qubit_initial_state(config)
    pops = dephase(rho)
    names = ["theta", *SWEEP_COLUMNS]
    if config.n_shots is not None:
        names += [name + "_se" for name in SWEEP_COLUMNS]
    cols = {name: [] for name in names}
    for idx, theta in enumerate(config.theta_grid):
        chan = UnitaryChannel(controlled_gate(-4.0 * theta, config.phi, config.lam))
        cols["theta"].append(theta)
        if config.n_shots is None:
            g_pop, g_coh = characteristic_split(rho, chan, spec, spec, 1j * beta)
            epm, tpm = epm_joint(rho, chan, spec, spec), tpm_joint(rho, chan, spec, spec)
            values = {"G_TPM": characteristic_function("TPM", rho, chan, spec, spec, 1j * beta),
                      "G_EPM": characteristic_function("EPM", rho, chan, spec, spec, 1j * beta),
                      "G_EPM_diag": g_pop, "G_EPM_coh": g_coh}
        else:
            point = master.spawn(idx)
            epm, tpm, dia = (sample_shots(tag, state, chan, spec, spec, config.n_shots,
                                          point.spawn(k))
                             for k, (tag, state) in enumerate((("EPM", rho), ("TPM", rho),
                                                                ("EPM", pops))))
            g_epm = characteristic_of_distribution(epm, 1j * beta).real
            g_dia = characteristic_of_distribution(dia, 1j * beta).real
            values = {"G_TPM": characteristic_of_distribution(tpm, 1j * beta),
                      "G_EPM": g_epm, "G_EPM_diag": g_dia, "G_EPM_coh": g_epm - g_dia}
            se = _sweep_errors(epm, tpm, dia, beta, config.n_shots)
            values.update((name + "_se", se[name]) for name in SWEEP_COLUMNS)
        for n, label in enumerate(("mean", "m2", "m3", "m4"), start=1):
            values[f"{label}_EPM"] = moment(epm, n)
            values[f"{label}_TPM"] = moment(tpm, n)
        for name in names[1:]:
            cols[name].append(values[name].real)
    return {name: np.array(values, dtype=float) for name, values in cols.items()}


OFFSET_PHASES = TwoQubitExperimentConfig(phi=0.7, lam=-1.3,
                                         theta_grid=tuple(np.linspace(0.0, 3.0, 13)))


@pytest.mark.parametrize("config", [TwoQubitExperimentConfig(), OFFSET_PHASES],
                         ids=["default", "offset-phases"])
def test_exact_sweep_matches_per_point_evaluation(config):
    res = two_qubit_sweep(config).columns
    ref = sweep_by_point(config, SeededGenerator(0))
    assert list(res) == list(ref)
    for name, values in ref.items():
        assert np.abs(res[name] - values).max() <= 1e-13 * np.abs(values).max(), name


@pytest.mark.parametrize("n_shots, seed", [(2048, 5), (1000, 3)])
def test_shot_sweep_matches_per_point_draws(n_shots, seed):
    # grid point i still draws from child streams 0-2 of child stream i
    for config in (TwoQubitExperimentConfig(n_shots=n_shots),
                   dataclasses.replace(OFFSET_PHASES, n_shots=n_shots)):
        res = two_qubit_sweep(config, SeededGenerator(seed)).columns
        ref = sweep_by_point(config, SeededGenerator(seed))
        assert list(res) == list(ref)
        for name, values in ref.items():
            assert np.array_equal(res[name], values), name


def test_sweep_validates_each_state_once_per_call(monkeypatch):
    # the exact sweep validates its state; the shot sweep also its dephased
    # populations, which the end-point records of G_EPM_diag are drawn from
    calls = count_qcore_calls(monkeypatch, "density_spectrum")
    for n_shots, states in ((None, 1), (256, 2)):
        counts = []
        for size in (2, 21):
            calls.clear()
            two_qubit_sweep(TwoQubitExperimentConfig(
                n_shots=n_shots, theta_grid=DEFAULT_THETA_GRID[:size]))
            counts.append(len(calls))
        assert counts == [states, states], n_shots


@pytest.mark.parametrize("field, value", [("beta", math.nan), ("beta", math.inf),
                                          ("beta", -math.inf), ("theta0", math.nan),
                                          ("epsilon", math.nan), ("epsilon", math.inf),
                                          ("phi", math.nan), ("lam", math.inf),
                                          ("theta_grid", (0.0, math.nan))])
def test_non_finite_angle_or_beta_is_rejected(field, value):
    with pytest.raises(InvalidConfig, match="finite"):
        TwoQubitExperimentConfig(**{field: value}).resolved()


def test_empty_theta_grid_is_rejected():
    cfg = TwoQubitExperimentConfig(theta_grid=())
    with pytest.raises(InvalidConfig, match="theta_grid"):
        cfg.resolved()
    with pytest.raises(InvalidConfig):
        two_qubit_sweep(cfg)


def test_default_grid_spacing():
    assert len(DEFAULT_THETA_GRID) == 21
    diffs = np.diff(DEFAULT_THETA_GRID)
    assert np.abs(diffs - math.pi / 10.0).max() < 1e-15


# ---------------------------------------------------------------------------
# shot-mode sweep


def test_shot_sweep_reproducible_and_consistent():
    cfg = TwoQubitExperimentConfig(n_shots=512, theta_grid=(0.3, 1.2))
    a = two_qubit_sweep(cfg, SeededGenerator(5))
    b = two_qubit_sweep(cfg, SeededGenerator(5))
    for name in a.column_names():
        assert np.array_equal(a.columns[name], b.columns[name]), name
    c = two_qubit_sweep(cfg, SeededGenerator(6))
    assert not np.array_equal(a.columns["G_EPM"], c.columns["G_EPM"])


def test_shot_sweep_column_layout():
    cfg = TwoQubitExperimentConfig(n_shots=256, theta_grid=(0.5,))
    res = two_qubit_sweep(cfg, SeededGenerator(0))
    names = res.column_names()
    base = [n for n in names if n != "theta" and not n.endswith("_se")]
    assert names[0] == "theta"
    assert [n + "_se" for n in base] == names[1 + len(base):]
    assert res.columns["G_EPM_se"][0] > 0.0


def test_shot_sweep_estimates_near_closed_forms():
    cfg = TwoQubitExperimentConfig(n_shots=4096)
    _, beta = cfg.resolved()
    res = two_qubit_sweep(cfg, SeededGenerator(11))
    for i, th in enumerate(res.columns["theta"]):
        expected = closed_form_characteristics(th, beta)["G_EPM"]
        gap = abs(res.columns["G_EPM"][i] - expected)
        assert gap <= 5.0 * max(res.columns["G_EPM_se"][i], 1e-6)


def test_shot_sweep_split_decomposes_estimate():
    cfg = TwoQubitExperimentConfig(n_shots=512, theta_grid=(0.3, 0.9, 2.2))
    res = two_qubit_sweep(cfg, SeededGenerator(2))
    total = res.columns["G_EPM_diag"] + res.columns["G_EPM_coh"]
    assert np.abs(total - res.columns["G_EPM"]).max() < 1e-12


def test_shot_sweep_generator_types():
    cfg = TwoQubitExperimentConfig(n_shots=64, theta_grid=(0.7,))
    ref = two_qubit_sweep(cfg, SeededGenerator(5)).columns
    for gen in (5, np.int64(5)):
        res = two_qubit_sweep(cfg, gen).columns
        assert all(np.array_equal(res[k], ref[k]) for k in ref)
    default = two_qubit_sweep(cfg).columns
    assert np.array_equal(default["G_EPM"],
                          two_qubit_sweep(cfg, SeededGenerator(0)).columns["G_EPM"])
    # a numpy Generator has no index-addressable child streams
    with pytest.raises(TypeError, match="SeededGenerator, an int seed or None"):
        two_qubit_sweep(cfg, np.random.default_rng(1))


def _bootstrap_se(probs, weight, n_shots, rng, n_resamples=20000):
    """Reference error: spread of the statistic over resampled shot records."""
    tables = rng.multinomial(n_shots, probs.reshape(-1), size=n_resamples) / n_shots
    return float(np.std(tables @ weight.reshape(-1), ddof=1))


def test_shot_errors_match_bootstrap_reference():
    # re-draw each grid point's three records from the sweep's own streams
    # and resample them: the closed form is the bootstrap's large-resample
    # limit, and 20 000 resamples put the reference within about 0.5 %
    grid = (0.3, 1.1, 2.2)
    cfg = TwoQubitExperimentConfig(n_shots=2048, theta_grid=grid)
    _, beta = cfg.resolved()
    res = two_qubit_sweep(cfg, SeededGenerator(3))
    spec = spectral_decompose(two_qubit_hamiltonian())
    rho = two_qubit_initial_state(cfg)
    records = (("EPM", rho), ("TPM", rho), ("EPM", dephase(rho)))
    rng = np.random.default_rng(2048)
    for idx, theta in enumerate(grid):
        chan = UnitaryChannel(controlled_gate(-4.0 * theta))
        point = SeededGenerator(3).spawn(idx)
        epm, tpm, dia = (sample_shots(tag, state, chan, spec, spec, 2048, point.spawn(k))
                         for k, (tag, state) in enumerate(records))
        assert characteristic_of_distribution(tpm, 1j * beta).real \
            == res.columns["G_TPM"][idx]
        delta = epm.delta_grid()
        weights = {"G": np.exp(-beta * delta), "mean": delta, "m2": delta ** 2,
                   "m3": delta ** 3, "m4": delta ** 4}
        ref = {"G_EPM_diag": _bootstrap_se(dia.probs, weights["G"], 2048, rng)}
        for label, w in weights.items():
            ref[f"{label}_EPM"] = _bootstrap_se(epm.probs, w, 2048, rng)
            ref[f"{label}_TPM"] = _bootstrap_se(tpm.probs, w, 2048, rng)
        ref["G_EPM_coh"] = math.hypot(ref["G_EPM"], ref["G_EPM_diag"])
        for name in SWEEP_COLUMNS:
            assert res.columns[name + "_se"][idx] == \
                pytest.approx(ref[name], rel=0.03, abs=1e-12), (theta, name)


def test_shot_errors_closed_form():
    w = {"G": np.array([[1.0, 0.5], [2.0, 0.25]]), "m": np.array([[0.0, 1.0], [4.0, 9.0]])}
    # a deterministic record has no shot noise at all
    one_hot = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert _shot_errors(one_hot, w, 100) == {"G": 0.0, "m": 0.0}
    # two occupied cells: p (1 - p) (w1 - w2)^2 / N
    two = np.array([[0.25, 0.0], [0.0, 0.75]])
    se = _shot_errors(two, w, 300)
    assert se["G"] == pytest.approx(math.sqrt(0.25 * 0.75 * 0.75 ** 2 / 300), rel=1e-14)
    assert se["m"] == pytest.approx(math.sqrt(0.25 * 0.75 * 81.0 / 300), rel=1e-14)
    # a stack of tables gives one error per table
    stacked = _shot_errors(np.stack([one_hot, two]), w, 300)
    assert stacked["G"].shape == stacked["m"].shape == (2,)
    assert stacked["G"][0] == stacked["m"][0] == 0.0
    assert stacked["G"][1] == pytest.approx(se["G"], rel=1e-14)
    assert stacked["m"][1] == pytest.approx(se["m"], rel=1e-14)


def _column_digest(res, names):
    h = hashlib.sha256()
    for name in names:
        h.update(res.columns[name].astype("<f8").tobytes())
    return h.hexdigest()


def test_shot_sweep_value_columns_are_pinned():
    # captured while the error columns still came from 400 bootstrap
    # resamples drawn from child streams 3-5: the estimates use streams 0-2
    # only and must not move by a single bit
    res = two_qubit_sweep(TwoQubitExperimentConfig(n_shots=2048), SeededGenerator(5))
    assert _column_digest(res, ("theta",) + SWEEP_COLUMNS) == \
        "811c11f28f33917857ac3705cf10b9a86b1e2a8f14f582323552d6fc5c4c8502"
    assert res.columns["G_TPM"][3] == 1.0029842789856962
    assert res.columns["G_EPM"][7] == 0.8335686461941514
    assert res.columns["G_EPM_coh"][12] == -0.20686302015548708
    assert res.columns["m2_TPM"][12] == 2.560546875


def test_shot_sweep_error_columns_are_pinned():
    res = two_qubit_sweep(TwoQubitExperimentConfig(n_shots=2048), SeededGenerator(5))
    pinned = {
        3: {"G_TPM": 0.016182921846120836, "G_EPM": 0.025055673039613112,
            "G_EPM_diag": 0.02194350023924288, "G_EPM_coh": 0.03330621494882971,
            "m2_EPM": 0.09059883101584947, "m4_TPM": 0.16999052568288972},
        7: {"G_TPM": 0.016104558338368918, "G_EPM": 0.013616914661096225,
            "mean_EPM": 0.03194874162150941, "m3_TPM": 0.13266249207277633},
        12: {"G_EPM_diag": 0.021623288215924335, "G_EPM_coh": 0.026306630868752293,
             "mean_TPM": 0.033509627908298166, "m4_EPM": 1.0885046248392483},
    }
    for idx, values in pinned.items():
        for name, value in values.items():
            assert res.columns[name + "_se"][idx] == pytest.approx(value, rel=1e-12)


def test_sweep_model_errors_track_sampled_errors():
    cfg = TwoQubitExperimentConfig(n_shots=2048, theta_grid=(0.3, 1.1, 2.2))
    res = two_qubit_sweep(cfg, SeededGenerator(8))
    model = res.model_errors
    assert list(model) == list(SWEEP_COLUMNS)
    for name in SWEEP_COLUMNS:
        assert np.allclose(res.columns[name + "_se"], model[name], rtol=0.1), name
    quarter = two_qubit_sweep(dataclasses.replace(cfg, n_shots=4 * 2048),
                              SeededGenerator(8)).model_errors
    for name in SWEEP_COLUMNS:
        assert np.allclose(quarter[name], 0.5 * model[name], rtol=1e-12)


def test_sweep_carries_its_model_errors():
    # each record's ensemble gives both the shots and the exact joint; the
    # model errors are the closed form on those joints bit for bit, the
    # joints built here one grid point at a time
    cfg = TwoQubitExperimentConfig(n_shots=2048)
    res = two_qubit_sweep(cfg, SeededGenerator(8))
    assert list(res.model_errors) == list(SWEEP_COLUMNS)
    _, beta = cfg.resolved()
    spec = spectral_decompose(two_qubit_hamiltonian(cfg.epsilon))
    rho = two_qubit_initial_state(cfg)
    master = SeededGenerator(8)
    for idx, theta in enumerate(cfg.theta_grid):
        chan = UnitaryChannel(controlled_gate(-4.0 * theta, cfg.phi, cfg.lam))
        point = master.spawn(idx)
        epm, tpm, dia = (sample_shots(tag, state, chan, spec, spec, cfg.n_shots,
                                      point.spawn(k)).exact
                         for k, (tag, state) in enumerate((("EPM", rho), ("TPM", rho),
                                                            ("EPM", dephase(rho)))))
        model = _sweep_errors(epm, tpm, dia, beta, cfg.n_shots)
        for name in SWEEP_COLUMNS:
            assert res.model_errors[name][idx].tobytes() == model[name].tobytes(), (name, idx)
    assert two_qubit_sweep(TwoQubitExperimentConfig()).model_errors is None


# ---------------------------------------------------------------------------
# three-level model construction


def test_three_level_hamiltonian_and_gaps():
    cfg = ThreeLevelConfig(omega1=1.0, omega3=3.0)
    h = three_level_hamiltonian(cfg)
    assert np.allclose(np.diag(h), [0.0, 1.0, 3.0])
    assert cfg.omega2 == 2.0


def test_thermal_occupation_conventions():
    assert abs(thermal_occupation(3.0, 1.0, "bose")
               - 1.0 / (math.exp(3.0) - 1.0)) < 1e-15
    assert abs(thermal_occupation(3.0, 1.0, "as_printed")
               - 1.0 / (math.exp(3.0) + 1.0)) < 1e-15
    with pytest.raises(InvalidConfig):
        thermal_occupation(1.0, 1.0, "nope")


def test_jump_rates_by_hand():
    cfg = ThreeLevelConfig()
    _, jumps = three_level_model(cfg)
    assert len(jumps.operators) == 6
    occ = [1.0 / math.expm1(3.0), 1.0 / math.expm1(2.0), 1.0 / math.expm1(6.0)]
    expected = {"g<-A": 0.1 * (occ[0] + 1.0), "A<-g": 0.1 * occ[0],
                "A<-B": 0.1 * (occ[1] + 1.0), "B<-A": 0.1 * occ[1],
                "g<-B": 0.1 * (occ[2] + 1.0), "B<-g": 0.1 * occ[2]}
    for op, label in zip(jumps.operators, jumps.labels):
        assert abs(float(np.abs(op).max()) ** 2 - expected[label]) < 1e-14
        assert np.count_nonzero(op) == 1


def test_jump_rates_respect_occupation_flag():
    _, bose = three_level_model(ThreeLevelConfig())
    _, printed = three_level_model(ThreeLevelConfig(occupation_convention="as_printed"))
    up_bose = next(op for op, l in zip(bose.operators, bose.labels) if l == "A<-g")
    up_printed = next(op for op, l in zip(printed.operators, printed.labels)
                      if l == "A<-g")
    assert abs(float(np.abs(up_printed).max()) ** 2
               - 0.1 / (math.exp(3.0) + 1.0)) < 1e-15
    assert not np.allclose(up_bose, up_printed)


def test_closed_system_has_no_jumps_and_keeps_purity():
    cfg = ThreeLevelConfig(gamma=0.0, t_max=2.0)
    schedule, jumps = three_level_model(cfg)
    assert len(jumps.operators) == 0
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    out = propagate(schedule, jumps, rho, step=1e-3)
    assert abs(np.trace(out @ out).real - 1.0) < 1e-7


def test_drive_forms():
    amp = 1.5
    sched_c, _ = three_level_model(ThreeLevelConfig(gamma=0.0))
    sched_d, _ = three_level_model(
        ThreeLevelConfig(gamma=0.0, drive_form="double_frequency"))
    for t in (0.0, 0.4, 1.1, 2.9):
        g = amp * math.sin(t) ** 2
        hc = sched_c.at(t)
        assert abs(hc[0, 2] - g) < 1e-14
        assert abs(hc[1, 2] - (amp - g)) < 1e-14
        hd = sched_d.at(t)
        assert abs(hd[0, 2] - g) < 1e-14
        assert abs(hd[1, 2] - amp * (1.0 - math.sin(2.0 * t) ** 2)) < 1e-14
    # The complementary form keeps the total coupling constant.
    assert abs(sched_c.at(0.77)[0, 2] + sched_c.at(0.77)[1, 2] - amp) < 1e-14


def test_affine_drive_matches_drive_forms():
    # H(t) = base + g(t) V_gB + f(t) V_AB, the two couplings scaled by the
    # envelopes of each drive form
    amp = 1.5
    v_gb = np.zeros((3, 3))
    v_gb[0, 2] = v_gb[2, 0] = 1.0
    v_ab = np.zeros((3, 3))
    v_ab[1, 2] = v_ab[2, 1] = 1.0
    forms = {"complement": lambda t: amp - amp * math.sin(t) ** 2,
             "double_frequency": lambda t: amp * (1.0 - math.sin(2.0 * t) ** 2)}
    for form, f in forms.items():
        sched, _ = three_level_model(ThreeLevelConfig(drive_form=form))
        for t in (0.0, 0.4, 1.1, 2.9, 7.3):
            expected = sched.base + amp * math.sin(t) ** 2 * v_gb + f(t) * v_ab
            assert np.abs(sched.at(t) - expected).max() <= 1e-15


def test_no_drive_when_amplitude_zero():
    sched, _ = three_level_model(ThreeLevelConfig(drive_amplitude=0.0))
    assert len(sched.couplings) == 0
    assert np.array_equal(sched.at(1.3), sched.base)
    assert sched.period is None


@pytest.mark.parametrize("form", ["complement", "double_frequency"])
def test_both_drive_forms_declare_period_pi(form):
    sched, _ = three_level_model(ThreeLevelConfig(drive_form=form))
    assert sched.period == math.pi
    # a third of the period is not one: the schedule refuses it when built
    with pytest.raises(ValueError, match="not periodic"):
        dataclasses.replace(sched, period=math.pi / 3.0)
    # a multiple of the period is one
    assert dataclasses.replace(sched, period=2.0 * math.pi).period == 2.0 * math.pi


@pytest.mark.parametrize("preset", ["figS2b-jarzynski-open", "figS4-entropy",
                                    "figS2-jarzynski-closed"])
def test_folded_series_matches_the_full_window(preset):
    # one period integrated and composed, against all of [0, t_max] stepped
    cfg = PRESETS[preset].three_level
    schedule, jumps = three_level_model(cfg)
    times = np.linspace(0.0, cfg.t_max, 101)
    assert cfg.t_max > 3.0 * math.pi
    folded = propagator_series(schedule, jumps, times, step=cfg.step)
    full = propagator_series(dataclasses.replace(schedule, period=None), jumps,
                             times, step=cfg.step)
    gap = max(np.abs(a.superoperator - b.superoperator).max()
              for a, b in zip(folded, full))
    assert gap < 5e-12


def test_closed_system_snapshots_are_unitary():
    # with gamma = 0 every Magnus exponent is anti-Hermitian, so each step map
    # is unitary up to roundoff: 1.1e-14 measured over the 101 snapshots at
    # the default step
    cfg = PRESETS["figS2-jarzynski-closed"].three_level
    assert cfg.gamma == 0.0
    schedule, jumps = three_level_model(cfg)
    series = propagator_series(schedule, jumps, np.linspace(0.0, cfg.t_max, 101),
                               step=cfg.step)
    s = np.array([c.superoperator for c in series])
    defect = np.abs(s.conj().swapaxes(-1, -2) @ s - np.eye(s.shape[-1])).max()
    assert defect < 1e-12


def test_equal_temperature_baths_relax_to_gibbs():
    cfg = ThreeLevelConfig(gamma=0.5, beta1=1.0, beta2=1.0, beta3=1.0,
                           drive_amplitude=0.0, t_max=40.0)
    schedule, jumps = three_level_model(cfg)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    out = propagate(schedule, jumps, rho, step=5e-3)
    target = gibbs_state(three_level_hamiltonian(cfg), 1.0)
    assert np.abs(out - target).max() < 1e-8


def test_three_level_config_validation():
    with pytest.raises(InvalidConfig):
        ThreeLevelConfig(gamma=-0.1)
    with pytest.raises(InvalidConfig):
        ThreeLevelConfig(omega1=2.0, omega3=1.0)
    with pytest.raises(InvalidConfig):
        ThreeLevelConfig(step=0.0)
    with pytest.raises(InvalidConfig):
        ThreeLevelConfig(drive_form="sawtooth")
    with pytest.raises(InvalidConfig):
        ThreeLevelConfig(measurement_convention="middle")
    with pytest.raises(InvalidConfig):
        ThreeLevelConfig(beta2=-1.0)  # bose occupation needs beta*omega > 0
    # The alternative convention tolerates nonpositive beta.
    ThreeLevelConfig(beta2=-1.0, occupation_convention="as_printed")


@pytest.mark.parametrize("field, value", [
    ("t_max", math.nan), ("gamma", math.nan), ("omega1", math.nan),
    ("omega3", math.inf), ("beta1", math.nan), ("drive_amplitude", math.nan),
    ("step", math.inf)])
def test_non_finite_three_level_field_is_rejected(field, value):
    # a NaN gamma used to pass as a closed system, since gamma > 0 is false
    with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
        ThreeLevelConfig(**{field: value})


# ---------------------------------------------------------------------------
# three-level initial state and experiment


def test_initial_state_thermal_without_seed():
    cfg = ThreeLevelConfig()
    state = InitialStateSpec(beta_ref=0.5, coherence_seed=None)
    rho = three_level_initial_state(cfg, state)
    schedule, _ = three_level_model(cfg)
    evals, vecs = hermitian_eig(schedule.at(0.0))
    w = np.exp(-0.5 * (evals - evals.min()))
    w /= w.sum()
    assert np.abs(rho - vecs @ np.diag(w.astype(complex)) @ vecs.conj().T).max() < 1e-12


# Initial states of two presets, captured with the cyclic Jacobi solver the
# package used before LAPACK's eigh.  The coherence is drawn in the energy
# basis of H(0), so a flipped eigenvector phase changes these matrices.
PINNED_INITIAL_STATES = {
    "figS2b-jarzynski-open": np.array([
        [0.4865102317707006,
         0.08573209892334922 + 0.13508409830270729j,
         0.14997465638682705 - 0.15390299333656407j],
        [0.08573209892334922 - 0.13508409830270729j,
         0.32389680518429054,
         -0.1764676421859989 - 0.074359682692760637j],
        [0.14997465638682705 + 0.15390299333656407j,
         -0.17646764218599886 + 0.074359682692760637j,
         0.18959296304500867]]),
    "figS3-second-moment": np.array([
        [0.4865102317707006,
         -0.026593317814788183 - 0.35281261439200029j,
         -0.06779609799864438 + 0.12811406992366969j],
        [-0.026593317814788183 + 0.35281261439200029j,
         0.4665873033481632,
         -0.08134064341008379 - 0.082933095528366224j],
        [-0.06779609799864438 - 0.12811406992366969j,
         -0.08134064341008379 + 0.082933095528366224j,
         0.04690246488113603]]),
}


@pytest.mark.parametrize("name", sorted(PINNED_INITIAL_STATES))
def test_preset_initial_state_is_pinned(name):
    preset = PRESETS[name]
    rho = three_level_initial_state(preset.three_level, preset.initial_state)
    assert np.abs(rho - PINNED_INITIAL_STATES[name]).max() < 1e-12


def test_initial_state_with_coherence_is_valid_density():
    rho = three_level_initial_state(
        ThreeLevelConfig(), InitialStateSpec(beta_ref=0.5, coherence_seed=129))
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    evals, _ = hermitian_eig(rho)
    assert evals.min() > -1e-10
    # Same populations as the bare thermal state in the measurement basis.
    bare = three_level_initial_state(
        ThreeLevelConfig(), InitialStateSpec(beta_ref=0.5, coherence_seed=None))
    schedule, _ = three_level_model(ThreeLevelConfig())
    _, vecs = hermitian_eig(schedule.at(0.0))
    pops = np.diag(vecs.conj().T @ rho @ vecs).real
    pops_bare = np.diag(vecs.conj().T @ bare @ vecs).real
    assert np.abs(pops - pops_bare).max() < 1e-12


def test_experiment_start_point_is_identity_channel():
    cfg = ThreeLevelConfig(t_max=1.0)
    ser = three_level_experiment(cfg, InitialStateSpec(beta_ref=0.5, coherence_seed=7),
                                 t_samples=[0.0, 0.5, 1.0])
    c = ser.columns
    assert c["t"][0] == 0.0
    assert abs(c["jarzynski_tpm"][0] - 1.0) < 1e-9
    # Identity evolution keeps the coherence terms orthogonal to the
    # thermal reference, so the coherence correction starts at zero.
    assert abs(c["jarzynski_coherence"][0]) < 1e-10
    # The end-point joint is a product of marginals, so its energy-change
    # spread is positive even before anything has evolved.
    assert c["m2_epm"][0] > 0.0


def test_experiment_parts_always_sum():
    ser = three_level_experiment(
        ThreeLevelConfig(t_max=1.5),
        InitialStateSpec(beta_ref=0.5, coherence_seed=3),
        t_samples=np.linspace(0.0, 1.5, 7))
    c = ser.columns
    total = c["jarzynski_diagonal"] + c["jarzynski_coherence"]
    assert np.abs(total - c["jarzynski_epm"]).max() < 1e-10
    total2 = c["m2_population"] + c["m2_coherence"]
    assert np.abs(total2 - c["m2_epm"]).max() < 1e-10


def test_experiment_without_coherence_has_null_corrections():
    ser = three_level_experiment(
        ThreeLevelConfig(t_max=1.0),
        InitialStateSpec(beta_ref=0.5, coherence_seed=None),
        t_samples=np.linspace(0.0, 1.0, 5))
    c = ser.columns
    assert np.abs(c["jarzynski_coherence"]).max() < 1e-10
    assert np.abs(c["m2_coherence"]).max() < 1e-10
    # Without initial coherence the eigenstate-mixture scheme reduces to
    # the two-point scheme for this nondegenerate measurement.
    assert np.abs(c["entropy_mll"] - c["entropy_tpm"]).max() < 1e-10


def test_experiment_entropy_ordering():
    ser = three_level_experiment(
        ThreeLevelConfig(t_max=1.5),
        InitialStateSpec(beta_ref=0.5, coherence_seed=129),
        t_samples=np.linspace(0.0, 1.5, 7))
    c = ser.columns
    assert np.all(c["entropy_mll"] <= c["entropy_epm"] + 1e-10)


def test_experiment_measurement_conventions_differ_under_drive():
    spec = InitialStateSpec(beta_ref=0.5, coherence_seed=None)
    ts = [0.0, 0.8]
    full = three_level_experiment(
        ThreeLevelConfig(t_max=0.8), spec, t_samples=ts)
    bare = three_level_experiment(
        ThreeLevelConfig(t_max=0.8, measurement_convention="bare"), spec,
        t_samples=ts)
    assert abs(full.columns["jarzynski_epm"][1]
               - bare.columns["jarzynski_epm"][1]) > 1e-6
    # Without a drive the two conventions coincide.
    quiet = ThreeLevelConfig(t_max=0.8, drive_amplitude=0.0)
    a = three_level_experiment(quiet, spec, t_samples=ts)
    b = three_level_experiment(
        ThreeLevelConfig(t_max=0.8, drive_amplitude=0.0,
                         measurement_convention="bare"), spec, t_samples=ts)
    assert np.abs(a.columns["jarzynski_epm"] - b.columns["jarzynski_epm"]).max() < 1e-12


def test_experiment_accepts_explicit_state_matrix():
    cfg = ThreeLevelConfig(t_max=0.5)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    # An arbitrary state does not have the Gibbs diagonal the exponential
    # average decomposition assumes, so the run flags it and continues.
    with pytest.warns(NonThermalDiagonal):
        ser = three_level_experiment(cfg, rho, t_samples=[0.0, 0.5])
    assert np.abs(ser.rho_initial - rho).max() < 1e-14
    assert np.all(np.isfinite(ser.columns["jarzynski_epm"]))


def test_experiment_rejects_bad_sample_times():
    cfg = ThreeLevelConfig(t_max=1.0)
    with pytest.raises(InvalidConfig):
        three_level_experiment(cfg, t_samples=[])
    with pytest.raises(InvalidConfig):
        three_level_experiment(cfg, t_samples=[0.0, 2.0])
    # a NaN passes every ordering comparison; it is named, not left to
    # surface as a numerical error further on
    with pytest.raises(InvalidConfig, match="finite"):
        three_level_experiment(cfg, t_samples=[0.0, float("nan")])


def series_by_time(config, state, t_samples):
    """Reference for three_level_experiment: the public per-time API, one sample at a time."""
    schedule, jumps = three_level_model(config)
    bare = config.measurement_convention == "bare"
    h0 = schedule.base if bare else schedule.at(0.0)
    spec_i = spectral_decompose(h0)
    _, basis_i = hermitian_eig(h0)
    if isinstance(state, InitialStateSpec):
        rho_i, beta_ref = three_level_initial_state(config, state), state.beta_ref
    else:
        rho_i, beta_ref = np.asarray(state, dtype=complex), InitialStateSpec().beta_ref
    times = np.asarray(t_samples, dtype=float)
    cols = {name: [] for name in THREE_LEVEL_COLUMNS}
    for t, chan in zip(times, propagator_series(schedule, jumps, times, step=config.step)):
        h_t = schedule.base if bare else schedule.at(t)
        spec_f = spec_i if bare else spectral_decompose(h_t)
        basis_f = basis_i if bare else hermitian_eig(h_t)[1]
        rep = jarzynski(rho_i, chan, spec_i, spec_f, beta_ref, basis=basis_i)
        z_i = float(np.sum(np.exp(-beta_ref * spec_i.energies) * spec_i.ranks))
        z_f = float(np.sum(np.exp(-beta_ref * spec_f.energies) * spec_f.ranks))
        g_tpm = characteristic_function("TPM", rho_i, chan, spec_i, spec_f, 1j * beta_ref)
        split = epm_second_moment_split(rho_i, chan, spec_i, spec_f, basis=basis_i)
        de, dt, dm = (delta_distribution(j(rho_i, chan, spec_i, spec_f))
                      for j in (epm_joint, tpm_joint, mll_joint))
        for name, value in (
                ("t", t), ("jarzynski_epm", rep.total),
                ("jarzynski_diagonal", rep.diagonal_part),
                ("jarzynski_coherence", rep.coherence_part),
                ("jarzynski_tpm", (g_tpm * (z_i / z_f)).real),
                ("m2_epm", split.total), ("m2_population", split.population_part),
                ("m2_coherence", split.coherence_part),
                ("m2_coherence_fraction",
                 0.0 if split.total == 0.0 else split.coherence_part / split.total),
                ("entropy_epm", shannon_entropy(de)), ("entropy_tpm", shannon_entropy(dt)),
                ("entropy_mll", shannon_entropy(dm)),
                ("m2_mll_minus_epm", moment(dm, 2) - moment(de, 2)),
                ("coherence_l1", coherence_l1(chan.apply(rho_i), basis=basis_f))):
            cols[name].append(value)
    return {name: np.array(values, dtype=float) for name, values in cols.items()}


# H(t) of this drive is degenerate whenever sin(t) = 0 (levels 0, 0, 3), so the
# final measurement has two levels at t = 0 and pi and three elsewhere.
DEGENERATE_DRIVE = ThreeLevelConfig(omega1=1.0, omega3=2.0, drive_amplitude=math.sqrt(2.0),
                                    t_max=3.5)
DEFAULT_TIMES = np.linspace(0.0, 10.0, 101)
OPEN, CLOSED = PRESETS["figS2b-jarzynski-open"], PRESETS["figS2-jarzynski-closed"]
NON_THERMAL = np.diag([0.5, 0.3, 0.2]).astype(complex)
# eigenvalues 0.4, 0.4, 0.2 in a basis that diagonalizes no measurement Hamiltonian
_BASIS = hermitian_eig(np.array([[0.0, 1.0, 1j], [1.0, 1.0, 0.0], [-1j, 0.0, 2.0]]))[1]
REPEATED_EIGENVALUES = _BASIS @ np.diag([0.4, 0.4, 0.2]) @ _BASIS.conj().T
SERIES_CASES = {
    **{name: (preset.three_level, preset.initial_state, DEFAULT_TIMES)
       for name, preset in PRESETS.items() if preset.kind == "three_level"},
    "bare": (ThreeLevelConfig(t_max=2.0, measurement_convention="bare"),
             InitialStateSpec(coherence_seed=5), np.linspace(0.0, 2.0, 11)),
    "start-only": (ThreeLevelConfig(t_max=2.0), InitialStateSpec(), [0.0]),
    "end-only": (ThreeLevelConfig(t_max=2.0), InitialStateSpec(), [2.0]),
    "explicit-state": (ThreeLevelConfig(t_max=2.0),
                       gibbs_state(three_level_hamiltonian(ThreeLevelConfig()), 0.5)
                       + 0.05 * np.array([[0, 1, 1j], [1, 0, 0], [-1j, 0, 0]]),
                       np.linspace(0.0, 2.0, 6)),
    "degenerate-levels": (DEGENERATE_DRIVE, InitialStateSpec(coherence_seed=3),
                          [0.0, 0.5, 1.0, math.pi, 3.5]),
    # the CI runs off the presets' defaults
    "figS4-bare": (dataclasses.replace(PRESETS["figS4-entropy"].three_level,
                                       measurement_convention="bare"),
                   PRESETS["figS4-entropy"].initial_state, DEFAULT_TIMES),
    "undriven-open": (dataclasses.replace(OPEN.three_level, drive_amplitude=0.0),
                      OPEN.initial_state, DEFAULT_TIMES),
    "undriven-closed": (dataclasses.replace(CLOSED.three_level, drive_amplitude=0.0),
                        CLOSED.initial_state, DEFAULT_TIMES),
    "degenerate-drive": (dataclasses.replace(OPEN.three_level, drive_amplitude=math.sqrt(3.0)),
                         OPEN.initial_state, DEFAULT_TIMES),
    "beta-0": (OPEN.three_level, dataclasses.replace(OPEN.initial_state, beta_ref=0.0),
               DEFAULT_TIMES),
    "non-thermal": (ThreeLevelConfig(t_max=2.0), NON_THERMAL, np.linspace(0.0, 2.0, 6)),
    "repeated-eigenvalues": (ThreeLevelConfig(t_max=2.0), REPEATED_EIGENVALUES,
                             np.linspace(0.0, 2.0, 6)),
}


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_experiment_matches_per_time_evaluation(case):
    # the series builds its columns from one population table; the reference
    # evaluates the public protocol functions one sample time at a time
    config, state, times = SERIES_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonThermalDiagonal)
        warnings.simplefilter("ignore", DegenerateEigenbasis)
        ser = three_level_experiment(config, state, t_samples=times)
        ref = series_by_time(config, state, times)
    assert list(ser.columns) == list(THREE_LEVEL_COLUMNS)
    for name in THREE_LEVEL_COLUMNS:
        assert np.abs(ser.columns[name] - ref[name]).max() <= 1e-12, name


@pytest.mark.parametrize("state, expected", [
    (InitialStateSpec(), set()),
    (NON_THERMAL, {NonThermalDiagonal}),
    (REPEATED_EIGENVALUES, {NonThermalDiagonal, DegenerateEigenbasis}),
])
def test_experiment_warns_as_the_protocol_functions_do(state, expected):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        three_level_experiment(ThreeLevelConfig(t_max=0.5), state, t_samples=[0.0, 0.5])
    assert {w.category for w in caught} == expected


def test_degenerate_drive_of_the_ci_run_forms_two_groups():
    config = SERIES_CASES["degenerate-drive"][0]
    schedule, _ = three_level_model(config)
    assert len(spectral_decompose(schedule.at(DEFAULT_TIMES))) == 2


def test_degenerate_drive_changes_level_count():
    schedule, _ = three_level_model(DEGENERATE_DRIVE)
    counts = [spectral_decompose(schedule.at(t)).energies.size for t in (0.0, 0.5, math.pi)]
    assert counts == [2, 3, 2]


def count_qcore_calls(monkeypatch, function):
    """Count calls of a qcore function made through any module of the package."""
    original, calls = getattr(qcore, function), []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fluctua.") and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counted)
    return calls


def test_eig_calls_do_not_grow_with_sample_times(monkeypatch):
    calls = count_qcore_calls(monkeypatch, "hermitian_eig")
    counts = []
    for n in (11, 101):
        calls.clear()
        three_level_experiment(ThreeLevelConfig(t_max=0.5), InitialStateSpec(),
                               t_samples=np.linspace(0.0, 0.5, n))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_eig_calls_do_not_grow_with_level_groups(monkeypatch):
    # each measurement Hamiltonian is decomposed once and the initial state
    # validated once, however many level groups the final measurement forms
    calls = count_qcore_calls(monkeypatch, "hermitian_eig")
    times = [0.0, 0.5, 1.0, math.pi, 3.5]
    counts = []
    for config in (ThreeLevelConfig(t_max=3.5), DEGENERATE_DRIVE):
        calls.clear()
        three_level_experiment(config, InitialStateSpec(coherence_seed=3), t_samples=times)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 6


def test_experiment_rejects_explicit_non_state():
    cfg = ThreeLevelConfig(t_max=0.5)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        three_level_experiment(cfg, np.diag([1.2, -0.1, -0.1]), t_samples=[0.0, 0.5])
    with pytest.raises(ValueError, match="trace"):
        three_level_experiment(cfg, np.diag([0.5, 0.3, 0.1]), t_samples=[0.0, 0.5])


# ---------------------------------------------------------------------------
# presets


def test_preset_registry_is_complete():
    expected = {"fig2-sweep", "figS2-jarzynski-closed", "figS2b-jarzynski-open",
                "figS3-second-moment", "figS4-entropy", "figS5-mll-second-moment",
                "figS6-entropy-mll"}
    assert set(PRESETS) == expected
    for name, preset in PRESETS.items():
        assert preset.name == name
        assert preset.kind in ("two_qubit", "three_level")
        if preset.kind == "two_qubit":
            assert preset.two_qubit is not None
        else:
            assert preset.three_level is not None
            assert preset.initial_state is not None


def test_preset_parameters():
    assert PRESETS["figS2-jarzynski-closed"].three_level.gamma == 0.0
    assert PRESETS["figS2-jarzynski-closed"].initial_state.beta_ref == 0.6
    assert PRESETS["figS2b-jarzynski-open"].three_level.gamma == 0.1
    assert PRESETS["figS2b-jarzynski-open"].initial_state.beta_ref == 0.5
    assert PRESETS["figS4-entropy"].three_level.drive_form == "double_frequency"
    assert PRESETS["figS3-second-moment"].initial_state.coherence_seed == 129
