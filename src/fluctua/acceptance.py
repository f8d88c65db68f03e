"""Executable correctness gate for the package.

Every criterion in this module verifies falsifiable properties of the
protocols, the model systems, or the integrator, at pinned seeds.  It
returns a short note and its tested values as :class:`IdentityCheck`
rows, each with its bound; no rows means it does not apply.  ``run_all``
evaluates the ``CRITERIA`` table into one :class:`CriterionResult` each;
the command line's ``check`` subcommand prints them and sets the exit code.

``sweep_checks`` and ``series_checks`` hold the identity checks of one
run in the same rows.  ``fluctua run`` reports them in ``summary.json``
and ``--check`` decides on them; three criteria below read them too.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channels import (
    DEFAULT_STEP,
    IntegrationFailure,
    UnitaryChannel,
    check_cptp,
    propagate,
    propagator_series,
)
from .models import (
    PRESETS,
    ThreeLevelConfig,
    TwoQubitExperimentConfig,
    closed_form_characteristics,
    controlled_gate,
    three_level_experiment,
    three_level_hamiltonian,
    three_level_initial_state,
    three_level_model,
    two_qubit_hamiltonian,
    two_qubit_initial_state,
    two_qubit_sweep,
)
from .protocols import (
    characteristic_function,
    characteristic_split,
    convexity_witness,
    delta_distribution,
    epm_joint,
    epm_second_moment_split,
    initial_probabilities,
    mll_joint,
    moment,
    mutual_information,
    shannon_entropy,
    tpm_joint,
)
from .qcore import density_spectrum, dephase, gibbs_state, spectral_decompose
from .sampling import (
    SeededGenerator,
    haar_random_pure,
    random_cptp,
    random_density,
    random_hamiltonian,
    random_unitary,
)

__all__ = ["CriterionResult", "IdentityCheck", "run_all", "evaluate", "CRITERIA",
           "series_checks", "sweep_checks"]


@dataclass(frozen=True)
class IdentityCheck:
    """One self-check of a run: a tested ``value`` against its ``bound``.

    ``direction`` "max" passes while the value does not exceed the bound,
    "min" while it does not fall below it; a NaN value fails either way.
    """

    value: float
    bound: float
    direction: str
    what: str

    @property
    def passed(self) -> bool:
        if self.direction == "max":
            return self.value <= self.bound
        return self.value >= self.bound

    def failure(self) -> str:
        side = "above" if self.direction == "max" else "below"
        return f"{self.what} is {self.value:.3g}, {side} the bound {self.bound:g}"

    def report(self) -> str:
        side = "<=" if self.direction == "max" else ">="
        return f"{self.what} = {self.value:.3g} ({side} {self.bound:g})"


def _sigma_distance(estimate, target, se) -> float:
    """Largest |estimate - target| in units of ``se``.  A miss within 1e-12,
    the roundoff of a point whose value is certain, counts as no distance;
    a larger miss where ``se`` is zero counts as infinitely far."""
    dev = np.abs(estimate - target)
    dev[dev <= 1e-12] = 0.0
    far = np.where(dev > 0, np.inf, 0.0)
    return float(np.divide(dev, se, out=far, where=se > 0).max())


def sweep_checks(result) -> dict[str, IdentityCheck]:
    """Identity checks of a qubit-pair sweep, keyed by their summary name.

    An exact sweep is checked against the two-point identity, the split of
    the end-point average and the closed forms.  A shot-mode sweep is
    checked against the same targets in the model standard errors it
    carries, ``result.model_errors``: the error formula evaluated on the
    exact joints the shots are drawn from.  The targets are known, so the
    distances are not measured in errors estimated from the same shots.
    """
    cols = result.columns
    closed = closed_form_characteristics(cols["theta"], result.beta, result.epsilon)
    if result.n_shots is None:
        split = cols["G_EPM_diag"] + cols["G_EPM_coh"] - cols["G_EPM"]
        closed_gap = max(float(np.abs(cols[name] - closed[name]).max())
                         for name in ("G_EPM", "G_EPM_diag", "G_EPM_coh"))
        return {
            "max_abs_G_TPM_minus_1": IdentityCheck(
                float(np.abs(cols["G_TPM"] - 1.0).max()), 1e-9, "max",
                "max |G_TPM - 1|"),
            "max_split_defect": IdentityCheck(
                float(np.abs(split).max()), 1e-10, "max",
                "max |G_EPM_diag + G_EPM_coh - G_EPM|"),
            "max_closed_form_deviation": IdentityCheck(
                closed_gap, 1e-9, "max", "max closed-form deviation of "
                "G_EPM, G_EPM_diag and G_EPM_coh")}
    return {f"max_sigma_distance_{name[2:].lower()}": IdentityCheck(
                _sigma_distance(cols[name], closed[name], result.model_errors[name]), 5.0,
                "max", f"{name}'s largest distance in model standard errors "
                       f"from {'1' if name == 'G_TPM' else 'its closed form'}")
            for name in ("G_TPM", "G_EPM", "G_EPM_diag", "G_EPM_coh")}


COHERENCE_SHARE_PRESET = "figS3-second-moment"


def series_checks(series, preset_name: str) -> dict[str, IdentityCheck]:
    """Identity checks of a three-level series, keyed by their summary name.

    Every column must be finite and the population and coherence parts of
    the exponential average and of <dE^2> must add up to their totals.  A
    closed system (gamma = 0) evolves unitally, so from the thermal
    populations of an initial-state spec its two-point exponential average
    is exactly 1.  The figS3 preset must also show its sizable coherence
    share.
    """
    cols = series.columns
    checks = {"non_finite_values": IdentityCheck(
        sum(int(np.count_nonzero(~np.isfinite(v))) for v in cols.values()), 0,
        "max", "the number of non-finite values in the columns")}
    for stem, pop in (("jarzynski", "diagonal"), ("m2", "population")):
        parts = f"{stem}_{pop} + {stem}_coherence"
        defect = cols[f"{stem}_{pop}"] + cols[f"{stem}_coherence"] - cols[f"{stem}_epm"]
        checks[f"max_parts_defect_{stem}"] = IdentityCheck(
            float(np.abs(defect).max()), 1e-10, "max",
            f"max |{parts} - {stem}_epm|")
    if series.config.gamma == 0.0 and series.state is not None:
        checks["max_abs_jarzynski_tpm_minus_1"] = IdentityCheck(
            float(np.abs(cols["jarzynski_tpm"] - 1.0).max()), 1e-10, "max",
            "max |jarzynski_tpm - 1|")
    if preset_name == COHERENCE_SHARE_PRESET:
        checks["peak_coherence_fraction"] = IdentityCheck(
            float(cols["m2_coherence_fraction"].max()), 0.3, "min",
            "the peak coherence share of <dE^2>")
    return checks


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance check; ``passed`` is None when skipped."""

    name: str
    passed: bool | None
    detail: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


Outcome = tuple[str, list[IdentityCheck]]


def evaluate(name: str, criterion: Callable[..., Outcome], **options) -> CriterionResult:
    """Run one criterion: it passes when every row does, and is skipped
    when it returns no rows.  The detail is its note, then each row's
    value next to its bound."""
    note, checks = criterion(**options)
    if not checks:
        return CriterionResult(name, None, note)
    return CriterionResult(name, all(c.passed for c in checks),
                           f"{note}: " + "; ".join(c.report() for c in checks))


def _tv(a, b) -> float:
    return 0.5 * float(np.sum(np.abs(a.probs - b.probs)))


def _delta_tv(a, b) -> float:
    if a.values.size != b.values.size or np.max(np.abs(a.values - b.values)) > 1e-9:
        raise ValueError("energy-change grids differ")
    return _tv(a, b)


def tpm_exponential_identity() -> Outcome:
    """Two-point exponential average is exactly one across the sweep."""
    res = two_qubit_sweep(TwoQubitExperimentConfig())
    return (f"{res.columns['theta'].size} grid points",
            [sweep_checks(res)["max_abs_G_TPM_minus_1"]])


def sweep_closed_forms() -> Outcome:
    """Simulated sweep columns agree with their closed-form expressions."""
    cfg = TwoQubitExperimentConfig()
    worst = sweep_checks(two_qubit_sweep(cfg))["max_closed_form_deviation"]

    # End-to-end spot value at the first grid point for a directly given
    # inverse temperature, computed from the operator expressions.
    spot_cfg = TwoQubitExperimentConfig(beta=0.443)
    rho = two_qubit_initial_state(spot_cfg)
    spec = spectral_decompose(two_qubit_hamiltonian())
    chan = UnitaryChannel(controlled_gate(0.0))
    spot = characteristic_function("EPM", rho, chan, spec, spec, 1j * 0.443).real
    return (f"spot value {spot:.6f} at beta = 0.443",
            [worst, IdentityCheck(abs(spot - 1.37632), 1e-4, "max",
                                  "spot value's gap to 1.37632")])


def protocol_collapse() -> Outcome:
    """Scheme equalities for pure, diagonal, and eigenstate preparations."""
    rng = np.random.default_rng(314)
    worst = {"pure": 0.0, "diagonal": 0.0, "eigenstate": 0.0}
    for k in range(100):
        d = (2, 3, 4)[k % 3]
        h = random_hamiltonian(d, rng)
        spec = spectral_decompose(h)
        chan = (UnitaryChannel(random_unitary(d, rng)) if k % 2
                else random_cptp(d, rng))

        rho_p = density_spectrum(haar_random_pure(d, SeededGenerator(1000 + k)))
        worst["pure"] = max(worst["pure"], _tv(
            epm_joint(rho_p, chan, spec, spec),
            mll_joint(rho_p, chan, spec, spec)))

        rho_d = density_spectrum(dephase(random_density(d, gen=SeededGenerator(2000 + k)),
                                         basis=spec.basis))
        worst["diagonal"] = max(worst["diagonal"], _tv(
            mll_joint(rho_d, chan, spec, spec),
            tpm_joint(rho_d, chan, spec, spec)))

        v = spec.basis[:, k % d]
        rho_e = density_spectrum(np.outer(v, v.conj()))
        je = epm_joint(rho_e, chan, spec, spec)
        jt = tpm_joint(rho_e, chan, spec, spec)
        jm = mll_joint(rho_e, chan, spec, spec)
        worst["eigenstate"] = max(worst["eigenstate"], _tv(je, jt), _tv(je, jm))

    # A diagonal state that is not an eigenstate separates the end-point
    # and two-point schemes even without initial coherence.
    spec2 = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
    rho_w = np.diag([0.3, 0.7]).astype(complex)
    a = math.pi / 6.0
    u = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]],
                 dtype=complex)
    wit = _tv(epm_joint(rho_w, UnitaryChannel(u), spec2, spec2),
              tpm_joint(rho_w, UnitaryChannel(u), spec2, spec2))
    return "100 instances/case", [
        *(IdentityCheck(tv, 1e-10, "max", f"max TV {case}")
          for case, tv in worst.items()),
        IdentityCheck(wit, 1e-6, "min", "separating witness TV")]


def moment_identities() -> Outcome:
    """First-moment trace formula and the second-moment decomposition."""
    rng = np.random.default_rng(1618)
    worst_mean = worst_split = worst_coh = 0.0
    for k in range(100):
        d = (2, 3, 4)[k % 3]
        h_i = random_hamiltonian(d, rng)
        h_f = random_hamiltonian(d, rng)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        chan = (UnitaryChannel(random_unitary(d, rng)) if k % 2
                else random_cptp(d, rng))
        rho = density_spectrum(random_density(d, gen=SeededGenerator(3000 + k)))
        basis = spec_i.basis

        expected = (np.trace(h_f @ chan.apply(rho)).real
                    - np.trace(h_i @ rho.matrix).real)
        je = epm_joint(rho, chan, spec_i, spec_f)
        jm = mll_joint(rho, chan, spec_i, spec_f)
        worst_mean = max(worst_mean, abs(moment(je, 1) - expected),
                         abs(moment(jm, 1) - expected))

        split = epm_second_moment_split(rho, chan, spec_i, spec_f, basis=basis)
        worst_split = max(worst_split, abs(split.total - moment(je, 2)))

        rho0 = density_spectrum(dephase(rho, basis=basis))
        split0 = epm_second_moment_split(rho0, chan, spec_i, spec_f, basis=basis)
        _, g_coh = characteristic_split(rho0, chan, spec_i, spec_f, 1j * 0.7,
                                        basis=basis)
        worst_coh = max(worst_coh, abs(split0.coherence_part), abs(g_coh))
    return "100 instances", [
        IdentityCheck(worst_mean, 1e-9, "max", "mean vs trace formula"),
        IdentityCheck(worst_split, 1e-9, "max", "second-moment reconstruction"),
        IdentityCheck(worst_coh, 1e-10, "max", "coherence terms for dephased states")]


def entropy_relations() -> Outcome:
    """Product structure and entropy orderings of the three schemes."""
    rng = np.random.default_rng(777)
    worst_prod = 0.0
    worst_order = -np.inf
    min_mixed_info = np.inf
    max_pure_info = 0.0
    for k in range(100):
        h_i = random_hamiltonian(3, rng)
        h_f = random_hamiltonian(3, rng)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        chan = (UnitaryChannel(random_unitary(3, rng)) if k % 2
                else random_cptp(3, rng))

        rho_d = density_spectrum(dephase(random_density(3, gen=SeededGenerator(4000 + k)),
                                         basis=spec_i.basis))
        je = epm_joint(rho_d, chan, spec_i, spec_f)
        jt = tpm_joint(rho_d, chan, spec_i, spec_f)
        prod = np.outer(jt.initial_marginal(), jt.final_marginal())
        worst_prod = max(worst_prod, float(np.abs(je.probs - prod).max()))
        worst_order = max(worst_order, shannon_entropy(jt) - shannon_entropy(je))

        rho = density_spectrum(random_density(3, gen=SeededGenerator(4200 + k)))
        je2 = epm_joint(rho, chan, spec_i, spec_f)
        jm2 = mll_joint(rho, chan, spec_i, spec_f)
        worst_order = max(worst_order,
                          shannon_entropy(jm2) - shannon_entropy(je2))
        min_mixed_info = min(min_mixed_info, mutual_information(jm2, je2))

        rho_p = density_spectrum(haar_random_pure(3, SeededGenerator(4400 + k)))
        jep = epm_joint(rho_p, chan, spec_i, spec_f)
        jmp = mll_joint(rho_p, chan, spec_i, spec_f)
        max_pure_info = max(max_pure_info, abs(mutual_information(jmp, jep)))
    return "100 instances (d=3)", [
        IdentityCheck(worst_prod, 1e-10, "max",
                      "dephased end-point joint vs marginal product"),
        IdentityCheck(worst_order, 1e-12, "max", "worst entropy-order violation"),
        IdentityCheck(max_pure_info, 1e-10, "max", "information gap pure max"),
        IdentityCheck(min_mixed_info, 1e-10, "min", "information gap mixed min")]


def tpm_recovery() -> Outcome:
    """Level-by-level end-point runs recombine into the two-point law."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(50):
        if k % 2:
            d = (2, 3, 4)[k % 3]
            h_i = random_hamiltonian(d, rng)
        else:
            # include degenerate initial spectra to exercise rank weighting
            d = 4
            u = random_unitary(4, rng)
            h_i = u @ np.diag([1.0, 1.0, 0.0, -1.0]).astype(complex) @ u.conj().T
        h_f = random_hamiltonian(d, rng)
        spec_i, spec_f = spectral_decompose(h_i), spectral_decompose(h_f)
        chan = (UnitaryChannel(random_unitary(d, rng)) if k % 3
                else random_cptp(d, rng))
        rho = density_spectrum(random_density(d, gen=SeededGenerator(6000 + k)))

        jt = tpm_joint(rho, chan, spec_i, spec_f)
        p = initial_probabilities(rho, spec_i)
        mix = np.zeros_like(jt.probs)
        for level, proj in enumerate(spec_i.projectors):
            state = proj / np.trace(proj)
            mix += p[level] * epm_joint(state, chan, spec_i, spec_f).probs
        worst = max(worst, float(np.abs(mix - jt.probs).max()))
    return "50 instances incl. degenerate spectra", [
        IdentityCheck(worst, 1e-12, "max", "max cell gap")]


def integrator_integrity(step: float = DEFAULT_STEP,
                         halving_base: float = 0.05) -> Outcome:
    """Trace preservation, complete positivity, and step convergence.

    The endpoint error at the halving base, max |rho(h) - rho(h/4)|, must
    stay within the 1e-8 reference tolerance of the ``open-series``
    benchmark, and halving the step must shrink it by at least 12 (the
    sixth-order step gives about 70).  An aborted integration reports NaN
    values, which fail their rows."""
    preset = PRESETS["figS3-second-moment"]
    cfg = preset.three_level
    schedule, jumps = three_level_model(cfg)
    rho0 = three_level_initial_state(cfg, preset.initial_state)
    note = f"step {step:g}, halving base {halving_base:g}"
    try:
        chan = propagator_series(schedule, jumps, [schedule.t_final], step)[-1]
        choi_min = check_cptp(chan).choi_min_eig
        drift = abs(np.trace(chan.apply(rho0)).real - 1.0)

        # Convergence is measured over the full configured window so that
        # accumulated phase error at a too-coarse step shows up.  The drive
        # is periodic, so the window past the first period is covered by
        # powers of the one-period propagator, which carry its step error
        # along: the error still accumulates over the whole window.
        ref = propagate(schedule, jumps, rho0, step=halving_base / 4.0)
        err1 = float(np.abs(propagate(schedule, jumps, rho0, step=halving_base)
                            - ref).max())
        err2 = float(np.abs(propagate(schedule, jumps, rho0,
                                      step=halving_base / 2.0) - ref).max())
        factor = err1 / err2 if err2 > 0.0 else np.inf
    except IntegrationFailure as exc:
        note = f"integration aborted: {exc}"
        drift = choi_min = factor = err1 = math.nan
    return note, [
        IdentityCheck(drift, 1e-8, "max", "trace drift"),
        IdentityCheck(choi_min, -1e-5, "min", "Choi minimum eigenvalue"),
        IdentityCheck(factor, 12.0, "min", "halving factor"),
        IdentityCheck(err1, 1e-8, "max", "step error at the halving base")]


def gibbs_relaxation(occupation: str = "bose") -> Outcome:
    """Equal-temperature baths drive any state to the thermal fixed point."""
    if occupation != "bose":
        return (f"detailed balance holds only under the bose occupation "
                f"convention (requested {occupation!r}); skipped", [])
    gamma, beta = 0.5, 1.0
    cfg = ThreeLevelConfig(gamma=gamma, beta1=beta, beta2=beta, beta3=beta,
                           drive_amplitude=0.0, t_max=200.0 / gamma, step=0.1)
    schedule, jumps = three_level_model(cfg)
    chan = propagator_series(schedule, jumps, [schedule.t_final], step=0.1)[-1]
    rho_i = density_spectrum(random_density(3, gen=SeededGenerator(41)))
    target = gibbs_state(three_level_hamiltonian(cfg), beta)
    dist = float(np.abs(chan.apply(rho_i) - target).max())

    spec = spectral_decompose(three_level_hamiltonian(cfg))
    deltas = [delta_distribution(j(rho_i, chan, spec, spec))
              for j in (epm_joint, tpm_joint, mll_joint)]
    worst_tv = max(_delta_tv(a, b) for a, b in itertools.combinations(deltas, 2))
    entropy_gap = abs(shannon_entropy(deltas[0]) - shannon_entropy(deltas[1]))
    return "at t = 200/gamma", [
        IdentityCheck(dist, 1e-6, "max", "state-to-Gibbs distance"),
        IdentityCheck(worst_tv, 1e-3, "max",
                      "max pairwise TV of the three energy-change laws"),
        IdentityCheck(entropy_gap, 1e-3, "max",
                      "product-vs-conditional entropy gap")]


def coherence_moment_share() -> Outcome:
    """Initial coherence carries a sizable share of the second moment."""
    preset = PRESETS[COHERENCE_SHARE_PRESET]
    series = three_level_experiment(preset.three_level, preset.initial_state)
    peak = series_checks(series, preset.name)["peak_coherence_fraction"]
    t_peak = float(series.times[int(series.columns["m2_coherence_fraction"].argmax())])
    return f"peak at t = {t_peak:.2f}", [peak]


def finite_shot_calibration() -> Outcome:
    """Finite-shot two-point estimates sit on 1 within their error bars."""
    cfg = TwoQubitExperimentConfig(n_shots=2048)
    master = SeededGenerator(1)
    runs, width = 20, 3.0
    wins = 0
    for j in range(runs):
        res = two_qubit_sweep(cfg, master.spawn(j))
        ok = np.all(np.abs(res.columns["G_TPM"] - 1.0)
                    <= width * res.columns["G_TPM_se"])
        wins += int(ok)
    return f"{runs} seeded {cfg.n_shots}-shot runs", [IdentityCheck(
        wins, 19, "min", f"runs keeping every grid point within {width:g} "
                         "reported closed-form standard errors (G_TPM_se) of 1")]


def nonconvex_coherence() -> Outcome:
    """The coherence part of the energy-change law is not mixture-linear."""
    spec = spectral_decompose(two_qubit_hamiltonian())
    rng = np.random.default_rng(2026)
    visible = 1e-6
    gaps = []
    for k in range(100):
        r1 = random_density(4, rank=1, gen=SeededGenerator(5000 + k))
        r2 = random_density(4, rank=1, gen=SeededGenerator(5100 + k))
        chan = UnitaryChannel(random_unitary(4, rng))
        gaps.append(convexity_witness(r1, r2, 0.5, chan, spec, spec))
    found = sum(gap > visible for gap in gaps)
    return f"100 random qubit-pair mixtures, largest TV gap {max(gaps):.4f}", [
        IdentityCheck(found, 1, "min", f"mixtures with a TV gap above {visible:g}")]


CRITERIA: tuple[tuple[str, Callable[..., Outcome]], ...] = (
    ("tpm-exponential-identity", tpm_exponential_identity),
    ("sweep-closed-forms", sweep_closed_forms),
    ("protocol-collapse", protocol_collapse),
    ("moment-identities", moment_identities),
    ("entropy-relations", entropy_relations),
    ("tpm-recovery", tpm_recovery),
    ("integrator-integrity", integrator_integrity),
    ("gibbs-relaxation", gibbs_relaxation),
    ("coherence-moment-share", coherence_moment_share),
    ("finite-shot-calibration", finite_shot_calibration),
    ("nonconvex-coherence", nonconvex_coherence),
)


def run_all(occupation: str = "bose",
            integrator_step: float | None = None) -> list[CriterionResult]:
    """Evaluate every acceptance criterion in table order.

    ``occupation`` other than "bose" skips the detailed-balance check;
    ``integrator_step`` overrides both the integration step and the base
    step of the halving measurement, which is how a deliberately coarse
    step is shown to fail (at 0.5, through the step-error row).
    """
    options = {"gibbs-relaxation": {"occupation": occupation}}
    if integrator_step is not None:
        step = float(integrator_step)
        options["integrator-integrity"] = {"step": step, "halving_base": step}
    return [evaluate(name, criterion, **options.get(name, {}))
            for name, criterion in CRITERIA]
