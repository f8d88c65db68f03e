"""The acceptance battery, one test per row of ``acceptance.CRITERIA``.

Each generated ``test_<criterion>`` runs one criterion at its pinned
seeds and asserts a PASS, quoting the measured rows on failure.  The
battery takes about one second in total on a 2-core x86-64 machine
(Python 3.11, numpy 2.4).  The remaining tests pin how a criterion's
rows become its verdict and its printed detail.
"""

import math

import pytest

from fluctua import acceptance
from fluctua.acceptance import IdentityCheck
from fluctua.channels import IntegrationFailure
from fluctua.models import InitialStateSpec, ThreeLevelConfig, three_level_experiment


def _passes(name, criterion):
    def test():
        note, checks = criterion()
        result = acceptance.evaluate(name, lambda: (note, checks))
        assert result.status == "PASS", result.detail
        for c in checks:
            assert f"{c.value:.3g}" in result.detail and f"{c.bound:g}" in result.detail
    return test


# one test per criterion, named after its function, so each keeps its own id
for _name, _criterion in acceptance.CRITERIA:
    globals()[f"test_{_criterion.__name__}"] = _passes(_name, _criterion)


def test_registry_order_matches_functions():
    assert [name for name, _ in acceptance.CRITERIA] == [
        "tpm-exponential-identity",
        "sweep-closed-forms",
        "protocol-collapse",
        "moment-identities",
        "entropy-relations",
        "tpm-recovery",
        "integrator-integrity",
        "gibbs-relaxation",
        "coherence-moment-share",
        "finite-shot-calibration",
        "nonconvex-coherence",
    ]
    assert all(name == fn.__name__.replace("_", "-") for name, fn in acceptance.CRITERIA)


def test_verdict_and_detail_come_from_the_rows():
    rows = [IdentityCheck(2e-12, 1e-10, "max", "defect"),
            IdentityCheck(0.25, 0.3, "min", "share")]
    result = acceptance.evaluate("demo", lambda: ("3 cases", rows))
    assert result.status == "FAIL"
    assert result.detail == "3 cases: defect = 2e-12 (<= 1e-10); share = 0.25 (>= 0.3)"
    assert acceptance.evaluate("demo", lambda: ("fine", rows[:1])).status == "PASS"
    nan_row = [IdentityCheck(math.nan, 1.0, "min", "count")]
    assert acceptance.evaluate("demo", lambda: ("aborted", nan_row)).status == "FAIL"


def test_run_all_passes_only_the_options_a_caller_set(monkeypatch):
    seen = {}

    def spy(name):
        def criterion(**options):
            seen[name] = options
            return "note", [IdentityCheck(0.0, 1.0, "max", "x")]
        return criterion

    names = ("integrator-integrity", "gibbs-relaxation", "tpm-recovery")
    monkeypatch.setattr(acceptance, "CRITERIA", tuple((n, spy(n)) for n in names))
    assert [r.name for r in acceptance.run_all()] == list(names)
    assert seen == {"integrator-integrity": {}, "gibbs-relaxation": {"occupation": "bose"},
                    "tpm-recovery": {}}
    acceptance.run_all(occupation="as_printed", integrator_step=0.5)
    assert seen["integrator-integrity"] == {"step": 0.5, "halving_base": 0.5}
    assert seen["gibbs-relaxation"] == {"occupation": "as_printed"}


def test_gibbs_relaxation_is_skipped_off_the_bose_convention():
    result = acceptance.evaluate("gibbs-relaxation", acceptance.gibbs_relaxation,
                                 occupation="as_printed")
    assert result.status == "SKIP"
    assert "'as_printed'" in result.detail


def test_aborted_integration_fails_the_integrator_criterion(monkeypatch):
    def abort(*args, **kwargs):
        raise IntegrationFailure("trace drifted")

    monkeypatch.setattr(acceptance, "propagator_series", abort)
    result = acceptance.evaluate("integrator-integrity", acceptance.integrator_integrity)
    assert result.status == "FAIL"
    assert "integration aborted: trace drifted" in result.detail


def test_coarse_step_fails_only_the_step_error_row():
    # a sixth-order step still halves its error by 52.6 at a base of 0.5,
    # above the floor of 12; its step error there, 3.4e-5, is what fails
    _, checks = acceptance.integrator_integrity(step=0.5, halving_base=0.5)
    assert [c.what for c in checks if not c.passed] == ["step error at the halving base"]


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_closed_system_series_checks_its_two_point_average(gamma):
    cfg = ThreeLevelConfig(gamma=gamma, t_max=2.0, step=0.005)
    series = three_level_experiment(cfg, InitialStateSpec(beta_ref=0.6, coherence_seed=11))
    checks = acceptance.series_checks(series, "any")
    if gamma:
        assert "max_abs_jarzynski_tpm_minus_1" not in checks
    else:
        check = checks["max_abs_jarzynski_tpm_minus_1"]
        assert check.passed and check.value < 1e-12 and check.bound == 1e-10
