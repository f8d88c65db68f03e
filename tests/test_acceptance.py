"""One test per acceptance criterion.

Each test runs one check from :mod:`fluctua.acceptance` at its pinned
seeds and tolerances and asserts a PASS, quoting the measured numbers on
failure.  The battery takes about eight seconds in total on a 2-core
x86-64 machine (Python 3.11, numpy 2.4); no single check takes more
than two.
"""

from fluctua import acceptance


def test_tpm_exponential_identity():
    r = acceptance.tpm_exponential_identity()
    assert r.passed is True, r.detail


def test_sweep_closed_forms():
    r = acceptance.sweep_closed_forms()
    assert r.passed is True, r.detail


def test_protocol_collapse():
    r = acceptance.protocol_collapse()
    assert r.passed is True, r.detail


def test_moment_identities():
    r = acceptance.moment_identities()
    assert r.passed is True, r.detail


def test_entropy_relations():
    r = acceptance.entropy_relations()
    assert r.passed is True, r.detail


def test_tpm_recovery():
    r = acceptance.tpm_recovery()
    assert r.passed is True, r.detail


def test_integrator_integrity():
    r = acceptance.integrator_integrity()
    assert r.passed is True, r.detail


def test_gibbs_relaxation():
    r = acceptance.gibbs_relaxation()
    assert r.passed is True, r.detail


def test_coherence_moment_share():
    r = acceptance.coherence_moment_share()
    assert r.passed is True, r.detail


def test_finite_shot_calibration():
    r = acceptance.finite_shot_calibration()
    assert r.passed is True, r.detail


def test_nonconvex_coherence():
    r = acceptance.nonconvex_coherence()
    assert r.passed is True, r.detail


def test_registry_order_matches_functions():
    assert acceptance.CRITERIA == (
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
    )
