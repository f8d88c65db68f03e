import numpy as np
import pytest

from fluctua.qcore import assert_density_operator
from fluctua.sampling import (
    DegenerateTarget,
    SeededGenerator,
    haar_random_pure,
    random_coherence,
    random_density,
)


def test_same_seed_same_stream():
    a = haar_random_pure(4, SeededGenerator(123))
    b = haar_random_pure(4, SeededGenerator(123))
    assert np.array_equal(a, b)


def test_spawn_is_deterministic_and_distinct():
    gen = SeededGenerator(99)
    kids = [gen.spawn(i) for i in range(4)]
    again = [SeededGenerator(99).spawn(i) for i in range(4)]
    assert [k.seed for k in kids] == [k.seed for k in again]
    assert len({k.seed for k in kids}) == 4
    assert all(k.seed != gen.seed for k in kids)
    # spawning does not disturb the parent stream
    y = SeededGenerator(99).normal()
    assert gen.normal() == y


def test_spawned_streams_draw_pinned_values():
    # the generator is built on first use; the draws of a spawned stream are
    # the ones it gave when every stream built its generator at creation
    gen = SeededGenerator(2026)
    kid = gen.spawn(3).spawn(1)
    assert "rng" not in vars(gen) and "rng" not in vars(kid)
    assert kid.seed == 4950324153757274004
    assert kid.random(3).tolist() == [0.11891065623916741, 0.21636639928255685,
                                      0.923836774876697]
    assert kid.normal(2).tolist() == [-0.11702338149142243, -0.0787000718359688]
    assert kid.integers(0, 1000, size=3).tolist() == [416, 585, 444]
    assert gen.spawn(20).spawn(2).random(2).tolist() == [0.27001737570856,
                                                         0.04672543423683628]


def test_integer_seed_accepted():
    assert np.array_equal(haar_random_pure(3, 7), haar_random_pure(3, 7))


def test_haar_states_are_pure_states():
    gen = SeededGenerator(5)
    for dim in (2, 3, 5):
        rho = haar_random_pure(dim, gen)
        assert_density_operator(rho)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_haar_population_uniform_on_average():
    # mean overlap with |0> must approach 1/d
    gen = SeededGenerator(17)
    d = 4
    vals = [haar_random_pure(d, gen)[0, 0].real for _ in range(4000)]
    assert abs(np.mean(vals) - 1.0 / d) < 0.01


def test_random_density_is_state_with_rank():
    gen = SeededGenerator(31)
    for d, rank in ((2, 2), (4, 4), (4, 2), (5, 1)):
        rho = random_density(d, rank, gen)
        assert_density_operator(rho)
        evals = np.linalg.eigvalsh(rho)
        assert np.sum(evals > 1e-10) == rank


def test_random_density_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_density(3, 4, SeededGenerator(1))
    with pytest.raises(ValueError):
        random_density(3, 0, SeededGenerator(1))


def test_random_coherence_zero_diag_and_psd():
    gen = SeededGenerator(41)
    for _ in range(20):
        p = gen.rng.random(4)
        p /= p.sum()
        chi = random_coherence(p, gen, scale=1.0)
        assert np.max(np.abs(np.diag(chi))) == 0.0
        assert np.max(np.abs(chi - chi.conj().T)) < 1e-14
        evals = np.linalg.eigvalsh(np.diag(p) + chi)
        assert evals[0] > -1e-10
        # something nontrivial was produced
        assert np.max(np.abs(chi)) > 1e-6


def test_random_coherence_respects_scale():
    gen = SeededGenerator(43)
    p = np.full(3, 1.0 / 3.0)
    chi = random_coherence(p, gen, scale=0.05)
    evals = np.linalg.eigvalsh(chi)
    assert np.max(np.abs(evals)) <= 0.05 + 1e-12


def _bisected_multiplier(p, direction, scale):
    """m nearest scale, between 0 and scale, keeping diag(p) + m direction
    above -1e-12, by bisection."""
    def psd(m):
        return np.linalg.eigvalsh(np.diag(p) + m * direction)[0] >= -1e-12

    if psd(scale):
        return scale
    lo, hi = 0.0, scale
    while abs(hi - lo) > 1e-14:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if psd(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("p, scale", [
    ([0.5, 0.3, 0.2], 1.0),
    ([0.7, 0.2, 0.1, 1e-13], 1.0),
    ([0.4, 0.0, 0.35, 0.25], 1.0),
    ([0.05, 0.95], 1.0),
    (np.full(5, 0.2), 0.05),
    ([0.5, 0.3, 0.2], -1.0),
])
def test_random_coherence_multiplier_matches_bisection(p, scale):
    # the closed-form multiplier is the one a bisection on the smallest
    # eigenvalue finds; chi has unit spectral norm before it is scaled
    p = np.asarray(p)
    for seed in range(10):
        chi = random_coherence(p, SeededGenerator(seed), scale=scale)
        m = np.copysign(np.max(np.abs(np.linalg.eigvalsh(chi))), scale)
        assert abs(m - _bisected_multiplier(p, chi / m, scale)) < 1e-12


def test_random_coherence_pure_target_warns():
    with pytest.warns(DegenerateTarget):
        chi = random_coherence([1.0, 0.0, 0.0], SeededGenerator(47))
    assert np.max(np.abs(chi)) == 0.0


def test_random_coherence_partial_support():
    # zero population rows/cols must stay exactly zero
    gen = SeededGenerator(53)
    chi = random_coherence([0.5, 0.0, 0.5], gen)
    assert np.max(np.abs(chi[1, :])) == 0.0
    assert np.max(np.abs(chi[:, 1])) == 0.0
    assert abs(chi[0, 2]) > 1e-6


def test_random_coherence_rejects_negative_population():
    with pytest.raises(ValueError):
        random_coherence([0.5, -0.5, 1.0], SeededGenerator(3))
