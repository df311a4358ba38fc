import cmath
import math

import numpy as np
import pytest

from gupjc.errors import NonHermitianError, TruncationError
from gupjc.fock import (
    FockVector,
    build_annihilation,
    coherent_state,
    evolve_on_grid,
    fock_state,
    laguerre,
    photon_added_coherent_state,
)


def laguerre_by_summation(m, x):
    """Independent oracle: L_m(x) = sum_k C(m,k) (-x)^k / k!.

    Evaluated in exact rational arithmetic; the alternating sum cancels
    catastrophically in floats for x > 0 at higher orders.
    """
    from fractions import Fraction

    xq = Fraction(x)
    total = Fraction(0)
    for k in range(m + 1):
        total += Fraction(math.comb(m, k), math.factorial(k)) * (-xq) ** k
    return float(total)


def test_annihilation_entries():
    a = build_annihilation(8)
    for n in range(1, 9):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n), abs=0)
    assert np.count_nonzero(a) == 8


def test_annihilation_rejects_small_cutoff():
    with pytest.raises(ValueError):
        build_annihilation(0)


def test_vacuum_annihilates_and_single_photon_lowers():
    a = build_annihilation(3)
    assert np.allclose(a @ fock_state(0, 3).amps, 0.0)
    lowered = a @ fock_state(1, 3).amps
    assert np.allclose(lowered, fock_state(0, 3).amps)


def test_number_operator_eigenvalue():
    a = build_annihilation(8)
    state = fock_state(5, 8).amps
    assert np.vdot(state, a.conj().T @ (a @ state)).real == pytest.approx(5.0, abs=1e-14)


def test_ladder_commutator_interior_block():
    ncut = 12
    a = build_annihilation(ncut)
    comm = a @ a.conj().T - a.conj().T @ a - np.eye(ncut + 1)
    assert np.max(np.abs(comm[: ncut - 1, : ncut - 1])) < 1e-12
    # the top corner deviates by construction of the truncation
    assert comm[ncut, ncut] == pytest.approx(-(ncut + 1), abs=1e-12)


def test_number_is_creation_times_annihilation():
    a = build_annihilation(7)
    assert np.allclose(a.conj().T @ a, np.diag(np.arange(8.0)), atol=1e-14)


def test_coherent_vacuum_limit():
    assert np.allclose(coherent_state(0.0, 5).amps, fock_state(0, 5).amps)


def test_coherent_mean_photon_number():
    coh = coherent_state(1.0, 30)
    assert np.sum(np.arange(31) * np.abs(coh.amps) ** 2) == pytest.approx(1.0, abs=1e-10)
    assert abs(coh.norm() - 1.0) < 1e-12


def test_coherent_amplitude_ratio():
    coh = coherent_state(1.0, 30)
    assert coh.amps[1] / coh.amps[0] == pytest.approx(1.0, abs=1e-12)


def test_coherent_truncation_error():
    with pytest.raises(TruncationError):
        coherent_state(3.0, 8)


def test_coherent_underflow_is_named_as_the_cause():
    # past |alpha| ~ 38.6 exp(-|alpha|^2/2) is 0 and no cutoff can help
    with pytest.raises(ValueError, match=r"\|alpha\| = 39: .* underflows to 0"):
        coherent_state(39.0, 4000)


@pytest.mark.parametrize("alpha", [37.0, 38.0, 38.5, 38.55, 38.55j, -20.0 + 33.0j])
def test_coherent_state_near_underflow_matches_its_log_space_form(alpha):
    # from |alpha| ~ 37.6 exp(-|alpha|^2/2) is subnormal, and at 38.55 a
    # recurrence started from it lost 0.8% of the kept weight
    r = abs(alpha)
    n = np.arange(4001)
    log_amps = -0.5 * r**2 + n * math.log(r) - 0.5 * np.array(
        [math.lgamma(k + 1.0) for k in n])
    reference = np.exp(log_amps) * np.exp(1j * cmath.phase(alpha) * n)
    reference /= np.linalg.norm(reference)
    coh = coherent_state(alpha, 4000)
    assert coh.tail_weight < 1e-12
    assert np.max(np.abs(coh.amps - reference)) < 1e-12


def test_coherent_state_with_a_normal_start_keeps_the_recurrence_bits():
    for alpha in (1.0, 0.3 - 1.1j, 37.5):
        ncut = 4000 if abs(alpha) > 30 else 40
        amps = np.empty(ncut + 1, dtype=complex)
        amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
        for k in range(ncut):
            amps[k + 1] = amps[k] * alpha / math.sqrt(k + 1)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        assert np.array_equal(coherent_state(alpha, ncut).amps.view(np.uint64),
                              amps.view(np.uint64))


def test_coherent_reports_tail_weight():
    coh = coherent_state(1.5, 20, tail_tol=1e-6)
    assert 0.0 < coh.tail_weight < 1e-6


def test_photon_added_to_vacuum_is_fock():
    pacs = photon_added_coherent_state(0.0, 2, 10)
    assert np.allclose(pacs.amps, fock_state(2, 10).amps)


def test_photon_added_normalizers():
    # k_{alpha,m}^2 = L_m(-|alpha|^2) m!: sqrt(2) for m=1, sqrt(7) for m=2 at |alpha|=1
    assert math.sqrt(laguerre(1, -1.0) * 1) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert math.sqrt(laguerre(2, -1.0) * 2) == pytest.approx(math.sqrt(7), abs=1e-12)


def test_photon_added_norm_against_brute_force():
    # brute-force norm of adag^2 |alpha> at a generous cutoff
    ncut = 60
    coh = coherent_state(1.0, ncut)
    adag = build_annihilation(ncut).conj().T
    raised = adag @ (adag @ coh.amps)
    assert np.vdot(raised, raised).real == pytest.approx(7.0, rel=1e-10)
    pacs = photon_added_coherent_state(1.0, 2, ncut)
    assert pacs.norm() == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(pacs.amps, raised / np.linalg.norm(raised), atol=1e-10)


def test_photon_added_unit_norm_various_alpha():
    for alpha in (0.3, 1.0, 1.5 + 0.5j):
        for m in (1, 2, 3):
            pacs = photon_added_coherent_state(alpha, m, 50)
            assert pacs.norm() == pytest.approx(1.0, abs=1e-8)


def add_photons_by_loop(coh, m):
    """a^dag^m |alpha> with each rising factorial multiplied up in a loop."""
    ncut = len(coh) - 1
    raised = np.zeros(ncut + 1, dtype=complex)
    for n in range(m, ncut + 1):
        factor = 1.0
        for j in range(n - m + 1, n + 1):
            factor *= j
        raised[n] = coh[n - m] * math.sqrt(factor)
    return raised


@pytest.mark.parametrize("alpha", [1.3, -0.8 + 1.1j])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_photon_added_amplitudes_equal_the_loop_bitwise(alpha, m):
    coh = coherent_state(alpha, 40).amps
    raised = add_photons_by_loop(coh, m)
    expected = raised / math.sqrt(float(np.sum(np.abs(raised) ** 2)))
    pacs = photon_added_coherent_state(alpha, m, 40)
    assert np.array_equal(pacs.amps.view(np.uint64), expected.view(np.uint64))


def test_photon_added_truncation_error():
    with pytest.raises(TruncationError):
        photon_added_coherent_state(2.0, 2, 10, tail_tol=1.0)


def test_laguerre_basics():
    assert laguerre(0, 3.7) == 1.0
    assert laguerre(1, -1.0) == pytest.approx(2.0, abs=1e-14)
    assert laguerre(5, -2.5) == pytest.approx(laguerre_by_summation(5, -2.5), rel=1e-12)


def test_laguerre_recurrence_matches_summation():
    for m in range(21):
        for x in np.linspace(-10, 10, 11):
            expected = laguerre_by_summation(m, float(x))
            scale = max(abs(expected), 1.0)
            assert abs(laguerre(m, float(x)) - expected) / scale < 1e-10


def test_exponential_zero_hamiltonian():
    h = np.zeros((4, 4))
    state = coherent_state(0.5, 3, tail_tol=1e-2).amps
    assert np.allclose(evolve_on_grid(h, [2.3], state)[0], state)


def test_exponential_number_operator_periodic():
    ncut = 12
    state = coherent_state(0.5, ncut)
    h = np.diag(np.arange(ncut + 1.0))  # the number operator, omega = 1
    evolved = evolve_on_grid(h, [2.0 * math.pi], state.amps)[0]
    fidelity = abs(np.vdot(evolved, state.amps)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_exponential_unitarity_random_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = raw + raw.conj().T
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        evolved = evolve_on_grid(h, [0.0, 0.73, 41.0], psi)
        assert np.max(np.abs(np.linalg.norm(evolved, axis=1) - 1.0)) < 1e-10


def test_exponential_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        evolve_on_grid(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0], np.array([1.0, 0.0]))


def test_standard_jcm_block_against_closed_form():
    # resonant JCM: evolution of |e,n> oscillates as cos / -i sin at rate sqrt(n+1)
    ncut, n, lam = 5, 2, 1.0
    dim = ncut + 1
    a = build_annihilation(ncut)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    h = lam * (np.kron(sp, a) + np.kron(sp, a).conj().T)
    psi0 = np.zeros(2 * dim, dtype=complex)
    psi0[dim + n] = 1.0
    ts = np.linspace(0.0, 4.0, 9)
    for t, psi in zip(ts, evolve_on_grid(h, ts, psi0)):
        w = lam * math.sqrt(n + 1)
        assert psi[dim + n] == pytest.approx(math.cos(w * t), abs=1e-12)
        assert psi[n + 1] == pytest.approx(-1j * math.sin(w * t), abs=1e-12)


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector(3, np.zeros(3))
    with pytest.raises(ValueError):
        fock_state(7, 5)
