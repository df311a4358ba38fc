"""Checks of the verify registry against the code they replaced, kept here
as oracles: the per-draw loop of ``coefficient-identity``, the one-time
eigh propagator behind ``block-propagator``, ``dyson-fidelity`` and
``perturbation-scaling``, and the block-by-block loop of
``interaction_picture_propagate``."""

import numpy as np
import pytest

from gupjc.checks import _DYSON_CFG, _DYSON_COEFFS, _DYSON_T, coefficient_identity
from gupjc.dispersive import interaction_picture_propagate
from gupjc.errors import NonHermitianError
from gupjc.fock import coherent_state, evolve_on_grid
from gupjc.gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    build_full_interaction_hamiltonian,
    build_rwa_hamiltonian,
    derive_coefficients,
    rwa_block,
)


def per_draw_coefficient_identity(params, rng):
    """The check one draw at a time, through GupParams and derive_coefficients."""
    samples = rng.uniform([0.0, -3.0, -3.0, 1e9], [1e8, 3.0, 3.0, 1e17],
                          size=(params["draws"], 4))
    worst = 0.0
    for gamma0, delta, epsilon, omega in map(np.ndarray.tolist, samples):
        c = derive_coefficients(GupParams(gamma0, delta, epsilon), omega)
        scale = abs(c.phi) + 2.0 * abs(c.beta) + 8.0 * abs(c.chi)
        if scale > 0.0:
            worst = max(worst, abs(8.0 * c.chi - (c.phi + 2.0 * c.beta)) / scale)
    return worst


# seed 89 with 7 draws holds a gamma whose libm pow() square is one ulp off
# the product gamma*gamma
@pytest.mark.parametrize("draws", [1, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 89, 1234, 2**32 - 1])
def test_vectorized_check_equals_per_draw_loop(seed, draws):
    params = {"draws": draws}
    vectorized = coefficient_identity(params, np.random.default_rng(seed))
    assert type(vectorized) is float
    assert vectorized == per_draw_coefficient_identity(params, np.random.default_rng(seed))


class _LowDraws:
    """A generator whose uniform draws all sit at the low end, gamma0 = 0, so
    that no draw has scale > 0."""

    def uniform(self, low, high, size):
        return np.broadcast_to(np.asarray(low, dtype=float), size).copy()


def test_no_resolved_draw_measures_zero():
    assert coefficient_identity({"draws": 5}, _LowDraws()) == 0.0
    assert per_draw_coefficient_identity({"draws": 5}, _LowDraws()) == 0.0


def eigh_apply(h, t, psi):
    """The one-time propagator exp(-i H t) psi that ``evolve_on_grid`` replaced."""
    vals, vecs = np.linalg.eigh(h)
    return vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))


def _propagator_cases():
    """(H/hbar, t, psi) as the checks evolve them."""
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    for n in range(18):
        yield rwa_block(n, _DYSON_CFG, _DYSON_COEFFS), _DYSON_T, psi0[[19 + n, n + 1]]
    yield build_rwa_hamiltonian(_DYSON_CFG, _DYSON_COEFFS, 18), _DYSON_T, psi0
    # perturbation-scaling: |e,2> under the free terms plus the full interaction
    c = GupCoefficients(phi=1e-3, chi=0.0, beta=-5e-4, omega=50.0, xi_mag=2e-3)
    levels = np.arange(11.0)
    h0 = np.diag(np.concatenate([-15.0 + 50.0 * levels, 15.0 + 50.0 * levels]))
    psi = np.zeros(22, dtype=complex)
    psi[13] = 1.0
    for lam in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        cfg = InteractionConfig(omega=50.0, omega0=30.0, coupling=lam)
        yield h0 + build_full_interaction_hamiltonian(cfg, c, 10), 0.35, psi


def test_one_time_evolution_equals_the_replaced_propagator_bitwise():
    for h, t, psi in _propagator_cases():
        assert np.array_equal(evolve_on_grid(h, [t], psi)[0], eigh_apply(h, t, psi))


def test_stacked_evolution_equals_the_per_block_calls_bitwise():
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    blocks = np.array([rwa_block(n, _DYSON_CFG, _DYSON_COEFFS) for n in range(18)])
    pairs = np.stack([psi0[19:37], psi0[1:19]], axis=1)
    ts = [0.0, _DYSON_T, 3.7 * _DYSON_T]
    stacked = evolve_on_grid(blocks, ts, pairs)
    assert stacked.shape == (18, 3, 2)
    for block, pair, evolved in zip(blocks, pairs, stacked):
        assert np.array_equal(evolved, evolve_on_grid(block, ts, pair))


def test_block_propagation_equals_the_per_block_loop_bitwise():
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    psi = psi0.copy()
    for n in range(18):
        block = rwa_block(n, _DYSON_CFG, _DYSON_COEFFS)
        idx = [19 + n, n + 1]
        psi[idx] = np.exp(1j * _DYSON_T * np.diag(block)) * evolve_on_grid(
            block, [_DYSON_T], psi[idx])[0]
    blocks = interaction_picture_propagate(_DYSON_CFG, _DYSON_COEFFS, 18, _DYSON_T, psi0)
    assert np.array_equal(blocks, psi)


def test_stacked_evolution_refuses_a_non_hermitian_block():
    blocks = np.array([rwa_block(n, _DYSON_CFG, _DYSON_COEFFS) for n in range(3)])
    blocks[1, 0, 1] += 1e-9
    with pytest.raises(NonHermitianError):
        evolve_on_grid(blocks, [_DYSON_T], np.ones((3, 2)))
