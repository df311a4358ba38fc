import math

import numpy as np
import pytest

from gupjc.constants import GAMMA_SI_DIVISOR, HBAR
from gupjc.fock import SIGMA_3, build_annihilation, hermiticity_residual, tensor_with_atom
from gupjc.gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    build_full_interaction_hamiltonian,
    build_rwa_hamiltonian,
    derive_coefficients,
    quadratic_coefficients,
    rwa_block,
)


def test_gamma_si_conversion():
    # the SI divisor sqrt(M_Planck)*c is 4.4e4 to within a percent
    assert GAMMA_SI_DIVISOR == pytest.approx(4.4e4, rel=1e-2)
    p = GupParams(gamma0=4.4e4, delta=1.0, epsilon=1.0)
    assert p.gamma == pytest.approx(1.0, rel=1e-2)


def test_from_gamma_roundtrip():
    p = GupParams.from_gamma(1e3, 1.0, 0.5)
    assert p.gamma == pytest.approx(1e3, rel=1e-14)
    assert p.delta == 1.0 and p.epsilon == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        GupParams(gamma0=-1.0, delta=0.0, epsilon=0.0)
    with pytest.raises(ValueError):
        GupParams(gamma0=1.0, delta=math.inf, epsilon=0.0)


def test_coefficients_vanish_without_gup():
    c = derive_coefficients(GupParams(0.0, 1.0, 1.0), 1e15)
    assert c.phi == 0.0 and c.chi == 0.0 and c.beta == 0.0 and c.xi_mag == 0.0


def test_coefficients_quadratic_only_model():
    # delta = 0, epsilon = 1/4 gives phi = -b/2, chi = -b/8, beta = -b/4
    p = GupParams.from_gamma(7.0, 0.0, 0.25)
    omega = 3e12
    c = derive_coefficients(p, omega)
    b = HBAR * omega * p.gamma**2
    assert c.phi == pytest.approx(-b / 2, rel=1e-14)
    assert c.chi == pytest.approx(-b / 8, rel=1e-14)
    assert c.beta == pytest.approx(-b / 4, rel=1e-14)
    assert 8 * c.chi == pytest.approx(c.phi + 2 * c.beta, rel=1e-14)


def test_coefficients_electroweak_benchmark():
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e15)
    assert c.phi == pytest.approx(1.054571817e-13, rel=1e-9)
    assert c.xi_mag == pytest.approx(1e3 * math.sqrt(2 * HBAR * 1e15), rel=1e-12)


def test_coefficient_identity_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        p = GupParams(
            gamma0=float(rng.uniform(0.0, 1e8)),
            delta=float(rng.uniform(-3.0, 3.0)),
            epsilon=float(rng.uniform(-3.0, 3.0)),
        )
        c = derive_coefficients(p, float(rng.uniform(1e9, 1e17)))
        scale = abs(c.phi) + 2 * abs(c.beta) + 8 * abs(c.chi)
        assert abs(8 * c.chi - (c.phi + 2 * c.beta)) <= 1e-14 * scale


# the second model's gamma is 2018.034556542811, whose libm pow() square is
# one ulp off gamma*gamma
@pytest.mark.parametrize("params, omega", [
    (GupParams.from_gamma(1e3, 1.0, 1.0), 1e15),
    (GupParams(89252841.7370236, -1.4928348105803217, 2.517924369371806), 1.5076437323732226e16),
    (GupParams(0.0, 1.0, 1.0), 10.0),
])
def test_derive_coefficients_returns_helper_floats(params, omega):
    c = derive_coefficients(params, omega)
    expected = quadratic_coefficients(params.gamma, params.delta, params.epsilon, omega)
    assert all(type(v) is float for v in (c.phi, c.chi, c.beta))
    assert (c.phi, c.chi, c.beta) == expected


def test_quadratic_coefficients_arrays_equal_scalars():
    rng = np.random.default_rng(7)
    rows = rng.uniform([0.0, -3.0, -3.0, 1e9], [5e3, 3.0, 3.0, 1e17], size=(256, 4))
    # the gamma above whose pow() square is one ulp off the product
    rows = np.vstack([rows, [2018.034556542811, 1.3, 0.2, 1e15]])
    gamma, delta, epsilon, omega = rows.T
    arrays = quadratic_coefficients(gamma, delta, epsilon, omega)
    for i in range(gamma.size):
        scalars = quadratic_coefficients(float(gamma[i]), float(delta[i]), float(epsilon[i]),
                                         float(omega[i]))
        assert tuple(float(a[i]) for a in arrays) == scalars


def test_coefficients_dimensionless_under_rescaling():
    # scaling hbar*omega up and gamma^2 down by the same factor leaves all four fixed
    base = derive_coefficients(GupParams.from_gamma(50.0, 1.3, 0.4), 2e14)
    scaled = derive_coefficients(GupParams.from_gamma(50.0 / math.sqrt(10.0), 1.3, 0.4), 2e15)
    assert scaled.phi == pytest.approx(base.phi, rel=1e-12)
    assert scaled.chi == pytest.approx(base.chi, rel=1e-12)
    assert scaled.beta == pytest.approx(base.beta, rel=1e-12)
    assert scaled.xi_mag == pytest.approx(base.xi_mag, rel=1e-12)


def test_derive_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        derive_coefficients(GupParams(1.0, 1.0, 1.0), 0.0)


def _config(omega=1e6, detuning=0.0, coupling=2.0):
    return InteractionConfig(omega=omega, omega0=omega + detuning, coupling=coupling)


def test_interaction_config():
    cfg = _config(detuning=250.0)
    assert cfg.detuning == 250.0
    assert cfg.mu == pytest.approx(cfg.coupling**2 / 250.0, rel=1e-15)
    with pytest.raises(ValueError):
        InteractionConfig(omega=-1.0, omega0=1.0, coupling=0.0)
    with pytest.raises(ZeroDivisionError):
        _config(detuning=0.0).mu


def modified_free_field(c, omega, ncut):
    """Oracle: the GUP-corrected free field H/hbar on the field space, diagonal
    with entries omega*[(n + 1/2) - 4*(n^2 + n)*chi - beta]; the quadratic
    channel compresses the level spacing, E_1 - E_0 = hbar*omega*(1 - 8*chi)."""
    n = np.arange(ncut + 1, dtype=float)
    return np.diag(omega * (n + 0.5 - 4.0 * (n**2 + n) * c.chi - c.beta)).astype(complex)


def test_free_field_spectrum_without_gup():
    c = derive_coefficients(GupParams(0.0, 1.0, 1.0), 1e6)
    h = modified_free_field(c, 1e6, 5)
    assert np.allclose(np.diag(h).real, 1e6 * (np.arange(6) + 0.5))


def test_free_field_ground_level_and_spacing():
    omega = 1e6
    c = derive_coefficients(GupParams.from_gamma(900.0, 1.2, 0.3), omega)
    diag = np.diag(modified_free_field(c, omega, 6)).real
    assert diag[0] == pytest.approx(omega * (0.5 - c.beta), rel=1e-12)
    # level spacing compresses by 8*chi, equivalently phi + 2*beta
    assert diag[1] - diag[0] == pytest.approx(omega * (1.0 - 8 * c.chi), rel=1e-12)
    assert diag[1] - diag[0] == pytest.approx(omega * (1.0 - c.phi - 2 * c.beta), rel=1e-9)


def test_rwa_hamiltonian_reduces_to_standard_jcm():
    # modest omega keeps the block eigenvalue arithmetic at full precision
    cfg = _config(omega=10.0)
    c = derive_coefficients(GupParams(0.0, 1.0, 1.0), cfg.omega)
    h = build_rwa_hamiltonian(cfg, c, 4)
    dim = 5
    # resonant dressed-state splitting of the n-th block is +-coupling*sqrt(n+1)
    for n in range(3):
        block = np.array(
            [
                [h[dim + n, dim + n], h[dim + n, n + 1]],
                [h[n + 1, dim + n], h[n + 1, n + 1]],
            ]
        )
        vals = np.linalg.eigvalsh(block)
        center = 0.5 * (vals[0] + vals[1])
        assert vals[1] - center == pytest.approx(cfg.coupling * math.sqrt(n + 1), rel=1e-12)


def test_rwa_coupling_element():
    cfg = _config()
    c = derive_coefficients(GupParams.from_gamma(700.0, 1.0, 0.6), cfg.omega)
    ncut = 6
    h = build_rwa_hamiltonian(cfg, c, ncut)
    dim = ncut + 1
    for n in range(ncut):
        expected = cfg.coupling * math.sqrt(n + 1) * (1.0 - (n + 1) * c.phi)
        assert h[n + 1, dim + n] == pytest.approx(expected, rel=1e-12)


def test_rwa_block_matches_dense_subblock():
    # each block is the {|e,n>, |g,n+1>} sub-block of the dense Hamiltonian
    # minus its mean, which carries the optical-scale energy
    cfg = InteractionConfig(omega=1e4, omega0=1e4 + 0.3, coupling=1.0)
    # chi*omega = 0.01, large enough for the 8(n+1)chi*omega splitting to show
    c = GupCoefficients(phi=2e-4, chi=1e-6, beta=(8e-6 - 2e-4) / 2.0, omega=cfg.omega)
    ncut = 6
    h = build_rwa_hamiltonian(cfg, c, ncut)
    dim = ncut + 1
    for n in range(ncut):
        idx = [dim + n, n + 1]
        sub = h[np.ix_(idx, idx)]
        centered = sub - np.eye(2) * np.trace(sub) / 2.0
        assert np.allclose(rwa_block(n, cfg, c), centered, rtol=0.0, atol=1e-9 * cfg.omega)


def test_rwa_diagonal_field_energy():
    cfg = _config()
    c = derive_coefficients(GupParams.from_gamma(700.0, 0.9, 1.1), cfg.omega)
    h = build_rwa_hamiltonian(cfg, c, 5)
    for n in range(6):
        expected = -0.5 * cfg.omega0 + cfg.omega * (n - 4 * (n**2 + n) * c.chi - c.beta)
        assert h[n, n].real == pytest.approx(expected, rel=1e-12)


def test_rwa_coupling_block_structure():
    cfg = _config()
    c = derive_coefficients(GupParams.from_gamma(10.0, 1.0, 1.0), cfg.omega)
    ncut = 5
    h = build_rwa_hamiltonian(cfg, c, ncut)
    dim = ncut + 1
    coupling_block = h[:dim, dim:]
    # only |e,n> <-> |g,n+1> entries are allowed
    for i in range(dim):
        for j in range(dim):
            if i != j + 1:
                assert coupling_block[i, j] == 0.0


def test_hamiltonians_linear_in_coupling():
    c = derive_coefficients(GupParams.from_gamma(5.0, 1.0, 1.0), 1e6)
    h1 = build_rwa_hamiltonian(_config(coupling=1.0), c, 4)
    h2 = build_rwa_hamiltonian(_config(coupling=2.0), c, 4)
    dim = 5
    assert np.allclose(h2[:dim, dim:], 2.0 * h1[:dim, dim:])
    assert np.allclose(np.diag(h2), np.diag(h1))


def test_full_interaction_standard_limit():
    cfg = _config()
    c = derive_coefficients(GupParams(0.0, 1.0, 1.0), cfg.omega)
    ncut = 5
    h = build_full_interaction_hamiltonian(cfg, c, ncut)
    a = build_annihilation(ncut)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = cfg.coupling * np.kron(sx, a + a.conj().T)
    assert np.allclose(h, expected, atol=1e-14)


def test_full_interaction_two_photon_element():
    cfg = _config()
    c = derive_coefficients(GupParams.from_gamma(300.0, 1.4, 0.8), cfg.omega)
    ncut = 7
    h = build_full_interaction_hamiltonian(cfg, c, ncut)
    dim = ncut + 1
    for n in range(ncut - 1):
        # <g,n+2| H_I/hbar |e,n> = -coupling * xi * sqrt((n+1)(n+2))
        expected = -cfg.coupling * c.xi * math.sqrt((n + 1) * (n + 2))
        assert h[n + 2, dim + n] == pytest.approx(expected, rel=1e-12)


def test_full_interaction_hermitian_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = GupParams.from_gamma(float(rng.uniform(0, 2e3)), float(rng.uniform(-2, 2)),
                                 float(rng.uniform(-2, 2)))
        omega = float(rng.uniform(1e5, 1e16))
        cfg = InteractionConfig(omega=omega, omega0=omega * 1.3, coupling=float(rng.uniform(0, 5)))
        c = derive_coefficients(p, omega)
        h = build_full_interaction_hamiltonian(cfg, c, 6)
        assert hermiticity_residual(h) < 1e-12


def test_rwa_equals_full_with_blocks_zeroed():
    # zeroing the counter-rotating and two-photon matrix elements of the full
    # interaction and adding the free terms reproduces the rotating-wave
    # Hamiltonian up to the omega/2 zero-point constant
    ncut = 8
    cfg = _config(omega=1e6, detuning=2e5, coupling=3.0)
    c = derive_coefficients(GupParams.from_gamma(800.0, 1.0, 0.7), cfg.omega)
    h_int = build_full_interaction_hamiltonian(cfg, c, ncut)
    dim = ncut + 1
    for n_e in range(dim):
        for m_g in range(dim):
            if n_e != m_g - 1:  # keep only the co-rotating |e,n><g,n+1| channel
                h_int[dim + n_e, m_g] = 0.0
                h_int[m_g, dim + n_e] = 0.0
    h_free = modified_free_field(c, cfg.omega, ncut)
    h_total = (
        tensor_with_atom(0.5 * cfg.omega0 * SIGMA_3, np.eye(ncut + 1))
        + tensor_with_atom(np.eye(2), h_free)
        + h_int
    )
    h_rwa = build_rwa_hamiltonian(cfg, c, ncut)
    diff = h_total - h_rwa
    assert np.allclose(diff, 0.5 * cfg.omega * np.eye(2 * dim), atol=1e-9)


def test_builders_enforce_minimum_cutoffs():
    cfg = _config()
    c = derive_coefficients(GupParams(1.0, 1.0, 1.0), cfg.omega)
    with pytest.raises(ValueError):
        build_rwa_hamiltonian(cfg, c, 1)
    with pytest.raises(ValueError):
        build_full_interaction_hamiltonian(cfg, c, 2)


def test_synthetic_coefficients_keep_xi_convention():
    c = GupCoefficients(phi=1e-4, chi=0.0, beta=-5e-5, omega=10.0, xi_mag=2e-3)
    assert c.xi == 2e-3j
