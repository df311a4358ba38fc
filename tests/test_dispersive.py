import cmath
import dataclasses
import math

import numpy as np
import pytest

from gupjc.checks import _DYSON_CFG, _DYSON_COEFFS, _DYSON_T
from gupjc.dispersive import (
    DispersiveConfig,
    _effective_diagonals,
    commutator_check,
    dyson_consistency_check,
    evolve_dispersive_series,
    interaction_picture_propagate,
    photon_added_decomposition,
)
from gupjc import dispersive
from gupjc.errors import DispersiveRegimeError, LinearityError
from gupjc.fock import (
    SIGMA_PLUS,
    coherent_state,
    evolve_on_grid,
    hermiticity_residual,
    photon_added_coherent_state,
    tensor_with_atom,
)
from gupjc.gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    _rwa_coupling_element,
    build_rwa_hamiltonian,
    derive_coefficients,
)

# electroweak-scale benchmark: gamma = 1e3 (SI), |alpha| = 1, mu = 1e5 rad/s,
# t = 1e3 s, field at 1e15 rad/s
BENCH = dict(gamma=1e3, omega=1e15, mu=1e5, alpha=1.0, t=1e3, ncut=40)


def bench_config():
    c = derive_coefficients(GupParams.from_gamma(BENCH["gamma"], 1.0, 1.0), BENCH["omega"])
    d = DispersiveConfig(
        mu=BENCH["mu"], phi=c.phi, alpha=BENCH["alpha"], t=BENCH["t"], ncut=BENCH["ncut"]
    )
    return c, d


def _dispersive_cfg(coupling=1.0, detuning=500.0, omega=1e4):
    return InteractionConfig(omega=omega, omega0=omega + detuning, coupling=coupling)


def _phi_only(phi, omega=1e4):
    return GupCoefficients(phi=phi, chi=0.0, beta=-phi / 2.0, omega=omega)


def test_config_validity_flag():
    c, d = bench_config()
    assert d.mean_square_photon == pytest.approx(2.0)
    assert d.linear_expansion_parameter == pytest.approx(2.0 * c.phi * 1e5 * 1e3 * 2.0, rel=1e-12)
    assert d.valid_linear
    long = DispersiveConfig(mu=d.mu, phi=d.phi, alpha=d.alpha, t=1e9, ncut=d.ncut)
    assert not long.valid_linear


def test_taylor_time_bounds_at_stated_scales():
    # at mu = 1e5 rad/s and omega = 1e14 rad/s the expansion holds for times
    # up to ~1e24 s (Planck-scale strength) or ~1e8 s (electroweak strength)
    mu, omega = 1e5, 1e14
    planck = derive_coefficients(GupParams(1.0, 1.0, 1.0), omega)
    d_pl = DispersiveConfig(mu=mu, phi=planck.phi, alpha=1.0, t=1.0, ncut=30)
    assert math.floor(math.log10(d_pl.linear_time_bound())) == 24
    ew = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), omega)
    d_ew = DispersiveConfig(mu=mu, phi=ew.phi, alpha=1.0, t=1.0, ncut=30)
    assert math.floor(math.log10(d_ew.linear_time_bound())) == 8


def test_effective_hamiltonian_standard_limit():
    mu = _dispersive_cfg().mu
    ground, excited = _effective_diagonals(mu, 0.0, 6)
    n = np.arange(7)
    assert np.allclose(ground, -mu * n)
    assert np.allclose(excited, mu * (n + 1))


def test_effective_hamiltonian_eigenvalues_with_gup():
    mu = _dispersive_cfg().mu
    phi = 1e-4
    ground, excited = _effective_diagonals(mu, phi, 8)
    for n in (0, 3, 7):
        assert ground[n] == pytest.approx(-mu * (n - 2 * n**2 * phi), rel=1e-12)
        assert excited[n] == pytest.approx(
            mu * (n - 2 * n**2 * phi + 1 - 2 * phi - 4 * n * phi), rel=1e-12
        )


def test_effective_hamiltonian_regime_guard():
    cfg = InteractionConfig(omega=1e4, omega0=1e4 + 10.0, coupling=1.0)
    with pytest.raises(DispersiveRegimeError):
        commutator_check(cfg, _phi_only(0.0), 6)
    with pytest.raises(ValueError, match="ncut must be at least 3"):
        commutator_check(_dispersive_cfg(), _phi_only(0.0), 2)


def dressed_operator(c, ncut):
    """The dressed coupling operator A = sigma+ a (1 - N phi) as a dense
    2(ncut+1)^2 matrix on atom+field: the field band f_n on the superdiagonal,
    lifted to |g> -> |e>."""
    band = np.diag(_rwa_coupling_element(np.arange(ncut), c), k=1).astype(complex)
    return tensor_with_atom(SIGMA_PLUS, band)


def effective_hamiltonian(cfg, c, ncut):
    """H_eff/hbar as a dense 2(ncut+1)^2 diagonal matrix, ground block first."""
    return np.diag(np.concatenate(_effective_diagonals(cfg.mu, c.phi, ncut))).astype(complex)


def test_commutator_exact_without_gup():
    cfg = _dispersive_cfg()
    residual = commutator_check(cfg, _phi_only(0.0), ncut=10)
    assert residual < 1e-12 * abs(cfg.mu)


def test_commutator_hermitian():
    cfg = _dispersive_cfg()
    c = _phi_only(1e-5)
    op_a = dressed_operator(c, 12)
    comm = (cfg.coupling**2 / cfg.detuning) * (
        op_a @ op_a.conj().T - op_a.conj().T @ op_a
    )
    assert hermiticity_residual(comm) < 1e-12 * abs(cfg.mu)


def commutator_check_full(cfg, c, ncut):
    """The residual from [A, A^dag] formed on the whole 2(ncut+1)^2 atom+field
    space, with two einsum products of the dressed operator A."""
    op_a = dressed_operator(c, ncut)
    op_adag = op_a.conj().T
    product = "ij,jk->ik"
    commutator = (cfg.coupling**2 / cfg.detuning) * (
        np.einsum(product, op_a, op_adag) - np.einsum(product, op_adag, op_a)
    )
    reference = effective_hamiltonian(cfg, c, ncut)
    dim = ncut + 1
    interior = np.concatenate([np.arange(0, ncut - 1), dim + np.arange(0, ncut - 1)])
    return float(np.max(np.abs((commutator - reference)[np.ix_(interior, interior)])))


@pytest.mark.parametrize("ncut", [3, 20, 40])
def test_commutator_from_the_field_band_equals_the_full_products_bitwise(ncut):
    # the four phi of the commutator-scaling check, no GUP, and a large phi
    cfg = InteractionConfig(omega=1e6, omega0=1e6 + 1e4, coupling=1.0)
    for phi in (1e-5, 5e-6, 2.5e-6, 1.25e-6, 0.0, 3e-3):
        c = GupCoefficients(phi=phi, chi=0.0, beta=-phi / 2.0, omega=cfg.omega)
        fast, full = commutator_check(cfg, c, ncut), commutator_check_full(cfg, c, ncut)
        assert np.float64(fast).view(np.uint64) == np.float64(full).view(np.uint64)


def test_commutator_residual_quadratic_in_phi():
    cfg = _dispersive_cfg()
    phis = [1e-5, 5e-6, 2.5e-6]
    residuals = [commutator_check(cfg, _phi_only(p), ncut=20) for p in phis]
    slope = np.polyfit(np.log(phis), np.log(residuals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
    # magnitude: mu * phi^2 * (ncut-1)^3 on the excited interior block
    expected = abs(cfg.mu) * phis[0] ** 2 * 19**3
    assert residuals[0] == pytest.approx(expected, rel=0.05)


def test_exact_evolution_is_rotated_coherent_when_phi_zero():
    d = DispersiveConfig(mu=1e5, phi=0.0, alpha=1.0, t=1e3, ncut=30)
    for atom, sign in (("g", 1), ("e", -1)):
        state = evolve_dispersive_series(d, [d.t], atom)[0]
        target = coherent_state(1.0 * np.exp(sign * 1j * d.mu * d.t), 30)
        infidelity = 1.0 - abs(np.vdot(state, target.amps)) ** 2
        assert infidelity < 1e-10


def test_exact_evolution_identity_at_t_zero():
    _, d = bench_config()
    d0 = DispersiveConfig(mu=d.mu, phi=d.phi, alpha=d.alpha, t=0.0, ncut=d.ncut)
    state = evolve_dispersive_series(d0, [d0.t], "e")[0]
    coh = coherent_state(d.alpha, d.ncut)
    assert np.allclose(state, coh.amps)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def per_time_exact_amps(d, atom):
    """The exact field state as formed at one time, |alpha> built per call."""
    coh = coherent_state(d.alpha, d.ncut)
    n = np.arange(d.ncut + 1, dtype=float)
    g = -d.mu * (n - 2.0 * n**2 * d.phi)
    e = d.mu * (n - 2.0 * n**2 * d.phi + 1.0 - 2.0 * d.phi - 4.0 * n * d.phi)
    return coh.amps * np.exp(-1j * (g if atom == "g" else e) * d.t)


@pytest.mark.parametrize("atom", ["g", "e"])
def test_exact_series_equals_per_time_states_bitwise(atom, monkeypatch):
    _, d = bench_config()
    ts = np.linspace(0.0, d.t, 21)[1:]
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return coherent_state(*args, **kwargs)

    monkeypatch.setattr(dispersive, "coherent_state", counted)
    series = evolve_dispersive_series(d, ts, atom)
    assert len(builds) == 1 and series.shape == (20, d.ncut + 1)
    monkeypatch.undo()
    for t, row in zip(ts, series):
        oracle = per_time_exact_amps(dataclasses.replace(d, t=float(t)), atom)
        assert np.array_equal(row.view(np.uint64), oracle.view(np.uint64))
    assert np.array_equal(evolve_dispersive_series(d, [d.t], atom)[0], series[-1])
    with pytest.raises(ValueError, match="initial_atom"):
        evolve_dispersive_series(d, ts, "x")


def test_decomposition_pure_rotation_when_phi_zero():
    d = DispersiveConfig(mu=2.0, phi=0.0, alpha=0.8, t=1.3, ncut=25)
    dec = photon_added_decomposition(d, "g")
    assert dec.pacs1_amp == 0.0 and dec.pacs2_amp == 0.0
    assert abs(dec.base_amp) == pytest.approx(1.0, abs=1e-12)
    assert dec.normalization == pytest.approx(1.0, abs=1e-12)


def test_decomposition_benchmark_amplitudes():
    c, d = bench_config()
    dec = photon_added_decomposition(d, "g")
    s = 2.0 * c.phi * d.mu * d.t
    assert abs(dec.pacs1_amp) * dec.normalization == pytest.approx(
        s * math.sqrt(2.0), rel=1e-10
    )
    assert abs(dec.pacs1_amp) * dec.normalization == pytest.approx(3.0e-5, rel=0.02)
    assert abs(dec.pacs2_amp) * dec.normalization == pytest.approx(
        s * math.sqrt(7.0), rel=1e-10
    )


def test_decomposition_normalization_approaches_one():
    # the coherent/photon-added cross terms are purely imaginary, so the norm
    # defect of the assembled state is quadratic in phi*mu*t, not linear
    _, d = bench_config()
    norms = []
    for phi in (1e-10, 1e-11, 1e-12):
        dp = DispersiveConfig(mu=d.mu, phi=phi, alpha=d.alpha, t=d.t, ncut=d.ncut)
        norms.append(abs(photon_added_decomposition(dp, "g").normalization - 1.0))
    assert norms[0] > norms[1] > norms[2]
    assert norms[0] / norms[1] == pytest.approx(100.0, rel=0.05)
    assert norms[2] < 1e-6


@pytest.mark.parametrize("atom", ["g", "e"])
def test_decomposition_normalization_does_not_depend_on_ncut(atom):
    # N and the displaced field are formed on |0>, |1>, |2> in the frame
    # displaced by beta, so no truncated |beta> enters them; 14 is the
    # smallest ncut whose tail check passes at |alpha| = 1
    _, d = bench_config()
    at_14, at_40 = (photon_added_decomposition(dataclasses.replace(d, ncut=ncut), atom)
                    for ncut in (14, 40))
    assert at_14.normalization == at_40.normalization
    assert np.array_equal(at_14.displaced.amps.view(np.uint64),
                          at_40.displaced.amps.view(np.uint64))


def test_decomposition_rejects_long_times():
    _, d = bench_config()
    too_long = DispersiveConfig(mu=d.mu, phi=d.phi, alpha=d.alpha, t=1e9, ncut=d.ncut)
    with pytest.raises(LinearityError):
        photon_added_decomposition(too_long, "g")


def test_decomposition_state_is_normalized():
    _, d = bench_config()
    for atom in ("g", "e"):
        state = photon_added_decomposition(d, atom).state
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("atom", ["g", "e"])
def test_decomposition_state_is_its_amplitudes_over_the_basis_at_beta(atom):
    _, d = bench_config()
    dec = photon_added_decomposition(d, atom)
    expected = (dec.base_amp * coherent_state(dec.beta, d.ncut).amps
                + dec.pacs1_amp * photon_added_coherent_state(dec.beta, 1, d.ncut).amps
                + dec.pacs2_amp * photon_added_coherent_state(dec.beta, 2, d.ncut).amps)
    assert np.array_equal(dec.state.amps, expected)


@pytest.mark.parametrize("gamma", [1e3, 1e4])
@pytest.mark.parametrize("atom", ["g", "e"])
def test_displaced_field_rebuilds_the_state(atom, gamma):
    # D(beta)|n> = (a^dag - beta*)^n |beta> / sqrt(n!), so the displaced field
    # on |0>, |1>, |2> maps back onto the lab-frame state built from the
    # truncated |beta>
    _, d = bench_config()
    phi = derive_coefficients(GupParams.from_gamma(gamma, 1.0, 1.0), BENCH["omega"]).phi
    dec = photon_added_decomposition(dataclasses.replace(d, phi=phi), atom)
    assert dec.displaced.ncut == 2

    def raised(amps):
        """(a^dag - beta*) amps on the truncated basis."""
        out = -np.conj(dec.beta) * amps
        out[1:] += np.sqrt(np.arange(1, d.ncut + 1)) * amps[:-1]
        return out

    coh = coherent_state(dec.beta, d.ncut).amps
    one = raised(coh)
    two = raised(one) / math.sqrt(2.0)
    c0, c1, c2 = dec.displaced.amps
    rebuilt = c0 * coh + c1 * one + c2 * two
    assert np.max(np.abs(rebuilt - dec.state.amps)) <= 1e-15


def test_decomposition_state_carries_the_coherent_tail():
    # |beta| = 1 leaves about e^-1/15! = 2.9e-13 beyond ncut 14
    _, d = bench_config()
    tails = []
    for ncut in (14, 40):
        dec = photon_added_decomposition(dataclasses.replace(d, ncut=ncut), "g")
        assert dec.state.tail_weight == coherent_state(dec.beta, ncut).tail_weight
        tails.append(dec.state.tail_weight)
    assert 1e-13 < tails[0] < 1e-12 and tails[1] < 1e-15


@pytest.mark.parametrize("atom, sign", [("g", 1), ("e", -1)])
def test_decomposition_beta_is_alpha_rotated_by_mu_t(atom, sign):
    # a complex alpha, so that beta must carry its phase too
    _, d = bench_config()
    d = dataclasses.replace(d, alpha=0.6 + 0.8j)
    beta = photon_added_decomposition(d, atom).beta
    assert abs(beta - d.alpha * cmath.exp(sign * 1j * d.mu * d.t)) < 1e-15


def test_decomposition_matches_exact_evolution():
    # overlap bounded by the second-order Taylor remainder; coherent <n^4> at
    # |alpha| = 1 is 15
    c, d = bench_config()
    n4 = 15.0
    for atom in ("g", "e"):
        exact = evolve_dispersive_series(d, [d.t], atom)[0]
        approx = photon_added_decomposition(d, atom).state
        overlap = abs(np.vdot(exact, approx.amps)) ** 2
        assert overlap >= 1.0 - 10.0 * (2.0 * c.phi * d.mu * d.t) ** 2 * n4


def test_decomposition_fidelity_remainder_scaling():
    # with the normalization fixed to the exact assembled norm, the quadratic
    # Taylor remainder cancels in the overlap and the infidelity is quartic in
    # phi*mu*t: halving phi drops it 16x (prefactor (<n^8>-<n^4>^2)/4)
    _, d = bench_config()
    defects = []
    for phi in (4e-12, 2e-12):
        dp = DispersiveConfig(mu=d.mu, phi=phi, alpha=d.alpha, t=d.t, ncut=d.ncut)
        exact = evolve_dispersive_series(dp, [dp.t], "g")[0]
        approx = photon_added_decomposition(dp, "g").state
        defects.append(1.0 - abs(np.vdot(exact, approx.amps)) ** 2)
    assert defects[0] / defects[1] == pytest.approx(16.0, rel=0.05)
    s = 2.0 * 4e-12 * d.mu * d.t
    n8, n4 = 4140.0, 15.0  # coherent moments at |alpha| = 1
    assert defects[0] == pytest.approx(s**4 * (n8 - n4**2) / 4.0, rel=0.05)


def test_dyson_lambda_zero_is_exact():
    cfg = InteractionConfig(omega=200.0, omega0=280.0, coupling=0.0)
    c = _phi_only(1e-4, omega=200.0)
    report = dyson_consistency_check(cfg, c, ncut=18, t=0.5, alpha=1.0)
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.dropped_term_mag == 0.0


def test_dyson_fidelity_defect_scaling():
    # fixed absolute time: the defect scales with the square of the dropped term
    c = GupCoefficients(phi=1e-4, chi=0.0, beta=-5e-5, omega=200.0)
    t = 2.0
    defects, droppeds = [], []
    for coupling in (1.5, 0.75):
        cfg = InteractionConfig(omega=200.0, omega0=280.0, coupling=coupling)
        rep = dyson_consistency_check(cfg, c, ncut=18, t=t)
        defects.append(1.0 - rep.fidelity)
        droppeds.append(rep.dropped_term_mag)
    assert droppeds[0] / droppeds[1] == pytest.approx(2.0, rel=1e-12)
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.2)
    assert defects[0] < 10.0 * droppeds[0] ** 2


def test_dyson_dropped_term_linear_in_coupling():
    c = _phi_only(0.0, omega=200.0)
    mags = []
    for coupling in (1.0, 2.0):
        cfg = InteractionConfig(omega=200.0, omega0=2000.0, coupling=coupling)
        mags.append(dyson_consistency_check(cfg, c, ncut=18, t=0.1).dropped_term_mag)
    assert mags[1] == pytest.approx(2.0 * mags[0], rel=1e-12)


def dense_dropped_term(cfg, c, ncut, alpha, atom):
    """The Dyson check's dropped term from the dense product A @ psi0."""
    psi0 = _coherent_with_atom(atom, ncut, alpha)
    return cfg.coupling * float(np.linalg.norm(dressed_operator(c, ncut) @ psi0)) / abs(
        cfg.detuning)


@pytest.mark.parametrize("atom", ["g", "e"])
def test_dropped_term_from_the_band_equals_the_dense_product(atom):
    # bitwise at the dyson-fidelity fixture (alpha = 1, ncut 18); for a
    # complex alpha the norm sums the same products over a vector laid out
    # differently, so the two agree to rounding
    def band(ncut, alpha):
        return dyson_consistency_check(_DYSON_CFG, _DYSON_COEFFS, ncut, _DYSON_T, alpha,
                                       atom).dropped_term_mag

    fixture = band(18, 1.0)
    assert fixture == dense_dropped_term(_DYSON_CFG, _DYSON_COEFFS, 18, 1.0, atom)
    assert (fixture > 0.0) == (atom == "g")
    for ncut in (18, 24, 28):
        for alpha in (0.5, 0.3 + 0.8j, -0.6 + 0.5j, 1j, 0.7 - 0.7j, -1.1, 0.2 - 1.1j):
            dense = dense_dropped_term(_DYSON_CFG, _DYSON_COEFFS, ncut, alpha, atom)
            assert band(ncut, alpha) == pytest.approx(dense, rel=1e-15, abs=0.0)


def test_dyson_regime_guard():
    cfg = InteractionConfig(omega=200.0, omega0=210.0, coupling=1.5)
    with pytest.raises(DispersiveRegimeError):
        dyson_consistency_check(cfg, _phi_only(0.0, omega=200.0), ncut=18, t=0.1)


def interaction_picture_rk4(h_lab, t, psi0, step_factor=0.01):
    """Fixed-step fourth-order integration of the interaction-picture equation.

    Independent oracle for the block propagator: it never exponentiates a
    Hamiltonian, instead stepping i dpsi/dt = H_IP(t) psi with
    H_IP(t) = e^{i H0 t} HI e^{-i H0 t}, where H0 is the diagonal of the dense
    lab-frame ``h_lab`` and HI the rest; the phases are taken exactly.
    Returns the half-step run and a Richardson bound on its local error.
    """
    h0_diag = np.diag(h_lab).real
    h_coupling = h_lab - np.diag(h0_diag)
    bohr = h0_diag[:, None] - h0_diag[None, :]
    rates = np.abs(bohr[h_coupling != 0])
    h_step = step_factor / max(np.max(rates), np.max(np.abs(h_coupling)))
    n_steps = max(int(math.ceil(t / h_step)), 1)

    def run(steps):
        h = t / steps
        psi = psi0.astype(complex).copy()
        # advance the oscillating phases by elementwise recurrence, re-anchored
        # periodically so roundoff cannot accumulate over long runs
        half_mult = np.exp(1j * bohr * (0.5 * h))
        phases = np.ones_like(half_mult)
        for step in range(steps):
            if step % 1024 == 0:
                phases = np.exp(1j * bohr * (step * h))
            h_now = h_coupling * phases
            phases = phases * half_mult
            h_mid = h_coupling * phases
            phases = phases * half_mult
            h_end = h_coupling * phases
            k1 = -1j * (h_now @ psi)
            k2 = -1j * (h_mid @ (psi + 0.5 * h * k1))
            k3 = -1j * (h_mid @ (psi + 0.5 * h * k2))
            k4 = -1j * (h_end @ (psi + h * k3))
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return psi

    psi_coarse = run(n_steps)
    psi_fine = run(2 * n_steps)
    local_err = float(np.linalg.norm(psi_coarse - psi_fine)) / (15.0 * n_steps)
    return psi_fine, local_err


def _chi_config():
    cfg = InteractionConfig(omega=200.0, omega0=280.0, coupling=1.5)
    c = GupCoefficients(phi=2e-4, chi=1e-5, beta=(8e-5 - 2e-4) / 2.0, omega=200.0)
    return cfg, c


def _coherent_with_atom(atom, ncut=18, alpha=1.0):
    coh = coherent_state(alpha, ncut).amps
    zeros = np.zeros(ncut + 1, dtype=complex)
    return np.concatenate([coh, zeros] if atom == "g" else [zeros, coh])


def test_interaction_picture_integrators_agree():
    # the stepped integrator is an independent check of the block propagator,
    # including the blockwise chi-dependent phases
    cfg, c = _chi_config()
    psi0 = _coherent_with_atom("g")
    t = 0.8
    exact = interaction_picture_propagate(cfg, c, 18, t, psi0)
    h = build_rwa_hamiltonian(cfg, c, 18)
    stepped, local_err = interaction_picture_rk4(h, t, psi0)
    assert local_err < 1e-10
    assert np.max(np.abs(exact - stepped)) < 1e-9
    assert abs(np.linalg.norm(stepped) - 1.0) < 1e-9


@pytest.mark.parametrize("atom", ["g", "e"])
@pytest.mark.parametrize("t", [0.8, 1.78])
def test_block_propagator_matches_dense_lab_evolution(atom, t):
    cfg, c = _chi_config()
    psi0 = _coherent_with_atom(atom)
    h = build_rwa_hamiltonian(cfg, c, 18)
    dense = np.exp(1j * t * np.diag(h)) * evolve_on_grid(h, [t], psi0)[0]
    blocks = interaction_picture_propagate(cfg, c, 18, t, psi0)
    assert np.max(np.abs(blocks - dense)) < 1e-10
