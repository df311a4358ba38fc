import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gupjc.dynamics import (
    NumericValidation,
    amplitude_angular_frequency,
    analytic_amplitudes,
    atomic_inversion,
    exact_rabi_shift,
    rabi_shift,
    validate_against_numeric,
)
from gupjc.gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    derive_coefficients,
    rwa_block,
)


def _resonant(coupling=1.0, omega=10.0):
    return InteractionConfig(omega=omega, omega0=omega, coupling=coupling)


def _no_gup(omega=10.0):
    return derive_coefficients(GupParams(0.0, 1.0, 1.0), omega)


def _phi_only(phi, omega=10.0):
    # chi = 0 forces beta = -phi/2 through the coefficient identity
    return GupCoefficients(phi=phi, chi=0.0, beta=-phi / 2.0, omega=omega)


def _chi_only(chi, omega=10.0):
    return GupCoefficients(phi=0.0, chi=chi, beta=4.0 * chi, omega=omega)


def _grid(n, cfg, c, periods=10.0, points=400):
    w = amplitude_angular_frequency(n, cfg, c)
    return np.linspace(0.0, periods * 2.0 * math.pi / (2.0 * w), points)


def test_amplitudes_initial_condition():
    cfg = _resonant()
    c_e, c_g = analytic_amplitudes(3, cfg, _no_gup(), 0.0)
    assert c_e == 1.0 and c_g == 0.0


def test_amplitudes_standard_jcm_form():
    cfg = _resonant(coupling=0.7)
    c = _no_gup()
    for n in (0, 2):
        for t in (0.0, 0.3, 1.9):
            c_e, c_g = analytic_amplitudes(n, cfg, c, t)
            w = 0.7 * math.sqrt(n + 1)
            assert c_e == pytest.approx(math.cos(w * t), abs=1e-14)
            assert c_g == pytest.approx(-1j * math.sin(w * t), abs=1e-14)


def test_amplitudes_warn_when_chi_term_large():
    cfg = _resonant()
    c = _chi_only(chi=0.02)  # 4*sqrt(2)*0.02*10 / 1 > 0.1
    with pytest.warns(RuntimeWarning):
        analytic_amplitudes(1, cfg, c, 0.1)


def test_amplitudes_phi_factor():
    cfg = _resonant()
    phi = 1e-3
    c = _phi_only(phi)
    n = 1
    c_e, c_g = analytic_amplitudes(n, cfg, c, 0.0)
    assert c_e == pytest.approx(1.0 - 2.0 * (n + 1) * phi, abs=1e-15)
    w = amplitude_angular_frequency(n, cfg, c)
    assert w == pytest.approx(math.sqrt(2.0) * (1.0 - 2 * phi), rel=1e-14)


def test_inversion_trivial_points():
    cfg = _resonant()
    c = _phi_only(1e-4)
    assert atomic_inversion(2, cfg, c, 0.0) == 1.0
    w = amplitude_angular_frequency(2, cfg, c)
    assert atomic_inversion(2, cfg, c, math.pi / (2.0 * w)) == pytest.approx(-1.0, abs=1e-12)
    # elementwise over an array of times
    ts = np.array([0.0, math.pi / (2.0 * w)])
    assert atomic_inversion(2, cfg, c, ts) == pytest.approx([1.0, -1.0], abs=1e-12)


def test_inversion_quarter_period_zero():
    cfg = _resonant()
    assert atomic_inversion(0, cfg, _no_gup(), math.pi / 4.0) == pytest.approx(0.0, abs=1e-12)


def test_inversion_from_amplitudes_differs_at_first_order():
    cfg = _resonant()
    phi = 1e-3
    c = _phi_only(phi)
    t = 0.4
    leading = atomic_inversion(1, cfg, c, t)
    c_e, c_g = analytic_amplitudes(1, cfg, c, t)
    from_amps = abs(c_e) ** 2 - abs(c_g) ** 2
    assert from_amps != leading
    assert abs(from_amps - leading) < 10.0 * phi


def test_rabi_shift_no_gup():
    sol = rabi_shift(4, _resonant(coupling=2.0), _no_gup())
    assert sol.delta_omega == 0.0
    assert sol.omega_qg == sol.omega_std == pytest.approx(4.0 * math.sqrt(5.0), rel=1e-14)


def test_rabi_shift_electroweak_benchmark():
    # n=1, omega = 1e16 rad/s, gamma = 1e3 (SI), coupling 1 rad/s: the shift
    # lands at the 1e-12 rad/s scale
    cfg = InteractionConfig(omega=1e16, omega0=1e16, coupling=1.0)
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e16)
    sol = rabi_shift(1, cfg, c)
    assert sol.delta_omega == pytest.approx(2.0 * math.sqrt(2.0) * 2.0 * c.phi, rel=1e-12)
    assert 1e-13 < sol.delta_omega < 1e-11
    assert sol.delta_omega == pytest.approx(5.97e-12, rel=0.01)
    assert sol.omega_std - sol.omega_qg == pytest.approx(sol.delta_omega, rel=1e-15)


def test_rabi_shift_linear_in_coupling():
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e16)
    s1 = rabi_shift(1, InteractionConfig(1e16, 1e16, 1.0), c)
    s2 = rabi_shift(1, InteractionConfig(1e16, 1e16, 2.0), c)
    assert s2.delta_omega == pytest.approx(2.0 * s1.delta_omega, rel=1e-14)


def _mp_exact_shift(n, cfg, c):
    """2 (g0 - hypot(d, g)) of rwa_block(n), in 50-digit arithmetic from the
    double inputs."""
    with mpmath.workdps(50):
        m = mpmath.mpf(n + 1)
        g0 = mpmath.mpf(cfg.coupling) * mpmath.sqrt(m)
        g = g0 * (1 - m * mpmath.mpf(c.phi))
        d = (mpmath.mpf(cfg.omega0) - mpmath.mpf(cfg.omega)
             + 8 * m * mpmath.mpf(c.chi) * mpmath.mpf(cfg.omega)) / 2
        return 2 * (g0 - mpmath.sqrt(d * d + g * g))


# gamma (SI) from 10 to 1e4 at the rabi defaults omega = 1e16 rad/s and
# coupling 1 rad/s, in the pure-phi model (chi = 0, d = 0) and in one with
# chi != 0, where d/g0 runs from about 1 at gamma = 10 to about 1e6 at 1e4
@pytest.mark.parametrize("epsilon", [1.0, 0.5])
@pytest.mark.parametrize("gamma", [10.0, 30.0, 1e2, 1e3, 1e4])
def test_exact_rabi_shift_matches_mpmath_oracle(gamma, epsilon):
    cfg = InteractionConfig(omega=1e16, omega0=1e16, coupling=1.0)
    c = derive_coefficients(GupParams.from_gamma(gamma, 1.0, epsilon), cfg.omega)
    n = np.arange(11)
    shifts = exact_rabi_shift(n, cfg, c)
    for k, shift in zip(n.tolist(), shifts.tolist()):
        oracle = _mp_exact_shift(k, cfg, c)
        assert abs(float((mpmath.mpf(shift) - oracle) / oracle)) < 1e-15
        assert shift == exact_rabi_shift(k, cfg, c)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 50),
    phi=st.floats(-1e-3, 1e-3),
    chi_omega=st.floats(-1e-3, 1e-3),
)
def test_exact_rabi_shift_agrees_with_the_naive_form_where_it_resolves(n, phi, chi_omega):
    # the naive form resolves the shift where (n+1) phi > 1e-8, and loses a
    # few ulps of g0 to its subtraction
    assume(abs((n + 1) * phi) > 1e-8)
    cfg = _resonant(coupling=1.5, omega=1e3)
    chi = chi_omega / cfg.omega
    c = GupCoefficients(phi=phi, chi=chi, beta=(8.0 * chi - phi) / 2.0, omega=cfg.omega)
    d, g = rwa_block(n, cfg, c)[0]
    g0 = cfg.coupling * math.sqrt(n + 1)
    naive = 2.0 * (g0 - math.hypot(d, g))
    assert abs(exact_rabi_shift(n, cfg, c) - naive) <= 8.0 * np.finfo(float).eps * g0


def test_exact_rabi_shift_equals_the_closed_form_without_chi():
    # with d = 0 the exact shift is 2 g0 (n+1) phi, the closed form
    cfg = _resonant(coupling=2.0, omega=1e6)
    c = _phi_only(1e-6, omega=1e6)
    for n in (0, 1, 7, 40):
        assert exact_rabi_shift(n, cfg, c) == pytest.approx(rabi_shift(n, cfg, c).delta_omega,
                                                            rel=1e-14)
    assert exact_rabi_shift(3, cfg, _no_gup(omega=1e6)) == 0.0
    with pytest.raises(ValueError, match="coupling"):
        exact_rabi_shift(1, _resonant(coupling=0.0), c)


def test_numeric_oracle_standard_jcm():
    # gamma = 0: exact evolution reproduces the cos/sin amplitudes
    c = _no_gup()
    for n in (0, 1, 5):
        cfg = _resonant()
        rep = validate_against_numeric(n, cfg, c, _grid(n, cfg, c))
        assert rep.max_amp_err < 1e-9
        assert rep.max_inv_err < 1e-9
        assert rep.max_amp_err_normalized < 1e-9


def test_numeric_validation_guards():
    c = _no_gup()
    cfg = _resonant()
    detuned = InteractionConfig(omega=10.0, omega0=10.1, coupling=1.0)
    with pytest.raises(ValueError):
        validate_against_numeric(1, detuned, c, np.linspace(0, 1, 10))


def test_phi_channel_norm_defect_linear_and_shape_exact():
    # raw amplitude deviation tracks the first-order norm defect (linear in
    # phi); renormalized amplitudes and the frequency are exact in this channel
    cfg = _resonant()
    n = 1
    raw, defects = [], []
    for phi in (1e-4, 5e-5, 2.5e-5):
        c = _phi_only(phi)
        rep = validate_against_numeric(n, cfg, c, _grid(n, cfg, c))
        raw.append(rep.max_amp_err)
        defects.append(rep.max_norm_defect)
        assert rep.max_amp_err_normalized < 1e-9
        w = amplitude_angular_frequency(n, cfg, c)
        assert abs(rep.exact_half_frequency - w) / w < 1e-9
    slope = np.polyfit(np.log([1e-4, 5e-5, 2.5e-5]), np.log(raw), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
    assert defects[0] == pytest.approx(2.0 * raw[0], rel=1e-2)


def test_chi_channel_frequency_quadratic():
    # the chi-induced level splitting shifts the block frequency at second
    # order in chi*omega/coupling
    cfg = _resonant()
    n = 1
    rels = []
    chis = (1e-4, 5e-5)
    for chi in chis:
        c = _chi_only(chi)
        rep = validate_against_numeric(n, cfg, c, _grid(n, cfg, c, points=800))
        w = amplitude_angular_frequency(n, cfg, c)
        rels.append(abs(rep.exact_half_frequency - w) / w)
    assert rels[0] / rels[1] == pytest.approx(4.0, rel=0.05)


def test_norm_defect_linear_in_chi_term():
    cfg = _resonant()
    n = 1
    c1 = _chi_only(1e-4)
    c2 = _chi_only(5e-5)
    t = 0.0
    d = []
    for c in (c1, c2):
        c_e, c_g = analytic_amplitudes(n, cfg, c, t)
        d.append(abs(abs(c_e) ** 2 + abs(c_g) ** 2 - 1.0))
    # halving chi halves the defect, up to its own quadratic correction
    assert d[0] / d[1] == pytest.approx(2.0, rel=1e-2)


def test_inversion_frequency_monotone_in_phi():
    cfg = _resonant()
    n = 1
    freqs = []
    for phi in (0.0, 1e-4, 1e-3, 4e-3):
        c = _phi_only(phi)
        rep = validate_against_numeric(n, cfg, c, _grid(n, cfg, c))
        freqs.append(rep.exact_half_frequency)
    assert all(a > b for a, b in zip(freqs, freqs[1:]))


def test_validation_returns_dataclass():
    cfg = _resonant()
    c = _no_gup()
    rep = validate_against_numeric(0, cfg, c, _grid(0, cfg, c, periods=2, points=50))
    assert isinstance(rep, NumericValidation)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 500),
    detuning=st.floats(-9e-4, 9e-4),
    phi=st.floats(0.0, 1e-4),
    chi=st.floats(-1e-4, 1e-4),
    t_max=st.floats(0.5, 200.0),
)
def test_evolved_pair_stays_normalized(n, detuning, phi, chi, t_max):
    # omega = 10, coupling = 1: the chi term stays below the 0.1 warning level
    cfg = InteractionConfig(omega=10.0, omega0=10.0 + detuning, coupling=1.0)
    c = GupCoefficients(phi=phi, chi=chi, beta=4.0 * chi - phi / 2.0, omega=10.0)
    rep = validate_against_numeric(n, cfg, c, np.linspace(0.0, t_max, 64))
    assert rep.max_numeric_norm_defect < 1e-12
