import math

import numpy as np
import pytest

from gupjc.errors import DegenerateModelError, SingularDenominatorError
from gupjc.gup import GupCoefficients, GupParams, InteractionConfig, derive_coefficients
from gupjc.rwa_validity import (
    ZetaMapSpec,
    first_order_amplitudes,
    perturbation_cross_check,
    zeta_lq_at,
    zeta_map,
    zeta_rq_at,
)

FIG_LQ = GupParams.from_gamma(0.5, 1.0, 1.0)
FIG_RQ = GupParams.from_gamma(5e3, 1.0, 1.0)


def _cfg(omega=50.0, omega0=30.0, coupling=1e-3):
    return InteractionConfig(omega=omega, omega0=omega0, coupling=coupling)


def _coeffs(phi=1e-3, xi_mag=2e-3, omega=50.0):
    return GupCoefficients(phi=phi, chi=0.0, beta=-phi / 2.0, omega=omega, xi_mag=xi_mag)


def test_amplitudes_vanish_at_t_zero():
    amps = first_order_amplitudes(3, _cfg(), _coeffs(), 0.0)
    assert amps.c_gn_minus1 == 0.0
    assert amps.c_gn_plus1 == 0.0
    assert amps.c_gn_plus2 == 0.0


def test_two_photon_channel_needs_linear_gup():
    amps = first_order_amplitudes(3, _cfg(), _coeffs(xi_mag=0.0), 0.7)
    assert amps.c_gn_plus2 == 0.0
    amps = first_order_amplitudes(3, _cfg(), _coeffs(xi_mag=1e-3), 0.7)
    assert amps.c_gn_plus2 != 0.0


def test_counter_rotating_channel_empty_from_vacuum():
    amps = first_order_amplitudes(0, _cfg(), _coeffs(), 0.9)
    assert amps.c_gn_minus1 == 0.0


def test_counter_rotating_peak_magnitude():
    # |e^{i theta} - 1| <= 2, saturated on a dense time grid
    cfg = _cfg()
    c = _coeffs()
    n = 4
    bound = 2.0 * cfg.coupling * math.sqrt(n) / (cfg.omega + cfg.omega0)
    ts = np.linspace(0.0, 2.0 * math.pi / (cfg.omega + cfg.omega0), 4001)
    peak = max(abs(first_order_amplitudes(n, cfg, c, float(t)).c_gn_minus1) for t in ts)
    assert peak == pytest.approx(bound, rel=1e-6)
    assert peak <= bound * (1.0 + 1e-12)


def test_amplitudes_reject_resonances():
    with pytest.raises(SingularDenominatorError):
        first_order_amplitudes(1, InteractionConfig(10.0, 10.0, 1e-3), _coeffs(), 0.1)
    with pytest.raises(SingularDenominatorError):
        first_order_amplitudes(1, InteractionConfig(10.0, 20.0, 1e-3), _coeffs(), 0.1)


def time_averaged_magnitudes(n, cfg, c):
    """Oracle: magnitudes (m_minus1, m_plus1_t2, m_plus2) of the long-time
    averages of the three first-order amplitudes.

    Averaging kills the oscillating exponentials, leaving the 1/denominator
    parts.  Only the GUP term of the co-rotating channel is kept (m_plus1_t2);
    the leading sqrt(n+1) piece is ordinary photon emission.
    """
    lam, w, w0 = cfg.coupling, cfg.omega, cfg.omega0
    return (
        lam * math.sqrt(n) / (w + w0),
        lam * (n + 1) ** 1.5 * abs(c.phi) / abs(w - w0),
        lam * c.xi_mag * math.sqrt((n + 1) * (n + 2)) / abs(2.0 * w - w0),
    )


def test_time_averaged_magnitudes_formulas():
    # at omega = 50, omega0 = 30 the Bohr frequencies 80, 20 and 70 rad/s all
    # complete whole cycles in 2 pi / 10 s, so the mean over 64 equal steps of
    # that period is exactly the static part of each amplitude
    cfg = _cfg()
    c = _coeffs()
    n = 5
    ts = np.arange(64) * (2.0 * math.pi / 10.0 / 64)

    def averages(coeffs):
        amps = [first_order_amplitudes(n, cfg, coeffs, float(t)) for t in ts]
        return [np.mean([getattr(a, name) for a in amps])
                for name in ("c_gn_minus1", "c_gn_plus1", "c_gn_plus2")]

    minus1, plus1, plus2 = averages(c)
    plus1_std = averages(_coeffs(phi=0.0))[1]
    m_minus1, m_plus1_t2, m_plus2 = time_averaged_magnitudes(n, cfg, c)
    assert abs(minus1) == pytest.approx(m_minus1, rel=1e-12)
    assert abs(plus1 - plus1_std) == pytest.approx(m_plus1_t2, rel=1e-9)
    assert abs(plus2) == pytest.approx(m_plus2, rel=1e-12)


def test_time_averaged_gup_channels_vanish_without_gup():
    c0 = derive_coefficients(GupParams(0.0, 1.0, 1.0), 50.0)
    m_minus1, m_plus1_t2, m_plus2 = time_averaged_magnitudes(2, _cfg(), c0)
    assert m_plus1_t2 == 0.0 and m_plus2 == 0.0
    assert m_minus1 > 0.0  # independent of every GUP parameter


def test_zeta_spot_values_match_hand_arithmetic():
    # n = 50, omega = 1e16 rad/s, detuning 1e4: both ratios land near 4e-4
    cfg = InteractionConfig(omega=1e16, omega0=1e16 + 1e4, coupling=1.0)
    assert zeta_lq_at(50, cfg.omega, cfg.omega0, FIG_LQ) == pytest.approx(4e-4, rel=0.2)
    assert zeta_rq_at(50, cfg.omega, cfg.omega0, FIG_RQ) == pytest.approx(4e-4, rel=0.2)


def test_zeta_matches_magnitude_ratios():
    # the closed forms equal the ratios of time-averaged magnitudes
    cfg = InteractionConfig(omega=2e15, omega0=2e15 + 5e4, coupling=0.7)
    for params in (FIG_LQ, GupParams.from_gamma(20.0, 0.7, 0.2)):
        c = derive_coefficients(params, cfg.omega)
        m_minus1, m_plus1_t2, m_plus2 = time_averaged_magnitudes(50, cfg, c)
        assert zeta_lq_at(50, cfg.omega, cfg.omega0, params) == pytest.approx(m_plus2 / m_plus1_t2, rel=1e-12)
        assert zeta_rq_at(50, cfg.omega, cfg.omega0, params) == pytest.approx(m_minus1 / m_plus1_t2, rel=1e-12)


def test_zeta_scaling_in_gamma():
    cfg = InteractionConfig(omega=1e16, omega0=1e16 + 1e4, coupling=1.0)
    lq1 = zeta_lq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(0.5, 1.0, 1.0))
    lq2 = zeta_lq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(1.0, 1.0, 1.0))
    assert lq1 == pytest.approx(2.0 * lq2, rel=1e-12)
    rq1 = zeta_rq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(5e3, 1.0, 1.0))
    rq2 = zeta_rq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(1e4, 1.0, 1.0))
    assert rq1 == pytest.approx(4.0 * rq2, rel=1e-12)


def test_zeta_lq_vanishes_without_linear_channel():
    cfg = InteractionConfig(omega=1e16, omega0=1e16 + 1e4, coupling=1.0)
    assert zeta_lq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(0.5, 0.0, 1.0)) == 0.0


def test_zeta_rq_diverges_as_gamma_shrinks():
    cfg = InteractionConfig(omega=1e16, omega0=1e16 + 1e4, coupling=1.0)
    values = [
        zeta_rq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(g, 1.0, 1.0)) for g in (1e-1, 1e-3, 1e-5)
    ]
    assert values[0] < values[1] < values[2]


def test_zeta_guards():
    cfg = InteractionConfig(omega=1e16, omega0=1e16 + 1e4, coupling=1.0)
    with pytest.raises(DegenerateModelError):
        zeta_lq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(0.5, 1.0, 1.5))  # 3 delta^2 = 2 epsilon
    with pytest.raises(SingularDenominatorError):
        zeta_lq_at(50, cfg.omega, cfg.omega0, GupParams.from_gamma(0.0, 1.0, 1.0))
    with pytest.raises(SingularDenominatorError):
        zeta_lq_at(50, 1e16, 2e16, FIG_LQ)


def test_degenerate_guard_judges_the_model_as_phi_does():
    # 3 delta^2 - 2 epsilon is exactly 0 with delta^2 as the product
    # delta*delta, which phi uses, but 8.9e-16 with libm pow()'s delta**2,
    # one ulp off the product at this delta
    delta, epsilon = 1.5241554154166315, 3.4845745955157663
    assert delta**2 != delta * delta
    params = GupParams.from_gamma(0.5, delta, epsilon)
    assert derive_coefficients(params, 1e16).phi == 0.0
    cfg = InteractionConfig(omega=1e16, omega0=1e16 + 1e4, coupling=1.0)
    with pytest.raises(DegenerateModelError):
        zeta_lq_at(50, cfg.omega, cfg.omega0, params)
    with pytest.raises(DegenerateModelError):
        zeta_rq_at(50, cfg.omega, cfg.omega0, params)


def test_zeta_high_frequency_slices_below_one():
    # at omega = 1e16 rad/s both truncations are safe across the detuning range
    for delta in np.logspace(3, 5, 9):
        cfg = InteractionConfig(omega=1e16, omega0=1e16 + float(delta), coupling=1.0)
        assert zeta_lq_at(50, cfg.omega, cfg.omega0, FIG_LQ) < 1.0
        assert zeta_rq_at(50, cfg.omega, cfg.omega0, FIG_RQ) < 1.0


def test_zeta_lq_below_one_at_high_frequency_for_gamma_at_least_point_one():
    # gamma >= 0.1 keeps the linear channel negligible on the omega = 1e16 slice
    for gamma in (0.1, 0.5, 1.0, 10.0):
        p = GupParams.from_gamma(gamma, 1.0, 1.0)
        for delta in (1e3, 1e5):
            cfg = InteractionConfig(omega=1e16, omega0=1e16 + delta, coupling=1.0)
            assert zeta_lq_at(50, cfg.omega, cfg.omega0, p) < 1.0


def test_zeta_map_values_and_monotonicity():
    spec = ZetaMapSpec(n=50, params=FIG_LQ, n_omega=17, n_delta=7)
    grid = zeta_map(spec)
    assert grid.zeta_lq.shape == (7, 17)
    assert np.all(np.isfinite(grid.zeta_lq)) and np.all(grid.zeta_lq > 0)
    assert np.all(np.isfinite(grid.zeta_rq)) and np.all(grid.zeta_rq > 0)
    # both ratios decrease along omega at fixed detuning (detuning << omega)
    assert np.all(np.diff(grid.zeta_lq, axis=1) < 0)
    assert np.all(np.diff(grid.zeta_rq, axis=1) < 0)
    # spot agreement with the scalar functions
    cfg = InteractionConfig(
        omega=float(grid.omega_axis[5]),
        omega0=float(grid.omega_axis[5] + grid.delta_axis[2]),
        coupling=1.0,
    )
    assert grid.zeta_lq[2, 5] == pytest.approx(zeta_lq_at(50, cfg.omega, cfg.omega0, FIG_LQ), rel=1e-12)


def test_zeta_map_equals_scalar_ratios_bitwise():
    params = GupParams.from_gamma(3.0, 0.8, 0.3)
    spec = ZetaMapSpec(n=7, params=params, omega_min=1e11, omega_max=1e15, n_omega=6,
                       delta_min=50.0, delta_max=5e6, n_delta=5)
    grid = zeta_map(spec)
    assert grid.zeta_lq.shape == grid.zeta_rq.shape == (5, 6)
    for i, delta in enumerate(grid.delta_axis):
        for j, omega in enumerate(grid.omega_axis):
            cfg = InteractionConfig(omega=omega, omega0=omega + delta, coupling=1.0)
            assert grid.zeta_lq[i, j] == zeta_lq_at(7, cfg.omega, cfg.omega0, params)
            assert grid.zeta_rq[i, j] == zeta_rq_at(7, cfg.omega, cfg.omega0, params)


def test_zeta_array_form_guards():
    omega = np.array([1e12, 1e14])
    omega0 = omega + 1e4
    # one resonant point refuses the whole array
    with pytest.raises(SingularDenominatorError, match="omega = omega0"):
        zeta_rq_at(50, omega, np.array([1e12 + 1e4, 1e14]), FIG_RQ)
    with pytest.raises(SingularDenominatorError, match="omega0 = 2"):
        zeta_lq_at(50, omega, np.array([1e12 + 1e4, 2e14]), FIG_LQ)
    with pytest.raises(DegenerateModelError):
        zeta_rq_at(50, omega, omega0, GupParams.from_gamma(0.5, 1.0, 1.5))
    with pytest.raises(SingularDenominatorError, match="gamma = 0"):
        zeta_lq_at(50, omega, omega0, GupParams.from_gamma(0.0, 1.0, 1.0))


def test_zeta_map_refuses_resonant_point():
    # omega0 = omega + delta rounds back to omega at omega = 1e17, delta = 1
    spec = ZetaMapSpec(n=50, params=FIG_LQ, omega_min=1e15, omega_max=1e17, n_omega=3,
                       delta_min=1.0, delta_max=1e3, n_delta=2)
    with pytest.raises(SingularDenominatorError, match="omega = omega0"):
        zeta_map(spec)


def test_zeta_map_high_frequency_column():
    for params in (FIG_LQ, FIG_RQ):
        spec = ZetaMapSpec(
            n=50, params=params, omega_min=1e16, omega_max=1e17, n_omega=5, n_delta=9
        )
        grid = zeta_map(spec)
        assert np.all(grid.zeta_lq < 1.0) if params is FIG_LQ else True
        assert np.all(grid.zeta_rq < 1.0) if params is FIG_RQ else True


def test_cross_check_lambda_zero():
    cfg = InteractionConfig(omega=50.0, omega0=30.0, coupling=0.0)
    rep = perturbation_cross_check(2, cfg, _coeffs(), t=0.3, ncut=8)
    assert rep.max_abs_err == 0.0


def test_cross_check_agreement_and_scaling():
    # absolute discrepancy is cubic in the coupling (all interaction terms
    # flip the atom, so no second-order path feeds the |g,..> amplitudes);
    # relative to the coupling the scaling is quadratic
    c = _coeffs()
    abs_errs, rel_errs = [], []
    lams = (1e-3, 5e-4, 2.5e-4)
    for lam in lams:
        cfg = InteractionConfig(omega=50.0, omega0=30.0, coupling=lam)
        rep = perturbation_cross_check(2, cfg, c, t=0.35, ncut=10)
        abs_errs.append(rep.max_abs_err)
        rel_errs.append(rep.max_rel_err)
    rel_slope = np.polyfit(np.log(lams), np.log(rel_errs), 1)[0]
    assert rel_slope == pytest.approx(2.0, abs=0.1)
    abs_slope = np.polyfit(np.log(lams), np.log(abs_errs), 1)[0]
    assert abs_slope == pytest.approx(3.0, abs=0.1)


def test_cross_check_standard_model_limit():
    # gamma = 0 still exercises the counter-rotating channel
    c0 = GupCoefficients(phi=0.0, chi=0.0, beta=0.0, omega=50.0)
    cfg = InteractionConfig(omega=50.0, omega0=30.0, coupling=5e-4)
    rep = perturbation_cross_check(3, cfg, c0, t=0.4, ncut=10)
    assert rep.max_abs_err < 1e-11
    amps = first_order_amplitudes(3, cfg, c0, 0.4)
    assert abs(amps.c_gn_minus1) > 1e-6


def test_cross_check_guards():
    with pytest.raises(ValueError):
        perturbation_cross_check(2, _cfg(coupling=1.0), _coeffs(), t=0.1, ncut=10)
    with pytest.raises(ValueError):
        perturbation_cross_check(2, _cfg(), _coeffs(), t=0.1, ncut=3)
