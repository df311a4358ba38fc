"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline) and enforcing its
stated tolerance and runtime budget.
"""

import contextlib
import io
import math
import time

import numpy as np

from gupjc.cli import main as cli_main
from gupjc.dispersive import (
    DispersiveConfig,
    commutator_check,
    decomposition_field_state,
    evolve_dispersive_exact,
    photon_added_decomposition,
)
from gupjc.dynamics import rabi_shift, validate_against_numeric
from gupjc.fock import coherent_state, fock_state, laguerre, photon_added_coherent_state
from gupjc.gup import GupCoefficients, GupParams, InteractionConfig, derive_coefficients
from gupjc.rwa_validity import perturbation_cross_check, zeta_lq, zeta_rq
from gupjc.wigner import GridSpec, wigner_of_state, wigner_difference

TWO_OVER_PI = 2.0 / math.pi


class Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget_s else "FAIL"
        print(
            f"[criterion {self.number:02d}] {status}: {self.description}"
            f" ({detail}; {elapsed:.2f}s / budget {self.budget_s:.0f}s)"
        )
        assert ok, f"criterion {self.number}: {self.description} ({detail})"
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.2f}s >= {self.budget_s}s"
        )


def test_criterion_01_standard_jcm_oracle():
    crit = Criterion(1, "exact evolution matches cos/sin amplitudes at gamma=0", 1.0)
    worst = 0.0
    for n in (0, 1, 5, 20):
        cfg = InteractionConfig(omega=10.0, omega0=10.0, coupling=1.0)
        c = derive_coefficients(GupParams(0.0, 1.0, 1.0), cfg.omega)
        period = 2.0 * math.pi / (2.0 * cfg.coupling * math.sqrt(n + 1))
        grid = np.linspace(0.0, 10.0 * period, 400)
        report = validate_against_numeric(n, cfg, c, grid)
        worst = max(worst, report.max_amp_err)
    crit.finish(worst < 1e-9, f"max amplitude error {worst:.2e}")


def test_criterion_02_corrected_rabi_frequency():
    crit = Criterion(2, "GUP Rabi shift at the electroweak benchmark", 1.0)
    cfg = InteractionConfig(omega=1e16, omega0=1e16, coupling=1.0)
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), cfg.omega)
    sol = rabi_shift(1, cfg, c)
    closed_form = sol.omega_std * 2.0 * c.phi  # Omega(n)*(n+1)*phi at n=1
    ok = (
        abs(sol.delta_omega - closed_form) <= 1e-12 * closed_form
        and 1e-13 < sol.delta_omega < 1e-11
    )
    crit.finish(ok, f"delta_omega {sol.delta_omega:.3e} rad/s")


def test_criterion_03_coefficient_identity():
    crit = Criterion(3, "8*chi = phi + 2*beta over 10^4 random draws", 1.0)
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(10_000):
        p = GupParams(
            gamma0=float(rng.uniform(0.0, 1e8)),
            delta=float(rng.uniform(-3.0, 3.0)),
            epsilon=float(rng.uniform(-3.0, 3.0)),
        )
        c = derive_coefficients(p, float(rng.uniform(1e9, 1e17)))
        scale = abs(c.phi) + 2.0 * abs(c.beta) + 8.0 * abs(c.chi)
        if scale > 0.0:
            worst = max(worst, abs(8.0 * c.chi - (c.phi + 2.0 * c.beta)) / scale)
    crit.finish(worst < 1e-14, f"worst scaled residual {worst:.2e}")


def test_criterion_04_effective_commutator_scaling():
    crit = Criterion(4, "commutator residual scales as phi^2 at ncut=20", 5.0)
    cfg = InteractionConfig(omega=1e6, omega0=1e6 + 1e4, coupling=1.0)
    phis = [1e-5, 5e-6, 2.5e-6, 1.25e-6]
    residuals = [
        commutator_check(cfg, GupCoefficients(phi=p, chi=0.0, beta=-p / 2.0, omega=cfg.omega), 20)
        for p in phis
    ]
    slope = float(np.polyfit(np.log(phis), np.log(residuals), 1)[0])
    crit.finish(abs(slope - 2.0) < 0.1, f"log-log slope {slope:.3f}")


def test_criterion_05_dispersive_resummation():
    crit = Criterion(5, "phi=0 dispersive evolution is a rotated coherent state", 1.0)
    d = DispersiveConfig(mu=1e5, phi=0.0, alpha=1.0, t=1e3, ncut=30)
    state = evolve_dispersive_exact(d, "g")
    target = coherent_state(1.0 * np.exp(1j * d.mu * d.t), 30)
    infidelity = 1.0 - abs(np.vdot(state.amps_g, target.amps)) ** 2
    crit.finish(infidelity < 1e-10, f"infidelity {infidelity:.2e}")


def test_criterion_06_photon_added_decomposition():
    crit = Criterion(6, "first-order photon-added decomposition fidelity", 2.0)
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e15)
    d = DispersiveConfig(mu=1e5, phi=c.phi, alpha=1.0, t=1e3, ncut=40)
    exact = evolve_dispersive_exact(d, "g")
    dec = photon_added_decomposition(d, "g")
    approx = decomposition_field_state(d, dec, "g")
    overlap = abs(np.vdot(exact.amps_g, approx.amps)) ** 2
    n4 = 15.0  # coherent <n^4> at |alpha| = 1
    bound = 1.0 - 10.0 * (2.0 * c.phi * d.mu * d.t) ** 2 * n4
    k1 = math.sqrt(laguerre(1, -1.0))
    k2 = math.sqrt(laguerre(2, -1.0) * 2.0)
    ok = (
        overlap >= bound
        and abs(k1 - math.sqrt(2.0)) < 1e-10
        and abs(k2 - math.sqrt(7.0)) < 1e-10
    )
    crit.finish(ok, f"overlap defect {1.0 - overlap:.2e} vs bound {1.0 - bound:.2e}")


def test_criterion_07_wigner_closed_forms():
    crit = Criterion(7, "Wigner closed forms, normalization and negativity", 60.0)
    grid = GridSpec()  # 201x201 over [-4, 4]^2
    worst = 0.0
    worst_integral = 0.0

    w = wigner_of_state(coherent_state(1.0, 30), grid)
    zz = w.re_axis[None, :] + 1j * w.im_axis[:, None]
    worst = max(worst, float(np.max(np.abs(
        w.values - TWO_OVER_PI * np.exp(-2.0 * np.abs(zz - 1.0) ** 2)
    ))))
    worst_integral = max(worst_integral, abs(w.integral() - 1.0))

    for n in range(6):
        wn = wigner_of_state(fock_state(n, max(n, 1)), grid)
        ln = np.vectorize(lambda r2: laguerre(n, 4.0 * r2))(np.abs(zz) ** 2)
        exact = TWO_OVER_PI * ((-1.0) ** n) * ln * np.exp(-2.0 * np.abs(zz) ** 2)
        worst = max(worst, float(np.max(np.abs(wn.values - exact))))
        worst_integral = max(worst_integral, abs(wn.integral() - 1.0))

    w_pacs = wigner_of_state(photon_added_coherent_state(1.0, 1, 30), grid)
    worst_integral = max(worst_integral, abs(w_pacs.integral() - 1.0))
    negative = float(np.min(w_pacs.values)) < 0.0

    ok = worst < 1e-8 and worst_integral < 1e-3 and negative
    crit.finish(ok, f"worst pointwise {worst:.2e}, worst integral defect {worst_integral:.2e}")


def test_criterion_08_wigner_difference_magnitude():
    crit = Criterion(8, "Wigner-difference magnitude and required precision", 120.0)
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e15)
    d = DispersiveConfig(mu=1e5, phi=c.phi, alpha=1.0, t=1e3, ncut=40)
    dec = photon_added_decomposition(d, "g")
    field = decomposition_field_state(d, dec, "g")
    reference = 1.0 * np.exp(1j * d.mu * d.t)
    grid = GridSpec()
    diff = wigner_difference(field, reference, grid)

    # perturbation scale relative to the coherent peak: ~1e-5..1e-4, accepted
    # within one order of magnitude
    rel_peak = diff.max_abs / diff.ref_peak
    scale_ok = 1e-6 < rel_peak < 1e-3

    # required precision at the measurement point: |dW| / W_ref there, the
    # same-point ratio the 1e-3 estimate refers to (accepted within an order)
    w_ref = wigner_of_state(coherent_state(reference, d.ncut), grid)
    i = int(np.argmin(np.abs(w_ref.im_axis - diff.location.imag)))
    j = int(np.argmin(np.abs(w_ref.re_axis - diff.location.real)))
    precision = diff.max_abs / float(w_ref.values[i, j])
    precision_ok = 1e-4 <= precision <= 1e-2

    crit.finish(
        scale_ok and precision_ok,
        f"max|dW|/peak {rel_peak:.2e}, precision at measurement point {precision:.2e}",
    )


def test_criterion_09_zeta_maps():
    crit = Criterion(9, "validity ratios below one on the high-frequency slice", 5.0)
    p_lq = GupParams.from_gamma(0.5, 1.0, 1.0)
    p_rq = GupParams.from_gamma(5e3, 1.0, 1.0)
    slice_ok = True
    for delta in np.logspace(3, 5, 21):
        cfg = InteractionConfig(omega=1e16, omega0=1e16 + float(delta), coupling=1.0)
        slice_ok = slice_ok and zeta_lq(50, cfg, p_lq) < 1.0 and zeta_rq(50, cfg, p_rq) < 1.0
    cfg_spot = InteractionConfig(omega=1e16, omega0=1e16 + 1e4, coupling=1.0)
    lq = zeta_lq(50, cfg_spot, p_lq)
    rq = zeta_rq(50, cfg_spot, p_rq)
    spot_ok = abs(lq - 4e-4) <= 0.2 * 4e-4 and abs(rq - 4e-4) <= 0.2 * 4e-4
    crit.finish(slice_ok and spot_ok, f"spot values zeta_lq {lq:.2e}, zeta_rq {rq:.2e}")


def test_criterion_10_perturbation_cross_check():
    crit = Criterion(10, "first-order amplitudes vs exact evolution scaling", 30.0)
    c = GupCoefficients(phi=1e-3, chi=0.0, beta=-5e-4, omega=50.0, xi_mag=2e-3)
    lams = (1e-3, 5e-4, 2.5e-4, 1.25e-4)
    rels = []
    for lam in lams:
        cfg = InteractionConfig(omega=50.0, omega0=30.0, coupling=lam)
        rels.append(perturbation_cross_check(2, cfg, c, t=0.35, ncut=10).max_rel_err)
    slope = float(np.polyfit(np.log(lams), np.log(rels), 1)[0])
    crit.finish(abs(slope - 2.0) < 0.1, f"log-log slope {slope:.3f}")


def test_criterion_11_determinism(tmp_path):
    crit = Criterion(11, "replaying a saved run reproduces identical artifacts", 120.0)

    jobs = {
        "rabi": ["rabi", "--set", "points=40", "--set", "periods=2.0"],
        "dispersive": ["dispersive", "--preset", "fig1", "--set", "fidelity_points=4"],
        "wigner-diff": [
            "wigner-diff", "--preset", "fig1",
            "--set", "grid_points=31", "--set", "grid_extent=3.0",
        ],
        "zeta-maps": ["zeta-maps", "--preset", "fig2",
                      "--set", "n_omega=5", "--set", "n_delta=3"],
    }
    all_identical = True
    for name, args in jobs.items():
        first = tmp_path / name / "a"
        second = tmp_path / name / "b"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([*args, "--out", str(first)]) == 0
            assert cli_main([args[0], "--out", str(second),
                             "--config", str(first / "run_config.json")]) == 0
        for path in sorted(first.iterdir()):
            if path.name == "manifest.json":
                continue  # metadata: carries wall time by design
            replay = second / path.name
            if not (replay.exists() and replay.read_bytes() == path.read_bytes()):
                all_identical = False
    crit.finish(all_identical, f"{len(jobs)} commands replayed")
