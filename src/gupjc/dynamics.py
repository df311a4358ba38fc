"""Resonant dynamics of the GUP-corrected model.

Starting from |e,n>, the rotating-wave Hamiltonian confines the state to the
pair {|e,n>, |g,n+1>}.  The first-order-in-phi amplitudes are

    C_e(t) = cos(W t) * [1 - 2(n+1)phi - 4 sqrt(n+1) chi omega / coupling]
    C_g(t) = -i sin(W t) * [1 - 2(n+1)phi]

with W = coupling*sqrt(n+1)*(1 - (n+1)*phi).  The atomic inversion then
oscillates as cos(2 W t), so the quadratic GUP channel slows the Rabi cycle
by the factor (1 - (n+1)*phi).

Two frequency conventions coexist: W above is the amplitude (half) angular
frequency, while the inversion oscillates at 2W.  ``RabiSolution`` reports
the inversion-rate convention, Omega(n) = 2*coupling*sqrt(n+1).

Note that the first-order amplitudes are not exactly normalized: their norm
defect is linear in phi and in chi*omega/coupling.  Exact evolution therefore
deviates from them at first order in those parameters even though the
oscillation frequency itself is accurate to second order; the numeric
validator reports both views.  That exact evolution runs on the 2x2 block
``gup.rwa_block`` alone, so it costs the same at any n and never forms an
optical-scale energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import evolve_on_grid
from .gup import GupCoefficients, InteractionConfig, rwa_block, rwa_block_entries

# "around resonance" for the numeric validator
RESONANCE_TOL_FRACTION = 1e-3

# beyond this the printed first-order expansion is leaving its validity range
CHI_TERM_WARN_THRESHOLD = 0.1


@dataclass(frozen=True)
class RabiSolution:
    """Inversion frequency with and without the GUP correction (rad/s)."""

    n: int
    omega_qg: float
    omega_std: float
    delta_omega: float


@dataclass(frozen=True)
class NumericValidation:
    """Comparison of the first-order amplitudes against exact evolution.

    ``max_amp_err`` compares the amplitudes exactly as printed;
    ``max_amp_err_normalized`` compares after renormalizing the analytic pair
    to unit norm, which isolates the frequency/shape content from the norm
    defect.  ``exact_half_frequency`` is hypot(d, g) of the evolved block
    [[d, g], [g, -d]], whose inversion oscillates at exactly twice it; it is
    directly comparable to the analytic half frequency.
    ``max_numeric_norm_defect`` is max | |C_e|^2 + |C_g|^2 - 1 | of the evolved
    pair, the unitarity of the exact evolution itself.
    """

    max_amp_err: float
    max_inv_err: float
    max_amp_err_normalized: float
    exact_half_frequency: float
    max_norm_defect: float
    max_numeric_norm_defect: float


def amplitude_angular_frequency(n: int, cfg: InteractionConfig, c: GupCoefficients) -> float:
    """Half Rabi frequency coupling*sqrt(n+1)*(1 - (n+1)*phi), rad/s."""
    return cfg.coupling * math.sqrt(n + 1) * (1.0 - (n + 1) * c.phi)


def analytic_amplitudes(
    n: int, cfg: InteractionConfig, c: GupCoefficients, t: float | np.ndarray
) -> tuple:
    """First-order amplitudes (C_e, C_g) for the initial state |e,n>, at a
    time ``t`` or elementwise over an array of times.

    Valid around resonance (|detuning| << coupling).  Emits a warning when
    the chi-channel term 4*sqrt(n+1)*chi*omega/coupling exceeds 0.1, since
    the first-order expansion is then unreliable.
    """
    chi_term = 4.0 * math.sqrt(n + 1) * c.chi * cfg.omega / cfg.coupling
    if abs(chi_term) > CHI_TERM_WARN_THRESHOLD:
        warnings.warn(
            f"chi-channel term 4*sqrt(n+1)*chi*omega/coupling = {chi_term:.3g} "
            "exceeds 0.1; the first-order amplitudes are leaving their validity range",
            RuntimeWarning,
            stacklevel=2,
        )
    w = amplitude_angular_frequency(n, cfg, c)
    phi_factor = 1.0 - 2.0 * (n + 1) * c.phi
    c_e = np.cos(w * t) * (phi_factor - chi_term) + 0.0j
    c_g = -1j * np.sin(w * t) * phi_factor
    return c_e, c_g


def atomic_inversion(
    n: int, cfg: InteractionConfig, c: GupCoefficients, t: float | np.ndarray
) -> float | np.ndarray:
    """Leading-order atomic inversion cos(2 W t) for the initial state |e,n>,
    at a time ``t`` or elementwise over an array of times.

    It differs from |C_e|^2 - |C_g|^2 of the first-order amplitudes at O(phi).
    """
    return np.cos(2.0 * amplitude_angular_frequency(n, cfg, c) * t)


def rabi_shift(n: int, cfg: InteractionConfig, c: GupCoefficients) -> RabiSolution:
    """Inversion frequency Omega(n)*(1 - (n+1)*phi) and its GUP shift."""
    omega_std = 2.0 * cfg.coupling * math.sqrt(n + 1)
    delta_omega = omega_std * ((n + 1) * c.phi)
    return RabiSolution(
        n=n,
        omega_qg=omega_std - delta_omega,
        omega_std=omega_std,
        delta_omega=delta_omega,
    )


def exact_rabi_shift(n, cfg: InteractionConfig, c: GupCoefficients):
    """Exact shift 2 (g0 - hypot(d, g)) of the inversion frequency of
    ``rwa_block(n)`` from its no-GUP resonant value 2 g0, rad/s.

    Here g0 = coupling*sqrt(m), g = g0 (1 - m phi) and m = n + 1, with d from
    the block.  Formed naively, g0 - hypot(d, g) subtracts two numbers of
    order g0 and loses the leading digits of the small shift; the stable form

        2 (g0^2 (2 m phi - m^2 phi^2) - d^2) / (g0 + hypot(d, g))

    subtracts nothing of order g0^2 when m phi and d / g0 are small, and is
    accurate to rounding.  ``n`` may be an integer or an integer array; a
    positive coupling is required.
    """
    if cfg.coupling <= 0:
        raise ValueError("the exact Rabi shift requires a positive coupling")
    n = np.asarray(n, dtype=float)
    d, g = rwa_block_entries(n, cfg, c)
    m = n + 1.0
    g0 = cfg.coupling * np.sqrt(m)
    m_phi = m * c.phi
    return 2.0 * (g0 * g0 * (2.0 * m_phi - m_phi * m_phi) - d * d) / (g0 + np.hypot(d, g))


def validate_against_numeric(
    n: int,
    cfg: InteractionConfig,
    c: GupCoefficients,
    t_grid: np.ndarray,
) -> NumericValidation:
    """Exact evolution of |e,n> under the rotating-wave Hamiltonian vs the
    first-order amplitudes, over a time grid.

    The evolution runs on the block {|e,n>, |g,n+1>} of ``rwa_block``, and the
    amplitudes are compared in the interaction picture, where the block's own
    diagonal phases e^{+-i d t} are removed.  Requires near-resonance,
    |detuning| <= 1e-3 * coupling.

    What to expect: the raw amplitude error is dominated by the norm defect
    of the first-order pair, hence linear in phi; in the chi channel it also
    grows with time because the chi-induced level splitting 8(n+1)chi*omega
    dephases the pair relative to the fixed printed phases.  The normalized
    comparison removes the norm defect (exact in the pure-phi channel), and
    the analytic frequency is accurate to second order in both channels.
    """
    if cfg.coupling <= 0:
        raise ValueError("validation requires a positive coupling")
    if abs(cfg.detuning) > RESONANCE_TOL_FRACTION * cfg.coupling:
        raise ValueError(
            f"|detuning| = {abs(cfg.detuning):.3g} exceeds the resonance tolerance "
            f"{RESONANCE_TOL_FRACTION:g} * coupling"
        )

    block = rwa_block(n, cfg, c)
    t = np.asarray(t_grid, dtype=float)
    states = evolve_on_grid(block, t, np.array([1.0, 0.0]))
    c_e_num, c_g_num = (np.exp(1j * np.outer(t, np.diag(block))) * states).T

    c_e_an, c_g_an = analytic_amplitudes(n, cfg, c, t)

    max_amp_err = float(
        max(np.max(np.abs(c_e_num - c_e_an)), np.max(np.abs(c_g_num - c_g_an)))
    )
    analytic_norm = np.sqrt(np.abs(c_e_an) ** 2 + np.abs(c_g_an) ** 2)
    max_norm_defect = float(np.max(np.abs(analytic_norm**2 - 1.0)))
    max_amp_err_normalized = float(
        max(
            np.max(np.abs(c_e_num - c_e_an / analytic_norm)),
            np.max(np.abs(c_g_num - c_g_an / analytic_norm)),
        )
    )

    inv_num = np.abs(c_e_num) ** 2 - np.abs(c_g_num) ** 2
    max_inv_err = float(np.max(np.abs(inv_num - atomic_inversion(n, cfg, c, t))))
    return NumericValidation(
        max_amp_err=max_amp_err,
        max_inv_err=max_inv_err,
        max_amp_err_normalized=max_amp_err_normalized,
        exact_half_frequency=math.hypot(block[0, 0], block[0, 1]),
        max_norm_defect=max_norm_defect,
        max_numeric_norm_defect=float(
            np.max(np.abs(np.abs(c_e_num) ** 2 + np.abs(c_g_num) ** 2 - 1.0))
        ),
    )
