"""Validity of the rotating-wave truncation under the full GUP interaction.

For weak coupling, first-order perturbation theory from |e,n> under the full
interaction (counter-rotating, quadratic-channel and linear-channel terms
kept) gives three transition amplitudes:

    C_{g,n-1} = coupling*sqrt(n) * (e^{-i(omega+omega0)t} - 1)/(omega+omega0)
    C_{g,n+1} = -coupling*sqrt(n+1)*(1-(n+1)phi)
                * (e^{i(omega-omega0)t} - 1)/(omega-omega0)
    C_{g,n+2} = coupling*xi*sqrt((n+1)(n+2))
                * (e^{i(2omega-omega0)t} - 1)/(2omega-omega0)

The time-averaged magnitudes of the GUP-dependent pieces define two ratios:
zeta_lq weighs the linear channel against the quadratic channel, zeta_rq
weighs the counter-rotating terms against the quadratic channel.  Both below
one means the rotating-wave, quadratic-only model is self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import DegenerateModelError, SingularDenominatorError
from .fock import evolve_on_grid
from .gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    build_full_interaction_hamiltonian,
    quadratic_weight,
)

# weak-coupling requirement for the numeric cross-check
PERTURBATIVE_COUPLING_LIMIT = 1e-3


@dataclass(frozen=True)
class PerturbationAmplitudes:
    """First-order transition amplitudes out of |e,n> at time t."""

    c_gn_minus1: complex
    c_gn_plus1: complex
    c_gn_plus2: complex
    t: float
    n: int


@dataclass(frozen=True)
class ZetaMapSpec:
    """Log-spaced (omega, detuning) sweep for the two validity ratios."""

    n: int
    params: GupParams
    omega_min: float = 1e9
    omega_max: float = 1e17
    n_omega: int = 33
    delta_min: float = 1e3
    delta_max: float = 1e5
    n_delta: int = 17


@dataclass(frozen=True)
class ZetaMap:
    omega_axis: np.ndarray
    delta_axis: np.ndarray
    zeta_lq: np.ndarray  # shape (n_delta, n_omega)
    zeta_rq: np.ndarray
    n: int
    gamma: float
    delta: float
    epsilon: float


@dataclass(frozen=True)
class PerturbationCrossCheck:
    max_abs_err: float
    max_rel_err: float  # relative to the coupling, the expansion parameter


def _check_denominators(omega, omega0) -> None:
    """Refuse resonance lines; omega and omega0 may be floats or arrays."""
    if np.any(omega == omega0):
        raise SingularDenominatorError("omega = omega0: co-rotating denominator vanishes")
    if np.any(omega0 == 2.0 * omega):
        raise SingularDenominatorError("omega0 = 2*omega: two-photon denominator vanishes")


def first_order_amplitudes(
    n: int, cfg: InteractionConfig, c: GupCoefficients, t: float
) -> PerturbationAmplitudes:
    """Evaluate the three first-order amplitudes at time t.

    The n-1 channel vanishes identically for n = 0 (nothing to annihilate).
    """
    _check_denominators(cfg.omega, cfg.omega0)
    lam = cfg.coupling
    w, w0 = cfg.omega, cfg.omega0
    minus1 = lam * math.sqrt(n) * (np.exp(-1j * (w + w0) * t) - 1.0) / (w + w0)
    plus1 = (
        -lam
        * math.sqrt(n + 1)
        * (1.0 - (n + 1) * c.phi)
        * (np.exp(1j * (w - w0) * t) - 1.0)
        / (w - w0)
    )
    plus2 = (
        lam
        * c.xi
        * math.sqrt((n + 1) * (n + 2))
        * (np.exp(1j * (2.0 * w - w0) * t) - 1.0)
        / (2.0 * w - w0)
    )
    return PerturbationAmplitudes(
        c_gn_minus1=complex(minus1),
        c_gn_plus1=complex(plus1),
        c_gn_plus2=complex(plus2),
        t=t,
        n=n,
    )


def _check_ratio_inputs(omega, omega0, p: GupParams) -> float:
    """Refuse resonances, a vanishing quadratic channel and gamma = 0; return
    the quadratic-channel weight 3 delta^2 - 2 epsilon."""
    _check_denominators(omega, omega0)
    quad = quadratic_weight(p.delta, p.epsilon)
    if quad == 0.0:
        raise DegenerateModelError(
            "3*delta^2 = 2*epsilon: the quadratic channel vanishes and the "
            "validity ratios are undefined"
        )
    if p.gamma == 0.0:
        raise SingularDenominatorError("gamma = 0: the ratio diverges")
    return quad


def zeta_lq_at(n: int, omega, omega0, p: GupParams):
    """Linear-channel strength over quadratic-channel strength.

    zeta_lq = sqrt(2(n+2))/(n+1) * delta/(3 delta^2 - 2 epsilon)
              * 1/(gamma sqrt(hbar omega)) * (omega-omega0)/(2 omega-omega0)

    ``omega`` and ``omega0`` (rad/s) are floats or broadcastable arrays.  The
    detuning-ratio factor is taken in absolute value.
    """
    quad = _check_ratio_inputs(omega, omega0, p)
    ratio = np.abs((omega - omega0) / (2.0 * omega - omega0))
    return (
        math.sqrt(2.0 * (n + 2)) / (n + 1)
        * (p.delta / quad)
        * 1.0 / (p.gamma * np.sqrt(HBAR * omega))
        * ratio
    )


def zeta_rq_at(n: int, omega, omega0, p: GupParams):
    """Counter-rotating strength over quadratic-channel strength.

    zeta_rq = sqrt(n)/(n+1)^{3/2} * (omega-omega0)/(omega+omega0)
              * 1/(3 delta^2 - 2 epsilon) * 1/gamma^2 * 1/(hbar omega)

    ``omega`` and ``omega0`` as for ``zeta_lq_at``.
    """
    quad = _check_ratio_inputs(omega, omega0, p)
    ratio = np.abs((omega - omega0) / (omega + omega0))
    return (
        math.sqrt(n) / (n + 1) ** 1.5
        * ratio
        * (1.0 / quad)
        * (1.0 / p.gamma**2)
        * (1.0 / (HBAR * omega))
    )


def zeta_map(spec: ZetaMapSpec) -> ZetaMap:
    """Evaluate both validity ratios over a log-spaced (omega, detuning) grid.

    The detuning axis is omega0 - omega > 0; the sampled ranges stay clear of
    the resonance lines omega = omega0 and omega0 = 2*omega.  Rows run over
    the detuning, columns over omega.
    """
    omega_axis = np.logspace(
        math.log10(spec.omega_min), math.log10(spec.omega_max), spec.n_omega
    )
    delta_axis = np.logspace(
        math.log10(spec.delta_min), math.log10(spec.delta_max), spec.n_delta
    )
    omega = omega_axis[None, :]
    omega0 = omega + delta_axis[:, None]
    return ZetaMap(
        omega_axis=omega_axis,
        delta_axis=delta_axis,
        zeta_lq=zeta_lq_at(spec.n, omega, omega0, spec.params),
        zeta_rq=zeta_rq_at(spec.n, omega, omega0, spec.params),
        n=spec.n,
        gamma=spec.params.gamma,
        delta=spec.params.delta,
        epsilon=spec.params.epsilon,
    )


def perturbation_cross_check(
    n: int,
    cfg: InteractionConfig,
    c: GupCoefficients,
    t: float,
    ncut: int,
) -> PerturbationCrossCheck:
    """Exact evolution under the full interaction vs the first-order formulas.

    Evolves |e,n> under H = omega0/2 sigma3 + omega N + H_full_interaction
    and reads the three amplitudes in the interaction picture.  The
    unperturbed spectrum is the uncorrected one, matching the plain Bohr
    denominators of the first-order amplitudes (the GUP diagonal shifts only
    enter at higher order).

    Every interaction term flips the atom, so even-order corrections cannot
    reach the |g,..> amplitudes: the absolute discrepancy is O(coupling^3),
    i.e. O(coupling^2) relative to the coupling, which is what
    ``max_rel_err`` tracks.
    """
    if ncut < n + 3:
        raise ValueError(f"ncut = {ncut} too small; need at least n + 3 = {n + 3}")
    denom_min = min(cfg.omega + cfg.omega0, abs(cfg.detuning), abs(2.0 * cfg.omega - cfg.omega0))
    if denom_min == 0.0:
        raise SingularDenominatorError("parameters sit on a resonance line")
    if cfg.coupling * max(math.sqrt(n), 1.0) / denom_min > PERTURBATIVE_COUPLING_LIMIT:
        raise ValueError(
            "coupling too strong for the perturbative comparison: "
            f"coupling*max(sqrt(n),1)/min(denominators) = "
            f"{cfg.coupling * max(math.sqrt(n), 1.0) / denom_min:.3g} > "
            f"{PERTURBATIVE_COUPLING_LIMIT:g}"
        )

    dim = ncut + 1
    levels = np.arange(dim, dtype=float)
    h0_diag = np.concatenate([-0.5 * cfg.omega0 + cfg.omega * levels,
                              0.5 * cfg.omega0 + cfg.omega * levels])
    h_total = np.diag(h0_diag).astype(complex) + build_full_interaction_hamiltonian(cfg, c, ncut)

    psi0 = np.zeros(2 * dim, dtype=complex)
    psi0[dim + n] = 1.0
    psi_t = evolve_on_grid(h_total, [t], psi0)[0]

    analytic = first_order_amplitudes(n, cfg, c, t)
    targets = {
        "c_gn_minus1": (n - 1, analytic.c_gn_minus1),
        "c_gn_plus1": (n + 1, analytic.c_gn_plus1),
        "c_gn_plus2": (n + 2, analytic.c_gn_plus2),
    }
    max_abs = 0.0
    for _, (level, expected) in targets.items():
        if level < 0:
            continue
        numeric = np.exp(1j * h0_diag[level] * t) * psi_t[level]
        max_abs = max(max_abs, abs(numeric - expected))
    rel = max_abs / cfg.coupling if cfg.coupling > 0 else 0.0
    return PerturbationCrossCheck(max_abs_err=float(max_abs), max_rel_err=float(rel))
