"""The consistency checks behind ``gupjc verify`` and the acceptance suite.

Each entry of ``CHECKS`` measures one float from a ``VerifyRun`` and a random
generator, and passes when the measured value is below its ``tolerance``.  A
check that bounds a value from both sides, or a ratio, measures a distance or
a quotient instead, so that "below the tolerance" always means "passes".

A ``VerifyRun`` holds one run's verify parameters (``draws``,
``grid_points``) and the Wigner maps of the eight fixture states that the
three Wigner checks read.  The first Wigner check to run evaluates all eight
in one ``wigner_maps`` pass, so in registry order ``wigner-pointwise``'s
elapsed time carries that pass and the other two read its maps.  The maps
live as long as the run object: ``gupjc verify`` makes one per run.

The acceptance suite allows every check 0.5 s at ``grid_points = 201``;
the slowest, ``wigner-pointwise``, takes about 30 ms there on a 2-vCPU Xeon.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constants import GAMMA_SI_DIVISOR
from .dispersive import (
    DispersiveConfig,
    commutator_check,
    displaced_projections,
    dyson_consistency_check,
    evolve_dispersive_series,
    interaction_picture_propagate,
    photon_added_decomposition,
)
from .dynamics import exact_rabi_shift, rabi_shift, validate_against_numeric
from .fock import (
    build_annihilation,
    coherent_state,
    evolve_on_grid,
    fock_state,
    laguerre,
    photon_added_coherent_state,
)
from .gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    build_rwa_hamiltonian,
    derive_coefficients,
    quadratic_coefficients,
    rwa_block,
)
from .rwa_validity import perturbation_cross_check, zeta_lq_at, zeta_rq_at
from .wigner import TWO_OVER_PI, GridSpec, WignerGrid, wigner_maps

# cutoff of the |alpha| = 1 states: the first amplitude it drops is 4e-10,
# which moves the coherent map by 4e-11, far inside the pointwise tolerance,
# while each further level adds recurrence work to every map
_WIGNER_NCUT = 20

# the coherent fixture's amplitude: a complex alpha makes its map depend on
# the conjugate in rho_{m,n} = c_m c*_n, which real amplitudes cannot show
_WIGNER_ALPHA = cmath.exp(1j * math.pi / 3.0)


@dataclass
class VerifyRun:
    """One verify run: its parameters, and the Wigner maps its checks share."""

    params: dict

    @cached_property
    def wigner_maps(self) -> list[WignerGrid]:
        """Maps of |alpha = e^{i pi/3}>, |0>..|5> and the one-photon-added
        coherent state at alpha = 1, in that order, on the grid_points grid
        over [-4, 4]^2."""
        n = self.params["grid_points"]
        states = [coherent_state(_WIGNER_ALPHA, _WIGNER_NCUT),
                  *(fock_state(k, max(k, 1)) for k in range(6)),
                  photon_added_coherent_state(1.0, 1, _WIGNER_NCUT)]
        return wigner_maps(states, GridSpec(-4.0, 4.0, -4.0, 4.0, n, n))


@dataclass(frozen=True)
class Check:
    """One named check: ``measure(run, rng)`` must come out below ``tolerance``."""

    name: str
    tolerance: float
    measure: Callable[[VerifyRun, np.random.Generator], float]

    def run(self, run: VerifyRun, seed: int) -> tuple[float, float]:
        """(measured value, elapsed seconds), with a generator seeded afresh."""
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        measured = float(self.measure(run, rng))
        return measured, time.perf_counter() - start


def coefficient_identity(run: VerifyRun, rng: np.random.Generator) -> float:
    """Worst scaled residual of 8 chi = phi + 2 beta over ``draws`` random
    (gamma0, delta, epsilon, omega)."""
    # one row per draw; its columns go through derive_coefficients' closed form
    # in one array pass, which gives each draw the same bits as a scalar call
    gamma0, delta, epsilon, omega = rng.uniform(
        [0.0, -3.0, -3.0, 1e9], [1e8, 3.0, 3.0, 1e17], size=(run.params["draws"], 4)
    ).T
    phi, chi, beta = quadratic_coefficients(gamma0 / GAMMA_SI_DIVISOR, delta, epsilon, omega)
    scale = np.abs(phi) + 2.0 * np.abs(beta) + 8.0 * np.abs(chi)
    resolved = scale > 0.0
    if not resolved.any():
        return 0.0
    residual = np.abs(8.0 * chi - (phi + 2.0 * beta))
    return float(np.max(residual[resolved] / scale[resolved]))


def ladder_commutator(run: VerifyRun, rng: np.random.Generator) -> float:
    """max |[a, a^dag] - 1| at ncut = 12, off the last row, where truncation
    breaks it by construction."""
    ncut = 12
    a = build_annihilation(ncut)
    comm = a @ a.conj().T - a.conj().T @ a - np.eye(ncut + 1)
    return float(np.max(np.abs(comm[: ncut - 1, : ncut - 1])))


def standard_jcm_oracle(run: VerifyRun, rng: np.random.Generator) -> float:
    """Worst amplitude error of exact evolution against the cos/sin amplitudes
    at gamma = 0, for n = 0, 1, 5, 20 over ten Rabi periods."""
    cfg = InteractionConfig(omega=10.0, omega0=10.0, coupling=1.0)
    c = derive_coefficients(GupParams(0.0, 1.0, 1.0), cfg.omega)
    worst = 0.0
    for n in (0, 1, 5, 20):
        period = 2.0 * math.pi / (2.0 * cfg.coupling * math.sqrt(n + 1))
        t_grid = np.linspace(0.0, 10.0 * period, 400)
        worst = max(worst, validate_against_numeric(n, cfg, c, t_grid).max_amp_err)
    return worst


def rabi_shift_closed_form(run: VerifyRun, rng: np.random.Generator) -> float:
    """Largest gap, in units of Omega(n), between the closed-form Rabi shift
    Omega(n) (n+1) phi and the exact shift of ``rwa_block(n)``, for n = 0..10
    on resonant models with chi != 0 over a range of phi and chi.

    The gap is the second-order remainder, about (d/g0)^2 / 2 with
    d = 4 (n+1) chi omega and g0 = coupling sqrt(n+1); every model keeps
    ((n+1) phi)^2 + (d/g0)^2 below 1e-12, so the remainder sits below the
    tolerance and a first-order error, or a d off by a factor of 2, does not.
    The exact shift takes two routes: the stable form of ``exact_rabi_shift``,
    whose numerator restates phi, and 2 g0 - 2 lambda from the top
    eigenvalue lambda of each block, which reads the coupling element g
    itself.  The nine models are (9, 1) columns of one set of coefficients,
    so one stack of blocks and one eigvalsh call serve them all.
    """
    cfg = InteractionConfig(omega=1e6, omega0=1e6, coupling=1.0)
    n = np.arange(11)
    phi = np.repeat([-2e-8, 5e-9, 2e-8], 3)[:, None]
    chi = np.tile([-6.5e-14, 2e-14, 6.5e-14], 3)[:, None]
    c = GupCoefficients(phi=phi, chi=chi, beta=(8.0 * chi - phi) / 2.0, omega=cfg.omega)
    sols = [rabi_shift(k, cfg, c) for k in n.tolist()]
    closed = np.hstack([sol.delta_omega for sol in sols])
    omega_std = np.array([sol.omega_std for sol in sols])
    top = np.linalg.eigvalsh(rwa_block(n, cfg, c))[..., 1]
    routes = (exact_rabi_shift(n, cfg, c), omega_std - 2.0 * top)
    return max(float(np.max(np.abs(shift - closed) / omega_std)) for shift in routes)


def rabi_shift_magnitude(run: VerifyRun, rng: np.random.Generator) -> float:
    """Decades between the n = 1 Rabi shift at the electroweak benchmark
    (gamma = 1e3, omega = 1e16 rad/s, coupling 1 rad/s) and 1e-12 rad/s:
    below 1 means it lies in (1e-13, 1e-11) rad/s."""
    cfg = InteractionConfig(omega=1e16, omega0=1e16, coupling=1.0)
    sol = rabi_shift(1, cfg, derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), cfg.omega))
    if not sol.delta_omega > 0.0:
        return math.inf
    return abs(math.log10(sol.delta_omega) + 12.0)


def commutator_scaling(run: VerifyRun, rng: np.random.Generator) -> float:
    """|slope - 2| of the effective-Hamiltonian commutator residual against
    phi, log-log over four halvings at ncut = 20."""
    cfg = InteractionConfig(omega=1e6, omega0=1e6 + 1e4, coupling=1.0)
    phis = [1e-5, 5e-6, 2.5e-6, 1.25e-6]
    residuals = [
        commutator_check(cfg, GupCoefficients(phi=p, chi=0.0, beta=-p / 2.0, omega=cfg.omega),
                         ncut=20)
        for p in phis
    ]
    return abs(float(np.polyfit(np.log(phis), np.log(residuals), 1)[0]) - 2.0)


def _fig1_dispersive(gamma: float = 1e3) -> DispersiveConfig:
    c = derive_coefficients(GupParams.from_gamma(gamma, 1.0, 1.0), 1e15)
    return DispersiveConfig(mu=1e5, phi=c.phi, alpha=1.0, t=1e3)


def photon_added_normalizers(run: VerifyRun, rng: np.random.Generator) -> float:
    """Worst relative gap between k_m^2 = L_m(-|alpha|^2) m! and the Fock-basis
    norm^2 of a^dag^m |alpha>, sum_n |c_n|^2 (n+1)...(n+m), for m = 1, 2 and
    alpha = 0.5, 1, 2 at ncut = 40."""
    ncut = 40
    n = np.arange(ncut + 1.0)
    rising = {1: n + 1.0, 2: (n + 1.0) * (n + 2.0)}
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        weights = np.abs(coherent_state(alpha, ncut).amps) ** 2
        for m, factors in rising.items():
            closed = laguerre(m, -alpha**2) * math.factorial(m)
            worst = max(worst, abs(float(np.sum(weights * factors)) - closed) / closed)
    return worst


def photon_added_overlap(run: VerifyRun, rng: np.random.Generator) -> float:
    """|slope - 4| of the overlap defect 1 - |<exact|approx>|^2 of the
    first-order decomposition against s = 2 phi mu t, log-log over
    gamma = 5e3, 1e4, 2e4 at fig1's other settings.

    The decomposition drops terms of order s^2, so the defect is quartic in
    s; a decomposition that dropped a first-order term would give a slope of
    2.  At fig1's own gamma the defect rounds to 0, so the check runs where
    it reads 7.6e-11 to 4.9e-6, with the expansion parameter below 0.02.
    """
    s_values, defects = [], []
    for gamma in (5e3, 1e4, 2e4):
        d = _fig1_dispersive(gamma)
        exact = evolve_dispersive_series(d, 40, [d.t], "g")[0]
        dec = photon_added_decomposition(d, "g")
        overlap = np.vdot(displaced_projections(exact, dec.beta, 40), dec.displaced.amps)
        defects.append(1.0 - abs(overlap) ** 2)
        s_values.append(2.0 * d.phi * d.mu * d.t)
    if not min(defects) > 0.0:
        return math.inf
    return abs(float(np.polyfit(np.log(s_values), np.log(defects), 1)[0]) - 4.0)


def photon_added_projection(run: VerifyRun, rng: np.random.Generator) -> float:
    """Worst |(gap/s) / limit - 1| over the atom in g and in e at fig1
    (s = 2 phi mu t = 2.1e-5).  The gap is the distance from the exact state's
    projection on D(beta)|1> to the decomposition's displaced |1> amplitude,
    relative to the projection.

    Displaced by beta, the exact field is e^{-i s X^2}|0> in g and
    e^{-i mu t} e^{i s X^2}|0> in e, with X = n_b and n_b + 1 for
    n_b = (a^dag + beta*)(a + beta); the decomposition keeps its first order.
    So gap/s tends to |<1|X^4|0>| / (2 |<1|X^2|0>|): 37/6 in g and 99/10 in e
    at |beta| = 1, and the measure is of order s.  It reads any error in the
    exact phases: with the GUP phase rounded at the scale of mu t = 1e8 rad,
    it reads 1.1e-2 in g and 0.20 in e.
    """
    d = _fig1_dispersive()
    s = 2.0 * d.phi * d.mu * d.t
    worst = 0.0
    for atom, limit in (("g", 37.0 / 6.0), ("e", 99.0 / 10.0)):
        exact = evolve_dispersive_series(d, 40, [d.t], atom)[0]
        dec = photon_added_decomposition(d, atom)
        projection = displaced_projections(exact, dec.beta, 40)[1]
        gap = abs(projection - dec.displaced.amps[1]) / abs(projection)
        worst = max(worst, abs(gap / s / limit - 1.0))
    return worst


def wigner_pointwise(run: VerifyRun, rng: np.random.Generator) -> float:
    """Worst pointwise error of the Wigner maps of |alpha = e^{i pi/3}> and
    |0>..|5> against their closed forms, on the grid_points grid over
    [-4, 4]^2."""
    maps = run.wigner_maps[:7]
    re_axis, im_axis = maps[0].re_axis, maps[0].im_axis
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    r2 = np.abs(zz) ** 2
    exact = [TWO_OVER_PI * np.exp(-2.0 * np.abs(zz - _WIGNER_ALPHA) ** 2),
             *(TWO_OVER_PI * (-1.0) ** n * laguerre(n, 4.0 * r2) * np.exp(-2.0 * r2)
               for n in range(6))]
    return max(float(np.max(np.abs(w.values - e))) for w, e in zip(maps, exact))


def wigner_integral(run: VerifyRun, rng: np.random.Generator) -> float:
    """Worst |integral of W - 1| over the maps of |0>..|5> and of the one-
    photon-added coherent state.  The coherent map is left out: within the
    pointwise tolerance of its Gaussian at every grid point, its integral is
    within 1e-6 of the Gaussian's, which is 1."""
    return max(abs(w.integral() - 1.0) for w in run.wigner_maps[1:])


def wigner_negativity(run: VerifyRun, rng: np.random.Generator) -> float:
    """Minimum of the one-photon-added coherent state's Wigner map: below 0
    means non-classical."""
    return float(np.min(run.wigner_maps[7].values))


# the fig2 and fig3 models, whose validity ratios are about 4e-4 at
# omega = 1e16 rad/s and detuning 1e4 rad/s
_ZETA_LQ_MODEL = GupParams.from_gamma(0.5, 1.0, 1.0)
_ZETA_RQ_MODEL = GupParams.from_gamma(5e3, 1.0, 1.0)


def zeta_spot_values(run: VerifyRun, rng: np.random.Generator) -> float:
    """Worst relative deviation of zeta_lq (fig2) and zeta_rq (fig3) from 4e-4
    at n = 50, omega = 1e16 rad/s and detuning 1e4 rad/s."""
    lq = zeta_lq_at(50, 1e16, 1e16 + 1e4, _ZETA_LQ_MODEL)
    rq = zeta_rq_at(50, 1e16, 1e16 + 1e4, _ZETA_RQ_MODEL)
    return max(abs(lq - 4e-4), abs(rq - 4e-4)) / 4e-4


def zeta_slice(run: VerifyRun, rng: np.random.Generator) -> float:
    """Largest of those two ratios over 21 detunings from 1e3 to 1e5 rad/s at
    omega = 1e16 rad/s."""
    omega0 = 1e16 + np.logspace(3, 5, 21)
    return float(max(np.max(zeta_lq_at(50, 1e16, omega0, _ZETA_LQ_MODEL)),
                     np.max(zeta_rq_at(50, 1e16, omega0, _ZETA_RQ_MODEL))))


def perturbation_scaling(run: VerifyRun, rng: np.random.Generator) -> float:
    """|slope - 2| of the first-order amplitudes' relative error against the
    coupling, log-log over four halvings."""
    c = GupCoefficients(phi=1e-3, chi=0.0, beta=-5e-4, omega=50.0, xi_mag=2e-3)
    lams = (1e-3, 5e-4, 2.5e-4, 1.25e-4)
    errs = [
        perturbation_cross_check(2, InteractionConfig(omega=50.0, omega0=30.0, coupling=lam),
                                 c, t=0.35, ncut=10).max_rel_err
        for lam in lams
    ]
    return abs(float(np.polyfit(np.log(lams), np.log(errs), 1)[0]) - 2.0)


_DYSON_CFG = InteractionConfig(omega=200.0, omega0=280.0, coupling=1.5)
_DYSON_COEFFS = GupCoefficients(phi=1e-4, chi=0.0, beta=-5e-5, omega=200.0)
_DYSON_T = 0.05 / _DYSON_CFG.mu


def dyson_fidelity(run: VerifyRun, rng: np.random.Generator) -> float:
    """Infidelity of effective-Hamiltonian evolution against exact
    interaction-picture evolution, in units of the squared dropped term."""
    check = dyson_consistency_check(_DYSON_CFG, _DYSON_COEFFS, ncut=18, t=_DYSON_T)
    return (1.0 - check.fidelity) / check.dropped_term_mag**2


def block_propagator(run: VerifyRun, rng: np.random.Generator) -> float:
    """Largest amplitude gap between the block propagator
    (``evolve_rwa_blocks`` through ``interaction_picture_propagate``) and a
    dense lab-frame evolution of the same state."""
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    h_dense = build_rwa_hamiltonian(_DYSON_CFG, _DYSON_COEFFS, 18)
    evolved = evolve_on_grid(h_dense, [_DYSON_T], psi0)[0]
    dense = np.exp(1j * _DYSON_T * np.diag(h_dense)) * evolved
    blocks = interaction_picture_propagate(_DYSON_CFG, _DYSON_COEFFS, 18, _DYSON_T, psi0)
    return float(np.max(np.abs(blocks - dense)))


CHECKS: tuple[Check, ...] = (
    Check("coefficient-identity", 1e-14, coefficient_identity),
    Check("ladder-commutator", 1e-12, ladder_commutator),
    Check("standard-jcm-oracle", 1e-9, standard_jcm_oracle),
    Check("rabi-shift-closed-form", 1e-12, rabi_shift_closed_form),
    Check("rabi-shift-magnitude", 1.0, rabi_shift_magnitude),
    Check("commutator-scaling", 0.1, commutator_scaling),
    Check("photon-added-normalizers", 1e-10, photon_added_normalizers),
    Check("photon-added-overlap", 0.05, photon_added_overlap),
    Check("photon-added-projection", 1e-3, photon_added_projection),
    Check("wigner-pointwise", 1e-8, wigner_pointwise),
    Check("wigner-integral", 1e-3, wigner_integral),
    Check("wigner-negativity", 0.0, wigner_negativity),
    Check("zeta-spot-values", 0.2, zeta_spot_values),
    Check("zeta-slice", 1.0, zeta_slice),
    Check("perturbation-scaling", 0.1, perturbation_scaling),
    Check("dyson-fidelity", 10.0, dyson_fidelity),
    Check("block-propagator", 1e-8, block_propagator),
)
