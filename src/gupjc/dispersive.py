"""Large-detuning (dispersive) regime and photon-added coherent states.

Far from resonance the rotating-wave model reduces to the effective
Hamiltonian

    H_eff/hbar = mu * (sigma3*(N - 2*N^2*phi) + |e><e|*(1 - 2*phi - 4*N*phi))

with mu = coupling^2/detuning.  The Hamiltonian is diagonal in the Fock
basis, so a coherent state only acquires number-dependent phases.  It is
held as its two diagonals, one per atomic level.  Expanding
those phases to first order in phi turns the evolved state into a
superposition of the rotated coherent state with its one- and two-photon-
added companions, which is the experimentally interesting signature: photon
addition makes the field state non-classical.

The paper obtains H_eff as (coupling^2/detuning) [A, A^dag] with the dressed
coupling operator A = sigma+ a (1 - N phi).  A is one band: it takes |g,n+1>
to |e,n> with weight f_n = sqrt(n+1) (1 - (n+1) phi), the element
``gup._rwa_coupling_element`` writes.  So the commutator is diagonal too,
-f_{n-1}^2 on |g,n> and f_n^2 on |e,n>, and A psi is f_n psi_{g,n+1} on the
excited level; both checks below use these forms and build no operator.

The Dyson consistency check compares the effective evolution with the exact
rotating-wave evolution, which is propagated block by block on the pairs
{|e,n>, |g,n+1>} of ``gup.rwa_block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DispersiveRegimeError, LinearityError
from .fock import FockVector, _add_photons, coherent_state, evolve_on_grid, laguerre
from .gup import GupCoefficients, InteractionConfig, _rwa_coupling_element, rwa_block

# required ratio |detuning| / (coupling * sqrt(ncut))
DISPERSIVE_RATIO_MIN = 10.0

# 2*phi*mu*t*<n^2> must stay below this for the first-order expansion
LINEAR_EXPANSION_LIMIT = 0.1


@dataclass(frozen=True)
class DispersiveConfig:
    """Inputs for dispersive evolution of a coherent state.

    ``mu`` is the dispersive rate coupling^2/detuning (rad/s), ``phi`` the
    quadratic GUP coefficient at the field frequency, ``alpha`` the initial
    coherent amplitude, ``t`` the evolution time and ``ncut`` the cutoff.
    """

    mu: float
    phi: float
    alpha: complex
    t: float
    ncut: int

    @property
    def mean_square_photon(self) -> float:
        """Exact coherent-state moment <n^2> = |alpha|^4 + |alpha|^2."""
        a2 = abs(self.alpha) ** 2
        return a2 * a2 + a2

    @property
    def linear_expansion_parameter(self) -> float:
        """2*phi*mu*t*<n^2>, the size of the dropped quadratic phase terms."""
        return abs(2.0 * self.phi * self.mu * self.t) * self.mean_square_photon

    @property
    def valid_linear(self) -> bool:
        return self.linear_expansion_parameter < LINEAR_EXPANSION_LIMIT

    def linear_time_bound(self) -> float:
        """Time scale 1/(phi*mu) below which the expansion holds."""
        denom = abs(self.phi * self.mu)
        return math.inf if denom == 0.0 else 1.0 / denom


@dataclass(frozen=True)
class PhotonAddedDecomposition:
    """The first-order state and its coefficients over the photon-added family.

    ``state`` is the field base_amp*|coh> + pacs1_amp*|coh,1> +
    pacs2_amp*|coh,2>, where |coh,m> are unit-norm m-photon-added coherent
    states at the rotated amplitude ``beta``, truncated at ``ncut``.  Its
    ``tail_weight`` is the weight that |coh> at ``ncut`` discarded, and its
    norm differs from 1 only through that truncation.  ``normalization`` is
    the norm N of the raw first-order superposition, formed in the displaced
    frame below, so it does not depend on ``ncut``.

    ``displaced`` is the same field in the frame displaced by ``beta``,
    D(beta)^dag state, which lies on |0>, |1>, |2> exactly: since
    a^dag^m |beta> = D(beta) (a^dag + beta*)^m |0>, the companions become

        v1 = (beta* |0> + |1>) / k1,
        v2 = (beta*^2 |0> + 2 beta* |1> + sqrt(2) |2>) / k2,

    with k_m = sqrt(L_m(-|beta|^2) m!) in closed form, so no cutoff enters
    it, and |coh> becomes |0>.
    """

    base_amp: complex
    pacs1_amp: complex
    pacs2_amp: complex
    normalization: float
    beta: complex
    state: FockVector
    displaced: FockVector


@dataclass(frozen=True)
class DysonCheck:
    fidelity: float
    dropped_term_mag: float


def _effective_diagonals(mu: float, phi: float, ncut: int) -> tuple[np.ndarray, np.ndarray]:
    """(ground, excited) diagonal entries of H_eff/hbar: -mu*(n - 2n^2 phi)
    on |g,n> and mu*(n - 2n^2 phi + 1 - 2phi - 4n phi) on |e,n>."""
    n = np.arange(ncut + 1, dtype=float)
    g = -mu * (n - 2.0 * n**2 * phi)
    e = mu * (n - 2.0 * n**2 * phi + 1.0 - 2.0 * phi - 4.0 * n * phi)
    return g, e


def _require_dispersive(cfg: InteractionConfig, ncut: int) -> None:
    scale = cfg.coupling * math.sqrt(ncut)
    if scale > 0 and abs(cfg.detuning) < DISPERSIVE_RATIO_MIN * scale:
        raise DispersiveRegimeError(
            f"|detuning| / (coupling*sqrt(ncut)) = {abs(cfg.detuning) / scale:.3g} "
            f"< {DISPERSIVE_RATIO_MIN:g}; not in the dispersive regime"
        )


def commutator_check(cfg: InteractionConfig, c: GupCoefficients, ncut: int) -> float:
    """Residual between (coupling^2/detuning)*[A, A^dag] and the effective
    Hamiltonian, restricted to the interior Fock block.

    With A = sigma+ a (1 - N phi) the commutator reproduces the effective
    Hamiltonian up to O(phi^2 n^3) terms; the residual therefore scales as
    phi^2 under parameter halving.  The top two Fock rows are excluded since
    the truncated operator product is wrong there by construction.  It
    requires the dispersive regime.

    Both sides are diagonal, so the residual compares diagonals on the
    interior rows n = 0..ncut-2: -f_{n-1}^2 (0 at n = 0) against the ground
    level and f_n^2 against the excited level, each times coupling^2/detuning.
    """
    if ncut < 3:
        raise ValueError("ncut must be at least 3")
    _require_dispersive(cfg, ncut)
    g, e = _effective_diagonals(cfg.mu, c.phi, ncut)
    f = _rwa_coupling_element(np.arange(ncut - 1), c)
    f2 = f * f
    scale = cfg.coupling**2 / cfg.detuning
    ground = -np.concatenate([[0.0], f2[:-1]]) * scale - g[: ncut - 1]
    excited = f2 * scale - e[: ncut - 1]
    return float(max(np.max(np.abs(ground)), np.max(np.abs(excited))))


def evolve_dispersive_series(
    d: DispersiveConfig, times, initial_atom: str = "g"
) -> np.ndarray:
    """Exact dispersive evolution of |atom> |alpha> at each of ``times`` in
    place of ``d.t``: per-level phases, no expansion.

    H_eff is diagonal, so the atom stays in ``initial_atom``; each row is the
    field amplitudes of that level, shape (len(times), ncut+1).  |alpha> is
    built once for the whole series, and each row has the bits of a call at
    its time alone.
    """
    coh = coherent_state(d.alpha, d.ncut)
    g_diag, e_diag = _effective_diagonals(d.mu, d.phi, d.ncut)
    if initial_atom not in ("g", "e"):
        raise ValueError("initial_atom must be 'g' or 'e'")
    diag = g_diag if initial_atom == "g" else e_diag
    return coh.amps * np.exp(-1j * diag * np.asarray(times, dtype=float)[:, None])


def photon_added_decomposition(
    d: DispersiveConfig, initial_atom: str = "g"
) -> PhotonAddedDecomposition:
    """First-order decomposition of the dispersively evolved coherent state.

    Ground start:
        (1/N) * (|coh(b)> - i*2*alpha*phi*mu*t*(e^{i mu t} k1 |coh(b),1>
                 + e^{2 i mu t} alpha k2 |coh(b),2>)),  b = alpha e^{i mu t}
    Excited start:
        (1/N) * (e^{-i mu t}(1 + i 2 phi mu t)|coh(b)> + i 2 phi mu alpha t *
                 (3 k1 e^{-2 i mu t}|coh(b),1> + alpha k2 e^{-3 i mu t}|coh(b),2>)),
        b = alpha e^{-i mu t}

    with k_m = sqrt(L_m(-|alpha|^2) m!).  The normalization N is the norm of
    the raw superposition in the frame displaced by b, where it lies on |0>,
    |1>, |2> exactly, so N does not depend on the cutoff.
    """
    if not d.valid_linear:
        raise LinearityError(
            f"2*phi*mu*t*<n^2> = {d.linear_expansion_parameter:.3g} >= "
            f"{LINEAR_EXPANSION_LIMIT:g}; first-order expansion invalid for "
            f"t beyond ~{d.linear_time_bound():.3g} s"
        )
    alpha = complex(d.alpha)
    a2 = abs(alpha) ** 2
    k1 = math.sqrt(laguerre(1, -a2) * 1.0)
    k2 = math.sqrt(laguerre(2, -a2) * 2.0)
    rot = np.exp(1j * d.mu * d.t)
    s = 2.0 * d.phi * d.mu * d.t
    if initial_atom == "g":
        u_base = 1.0 + 0.0j
        u1 = -1j * s * alpha * rot * k1
        u2 = -1j * s * alpha**2 * rot**2 * k2
        beta = alpha * rot
    elif initial_atom == "e":
        u_base = np.conj(rot) * (1.0 + 1j * s)
        u1 = 1j * s * alpha * 3.0 * k1 * np.conj(rot) ** 2
        u2 = 1j * s * alpha**2 * k2 * np.conj(rot) ** 3
        beta = alpha * np.conj(rot)
    else:
        raise ValueError("initial_atom must be 'g' or 'e'")
    # D(beta)^dag a^dag^m |beta> = (a^dag + beta*)^m |0>
    b = np.conj(beta)

    def in_displaced_frame(c0, c1, c2):
        return (np.array([c0, 0.0, 0.0]) + c1 * np.array([b, 1.0, 0.0]) / k1
                + c2 * np.array([b * b, 2.0 * b, math.sqrt(2.0)]) / k2)

    norm = float(np.linalg.norm(in_displaced_frame(u_base, u1, u2)))
    base_amp, pacs1_amp, pacs2_amp = complex(u_base) / norm, complex(u1) / norm, complex(u2) / norm
    displaced = FockVector(2, in_displaced_frame(base_amp, pacs1_amp, pacs2_amp))
    coh = coherent_state(beta, d.ncut)
    base = coh.amps
    pacs1 = _add_photons(base, beta, 1).amps
    pacs2 = _add_photons(base, beta, 2).amps
    state = FockVector(d.ncut, base_amp * base + pacs1_amp * pacs1 + pacs2_amp * pacs2,
                       tail_weight=coh.tail_weight)
    return PhotonAddedDecomposition(base_amp, pacs1_amp, pacs2_amp, norm, complex(beta), state,
                                    displaced)


def interaction_picture_propagate(
    cfg: InteractionConfig,
    c: GupCoefficients,
    ncut: int,
    t: float,
    psi0: np.ndarray,
) -> np.ndarray:
    """Exact interaction-picture state exp(i H0 t) exp(-i (H0+HI) t) psi0.

    H0 is the atomic term plus the GUP-corrected field diagonal and HI the
    rotating-wave coupling.  Both preserve each pair {|e,n>, |g,n+1>}, so the
    propagator acts on the amplitudes at [ncut+1+n, n+1] as exp(-i B t) for
    B = ``rwa_block(n)``, followed by the free phases e^{+-i d t} of its
    diagonal.  |g,0> and the top level |e,ncut> are uncoupled and unchanged.
    """
    dim = ncut + 1
    psi = np.array(psi0, dtype=complex)
    blocks = np.reshape([rwa_block(n, cfg, c) for n in range(ncut)], (ncut, 2, 2))
    excited, ground = dim + np.arange(ncut), np.arange(1, dim)
    pairs = np.stack([psi[excited], psi[ground]], axis=1)
    free = np.exp(1j * t * np.diagonal(blocks, axis1=1, axis2=2))
    evolved = free * evolve_on_grid(blocks, [t], pairs)[:, 0]
    psi[excited], psi[ground] = evolved[:, 0], evolved[:, 1]
    return psi


def dyson_consistency_check(
    cfg: InteractionConfig,
    c: GupCoefficients,
    ncut: int,
    t: float,
    alpha: complex = 1.0,
    initial_atom: str = "g",
) -> DysonCheck:
    """Fidelity between exact interaction-picture evolution and the effective
    Hamiltonian, plus the magnitude of the dropped first-order term.

    The dropped term is coupling*||A psi0||/|detuning| in the initial state,
    the smallness parameter of the dispersive truncation; the fidelity defect
    scales with its square.  A psi0 is f_n psi0[|g,n+1>] on |e,n>, so an
    excited start gives 0.
    """
    _require_dispersive(cfg, ncut)
    coh = coherent_state(alpha, ncut)
    zeros = np.zeros(ncut + 1, dtype=complex)
    if initial_atom == "g":
        psi0 = np.concatenate([coh.amps, zeros])
    elif initial_atom == "e":
        psi0 = np.concatenate([zeros, coh.amps])
    else:
        raise ValueError("initial_atom must be 'g' or 'e'")

    psi_ip = interaction_picture_propagate(cfg, c, ncut, t, psi0)
    g, e = _effective_diagonals(cfg.mu, c.phi, ncut)
    psi_eff = np.exp(-1j * np.concatenate([g, e]) * t) * psi0
    fidelity = abs(np.vdot(psi_ip, psi_eff)) ** 2

    a_psi = _rwa_coupling_element(np.arange(ncut), c) * psi0[1 : ncut + 1]
    dropped = cfg.coupling * float(np.linalg.norm(a_psi)) / abs(cfg.detuning)
    return DysonCheck(fidelity=float(fidelity), dropped_term_mag=dropped)
