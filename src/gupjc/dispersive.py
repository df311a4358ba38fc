"""Large-detuning (dispersive) regime and photon-added coherent states.

Far from resonance the rotating-wave model reduces to the effective
Hamiltonian

    H_eff/hbar = mu * (sigma3*(N - 2*N^2*phi) + |e><e|*(1 - 2*phi - 4*N*phi))

with mu = coupling^2/detuning.  The Hamiltonian is diagonal in the Fock
basis, so a coherent state only acquires number-dependent phases, from the
levels of ``dispersive_levels``, the one place they are written.  Expanding
those phases to first order in phi turns the evolved state into a
superposition of the rotated coherent state with its one- and two-photon-
added companions, which is the experimentally interesting signature: photon
addition makes the field state non-classical.  That field is held only on
|0>, |1>, |2> of the frame displaced by the rotated amplitude, and the exact
state meets it there, through ``displaced_projections``.

The paper obtains H_eff as (coupling^2/detuning) [A, A^dag] with the dressed
coupling operator A = sigma+ a (1 - N phi).  A is one band: it takes |g,n+1>
to |e,n> with weight f_n = sqrt(n+1) (1 - (n+1) phi), the element
``gup._rwa_coupling_element`` writes.  So the commutator is diagonal too,
-f_{n-1}^2 on |g,n> and f_n^2 on |e,n>, and A psi is f_n psi_{g,n+1} on the
excited level; both checks below use these forms and build no operator.

The Dyson consistency check compares the effective evolution with the exact
rotating-wave evolution, which ``dynamics.evolve_rwa_blocks`` propagates on
the pairs {|e,n>, |g,n+1>} of ``gup.rwa_block``, all in one stack.

H_eff holds no term in chi.  The field's own free term in
``gup.build_rwa_hamiltonian`` carries the Kerr term -4 omega chi (n^2 + n),
and chi vanishes only where delta^2 = epsilon, as at the paper's
delta = epsilon = 1.  So the dispersive commands refuse every other model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_rwa_blocks
from .errors import DispersiveRegimeError, LinearityError
from .fock import FockVector, coherent_state, laguerre
from .gup import LINEAR_EXPANSION_LIMIT, GupCoefficients, InteractionConfig, _rwa_coupling_element

# required ratio |detuning| / (coupling * sqrt(ncut))
DISPERSIVE_RATIO_MIN = 10.0


@dataclass(frozen=True)
class DispersiveConfig:
    """Inputs for dispersive evolution of a coherent state.

    ``mu`` is the dispersive rate coupling^2/detuning (rad/s), ``phi`` the
    quadratic GUP coefficient at the field frequency, ``alpha`` the initial
    coherent amplitude and ``t`` the evolution time; it holds no cutoff.
    """

    mu: float
    phi: float
    alpha: complex
    t: float

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
    """The first-order field's coefficients over the photon-added family.

    The field is base_amp*|coh> + pacs1_amp*|coh,1> + pacs2_amp*|coh,2>,
    where |coh,m> are unit-norm m-photon-added coherent states at the rotated
    amplitude ``beta``.  ``normalization`` is the norm N of the raw
    first-order superposition, formed in the displaced frame below.

    ``displaced`` is that field in the frame displaced by ``beta``,
    D(beta)^dag field, which lies on |0>, |1>, |2> exactly: since
    a^dag^m |beta> = D(beta) (a^dag + beta*)^m |0>, the companions become

        v1 = (beta* |0> + |1>) / k1,
        v2 = (beta*^2 |0> + 2 beta* |1> + sqrt(2) |2>) / k2,

    with k_m = sqrt(L_m(-|beta|^2) m!) in closed form, so no cutoff enters
    it, and |coh> becomes |0>.  This is the field's only form; its overlap
    with a lab-frame field comes from ``displaced_projections``.
    """

    base_amp: complex
    pacs1_amp: complex
    pacs2_amp: complex
    normalization: float
    beta: complex
    displaced: FockVector


@dataclass(frozen=True)
class DysonCheck:
    fidelity: float
    dropped_term_mag: float


def _level_offset(initial_atom: str) -> int:
    """o of m = n + o on the atom's level: 0 in g, 1 in e."""
    if initial_atom not in ("g", "e"):
        raise ValueError("initial_atom must be 'g' or 'e'")
    return 0 if initial_atom == "g" else 1


def dispersive_levels(mu, phi, n, initial_atom: str):
    """(rate, gup) parts of H_eff/hbar on |atom, n>, rad/s: -+mu m and
    +-2 phi mu m^2, upper sign in g (m = n), lower in e (m = n + 1).

    They are returned apart, so that the GUP part, 2e-9 rad at m = 1 over
    fig1's t, is not rounded at the rate part's scale, 1e8 rad.  Both are
    linear in ``mu``, so the levels at mu*t are the phases.  ``n`` may be an array.
    """
    o = _level_offset(initial_atom)
    sign = 1.0 - 2.0 * o
    m = n + o
    return -sign * mu * m, sign * 2.0 * phi * mu * m * m


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
    f = _rwa_coupling_element(np.arange(ncut - 1), c)
    f2 = f * f
    scale = cfg.coupling**2 / cfg.detuning
    n = np.arange(ncut - 1.0)
    g, e = (np.add(*dispersive_levels(cfg.mu, c.phi, n, atom)) for atom in "ge")
    ground = -np.concatenate([[0.0], f2[:-1]]) * scale - g
    excited = f2 * scale - e
    return float(max(np.max(np.abs(ground)), np.max(np.abs(excited))))


def evolve_dispersive_series(
    d: DispersiveConfig, ncut: int, times, initial_atom: str = "g"
) -> np.ndarray:
    """Exact dispersive evolution of |atom> |alpha> at each of ``times`` in
    place of ``d.t``: per-level phases, no expansion.

    H_eff is diagonal, so the atom stays in ``initial_atom``, and each level
    of ``dispersive_levels`` gives its phase e^{-i rate t} e^{-i gup t}.  The
    two are rounded apart, so the GUP phase (2e-9 rad at m = 1 at fig1) is not
    rounded at the scale of the rate phase (1e8 rad).  Each row is the field
    amplitudes of that level up to the cutoff ``ncut``, shape
    (len(times), ncut+1).  |alpha> is built once for the whole series, and
    each row has the bits of a call at its time alone.
    """
    rate_t, gup_t = dispersive_levels(d.mu * np.asarray(times, dtype=float)[:, None], d.phi,
                                      np.arange(ncut + 1.0), initial_atom)
    return coherent_state(d.alpha, ncut).amps * np.exp(-1j * rate_t) * np.exp(-1j * gup_t)


def photon_added_decomposition(
    d: DispersiveConfig, initial_atom: str = "g"
) -> PhotonAddedDecomposition:
    """First-order decomposition of the dispersively evolved coherent state.

    With m = n + o (o = 0 in g, 1 in e), the level at m = 1 gives rot =
    e^{-i rate t}, so b = alpha rot, and kappa t = gup t.  As
    (n + o)^2 |b> = (b^2 a^dag^2 + (1 + 2o) b a^dag + o^2) |b>, the first
    order of e^{-i kappa t m^2} is rot^o (1/N) ((1 - i kappa t o^2) |coh(b)>
    - i kappa t ((1 + 2o) b k1 |coh(b),1> + b^2 k2 |coh(b),2>)),

    with k_m = sqrt(L_m(-|alpha|^2) m!).  The normalization N is the norm of
    the raw superposition in the frame displaced by b, where it lies on |0>,
    |1>, |2> exactly; no cutoff enters the decomposition.
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
    o = _level_offset(initial_atom)
    # the level at m = 1: the rate part per m and the GUP part per m^2
    rate, gup = dispersive_levels(d.mu, d.phi, 1 - o, initial_atom)
    rot = np.exp(-1j * rate * d.t)
    kt = gup * d.t
    shift = rot**o
    u_base = shift * (1.0 - 1j * kt * o * o)
    u1 = shift * (-1j * kt * (1 + 2 * o) * alpha * rot * k1)
    u2 = shift * (-1j * kt * alpha**2 * rot**2 * k2)
    beta = alpha * rot
    # D(beta)^dag a^dag^m |beta> = (a^dag + beta*)^m |0>
    b = np.conj(beta)

    def in_displaced_frame(c0, c1, c2):
        return (np.array([c0, 0.0, 0.0]) + c1 * np.array([b, 1.0, 0.0]) / k1
                + c2 * np.array([b * b, 2.0 * b, math.sqrt(2.0)]) / k2)

    norm = float(np.linalg.norm(in_displaced_frame(u_base, u1, u2)))
    base_amp, pacs1_amp, pacs2_amp = complex(u_base) / norm, complex(u1) / norm, complex(u2) / norm
    displaced = FockVector(2, in_displaced_frame(base_amp, pacs1_amp, pacs2_amp))
    return PhotonAddedDecomposition(base_amp, pacs1_amp, pacs2_amp, norm, complex(beta), displaced)


def displaced_projections(field, beta: complex, ncut: int) -> np.ndarray:
    """P_j = <D(beta) j|field> for j = 0, 1, 2, from the lab-frame amplitudes
    ``field`` on |0..ncut>.

    D(beta)|j> = (a^dag - beta*)^j |beta> / sqrt(j!) is built once, from the
    truncated |beta> at ``ncut``.  The overlap <field|phi> with a field held
    as phi on the three displaced levels is then np.vdot(P, phi).
    """
    basis = [coherent_state(beta, ncut).amps]
    for j in (1, 2):
        raised = -np.conj(beta) * basis[-1]
        raised[1:] += np.sqrt(np.arange(1.0, ncut + 1.0)) * basis[-1][:-1]
        basis.append(raised / math.sqrt(j))
    return np.conj(basis) @ np.asarray(field)


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
    propagator acts on the amplitudes at [ncut+1+n, n+1] as
    ``evolve_rwa_blocks`` does on the block of n.  |g,0> and the top level
    |e,ncut> are uncoupled and unchanged.
    """
    dim = ncut + 1
    psi = np.array(psi0, dtype=complex)
    excited, ground = dim + np.arange(ncut), np.arange(1, dim)
    pairs = np.stack([psi[excited], psi[ground]], axis=1)
    psi[excited], psi[ground] = evolve_rwa_blocks(np.arange(ncut), cfg, c, [t], pairs)[:, 0].T
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
    coh = coherent_state(alpha, ncut).amps
    level = _level_offset(initial_atom) * (ncut + 1) + np.arange(ncut + 1)
    psi0 = np.zeros(2 * (ncut + 1), dtype=complex)
    psi0[level] = coh

    psi_ip = interaction_picture_propagate(cfg, c, ncut, t, psi0)
    energy = np.add(*dispersive_levels(cfg.mu, c.phi, np.arange(ncut + 1.0), initial_atom))
    fidelity = abs(np.vdot(psi_ip[level], np.exp(-1j * energy * t) * coh)) ** 2

    a_psi = _rwa_coupling_element(np.arange(ncut), c) * psi0[1 : ncut + 1]
    dropped = cfg.coupling * float(np.linalg.norm(a_psi)) / abs(cfg.detuning)
    return DysonCheck(fidelity=float(fidelity), dropped_term_mag=dropped)
