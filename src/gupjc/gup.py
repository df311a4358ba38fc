"""GUP parameterization and construction of the modified Hamiltonians.

The minimal-length deformation [q, p] = i*hbar*(1 - 2*delta*gamma*p
+ 4*epsilon*gamma^2*p^2) modifies the quantized single-mode field.  After
expressing everything through the modified ladder operators, the corrections
enter through four derived coefficients evaluated at the field frequency:

    phi    = hbar*omega*gamma^2 * (3*delta^2 - 2*epsilon)
    chi    = hbar*omega*gamma^2 / 2 * (delta^2 - epsilon)
    beta   = hbar*omega*gamma^2 / 2 * (delta^2 - 2*epsilon)
    |xi|   = delta*gamma*sqrt(2*hbar*omega)

with the identity 8*chi = phi + 2*beta.  phi and chi/beta carry the quadratic
(momentum-squared) channel; xi carries the linear channel, which survives
only in the counter-rotating two-photon terms.

All quantities are SI: frequencies in rad/s, gamma in J^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_SI_DIVISOR, HBAR
from .fock import SIGMA_3, SIGMA_PLUS, build_annihilation, tensor_with_atom


@dataclass(frozen=True)
class GupParams:
    """Physical GUP inputs: dimensionless strength and the two channel weights.

    ``gamma`` is the SI-valued strength gamma0 / (sqrt(M_Planck) * c); delta
    and epsilon weight the linear and quadratic momentum corrections.  The
    common quadratic-only model corresponds to delta = 0, epsilon = 1/4.
    """

    gamma0: float
    delta: float
    epsilon: float

    def __post_init__(self):
        if self.gamma0 < 0:
            raise ValueError("gamma0 must be non-negative")
        if not (math.isfinite(self.delta) and math.isfinite(self.epsilon)):
            raise ValueError("delta and epsilon must be finite")

    @property
    def gamma(self) -> float:
        """GUP strength in SI units, J^(-1/2)."""
        return self.gamma0 / GAMMA_SI_DIVISOR

    @classmethod
    def from_gamma(cls, gamma: float, delta: float, epsilon: float) -> "GupParams":
        """Build from the SI-valued gamma instead of gamma0."""
        return cls(gamma0=gamma * GAMMA_SI_DIVISOR, delta=delta, epsilon=epsilon)


@dataclass(frozen=True)
class GupCoefficients:
    """Derived dimensionless coefficients at a given field frequency."""

    phi: float
    chi: float
    beta: float
    omega: float
    xi_mag: float = 0.0

    @property
    def xi(self) -> complex:
        """Complex linear-channel coefficient, purely imaginary by convention."""
        return 1j * self.xi_mag


@dataclass(frozen=True)
class InteractionConfig:
    """Atom-field interaction parameters: frequencies and dipole coupling.

    ``coupling`` is the dipole rate lambda = d*g/hbar in rad/s, taken as a
    direct input; the detuning is omega0 - omega.
    """

    omega: float
    omega0: float
    coupling: float

    def __post_init__(self):
        if self.omega <= 0 or self.omega0 <= 0:
            raise ValueError("omega and omega0 must be positive")
        if self.coupling < 0:
            raise ValueError("coupling must be non-negative")

    @property
    def detuning(self) -> float:
        return self.omega0 - self.omega

    @property
    def mu(self) -> float:
        """Dispersive rate coupling^2 / detuning (rad/s)."""
        if self.detuning == 0.0:
            raise ZeroDivisionError("mu is undefined at zero detuning")
        return self.coupling**2 / self.detuning


def quadratic_weight(delta, epsilon):
    """Quadratic-channel weight 3 delta^2 - 2 epsilon, the factor phi carries.

    The one expression of it, shared by ``quadratic_coefficients`` and the
    degenerate-model guard of the validity ratios, so both judge a model
    alike to the last bit.  The square is a product, for the reason given in
    ``quadratic_coefficients``.
    """
    return 3.0 * (delta * delta) - 2.0 * epsilon


def quadratic_coefficients(gamma, delta, epsilon, omega):
    """(phi, chi, beta) for SI gamma at field frequency omega (rad/s).

    Only arithmetic operators, so the inputs may be Python floats or
    broadcastable ndarrays; Python floats give Python floats.  Squares are
    products: ``x**2`` goes through libm pow() on a Python float, which is not
    always correctly rounded, but through x*x on an ndarray, so a float and an
    array input would differ in the last bit.  No input is checked:
    ``derive_coefficients`` is the checked scalar entry point.
    """
    base = HBAR * omega * (gamma * gamma)
    d2 = delta * delta
    return (
        base * quadratic_weight(delta, epsilon),
        0.5 * base * (d2 - epsilon),
        0.5 * base * (d2 - 2.0 * epsilon),
    )


def derive_coefficients(p: GupParams, omega: float) -> GupCoefficients:
    """Evaluate phi, chi, beta and |xi| at field frequency omega (rad/s)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    phi, chi, beta = quadratic_coefficients(p.gamma, p.delta, p.epsilon, omega)
    return GupCoefficients(
        phi=phi,
        chi=chi,
        beta=beta,
        omega=omega,
        xi_mag=p.delta * p.gamma * math.sqrt(2.0 * HBAR * omega),
    )


def _rwa_coupling_element(n, c: GupCoefficients):
    """Coupling between |e,n> and |g,n+1> per unit dipole rate: sqrt(n+1)*(1 - (n+1)*phi).

    ``n`` may be an integer or an integer array.
    """
    m = n + 1.0
    return np.sqrt(m) * (1.0 - m * c.phi)


def rwa_block_entries(n, cfg: InteractionConfig, c: GupCoefficients):
    """(d, g) of ``rwa_block(n)``, rad/s; ``n`` may be an integer or an
    integer array."""
    g = cfg.coupling * _rwa_coupling_element(n, c)
    d = 0.5 * (cfg.detuning + 8.0 * (n + 1) * c.chi * cfg.omega)
    return d, g


def rwa_block(n: int, cfg: InteractionConfig, c: GupCoefficients) -> np.ndarray:
    """Rotating-wave Hamiltonian on {|e,n>, |g,n+1>} minus its mean energy (rad/s).

    Returns [[d, g], [g, -d]] with g = coupling*sqrt(n+1)*(1 - (n+1)*phi) and
    d = (detuning + 8*(n+1)*chi*omega)/2.  The rotating-wave model is a direct
    sum of these blocks plus the uncoupled |g,0>; the dropped mean is constant
    on each block, so it only adds a global phase there and no optical-scale
    energy is ever formed.
    """
    d, g = rwa_block_entries(n, cfg, c)
    return np.array([[d, g], [g, -d]])


def build_rwa_hamiltonian(cfg: InteractionConfig, c: GupCoefficients, ncut: int) -> np.ndarray:
    """Rotating-wave GUP Hamiltonian on the atom+field space (H/hbar, rad/s).

    H/hbar = omega0/2 * sigma3 + omega*[N - 4(N^2+N)chi - beta]
             + coupling * (sigma+ a(1 - N phi) + h.c.)

    The field part is diagonal; the coupling connects |e,n> and |g,n+1> with
    matrix element coupling*sqrt(n+1)*(1 - (n+1)*phi).  ``rwa_block`` gives the
    same Hamiltonian block by block; this dense form is its oracle.
    """
    if ncut < 2:
        raise ValueError("ncut must be at least 2")
    n = np.arange(ncut + 1, dtype=float)
    field_diag = cfg.omega * (n - 4.0 * (n**2 + n) * c.chi - c.beta)
    diag_part = tensor_with_atom(0.5 * cfg.omega0 * SIGMA_3, np.eye(ncut + 1))
    diag_part += tensor_with_atom(np.eye(2), np.diag(field_diag))
    band = np.diag(_rwa_coupling_element(np.arange(ncut), c), k=1).astype(complex)
    raising = cfg.coupling * tensor_with_atom(SIGMA_PLUS, band)
    return diag_part + raising + raising.conj().T


def build_full_interaction_hamiltonian(
    cfg: InteractionConfig, c: GupCoefficients, ncut: int
) -> np.ndarray:
    """Pre-RWA dipole interaction with both GUP channels (H/hbar, rad/s).

    H_I/hbar = coupling * [sigma+ (a^dag + a - phi*a*N + xi*a^2) + h.c.]

    Counter-rotating one-photon terms and the linear-channel two-photon terms
    (xi = i*|xi|) are kept; cubic ladder terms are dropped since they are both
    rapidly rotating and gamma^2-suppressed.  Hermiticity holds exactly
    because xi is purely imaginary.
    """
    if ncut < 3:
        raise ValueError("ncut must be at least 3")
    a = build_annihilation(ncut)
    adag = a.conj().T
    n_diag = np.diag(np.arange(ncut + 1, dtype=float)).astype(complex)
    block = adag + a - c.phi * (a @ n_diag) + c.xi * (a @ a)
    raising = cfg.coupling * tensor_with_atom(SIGMA_PLUS, block)
    return raising + raising.conj().T
