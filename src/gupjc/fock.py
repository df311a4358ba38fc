"""Truncated Fock-space linear algebra for a single bosonic mode.

All states and operators live on the photon-number basis |0..ncut>, stored as
dense complex numpy arrays, optionally tensored with a two-level atom.  The
atom basis is ordered (ground, excited), so a combined vector is the ground
amplitude block followed by the excited block.

The GUP-modified ladder operators act on the modified number states exactly
as the standard ladder operators act on |n>, so one set of matrices serves
both the standard and the corrected model; every GUP effect enters through
Hamiltonian coefficients, never through the state representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError, TruncationError

# Absolute Hermiticity budget of the propagator; builders in this package
# produce bitwise-Hermitian matrices, so any violation signals a real bug.
HERMITICITY_ATOL = 1e-12

# Two-level atom operators in the (ground, excited) basis.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_3 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)     # |e><e| - |g><g|


@dataclass(frozen=True)
class FockVector:
    """Complex amplitudes over the truncated photon-number basis.

    ``tail_weight`` records the probability the constructor had to discard
    beyond the cutoff (exactly prepared states report 0).
    """

    ncut: int
    amps: np.ndarray
    tail_weight: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.ncut + 1,):
            raise ValueError(f"amps must have length ncut+1 = {self.ncut + 1}")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def hermiticity_residual(matrix: np.ndarray) -> float:
    """max |H - H^dag| of a matrix, or over a stack of matrices (..., d, d)."""
    return float(np.max(np.abs(matrix - matrix.conj().swapaxes(-1, -2)), initial=0.0))


def build_annihilation(ncut: int) -> np.ndarray:
    """Annihilation operator with <n-1|a|n> = sqrt(n) on |0..ncut>."""
    if ncut < 1:
        raise ValueError("ncut must be at least 1")
    return np.diag(np.sqrt(np.arange(1, ncut + 1, dtype=float)), k=1).astype(complex)


def tensor_with_atom(atom_op: np.ndarray, field_op: np.ndarray) -> np.ndarray:
    """Kronecker product in the (atom, field) ordering: ground block, then excited."""
    return np.kron(np.asarray(atom_op, dtype=complex), np.asarray(field_op, dtype=complex))


def fock_state(n: int, ncut: int) -> FockVector:
    if not 0 <= n <= ncut:
        raise ValueError(f"n = {n} outside the truncated basis 0..{ncut}")
    amps = np.zeros(ncut + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(ncut, amps)


def coherent_state(alpha: complex, ncut: int, tail_tol: float = 1e-12) -> FockVector:
    """Coherent state truncated at ncut and renormalized.

    Amplitudes follow exp(-|alpha|^2/2) * alpha^n / sqrt(n!), by the
    recurrence c_{n+1} = c_n alpha / sqrt(n+1).  For |alpha| between about
    37.6 and 38.6 the start value exp(-|alpha|^2/2) is subnormal, and the
    recurrence runs 2^64 higher, from a start taken from its logarithm.
    Raises TruncationError when the discarded tail probability reaches
    ``tail_tol``, and ValueError for |alpha| beyond about 38.6, where
    exp(-|alpha|^2/2) underflows to 0 and no cutoff can help.
    """
    if ncut < 1:
        raise ValueError("ncut must be at least 1")
    alpha = complex(alpha)
    amps = np.empty(ncut + 1, dtype=complex)
    log_start = -0.5 * abs(alpha) ** 2
    amps[0] = math.exp(log_start)
    if amps[0] == 0.0:
        raise ValueError(
            f"|alpha| = {abs(alpha):.6g}: the vacuum amplitude exp(-|alpha|^2/2) "
            "underflows to 0 in double precision"
        )
    # a subnormal start has lost bits that the recurrence would carry into
    # every amplitude and into the kept weight: start 2^64 higher, from the
    # logarithm, and scale the weight back exactly
    shift = 64 if amps[0] < np.finfo(float).tiny else 0
    if shift:
        amps[0] = math.exp(log_start + shift * math.log(2.0))
    for n in range(ncut):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    weight = float(np.sum(np.abs(amps) ** 2))
    kept = math.ldexp(weight, -2 * shift)
    tail = max(1.0 - kept, 0.0)
    if tail >= tail_tol:
        raise TruncationError(
            f"coherent-state tail weight {tail:.3e} >= {tail_tol:.1e}; "
            f"increase ncut beyond {ncut} for |alpha| = {abs(alpha):.3g}"
        )
    return FockVector(ncut, amps / math.sqrt(weight), tail_weight=tail)


def laguerre(m: int, x: float) -> float:
    """Laguerre polynomial L_m(x) by the stable upward recurrence."""
    if m < 0:
        raise ValueError("order m must be non-negative")
    if m == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - x
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def photon_added_coherent_state(
    alpha: complex, m: int, ncut: int, tail_tol: float = 1e-12
) -> FockVector:
    """Normalized m-photon-added coherent state a^dag^m |alpha> / k_{alpha,m}.

    The normalization constant satisfies k_{alpha,m}^2 = L_m(-|alpha|^2) m!.
    Construction fails when the truncated norm of a^dag^m |alpha> disagrees
    with that closed form by more than 1e-8 relative (cutoff too small).
    """
    if m < 0:
        raise ValueError("photon-addition order m must be non-negative")
    if m == 0:
        return coherent_state(alpha, ncut, tail_tol)
    return _add_photons(coherent_state(alpha, ncut, tail_tol).amps, alpha, m)


def _add_photons(coh: np.ndarray, alpha: complex, m: int) -> FockVector:
    """a^dag^m |alpha> / k_{alpha,m} from the amplitudes ``coh`` of |alpha>,
    with ``photon_added_coherent_state``'s check of the truncated norm."""
    ncut = len(coh) - 1
    # the rising factorials (n-m+1)...n for n = m..ncut, multiplied up in
    # ascending order: exact integers in double up to 2^53
    rising = np.ones(max(ncut + 1 - m, 0))
    for j in range(1, m + 1):
        rising *= np.arange(j, ncut + 1 - m + j, dtype=float)
    raised = np.zeros(ncut + 1, dtype=complex)
    raised[m:] = coh[: rising.size] * np.sqrt(rising)
    norm_sq = float(np.sum(np.abs(raised) ** 2))
    expected = laguerre(m, -abs(alpha) ** 2) * math.factorial(m)
    rel_dev = abs(norm_sq - expected) / expected
    if rel_dev > 1e-8:
        raise TruncationError(
            f"photon-added norm^2 {norm_sq:.10g} deviates from "
            f"L_{m}(-|alpha|^2) m! = {expected:.10g} by {rel_dev:.3e} relative; "
            "increase ncut"
        )
    return FockVector(ncut, raised / math.sqrt(norm_sq), tail_weight=rel_dev)


def evolve_on_grid(h_over_hbar: np.ndarray, t_grid, state: np.ndarray) -> np.ndarray:
    """Evolve ``state`` by exp(-i H t / hbar) to every time in ``t_grid``, via
    one eigendecomposition; returns shape (len(t_grid), dim).

    ``h_over_hbar`` is the Hamiltonian divided by hbar (rad/s), a dense matrix
    that must be Hermitian: this is the one place that refuses one that is
    not.  One time is ``evolve_on_grid(h, [t], psi)[0]``.  A stack of B
    matrices (B, dim, dim) with one state per matrix (B, dim) evolves every
    pair at once and returns shape (B, len(t_grid), dim).  Phase accuracy
    degrades as eps * ||H/hbar|| * t, so callers working at optical
    frequencies should first remove the optical-scale energies, as
    ``gup.rwa_block`` does.
    """
    h = np.asarray(h_over_hbar, dtype=complex)
    residual = hermiticity_residual(h)
    if residual >= HERMITICITY_ATOL:
        raise NonHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds {HERMITICITY_ATOL:.1e}"
        )
    vals, vecs = np.linalg.eigh(h)
    psi = np.asarray(state, dtype=complex)
    coeffs = (vecs.conj().swapaxes(-1, -2) @ psi[..., None])[..., 0]
    t = np.asarray(t_grid, dtype=float)
    phases = np.exp(-1j * (t[:, None] * vals[..., None, :]))
    return (phases * coeffs[..., None, :]) @ vecs.swapaxes(-1, -2)
