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

# Absolute Hermiticity budget for flagged matrices; builders in this package
# produce bitwise-Hermitian matrices, so any violation signals a real bug.
HERMITICITY_ATOL = 1e-12

# Two-level atom operators in the (ground, excited) basis.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_3 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)     # |e><e| - |g><g|
ATOM_IDENTITY = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex operator on the truncated field or atom+field space.

    ``entries`` has dimension ncut+1 (field only) or 2*(ncut+1) (tensored
    with the atom).  Ladder operators are dimensionless; Hamiltonians are
    stored as H/hbar in rad/s.  Matrices flagged ``hermitian`` are checked on
    construction.
    """

    ncut: int
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        dim = self.ncut + 1
        if entries.shape not in {(dim, dim), (2 * dim, 2 * dim)}:
            raise ValueError(
                f"entries shape {entries.shape} matches neither the field "
                f"space ({dim}) nor the atom+field space ({2 * dim})"
            )
        object.__setattr__(self, "entries", entries)
        if self.hermitian:
            residual = hermiticity_residual(entries)
            if residual >= HERMITICITY_ATOL:
                raise NonHermitianError(
                    f"Hermiticity residual {residual:.3e} exceeds {HERMITICITY_ATOL:.1e}"
                )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.ncut, self.entries.conj().T, hermitian=self.hermitian)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(vec, dtype=complex)


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

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.ncut, self.amps / n, self.tail_weight)

    def overlap(self, other: "FockVector") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def number_expectation(self) -> float:
        n = np.arange(self.ncut + 1)
        return float(np.real(np.sum(n * np.abs(self.amps) ** 2)))


@dataclass(frozen=True)
class AtomFieldState:
    """Joint state of the two-level atom and the truncated field mode."""

    ncut: int
    amps_g: np.ndarray
    amps_e: np.ndarray

    def __post_init__(self):
        for name in ("amps_g", "amps_e"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (self.ncut + 1,):
                raise ValueError(f"{name} must have length ncut+1 = {self.ncut + 1}")
            object.__setattr__(self, name, arr)

    @classmethod
    def from_vector(cls, vec: np.ndarray, ncut: int) -> "AtomFieldState":
        vec = np.asarray(vec, dtype=complex)
        dim = ncut + 1
        if vec.shape != (2 * dim,):
            raise ValueError(f"vector must have length 2*(ncut+1) = {2 * dim}")
        return cls(ncut, vec[:dim], vec[dim:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.amps_g, self.amps_e])

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps_g) ** 2) + np.sum(np.abs(self.amps_e) ** 2)))

    def overlap(self, other: "AtomFieldState") -> complex:
        return complex(np.vdot(self.to_vector(), other.to_vector()))

    def inversion(self) -> float:
        """Excited-state population minus ground-state population."""
        return float(np.sum(np.abs(self.amps_e) ** 2) - np.sum(np.abs(self.amps_g) ** 2))


def hermiticity_residual(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def build_annihilation(ncut: int) -> OperatorMatrix:
    """Annihilation operator with <n-1|a|n> = sqrt(n) on |0..ncut>."""
    if ncut < 1:
        raise ValueError("ncut must be at least 1")
    entries = np.diag(np.sqrt(np.arange(1, ncut + 1, dtype=float)), k=1).astype(complex)
    return OperatorMatrix(ncut, entries)


def build_creation(ncut: int) -> OperatorMatrix:
    return build_annihilation(ncut).dag()


def build_number(ncut: int) -> OperatorMatrix:
    entries = np.diag(np.arange(ncut + 1, dtype=float)).astype(complex)
    return OperatorMatrix(ncut, entries, hermitian=True)


def field_identity(ncut: int) -> np.ndarray:
    return np.eye(ncut + 1, dtype=complex)


def tensor_with_atom(atom_op: np.ndarray, field_op: np.ndarray) -> np.ndarray:
    """Kronecker product in the (atom, field) ordering used by AtomFieldState."""
    return np.kron(np.asarray(atom_op, dtype=complex), np.asarray(field_op, dtype=complex))


def fock_state(n: int, ncut: int) -> FockVector:
    if not 0 <= n <= ncut:
        raise ValueError(f"n = {n} outside the truncated basis 0..{ncut}")
    amps = np.zeros(ncut + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(ncut, amps)


def coherent_state(alpha: complex, ncut: int, tail_tol: float = 1e-12) -> FockVector:
    """Coherent state truncated at ncut and renormalized.

    Amplitudes follow exp(-|alpha|^2/2) * alpha^n / sqrt(n!).  Raises
    TruncationError when the discarded tail probability reaches ``tail_tol``.
    """
    if ncut < 1:
        raise ValueError("ncut must be at least 1")
    alpha = complex(alpha)
    amps = np.empty(ncut + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(ncut):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    kept = float(np.sum(np.abs(amps) ** 2))
    tail = max(1.0 - kept, 0.0)
    if tail >= tail_tol:
        raise TruncationError(
            f"coherent-state tail weight {tail:.3e} >= {tail_tol:.1e}; "
            f"increase ncut beyond {ncut} for |alpha| = {abs(alpha):.3g}"
        )
    return FockVector(ncut, amps / math.sqrt(kept), tail_weight=tail)


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
    coh = coherent_state(alpha, ncut, tail_tol)
    raised = np.zeros(ncut + 1, dtype=complex)
    for n in range(m, ncut + 1):
        factor = 1.0
        for j in range(n - m + 1, n + 1):
            factor *= j
        raised[n] = coh.amps[n - m] * math.sqrt(factor)
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


def _as_matrix(h_over_hbar) -> np.ndarray:
    if isinstance(h_over_hbar, OperatorMatrix):
        return h_over_hbar.entries
    return np.asarray(h_over_hbar, dtype=complex)


def matrix_exponential_apply(
    h_over_hbar, t: float, state: np.ndarray, herm_atol: float = HERMITICITY_ATOL
) -> np.ndarray:
    """Apply exp(-i H t / hbar) to a state vector via eigendecomposition.

    ``h_over_hbar`` is the Hamiltonian divided by hbar (rad/s), as a dense
    matrix or OperatorMatrix; it must be Hermitian.  Phase accuracy degrades
    as eps * ||H/hbar|| * t, so callers working at optical frequencies should
    first remove the optical-scale energies, as ``gup.rwa_block`` does.
    """
    h = _as_matrix(h_over_hbar)
    residual = hermiticity_residual(h)
    if residual >= herm_atol:
        raise NonHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds {herm_atol:.1e}"
        )
    vals, vecs = np.linalg.eigh(h)
    psi = np.asarray(state, dtype=complex)
    return vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))


def evolve_on_grid(h_over_hbar, t_grid: np.ndarray, state: np.ndarray,
                   herm_atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Evolve ``state`` to every time in ``t_grid``; returns shape (len(t), dim)."""
    h = _as_matrix(h_over_hbar)
    residual = hermiticity_residual(h)
    if residual >= herm_atol:
        raise NonHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds {herm_atol:.1e}"
        )
    vals, vecs = np.linalg.eigh(h)
    coeffs = vecs.conj().T @ np.asarray(state, dtype=complex)
    t = np.asarray(t_grid, dtype=float)
    phases = np.exp(-1j * np.outer(t, vals))
    return (phases * coeffs) @ vecs.T

