"""Wigner quasi-probability functions on the truncated Fock space.

For a pure state with amplitudes c_n the Wigner function is the
Cahill-Glauber sum over the Fock-basis operators |m><n|,

    W(z) = (2/pi) Re sum_{k>=0} (2 - delta_k0) sum_m (-1)^m c_m c*_{m+k} w^k_m(z),

    w^k_m(z) = e^{-x/2} (2z)^k sqrt(m!/(m+k)!) L^k_m(x),   x = 4|z|^2,

which is exact on the truncated state: no padding of the Fock space is
needed (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  Along each diagonal
k the w^k_m follow the normalized forward Laguerre recurrence

    w_{m+1} = ((2m+1+k-x) w_m - sqrt(m(m+k)) w_{m-1}) / sqrt((m+1)(m+1+k)),

started from w^k_0 = e^{-x/2} (2z)^k / sqrt(k!), which is built up one k at a
time, as in QuTiP (Johansson, Nation & Nori, CPC 183, 1760 (2012)).  No
factorial is formed and every w is a bounded matrix element, so the cost is
O(ncut^2) vector operations over the points and the memory is O(points).
The recurrence runs on the real factor w / e^{ik arg z}; the phase is applied
once per diagonal.  The start value e^{-2|z|^2} underflows past
|z| = MAX_ABS_Z (about 18.8), where evaluation is refused.

Normalization: integral of W over the plane is 1 with z in dimensionless
quadrature units.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, coherent_state

TWO_OVER_PI = 2.0 / math.pi

# largest |z| whose Gaussian factor e^{-2|z|^2} is a normal double
MAX_ABS_Z = math.sqrt(-math.log(np.finfo(float).tiny) / 2.0)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid z = x + i y."""

    re_min: float = -4.0
    re_max: float = 4.0
    im_min: float = -4.0
    im_max: float = 4.0
    n_re: int = 201
    n_im: int = 201

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.re_min, self.re_max, self.n_re),
            np.linspace(self.im_min, self.im_max, self.n_im),
        )

    def refined(self, factor: int = 2) -> "GridSpec":
        return GridSpec(
            self.re_min, self.re_max, self.im_min, self.im_max,
            (self.n_re - 1) * factor + 1, (self.n_im - 1) * factor + 1,
        )


@dataclass(frozen=True)
class WignerGrid:
    """Wigner values on a grid; values[i, j] = W(re_axis[j] + 1i*im_axis[i])."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        """Riemann-sum integral of W over the grid."""
        dre = float(self.re_axis[1] - self.re_axis[0])
        dim = float(self.im_axis[1] - self.im_axis[0])
        return float(np.sum(self.values) * dre * dim)

    def peak(self) -> float:
        return float(np.max(self.values))

    def max_abs_location(self) -> tuple[float, complex]:
        i, j = np.unravel_index(np.argmax(np.abs(self.values)), self.values.shape)
        z = complex(self.re_axis[j], self.im_axis[i])
        return float(abs(self.values[i, j])), z


@dataclass(frozen=True)
class WignerDifference:
    grid: WignerGrid
    max_abs: float
    location: complex
    ref_peak: float


def wigner_values_at(psi: FockVector, zs: np.ndarray) -> np.ndarray:
    """Wigner values of ``psi`` at arbitrary phase-space points ``zs``."""
    if abs(psi.norm() - 1.0) > 1e-10:
        raise ValueError("state must be normalized for a Wigner evaluation")
    zs = np.asarray(zs, dtype=complex).ravel()
    r = np.abs(zs)
    if zs.size and float(np.max(r)) > MAX_ABS_Z:
        raise ValueError(
            f"|z| = {float(np.max(r)):.4g} exceeds the Wigner evaluation limit "
            f"|z| <= {MAX_ABS_Z:.4g}, where e^(-2|z|^2) underflows"
        )
    x = 4.0 * r * r
    unit = np.exp(1j * np.angle(zs))
    amps = psi.amps
    signs = np.where(np.arange(psi.ncut + 1) % 2 == 0, 1.0, -1.0)
    start = np.exp(-0.5 * x)  # |w^k_0|
    turn = np.ones(zs.size, dtype=complex)  # e^{ik arg z}
    total = np.zeros(zs.size)
    for k in range(psi.ncut + 1):
        if k:
            start = start * (2.0 / math.sqrt(k)) * r
            turn *= unit
        n = psi.ncut + 1 - k
        coeffs = signs[:n] * amps[:n] * np.conj(amps[k:])
        w_prev, w = np.zeros(zs.size), start
        acc = coeffs[0] * w
        for m in range(n - 1):
            w_prev, w = w, (
                ((2 * m + 1 + k) - x) * w - math.sqrt(m * (m + k)) * w_prev
            ) / math.sqrt((m + 1) * (m + 1 + k))
            acc += coeffs[m + 1] * w
        part = (turn * acc).real
        total += part if k == 0 else 2.0 * part
    return TWO_OVER_PI * total


def wigner_of_state(psi: FockVector, grid: GridSpec = GridSpec()) -> WignerGrid:
    """Wigner function of a pure state on a rectangular grid."""
    re_axis, im_axis = grid.axes()
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    values = wigner_values_at(psi, zz.ravel())
    return WignerGrid(re_axis, im_axis, values.reshape(zz.shape))


def wigner_difference(
    psi: FockVector,
    reference_alpha: complex,
    grid: GridSpec = GridSpec(),
) -> WignerDifference:
    """Difference between the Wigner function of ``psi`` and that of a
    coherent reference state of amplitude ``reference_alpha``."""
    w_psi = wigner_of_state(psi, grid)
    reference = coherent_state(reference_alpha, psi.ncut)
    w_ref = wigner_of_state(reference, grid)
    delta = WignerGrid(w_psi.re_axis, w_psi.im_axis, w_psi.values - w_ref.values)
    max_abs, location = delta.max_abs_location()
    return WignerDifference(
        grid=delta, max_abs=max_abs, location=location, ref_peak=w_ref.peak()
    )


def wigner_precision_ratio(delta_w_max: float, w_ref_peak: float) -> float:
    """Relative measurement precision needed to resolve a Wigner change."""
    if w_ref_peak <= 0:
        raise ValueError("reference peak must be positive")
    return delta_w_max / w_ref_peak


def grid_to_csv(grid: WignerGrid, path) -> None:
    """Write (x, y, w) rows, y-major, full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "w"])
        for i, y in enumerate(grid.im_axis):
            for j, x in enumerate(grid.re_axis):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(grid.values[i, j]))])


def grid_to_json(grid: WignerGrid, path) -> None:
    """Write axes plus row-major values."""
    payload = {
        "re_axis": [float(v) for v in grid.re_axis],
        "im_axis": [float(v) for v in grid.im_axis],
        "values_row_major": [float(v) for v in grid.values.ravel()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
