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
once per diagonal.  The w^k_m do not depend on the state, so the difference of
two maps is one pass over the coefficients of rho_psi - rho_ref, at the cost
of one map.  The start value e^{-2|z|^2} underflows past
|z| = MAX_ABS_Z (about 18.8), where evaluation is refused.

Normalization: integral of W over the plane is 1 with z in dimensionless
quadrature units.
"""

from __future__ import annotations

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


def wigner_values_at(
    psi: FockVector, zs: np.ndarray, reference: FockVector | None = None
) -> np.ndarray:
    """Wigner values of ``psi`` at arbitrary phase-space points ``zs``.

    With a ``reference`` state of the same cutoff, return W_psi - W_reference
    in one pass: the sum runs once over the coefficients of rho_psi - rho_ref,
    so the result is formed from the small difference of the two density
    matrices, not as the difference of two large totals.
    """
    amps = _checked_amps(psi)
    if reference is not None:
        if reference.ncut != psi.ncut:
            raise ValueError(
                f"reference cutoff {reference.ncut} differs from the state cutoff {psi.ncut}"
            )
        ref_amps = _checked_amps(reference)
    zs = np.asarray(zs, dtype=complex).ravel()
    r = np.abs(zs)
    if zs.size and not float(np.max(r)) <= MAX_ABS_Z:
        raise ValueError(
            f"|z| = {float(np.max(r)):.4g} exceeds the Wigner evaluation limit "
            f"|z| <= {MAX_ABS_Z:.4g}, where e^(-2|z|^2) underflows"
        )
    x = 4.0 * r * r
    unit = np.exp(1j * np.angle(zs))
    signs = np.where(np.arange(psi.ncut + 1) % 2 == 0, 1.0, -1.0)
    start = np.exp(-0.5 * x)  # |w^k_0|
    turn = np.ones(zs.size, dtype=complex)  # e^{ik arg z}
    total = np.zeros(zs.size)
    w_prev, w, w_next, scratch, acc_re, acc_im = (np.empty(zs.size) for _ in range(6))
    for k in range(psi.ncut + 1):
        if k:
            start *= 2.0 / math.sqrt(k)
            start *= r
            turn *= unit
        n = psi.ncut + 1 - k
        coeffs = amps[:n] * np.conj(amps[k:])
        if reference is not None:
            coeffs -= ref_amps[:n] * np.conj(ref_amps[k:])
        coeffs *= signs[:n]
        c_re, c_im = coeffs.real.tolist(), coeffs.imag.tolist()
        w[:] = start
        w_prev[:] = 0.0
        np.multiply(w, c_re[0], out=acc_re)
        np.multiply(w, c_im[0], out=acc_im)
        for m in range(n - 1):
            # w_{m+1} = ((2m+1+k - x) w_m - sqrt(m(m+k)) w_{m-1}) / sqrt((m+1)(m+1+k))
            np.subtract(2 * m + 1 + k, x, out=w_next)
            w_next *= w
            w_prev *= math.sqrt(m * (m + k))
            w_next -= w_prev
            w_next *= 1.0 / math.sqrt((m + 1) * (m + 1 + k))
            w_prev, w, w_next = w, w_next, w_prev
            np.multiply(w, c_re[m + 1], out=scratch)
            acc_re += scratch
            np.multiply(w, c_im[m + 1], out=scratch)
            acc_im += scratch
        # Re(e^{ik arg z} acc), counted twice off the main diagonal
        acc_re *= turn.real
        acc_im *= turn.imag
        acc_re -= acc_im
        if k:
            acc_re *= 2.0
        total += acc_re
    total *= TWO_OVER_PI
    return total


def _checked_amps(psi: FockVector) -> np.ndarray:
    # written as not (... <= ...) so that a NaN norm is refused too
    if not abs(psi.norm() - 1.0) <= 1e-10:
        raise ValueError("state must be normalized for a Wigner evaluation")
    return psi.amps


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
    coherent reference state of amplitude ``reference_alpha``.

    ``ref_peak`` is the reference map's maximum over the grid.  The reference
    is a coherent state truncated with a tail below 1e-12, so its map is the
    Gaussian (2/pi) e^{-2|z - alpha|^2}; that separable Gaussian peaks on the
    grid at the point nearest alpha in each axis, and the 3x3 block of grid
    points around it covers ties.
    """
    re_axis, im_axis = grid.axes()
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    reference = coherent_state(reference_alpha, psi.ncut)
    values = wigner_values_at(psi, zz.ravel(), reference=reference).reshape(zz.shape)
    delta = WignerGrid(re_axis, im_axis, values)
    max_abs, location = delta.max_abs_location()
    alpha = complex(reference_alpha)
    j = int(np.argmin(np.abs(re_axis - alpha.real)))
    i = int(np.argmin(np.abs(im_axis - alpha.imag)))
    near = zz[max(i - 1, 0): i + 2, max(j - 1, 0): j + 2]
    ref_peak = float(np.max(wigner_values_at(reference, near.ravel())))
    return WignerDifference(grid=delta, max_abs=max_abs, location=location, ref_peak=ref_peak)


def wigner_precision_ratio(delta_w_max: float, w_ref_peak: float) -> float:
    """Relative measurement precision needed to resolve a Wigner change."""
    if w_ref_peak <= 0:
        raise ValueError("reference peak must be positive")
    return delta_w_max / w_ref_peak


def _check_finite(grid: WignerGrid) -> None:
    for name in ("re_axis", "im_axis", "values"):
        if not np.all(np.isfinite(getattr(grid, name))):
            raise ValueError(f"cannot write a Wigner grid whose {name} holds a non-finite value")


def grid_to_csv(grid: WignerGrid, path) -> None:
    """Write (x, y, w) rows, y-major, full round-trip precision.

    The bytes are those of ``csv.writer`` (excel dialect) fed repr() strings,
    formatted and written one grid row at a time.
    """
    _check_finite(grid)
    xs = [repr(x) for x in grid.re_axis.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,w\r\n")
        for y, row in zip(map(repr, grid.im_axis.tolist()), grid.values):
            fh.write("".join([f"{x},{y},{v!r}\r\n" for x, v in zip(xs, row.tolist())]))


def grid_to_json(grid: WignerGrid, path) -> None:
    """Write axes plus row-major values.

    The bytes are those of ``json.dump(payload, indent=1, sort_keys=True)``
    plus a newline, written one grid row at a time.
    """
    _check_finite(grid)
    with open(path, "w") as fh:
        fh.write('{\n "im_axis": ')
        _write_json_array(fh, [grid.im_axis.tolist()])
        fh.write(',\n "re_axis": ')
        _write_json_array(fh, [grid.re_axis.tolist()])
        fh.write(',\n "values_row_major": ')
        _write_json_array(fh, (row.tolist() for row in grid.values))
        fh.write("\n}\n")


def _write_json_array(fh, rows) -> None:
    """Write the concatenated rows as one array of finite floats, laid out as
    json.dump(indent=1) lays out a list nested one level deep."""
    opened = False
    for row in rows:
        if row:
            fh.write((",\n  " if opened else "[\n  ") + ",\n  ".join(map(repr, row)))
            opened = True
    fh.write("\n ]" if opened else "[]")
