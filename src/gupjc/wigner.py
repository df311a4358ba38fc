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
factorial is formed and every w is a bounded matrix element.  The recurrence
runs on the real factor w / e^{ik arg z}, which depends on |z| alone, so it
runs once per distinct radius and its sums are gathered back to the points;
the phase is applied once per diagonal.  The w^k_m do not depend on the
state, so one pass serves every state evaluated on the same points: the
point plan and each diagonal's recurrence are shared, and each state only
adds its own accumulation.  The recurrence along a diagonal runs to the
largest m whose coefficient is nonzero in some state, each state stops
accumulating at its own last nonzero coefficient, and a diagonal with no
nonzero coefficient is skipped; the terms left out are exact zeros, so every
map keeps the bits it has when evaluated alone.  A pass costs at most
O(ncut^2) vector operations over the distinct radii plus O(ncut) over the
points, and a Fock state |n> adds one diagonal of n + 1 steps.  The memory
is O(states * points).  The difference of two maps is one pass over the
coefficients of rho_psi - rho_ref, at the cost of one map.  The start value
e^{-2|z|^2} underflows past |z| = MAX_ABS_Z (about 18.8), where evaluation
is refused.

Normalization: integral of W over the plane is 1 with z in dimensionless
quadrature units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    return _wigner_terms([(psi, reference)], zs)[0]


def wigner_maps(states: Sequence[FockVector], grid: GridSpec = GridSpec()) -> list[WignerGrid]:
    """Wigner functions of several pure states on one rectangular grid.

    The states may have different cutoffs; they share one pass over the grid,
    and each map has the bits a call for its state alone would give.
    """
    re_axis, im_axis = grid.axes()
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    values = _wigner_terms([(psi, None) for psi in states], zz.ravel())
    return [WignerGrid(re_axis, im_axis, v.reshape(zz.shape)) for v in values]


def wigner_of_state(psi: FockVector, grid: GridSpec = GridSpec()) -> WignerGrid:
    """Wigner function of a pure state on a rectangular grid."""
    return wigner_maps([psi], grid)[0]


def _wigner_terms(
    terms: Sequence[tuple[FockVector, FockVector | None]], zs: np.ndarray
) -> np.ndarray:
    """Values at ``zs`` of each term (psi, reference), shape (len(terms), points).

    A term is W_psi, or with a reference state of the same cutoff
    W_psi - W_reference.  Every term shares the point plan and, along each
    diagonal k, one forward recurrence that runs as far as the largest m any
    term needs.  A term accumulates w_m c_m only up to its last nonzero
    coefficient on the diagonal and skips a diagonal whose coefficients are
    all zero: the sums it leaves out are exact zeros, so each term keeps the
    bits of a pass of its own.
    """
    pairs = []
    for psi, reference in terms:
        amps, ref_amps = _checked_amps(psi), None
        if reference is not None:
            if reference.ncut != psi.ncut:
                raise ValueError(
                    f"reference cutoff {reference.ncut} differs from the state cutoff {psi.ncut}"
                )
            ref_amps = _checked_amps(reference)
        pairs.append((amps, ref_amps))
    zs = np.asarray(zs, dtype=complex).ravel()
    # the real factors depend on |z| alone: one recurrence per distinct
    # radius, gathered back to the points through inv
    r, inv = np.unique(np.abs(zs), return_inverse=True)
    if zs.size and not float(r[-1]) <= MAX_ABS_Z:
        raise ValueError(
            f"|z| = {float(r[-1]):.4g} exceeds the Wigner evaluation limit "
            f"|z| <= {MAX_ABS_Z:.4g}, where e^(-2|z|^2) underflows"
        )
    x = 4.0 * r * r
    unit = np.exp(1j * np.angle(zs))
    dim = max((amps.size for amps, _ in pairs), default=0)
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    start = np.exp(-0.5 * x)  # |w^k_0|
    turn = np.ones(zs.size, dtype=complex)  # e^{ik arg z}
    totals = np.zeros((len(pairs), zs.size))
    w_prev, w, w_next = (np.empty(r.size) for _ in range(3))
    acc = np.empty((len(pairs), 2, r.size))
    scratch = np.empty_like(acc)
    at = np.empty((len(pairs), 2, zs.size))
    for k in range(dim):
        if k:
            start *= 2.0 / math.sqrt(k)
            start *= r
            turn *= unit
        # (last nonzero m, term index, coefficients) of each term that has a
        # nonzero coefficient on this diagonal, the longest first
        active = []
        for i, (amps, ref_amps) in enumerate(pairs):
            n = amps.size - k
            if n <= 0:
                continue
            coeffs = amps[:n] * np.conj(amps[k:])
            if ref_amps is not None:
                coeffs -= ref_amps[:n] * np.conj(ref_amps[k:])
            coeffs *= signs[:n]
            nonzero = coeffs.nonzero()[0]
            if nonzero.size:
                active.append((int(nonzero[-1]), i, coeffs))
        if not active:
            continue
        active.sort(key=lambda item: -item[0])
        # c[m, j] holds (Re, Im) of the j-th active term's c_m, up to its last
        c = np.empty((active[0][0] + 1, len(active), 2, 1))
        for j, (last, _, coeffs) in enumerate(active):
            c[: last + 1, j, 0, 0] = coeffs.real[: last + 1]
            c[: last + 1, j, 1, 0] = coeffs.imag[: last + 1]
        count = len(active)
        c_now, acc_now, scratch_now = c, acc[:count], scratch[:count]
        w[:] = start
        w_prev[:] = 0.0
        np.multiply(c[0], w, out=acc_now)
        for m in range(active[0][0]):
            # w_{m+1} = ((2m+1+k - x) w_m - sqrt(m(m+k)) w_{m-1}) / sqrt((m+1)(m+1+k))
            np.subtract(2 * m + 1 + k, x, out=w_next)
            w_next *= w
            w_prev *= math.sqrt(m * (m + k))
            w_next -= w_prev
            w_next *= 1.0 / math.sqrt((m + 1) * (m + 1 + k))
            w_prev, w, w_next = w, w_next, w_prev
            while active[count - 1][0] <= m:
                count -= 1
                c_now, acc_now, scratch_now = c[:, :count], acc[:count], scratch[:count]
            np.multiply(c_now[m + 1], w, out=scratch_now)
            acc_now += scratch_now
        # Re(e^{ik arg z} acc), counted twice off the main diagonal; inv is
        # in range, so mode="clip" clips nothing and spares take the copy of
        # ``out`` that mode="raise" makes
        gathered = np.take(acc[: len(active)], inv, axis=2, out=at[: len(active)], mode="clip")
        at_re, at_im = gathered.transpose(1, 0, 2)
        at_re *= turn.real
        at_im *= turn.imag
        at_re -= at_im
        if k:
            at_re *= 2.0
        for (_, i, _), values in zip(active, at_re):
            totals[i] += values
    totals *= TWO_OVER_PI
    return totals


def _checked_amps(psi: FockVector) -> np.ndarray:
    # written as not (... <= ...) so that a NaN norm is refused too
    if not abs(psi.norm() - 1.0) <= 1e-10:
        raise ValueError("state must be normalized for a Wigner evaluation")
    return psi.amps


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


def write_grid(grid: WignerGrid, csv_path, json_path) -> None:
    """Write (x, y, w) CSV rows, y-major, and JSON axes plus row-major values.

    The CSV bytes are those of ``csv.writer`` (excel dialect) fed repr()
    strings; the JSON bytes are those of ``json.dump(payload, indent=1,
    sort_keys=True)`` plus a newline.  Both files are written one grid row at
    a time, and each value is formatted once for the two of them.
    """
    _check_finite(grid)
    xs = list(map(repr, grid.re_axis.tolist()))
    ys = list(map(repr, grid.im_axis.tolist()))
    with open(csv_path, "w", newline="") as fc, open(json_path, "w") as fj:
        fc.write("x,y,w\r\n")
        fj.write(f'{{\n "im_axis": {_json_array(ys)},\n "re_axis": {_json_array(xs)},\n'
                 ' "values_row_major": ')
        # json.dump(indent=1) lays out the concatenated rows as one array
        opener = "[\n  "
        for y, row in zip(ys, grid.values):
            vs = list(map(repr, row.tolist()))
            fc.write("".join([f"{x},{y},{v}\r\n" for x, v in zip(xs, vs)]))
            if vs:
                fj.write(opener + ",\n  ".join(vs))
                opener = ",\n  "
        fj.write(("[]" if opener == "[\n  " else "\n ]") + "\n}\n")


def _json_array(items: list[str]) -> str:
    """One array of preformatted floats, laid out as json.dump(indent=1)."""
    return "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"
