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
map keeps the bits it has when evaluated alone.

Each step of m advances a block of diagonals in one numpy call per
operation: their w rows form one slab, and each (diagonal, state) pair is a
lane that accumulates c_m w_m.  A block holds up to
max(1, BLOCK_ELEMENTS // radii) lanes, so a pass over R distinct radii makes
O(ncut^2 R / BLOCK_ELEMENTS + ncut) numpy calls for the recurrence, O(ncut)
when R is small, plus O(ncut) calls over the points for the phases.  The
per-call overhead, not the arithmetic, is what a few radii pay for, and the
block removes it; on a large grid every operation is long already, and the
block is one diagonal, stepped on 1-D rows with scalar factors.  Every
elementwise operation is the one a lone diagonal makes, in the same order of
m, so blocking changes no bit.  A Fock state |n> adds one diagonal of n + 1
steps.  The memory is O(states * points) plus O(BLOCK_ELEMENTS) per block
array.  The difference of two maps is one pass over the coefficients of
rho_psi - rho_ref, at the cost of one map.  The start value
e^{-2|z|^2} underflows past |z| = MAX_ABS_Z (about 18.8), where evaluation
is refused.

Normalization: integral of W over the plane is 1 with z in dimensionless
quadrature units.

``write_grid`` writes a map as CSV and JSON with every float as repr()
writes it.  The strings come from ``_floatrepr.float_reprs``, a numpy port of
Ryu's shortest round-trip digits that equals repr() on every finite double,
formed one block of whole rows (about CHUNK values) at a time; each block is
written to both files before the next is formatted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._floatrepr import CHUNK, float_reprs
from .fock import FockVector, coherent_state

TWO_OVER_PI = 2.0 / math.pi

# largest |z| whose Gaussian factor e^{-2|z|^2} is a normal double
MAX_ABS_Z = math.sqrt(-math.log(np.finfo(float).tiny) / 2.0)

# Element budget of a block: a block takes diagonals while its lanes
# (diagonal, state) number at most max(1, BLOCK_ELEMENTS // radii), so its
# w rows and lane sums hold O(BLOCK_ELEMENTS) elements; a diagonal is always
# taken whole.  Measured in-process on a 2-vCPU Xeon: fig1's 9-point
# reference peak steps all 41 diagonals at once (8.2 ms -> 2.4 ms a call);
# verify's 61x61 grid (661 radii) steps 12 lanes, where budgets of 2048 and
# 4096 were 7% and 4% slower than one diagonal a step and 8192 was even;
# fig1's 201x201 grid (6772 radii) keeps one diagonal a step below
# 2 x 6772, as larger blocks gained nothing there (33-38 ms a pass at one
# diagonal a step, 34-45 ms at four, 43-48 ms at eight).
BLOCK_ELEMENTS = 8192


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
    bits of a pass of its own.  The recurrence steps a block of diagonals
    at a time (``_block_sums``); the phases are applied one diagonal at a
    time, in ascending k.
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
    turn = np.ones(zs.size, dtype=complex)  # e^{ik arg z}
    turn_k = 0
    totals = np.zeros((len(pairs), zs.size))
    at = np.empty((len(pairs), 2, zs.size))
    # work arrays shared by every block of the pass: three slabs of w rows
    # and two of lane sums; a block holds at most ``budget`` lanes, or the
    # lanes of one diagonal
    budget = max(1, BLOCK_ELEMENTS // max(r.size, 1))
    slabs = [_aligned_empty((budget, r.size)) for _ in range(3)]
    sums = [_aligned_empty((max(budget, len(pairs)), 2, r.size)) for _ in range(2)]
    for block in _blocks(pairs, x, r, slabs[0]):
        block_sums = _block_sums(block, x, slabs, sums)
        first = 0
        for k, lanes in block:
            while turn_k < k:
                turn *= unit
                turn_k += 1
            count = len(lanes)
            # Re(e^{ik arg z} sums), counted twice off the main diagonal; inv
            # is in range, so mode="clip" clips nothing and spares take the
            # copy of ``out`` that mode="raise" makes
            gathered = np.take(block_sums[first: first + count], inv, axis=2,
                               out=at[:count], mode="clip")
            first += count
            at_re, at_im = gathered.transpose(1, 0, 2)
            at_re *= turn.real
            at_im *= turn.imag
            at_re -= at_im
            if k:
                at_re *= 2.0
            for (_, i, _), values in zip(lanes, at_re):
                totals[i] += values
    totals *= TWO_OVER_PI
    return totals


def _diagonal_lanes(pairs, k: int, signs: np.ndarray) -> list:
    """(last nonzero m, term index, coefficients) of each term that has a
    nonzero coefficient (-1)^m (a_m a*_{m+k} - b_m b*_{m+k}) on diagonal k,
    the longest first; b is the reference state's, or 0."""
    lanes = []
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
            lanes.append((int(nonzero[-1]), i, coeffs))
    lanes.sort(key=lambda lane: -lane[0])
    return lanes


def _blocks(pairs, x: np.ndarray, r: np.ndarray, starts: np.ndarray):
    """Blocks of diagonals [(k, lanes), ...] in ascending k, each holding at
    most len(starts) lanes or else one diagonal, with |w^k_0| of the block's
    j-th diagonal in starts[j]; diagonals without a lane are left out."""
    dim = max((amps.size for amps, _ in pairs), default=0)
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    start = np.exp(-0.5 * x)  # |w^k_0|
    block, size = [], 0
    for k in range(dim):
        if k:
            start *= 2.0 / math.sqrt(k)
            start *= r
        lanes = _diagonal_lanes(pairs, k, signs)
        if not lanes:
            continue
        if block and size + len(lanes) > len(starts):
            yield block
            block, size = [], 0
        starts[len(block)] = start
        block.append((k, lanes))
        size += len(lanes)
    if block:
        yield block


def _block_sums(block, x: np.ndarray, slabs: list, sums: list) -> np.ndarray:
    """(Re, Im) of sum_m c_m w^k_m at each radius for every lane of a block
    from ``_blocks``, shape (lanes, 2, radii), the lanes in block order.

    The block's w rows form one slab, and the rows and the lanes are sorted
    by run length, so that each step of m works on a prefix of both.  A
    block of one diagonal steps 1-D rows with scalar factors.  The three
    ``slabs`` (rows, radii) and the two ``sums`` (lanes, 2, radii) are work
    space, with the block's start rows in slabs[0]; the result is a view of
    one of ``sums``.
    """
    single = len(block) == 1
    if single:
        (k, lanes), = block
        order = range(len(lanes))
    else:
        runs = [lanes[0][0] for _, lanes in block]
        rows = sorted(range(len(block)), key=lambda g: -runs[g])
        row_of = {g: p for p, g in enumerate(rows)}
        lanes = [(last, row_of[g], coeffs)
                 for g, (_, diagonal) in enumerate(block) for last, _, coeffs in diagonal]
        order = sorted(range(len(lanes)), key=lambda j: -lanes[j][0])
        lanes = [lanes[j] for j in order]
        row_runs = [runs[g] for g in rows]
    lasts = [last for last, _, _ in lanes]
    depth = lasts[0]
    # c[m, j] holds (Re, Im) of the j-th lane's c_m, up to its last
    c = np.empty((depth + 1, len(lanes), 2, 1))
    for j, (last, _, coeffs) in enumerate(lanes):
        c[: last + 1, j, 0, 0] = coeffs.real[: last + 1]
        c[: last + 1, j, 1, 0] = coeffs.imag[: last + 1]
    acc, scratch = sums[0][: len(lanes)], sums[1][: len(lanes)]
    # the factors of w_{m+1} = ((2m+1+k - x) w_m - sqrt(m(m+k)) w_{m-1})
    # / sqrt((m+1)(m+1+k)), one column per row; each product under a root
    # is an exact integer, so numpy's roots are math.sqrt's
    if single:
        root = [math.sqrt(m * (m + k)) for m in range(depth + 1)]
        grow = [2 * m + 1 + k for m in range(depth)]
        scale = [1.0 / v for v in root[1:]]
        w, w_prev, w_next = slabs[0][0], slabs[1][0], slabs[2][0]
        np.multiply(c[0], w, out=acc)
    else:
        m = np.arange(depth + 1.0)[:, None, None]
        k = np.array([block[g][0] for g in rows], dtype=float)[:, None]
        root = np.sqrt(m * (m + k))
        grow, scale = 2.0 * m[:-1] + 1.0 + k, 1.0 / root[1:]
        w, w_prev, w_next = (slab[: len(rows)] for slab in slabs)
        if rows != sorted(rows):
            w[:] = w[rows]
        lane_rows = np.array([row for _, row, _ in lanes], dtype=np.intp)
        # when the j-th lane reads the j-th row (one lane a diagonal, as in a
        # one-state pass), the lanes step on the w rows themselves
        direct = np.array_equal(lane_rows, np.arange(len(rows)))
        lane_w = w if direct else np.take(w, lane_rows, axis=0)
        np.multiply(c[0], lane_w[:, None, :], out=acc)
    w_prev[...] = 0.0
    # the steps lo..hi-1 run the lanes, and the rows, whose last m exceeds lo
    ends = sorted(set(lasts) - {0})
    count = len(lanes)
    grow_now, back_now, scale_now = grow, root, scale
    for lo, hi in zip([0] + ends, ends):
        while lasts[count - 1] <= lo:
            count -= 1
        c_now, acc_now, scratch_now = c[:, :count], acc[:count], scratch[:count]
        if not single:
            row_count = sum(run > lo for run in row_runs)
            w_prev, w, w_next = w_prev[:row_count], w[:row_count], w_next[:row_count]
            grow_now, back_now, scale_now = (
                grow[:, :row_count], root[:, :row_count], scale[:, :row_count])
            if not direct:
                lane_rows_now, lane_w_now = lane_rows[:count], lane_w[:count]
                lane_w_3d = lane_w_now[:, None, :]
        for step in range(lo, hi):
            np.subtract(grow_now[step], x, out=w_next)
            w_next *= w
            w_prev *= back_now[step]
            w_next -= w_prev
            w_next *= scale_now[step]
            w_prev, w, w_next = w, w_next, w_prev
            if single:
                np.multiply(c_now[step + 1], w, out=scratch_now)
            elif direct:
                np.multiply(c_now[step + 1], w[:, None, :], out=scratch_now)
            else:
                np.take(w, lane_rows_now, axis=0, out=lane_w_now, mode="clip")
                np.multiply(c_now[step + 1], lane_w_3d, out=scratch_now)
            acc_now += scratch_now
    if single or order == sorted(order):
        return acc
    return np.take(acc, np.argsort(order), axis=0, out=scratch, mode="clip")


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float array whose data starts on a 64-byte boundary.

    Every step reads and writes the recurrence's work rows whole.  numpy
    aligns data to 16 bytes only, and a row that starts inside a cache line
    made fig1's 201x201 pass 3% slower than one that starts on a line (2-vCPU
    Xeon, in-process medians of 60 interleaved calls); no value changes.
    """
    size = math.prod(shape) * 8
    raw = np.empty(size + 64, dtype=np.uint8)
    first = -raw.ctypes.data % 64
    return raw[first: first + size].view(float).reshape(shape)


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
    sort_keys=True)`` plus a newline.  The repr() strings come from
    ``float_reprs``, which forms them in numpy, one block of about CHUNK
    values (whole grid rows) at a time; each block is written to both files
    before the next is formatted, so neither a list of the whole grid's
    strings nor its characters are ever held.
    """
    _check_finite(grid)
    xs = float_reprs(grid.re_axis)
    ys = float_reprs(grid.im_axis)
    width = len(xs)
    rows_per_block = max(1, CHUNK // max(width, 1))
    with open(csv_path, "w", newline="") as fc, open(json_path, "w") as fj:
        fc.write("x,y,w\r\n")
        fj.write(f'{{\n "im_axis": {_json_array(ys)},\n "re_axis": {_json_array(xs)},\n'
                 ' "values_row_major": ')
        # json.dump(indent=1) lays out the concatenated rows as one array
        opener = "[\n  "
        for first in range(0, len(ys) if width else 0, rows_per_block):
            rows = slice(first, first + rows_per_block)
            # one block's strings live only for the call that writes them
            _write_rows(fc, fj, xs, ys[rows], float_reprs(grid.values[rows]), opener)
            opener = ",\n  "
        fj.write(("[]" if opener == "[\n  " else "\n ]") + "\n}\n")


def _write_rows(fc, fj, xs: list[str], ys: list[str], values: list[str], opener: str) -> None:
    """Write whole grid rows of preformatted values to the CSV and the JSON
    file, the first JSON value after ``opener``."""
    width = len(xs)
    for start, y in zip(range(0, len(values), width), ys):
        vs = values[start: start + width]
        fc.write("\r\n".join(map(f",{y},".join, zip(xs, vs))) + "\r\n")
        fj.write(opener + ",\n  ".join(vs))
        opener = ",\n  "


def _json_array(items: list[str]) -> str:
    """One array of preformatted floats, laid out as json.dump(indent=1)."""
    return "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"
