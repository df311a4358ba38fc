"""Wigner quasi-probability functions on the truncated Fock space.

The Wigner function of a Hermitian operator rho on the Fock space is the
Cahill-Glauber sum over the Fock-basis operators |m><n|,

    W(z) = (2/pi) Re sum_{k>=0} (2 - delta_k0) sum_m (-1)^m rho_{m,m+k} w^k_m(z),

    w^k_m(z) = e^{-x/2} (2z)^k sqrt(m!/(m+k)!) L^k_m(x),   x = 4|z|^2,

which is exact on the truncated space: no padding of the Fock space is
needed (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  The sum is linear
in rho and reads only its diagonals k >= 0.  ``_density`` is the one place
where amplitudes become coefficients, rho_{m,n} = c_m c*_n of a pure state,
and the evaluator ``_wigner_terms`` takes a list of operators, such as these
or a difference of them.
Along each diagonal k the w^k_m follow the normalized forward Laguerre
recurrence

    w_{m+1} = ((2m+1+k-x) w_m - sqrt(m(m+k)) w_{m-1}) / sqrt((m+1)(m+1+k)),

started from w^k_0 = e^{-x/2} (2z)^k / sqrt(k!), which is built up one k at a
time, as in QuTiP (Johansson, Nation & Nori, CPC 183, 1760 (2012)).  No
factorial is formed and every w is a bounded matrix element.  The recurrence
runs on the real factor w / e^{ik arg z}, which depends on |z| alone, so it
runs once per distinct radius and its sums are gathered back to the points;
the phase is applied once per diagonal.  The w^k_m do not depend on the
operator, so one pass serves every operator evaluated on the same points.
The pass is one loop over the diagonals k.  On each, every operator with a
nonzero coefficient there is a lane; the recurrence runs on three w rows to
the largest last nonzero m of any lane, and each lane accumulates (-1)^m
rho_{m,m+k} w_m from its steps up to its own last one.  A diagonal with no
lane is skipped.  The terms left out are exact zeros, so every map keeps
the bits it has when evaluated alone.

A pass over R distinct radii makes O(ncut^2) numpy calls of length R for
the recurrence plus O(ncut) calls over the points for the phases.  A Fock
state |n> adds one diagonal of n + 1 steps.  The memory is O(operators *
points) for the sums plus the (ncut+1)^2 entries of each operator.  The
difference of two maps is one pass over the coefficients of the difference
operator, at the cost of one map.  The start value e^{-2|z|^2} underflows
past |z| = MAX_ABS_Z (about 18.8), where evaluation is refused.

``wigner_difference`` takes the field in the frame displaced by beta: a
displacement only shifts a map, so the change against the coherent state
|beta> = D(beta)|0> is the map of rho_displaced - |0><0| at z - beta, an
operator it forms once.  For the first-order field, which lies on |0>, |1>,
|2> in that frame, this is three diagonals of at most three steps, with no
truncated coherent state.  The shifted points share no radii, so that pass
runs one block of grid rows at a time, each block over the same operator.

Normalization: integral of W over the plane is 1 with z in dimensionless
quadrature units.

``write_grid`` writes a map as CSV and JSON with every float as repr()
writes it.  The characters come from ``_floatrepr.float_cells``, a numpy
port of Ryu's shortest round-trip digits that equals repr() on every finite
double, as a uint8 matrix of cells, one row a value, formed one block of
whole rows (about CHUNK values) at a time.  Each axis and block keeps only
its live cell columns, those that hold a character in some row, so no
column that is 0 in every row is copied or scanned.  The block's CSV lines
and JSON items are composed around those cells in two more uint8 matrices,
whose x cells and separators are written whenever the width of the live
columns changes, and one ``bytes.translate`` per file and block deletes the
remaining 0 cells, so no Python string is made per value; each block is
written to both files, in binary mode, before the next is formatted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._floatrepr import CHUNK, float_cells
from .fock import FockVector

TWO_OVER_PI = 2.0 / math.pi

# largest |z| whose Gaussian factor e^{-2|z|^2} is a normal double
MAX_ABS_Z = math.sqrt(-math.log(np.finfo(float).tiny) / 2.0)

# json.dump(indent=1) puts an array's items one a line, indented by two
_JSON_SEPARATOR = b",\n  "


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


def wigner_maps(states: Sequence[FockVector], grid: GridSpec = GridSpec()) -> list[WignerGrid]:
    """Wigner functions of several pure states on one rectangular grid.

    The states may have different cutoffs; they share one pass over the grid,
    and each map has the bits a call for its state alone would give.
    """
    re_axis, im_axis = grid.axes()
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    values = _wigner_terms([_density(psi) for psi in states], zz.ravel())
    return [WignerGrid(re_axis, im_axis, v.reshape(zz.shape)) for v in values]


def _density(psi: FockVector) -> np.ndarray:
    """rho[m, n] = c_m c*_n of the pure state ``psi``, as an (ncut+1)^2 array.

    This is the one place where amplitudes become the Fock coefficients that
    ``_wigner_terms`` sums.  Diagonal k of the outer product has the bits of
    the slice product a[:n] * conj(a[k:]).
    """
    # written as not (... <= ...) so that a NaN norm is refused too
    if not abs(psi.norm() - 1.0) <= 1e-10:
        raise ValueError("state must be normalized for a Wigner evaluation")
    return np.multiply.outer(psi.amps, np.conj(psi.amps))


def _wigner_terms(ops: Sequence[np.ndarray], zs: np.ndarray) -> np.ndarray:
    """Values at ``zs`` of each operator's Cahill-Glauber sum, shape
    (len(ops), points).

    An operator is a Hermitian (ncut+1)^2 complex array in the Fock basis,
    such as a density matrix from ``_density`` or a difference of two, and
    only its diagonals k >= 0 are read: the sum is linear in the operator.
    The operators share the point plan and, on each diagonal k, one forward
    recurrence per distinct radius that runs to the largest m any operator
    needs.  An operator accumulates (-1)^m rho_{m,m+k} w_m only up to its last
    nonzero coefficient on the diagonal, and a diagonal where no operator has
    one is skipped: the sums left out are exact zeros, so each operator keeps
    the bits of a pass of its own.
    """
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
    totals = np.zeros((len(ops), zs.size))
    dim = max((len(op) for op in ops), default=0)
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    w0 = np.exp(-0.5 * x)  # |w^k_0|
    # work space of the pass: three w rows, each lane's (Re, Im) sums and
    # products at the radii, and the sums gathered to the points
    w, w_prev, w_next = (np.empty(r.size) for _ in range(3))
    sums, products = (np.empty((len(ops), 2, r.size)) for _ in range(2))
    at = np.empty((len(ops), 2, zs.size))
    for k in range(dim):
        if k:
            w0 *= 2.0 / math.sqrt(k)
            w0 *= r
        # a lane is an operator with a nonzero coefficient on diagonal k:
        # (its last nonzero m, the operator, (-1)^m rho_{m,m+k})
        lanes = []
        for i, op in enumerate(ops):
            if k < len(op):
                coeffs = np.diagonal(op, k) * signs[: len(op) - k]
                nonzero = coeffs.nonzero()[0]
                if nonzero.size:
                    lanes.append((int(nonzero[-1]), i, coeffs))
        if not lanes:
            continue
        # longest first, so that step m runs the prefix of the lanes whose
        # last m exceeds m
        lanes.sort(key=lambda lane: -lane[0])
        count = len(lanes)
        c = np.empty((lanes[0][0] + 1, count, 2, 1))  # (Re, Im) of c_m per lane
        for j, (last, _, coeffs) in enumerate(lanes):
            c[: last + 1, j, 0, 0] = coeffs.real[: last + 1]
            c[: last + 1, j, 1, 0] = coeffs.imag[: last + 1]
        acc, product, c_now = sums[:count], products[:count], c
        np.multiply(c[0], w0, out=acc)
        w[...] = w0
        w_prev[...] = 0.0
        for m in range(lanes[0][0]):
            if lanes[count - 1][0] <= m:
                count = sum(last > m for last, _, _ in lanes)
                acc, product, c_now = sums[:count], products[:count], c[:, :count]
            # w_{m+1} = ((2m+1+k - x) w_m - sqrt(m(m+k)) w_{m-1}) / sqrt((m+1)(m+1+k))
            np.subtract(2 * m + 1 + k, x, out=w_next)
            w_next *= w
            w_prev *= math.sqrt(m * (m + k))
            w_next -= w_prev
            w_next *= 1.0 / math.sqrt((m + 1) * (m + 1 + k))
            w_prev, w, w_next = w, w_next, w_prev
            np.multiply(c_now[m + 1], w, out=product)
            acc += product
        while turn_k < k:
            turn *= unit
            turn_k += 1
        # Re(e^{ik arg z} sums), counted twice off the main diagonal; inv is
        # in range, so mode="clip" clips nothing and spares take the copy of
        # ``out`` that mode="raise" makes
        gathered = np.take(sums[: len(lanes)], inv, axis=2, out=at[: len(lanes)], mode="clip")
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


def wigner_difference(
    displaced: FockVector,
    beta: complex,
    grid: GridSpec = GridSpec(),
) -> WignerDifference:
    """W_psi - W_beta on the grid, for the field psi = D(beta) ``displaced``
    against the coherent state |beta>.

    A displacement shifts a map, W of D(beta) rho D(beta)^dag at z is W_rho
    at z - beta, and D(beta)|0> is |beta> exactly.  So the difference is the
    map of the operator rho_displaced - |0><0| at z - beta, formed once: no
    coherent state is truncated, and for a displaced state on |0>, |1>, |2>,
    such as the first-order field's, the pass has three diagonals of at most
    three steps.  The shifted points share no radii, so the kernel's work
    space grows with the points; the grid goes through it one block of whole
    rows (about CHUNK points) at a time, each block over that one operator,
    and each value has the bits of one pass over the whole grid.

    ``ref_peak`` is the maximum over the grid of the reference map, the
    Gaussian (2/pi) e^{-2|z - beta|^2}: that Gaussian at the grid point
    nearest beta, which is nearest in each coordinate.

    This is the one place that judges a grid against the Wigner evaluation
    limit MAX_ABS_Z, measured from beta.  A grid whose nearest point lies
    past it is refused, by that distance, before any evaluation: there the
    reference peak underflows, and every value would be 0 or refused.  Where only some
    |z - beta| pass the limit, the kernel refuses to evaluate them.  For a
    displaced state on at most three levels the difference is 0 there: each
    of its terms is e^{-2|z - beta|^2} times a polynomial of degree at most
    4 in |z - beta|, and all nine stay below 1e-300 past that radius.  A
    state on more levels is refused there, by the kernel.
    """
    re_axis, im_axis = grid.axes()
    nearest = float(np.abs(complex(np.abs(re_axis - beta.real).min(),
                                   np.abs(im_axis - beta.imag).min())))
    # written as not (... <= ...) so that a NaN distance is refused too
    if not nearest <= MAX_ABS_Z:
        raise ValueError(
            f"the grid point nearest beta = {complex(beta):.4g} lies {nearest:.4g} from it, "
            f"past the Wigner evaluation limit {MAX_ABS_Z:.4g}, where the reference peak "
            f"(2/pi) e^(-2|z - beta|^2) underflows"
        )
    op = _density(displaced)
    op[0, 0] -= 1.0
    values = np.zeros(im_axis.size * re_axis.size)
    rows_per_block = max(1, CHUNK // max(re_axis.size, 1))
    for first in range(0, im_axis.size, rows_per_block):
        u = (re_axis[None, :] + 1j * im_axis[first: first + rows_per_block, None] - beta).ravel()
        radius = np.abs(u)
        inside = radius <= MAX_ABS_Z if displaced.ncut <= 2 else slice(None)
        block = values[first * re_axis.size: first * re_axis.size + u.size]
        block[inside] = _wigner_terms([op], u[inside])[0]
    delta = WignerGrid(re_axis, im_axis, values.reshape(im_axis.size, re_axis.size))
    max_abs, location = delta.max_abs_location()
    ref_peak = TWO_OVER_PI * math.exp(-2.0 * nearest**2)
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
    strings.  The JSON bytes are those of ``json.dump(payload, indent=1,
    sort_keys=True)`` plus a newline, as ``json.dump`` writes them on POSIX:
    the file is written in binary mode, so its lines always end in "\\n".

    Every character comes from ``float_cells``, whose rows hold one value's
    repr() with 0 in the unused cells.  The values go one block of whole
    grid rows (about CHUNK values) at a time.  Each axis and each block
    keeps only its live cell columns, those that hold a character in some
    row, so the width of a block's w cells may change from block to block.
    A block's CSV lines are composed in one uint8 matrix as [x cells ","]
    [y cells ","][w cells]["\\r\\n"] and its JSON items in another as
    [w cells][",\\n  "].  The x cells and the separators are written into
    the matrices again only when a block's w cells differ in width from the
    previous block's.  One ``bytes.translate`` per file and block deletes the
    0 cells, and each block is written to both files before the next is
    formatted.  So no Python string is made per value, and the grid's
    characters are never held at once.
    """
    _check_finite(grid)
    x_cells = _live_cells(grid.re_axis)
    y_cells = _live_cells(grid.im_axis)
    n_im, width = grid.values.shape
    rows_per_block = max(1, CHUNK // max(width, 1))
    y_at = x_cells.shape[1] + 1
    w_at = y_at + y_cells.shape[1] + 1
    csv_lines = json_lines = np.empty((0, 0, 0), dtype=np.uint8)
    with open(csv_path, "wb") as fc, open(json_path, "wb") as fj:
        fc.write(b"x,y,w\r\n")
        fj.write(b'{\n "im_axis": ' + _json_array(y_cells)
                 + b',\n "re_axis": ' + _json_array(x_cells)
                 + b',\n "values_row_major": ')
        # json.dump(indent=1) lays out the concatenated rows as one array
        opener = b"[\n  "
        for first in range(0, n_im if width else 0, rows_per_block):
            rows = grid.values[first: first + rows_per_block]
            cells = _live_cells(rows)
            if csv_lines.shape[-1] != w_at + cells.shape[1] + 2:
                csv_lines = np.empty((min(rows_per_block, n_im), width,
                                      w_at + cells.shape[1] + 2), dtype=np.uint8)
                csv_lines[:, :, : y_at - 1] = x_cells
                csv_lines[:, :, y_at - 1] = csv_lines[:, :, w_at - 1] = ord(",")
                csv_lines[:, :, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
                json_lines = _json_lines(len(csv_lines) * width, cells.shape[1])
            lines = csv_lines[: len(rows)]
            lines[:, :, y_at: w_at - 1] = y_cells[first: first + len(rows), None]
            lines.reshape(len(cells), -1)[:, w_at: -2] = cells
            fc.write(lines.tobytes().translate(None, b"\0"))
            fj.write(opener)
            fj.write(_json_items(cells, json_lines))
            opener = _JSON_SEPARATOR
        fj.write((b"[]" if opener == b"[\n  " else b"\n ]") + b"\n}\n")


def _live_cells(values: np.ndarray) -> np.ndarray:
    """The ``float_cells`` of ``values`` without the columns that are 0 in
    every row."""
    cells = float_cells(values)
    # each 8-byte column ORed down the rows, on a transposed copy, which
    # numpy reduces far faster than the strided columns
    words = np.ascontiguousarray(cells.view(np.uint64).T)
    return cells[:, np.bitwise_or.reduce(words, axis=1).view(np.uint8) != 0]


def _json_lines(rows: int, width: int) -> np.ndarray:
    """A (rows, width + separator) matrix whose last columns hold _JSON_SEPARATOR."""
    lines = np.empty((rows, width + len(_JSON_SEPARATOR)), dtype=np.uint8)
    lines[:, width:] = np.frombuffer(_JSON_SEPARATOR, dtype=np.uint8)
    return lines


def _json_items(cells: np.ndarray, json_lines: np.ndarray) -> memoryview:
    """The values of ``cells`` joined by _JSON_SEPARATOR, composed in the first
    rows of ``json_lines``, whose last columns hold that separator."""
    lines = json_lines[: len(cells)]
    lines[:, : cells.shape[1]] = cells
    return memoryview(lines.tobytes().translate(None, b"\0"))[: -len(_JSON_SEPARATOR)]


def _json_array(cells: np.ndarray) -> bytes:
    """One array of formatted floats, laid out as json.dump(indent=1)."""
    if not len(cells):
        return b"[]"
    return b"[\n  " + _json_items(cells, _json_lines(*cells.shape)) + b"\n ]"
