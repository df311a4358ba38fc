import csv
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gupjc import checks
from gupjc.dispersive import DispersiveConfig, photon_added_decomposition
from gupjc.fock import (
    FockVector,
    coherent_state,
    fock_state,
    laguerre,
    photon_added_coherent_state,
)
from gupjc.gup import GupParams, derive_coefficients
from gupjc import wigner
from gupjc.wigner import (
    GridSpec,
    MAX_ABS_Z,
    WignerGrid,
    _density,
    _wigner_terms,
    wigner_difference,
    wigner_maps,
    wigner_precision_ratio,
    write_grid,
)

TWO_OVER_PI = 2.0 / math.pi


def displacement_operator(z: complex, dim: int) -> np.ndarray:
    """D(z) = exp(z a^dag - z* a) by direct matrix exponential."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return expm(z * a.conj().T - np.conj(z) * a)


def coherent_wigner_exact(alpha, zz):
    return TWO_OVER_PI * np.exp(-2.0 * np.abs(zz - alpha) ** 2)


def fock_wigner_exact(n, zz):
    values = np.vectorize(lambda r2: laguerre(n, 4.0 * r2))(np.abs(zz) ** 2)
    return TWO_OVER_PI * ((-1.0) ** n) * values * np.exp(-2.0 * np.abs(zz) ** 2)


def small_grid(n=81, extent=3.0):
    return GridSpec(-extent, extent, -extent, extent, n, n)


def term_operator(psi, reference=None):
    """rho_psi, or rho_psi - rho_ref with a ``reference`` state."""
    rho = _density(psi)
    return rho if reference is None else rho - _density(reference)


def values_at(psi, zs):
    """W_psi at arbitrary phase-space points ``zs``."""
    return _wigner_terms([_density(psi)], zs)[0]


def difference_values_at(psi, zs, reference):
    """W_psi - W_reference at ``zs`` in one pass over the coefficients of
    rho_psi - rho_ref, formed from the small difference of the two density
    matrices rather than as the difference of two large totals."""
    return _wigner_terms([term_operator(psi, reference)], zs)[0]


def test_vacuum_peak():
    w = values_at(fock_state(0, 2), np.array([0.0j]))
    assert w[0] == pytest.approx(TWO_OVER_PI, abs=1e-12)


def test_single_photon_negative_at_origin():
    w = values_at(fock_state(1, 3), np.array([0.0j]))
    assert w[0] == pytest.approx(-TWO_OVER_PI, abs=1e-12)


def test_coherent_point_values():
    coh = coherent_state(1.0, 30)
    w = values_at(coh, np.array([1.0 + 0.0j, 0.0j]))
    assert w[0] == pytest.approx(TWO_OVER_PI, abs=1e-10)
    assert w[1] == pytest.approx(TWO_OVER_PI * math.exp(-2.0), abs=1e-10)


def test_coherent_closed_form_on_grid():
    grid = small_grid()
    w = wigner_maps([coherent_state(0.8 + 0.3j, 30)], grid)[0]
    zz = w.re_axis[None, :] + 1j * w.im_axis[:, None]
    assert np.max(np.abs(w.values - coherent_wigner_exact(0.8 + 0.3j, zz))) < 1e-8


def test_fock_closed_forms_on_grid():
    grid = small_grid()
    for n in range(6):
        w = wigner_maps([fock_state(n, max(n, 1))], grid)[0]
        zz = w.re_axis[None, :] + 1j * w.im_axis[:, None]
        assert np.max(np.abs(w.values - fock_wigner_exact(n, zz))) < 1e-8


def test_normalization_across_states():
    grid = GridSpec(-4.0, 4.0, -4.0, 4.0, 121, 121)
    states = [
        fock_state(0, 2),
        coherent_state(1.0, 30),
        fock_state(1, 3),
        fock_state(2, 4),
        photon_added_coherent_state(1.0, 1, 30),
    ]
    for state in states:
        total = wigner_maps([state], grid)[0].integral()
        assert total == pytest.approx(1.0, abs=1e-3)


def test_photon_added_negativity():
    for alpha in (0.3, 1.0):
        w = wigner_maps([photon_added_coherent_state(alpha, 1, 30)], small_grid())[0]
        assert float(np.min(w.values)) < 0.0


def test_factored_displacement_matches_expm():
    # the Cahill-Glauber sum equals the displaced parity (2/pi) <P> of
    # D(-z)|psi>, with D(-z) a direct matrix exponential on a padded space
    psi = photon_added_coherent_state(0.7 + 0.2j, 1, 25)
    for z in (0.3 - 1.2j, 2.0 + 2.0j, -3.5 + 0.1j):
        fast = values_at(psi, np.array([z]))[0]
        dim = 25 + 1 + 150
        padded = np.zeros(dim, dtype=complex)
        padded[:26] = psi.amps
        displaced = displacement_operator(-z, dim) @ padded
        signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
        direct = TWO_OVER_PI * float(np.sum(signs * np.abs(displaced) ** 2))
        assert fast == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("n", [50, 200, 400])
def test_high_fock_state_at_origin(n):
    w = values_at(fock_state(n, n), np.array([0.0j]))
    assert w[0] == pytest.approx(TWO_OVER_PI * (-1.0) ** n, abs=1e-12)


def test_large_coherent_state_out_to_radius_ten():
    alpha = 6.0
    radii = np.linspace(0.0, 10.0, 41)
    angles = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    zs = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    w = values_at(coherent_state(alpha, 150), zs)
    assert np.max(np.abs(w - coherent_wigner_exact(alpha, zs))) < 1e-13


def test_far_point_keeps_its_gaussian_tail():
    # just inside the underflow limit the vacuum value is tiny but not zero
    z = 18.5 + 0.0j
    w = values_at(fock_state(0, 3), np.array([z]))[0]
    assert w == pytest.approx(TWO_OVER_PI * math.exp(-2.0 * abs(z) ** 2), rel=1e-12)


def test_point_past_underflow_limit_raises():
    assert 18.0 < MAX_ABS_Z < 19.0
    with pytest.raises(ValueError, match=r"\|z\| = 28.28.*18.8"):
        values_at(coherent_state(1.0, 20), np.array([0.0j, 20.0 + 20.0j]))


def cahill_glauber_mpmath(states, z, dps=50):
    """(2/pi) sum_{m,n} c_m c*_n W_mn(z) for each amplitude vector in
    ``states``, with each L^k_m from its finite power series, as mpmath
    numbers so that differences between states keep ``dps`` digits."""
    ncut = len(states[0]) - 1
    with mpmath.workdps(dps):
        z = mpmath.mpc(complex(z))
        x = 4 * abs(z) ** 2
        gauss = mpmath.exp(-x / 2)
        fact = [mpmath.factorial(j) for j in range(2 * ncut + 1)]
        series = [x**j / fact[j] for j in range(ncut + 1)]
        totals = [mpmath.mpf(0)] * len(states)
        coeffs = [[mpmath.mpc(complex(a)) for a in amps] for amps in states]
        for m in range(ncut + 1):
            for k in range(ncut + 1 - m):
                lag = mpmath.fsum(
                    (-1) ** j * math.comb(m + k, m - j) * series[j] for j in range(m + 1)
                )
                w = gauss * (2 * z) ** k * mpmath.sqrt(fact[m] / fact[m + k]) * lag
                for i, c in enumerate(coeffs):
                    term = (-1) ** m * c[m] * mpmath.conj(c[m + k]) * w
                    totals[i] += term.real if k == 0 else 2 * term.real
        return [2 * t / mpmath.pi for t in totals]


def test_benchmark_field_matches_mpmath_oracle():
    field, reference = _benchmark_state()
    ref_state = coherent_state(reference, field.ncut)
    zs = np.array([-0.92 + 1.0j, 0.5 - 0.5j, 2.5 + 1.5j])
    w_field = values_at(field, zs)
    w_ref = values_at(ref_state, zs)
    for z, wf, wr in zip(zs, w_field, w_ref):
        oracle_field, oracle_ref = cahill_glauber_mpmath([field.amps, ref_state.amps], z)
        assert wf == pytest.approx(float(oracle_field), abs=1e-14)
        assert wf - wr == pytest.approx(float(oracle_field - oracle_ref), abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    amps=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=21,
    ),
    zs=st.lists(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
)
def test_wigner_bounded_by_two_over_pi(amps, zs):
    amps = np.array(amps, dtype=complex)
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    psi = FockVector(amps.size - 1, amps / norm)
    w = values_at(psi, np.array(zs, dtype=complex))
    assert np.all(np.abs(w) <= TWO_OVER_PI * (1.0 + 1e-12))


def test_one_pass_difference_matches_mpmath_oracle():
    # W_field - W_ref from one sum over rho_field - rho_ref keeps the small
    # difference to ~1e-10 relative; subtracting two totals does not
    field, reference = _benchmark_state()
    ref_state = coherent_state(reference, field.ncut)
    zs = np.array([-0.92 + 1.0j, 0.5 - 0.5j, 2.5 + 1.5j])
    delta = difference_values_at(field, zs, ref_state)
    for z, value in zip(zs, delta):
        oracle_field, oracle_ref = cahill_glauber_mpmath([field.amps, ref_state.amps], z)
        oracle = float(oracle_field - oracle_ref)
        assert abs(value - oracle) <= 1e-10 * abs(oracle) + 1e-20


@settings(max_examples=60, deadline=None)
@given(
    amps=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=32,
    ),
    zs=st.lists(
        st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
)
def test_one_pass_difference_is_the_difference_of_maps(amps, zs):
    half = len(amps) // 2
    a, b = np.array(amps[:half], dtype=complex), np.array(amps[half: 2 * half], dtype=complex)
    assume(np.linalg.norm(a) > 1e-3 and np.linalg.norm(b) > 1e-3)
    psi = FockVector(half - 1, a / np.linalg.norm(a))
    ref = FockVector(half - 1, b / np.linalg.norm(b))
    zs = np.array(zs, dtype=complex)
    delta = difference_values_at(psi, zs, ref)
    two_pass = values_at(psi, zs) - values_at(ref, zs)
    assert np.max(np.abs(delta - two_pass)) <= 1e-13
    assert np.array_equal(difference_values_at(ref, zs, psi), -delta)


def test_difference_of_state_with_itself_vanishes():
    # the displaced vacuum is the reference |beta> itself
    for ncut in (2, 30):
        diff = wigner_difference(fock_state(0, ncut), 1.0 - 0.5j, small_grid(n=41))
        assert diff.max_abs == 0.0


@pytest.mark.parametrize("alpha, ncut, spec", [
    (1.0, 30, GridSpec()),
    (-0.3634 + 0.9316j, 40, GridSpec()),
    (1.3 - 0.4j, 30, GridSpec(-3.0, 3.0, -3.0, 3.0, 61, 61)),
    (0.5 + 2.0j, 35, GridSpec(-4.0, 4.0, -2.0, 3.5, 37, 52)),
    (3.0, 60, GridSpec(-5.0, 5.0, -5.0, 5.0, 100, 101)),
    (0.25 + 0.25j, 20, GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2)),
    (2.5 - 2.5j, 60, GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)),
    # alpha midway between grid points: the nearest point ties with its
    # neighbours, and rounding picks the maximum among them
    (0.5 + 0.5j, 20, GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)),
    (1.1 - 0.3j, 30, GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)),
    (0.7 - 0.5j, 40, GridSpec(-1.0, 1.0, -1.0, 1.0, 11, 11)),
])
def test_reference_peak_equals_full_grid_peak(alpha, ncut, spec):
    # ref_peak is the closed-form Gaussian at the grid point nearest alpha;
    # the oracle evaluates the truncated coherent state on the whole grid
    field = photon_added_coherent_state(0.5, 1, ncut)
    diff = wigner_difference(field, alpha, spec)
    peak = float(np.max(wigner_maps([coherent_state(alpha, ncut)], spec)[0].values))
    assert diff.ref_peak == pytest.approx(peak, rel=1e-12, abs=0.0)


def test_difference_makes_one_kernel_pass(monkeypatch):
    # the grid goes through the kernel in blocks of rows: each call holds the
    # one operator that the difference forms once, and the calls cover each
    # shifted grid point exactly once
    calls, densities = [], []
    kernel, density = wigner._wigner_terms, wigner._density

    def counted(ops, zs):
        calls.append((ops, zs))
        return kernel(ops, zs)

    def counted_density(psi):
        densities.append(psi)
        return density(psi)

    monkeypatch.setattr(wigner, "_wigner_terms", counted)
    monkeypatch.setattr(wigner, "_density", counted_density)
    dec = _benchmark_decomposition()
    spec = GridSpec()
    wigner_difference(dec.displaced, dec.beta, spec)
    assert len(calls) == math.ceil(spec.n_im / (wigner.CHUNK // spec.n_re)) > 1
    assert len(densities) == 1 and densities[0] is dec.displaced
    op = calls[0][0][0]
    assert all(len(ops) == 1 and ops[0] is op for ops, _ in calls)
    assert np.array_equal(op, term_operator(dec.displaced, fock_state(0, 2)))
    re_axis, im_axis = spec.axes()
    shifted = (re_axis[None, :] + 1j * im_axis[:, None] - dec.beta).ravel()
    assert np.array_equal(np.concatenate([zs for _, zs in calls]), shifted)


def test_precision_ratio():
    assert wigner_precision_ratio(1e-4, 1e-1) == pytest.approx(1e-3)
    assert wigner_precision_ratio(0.0, 0.5) == 0.0
    assert wigner_precision_ratio(2e-4, 1e-1) == pytest.approx(2e-3)
    with pytest.raises(ValueError):
        wigner_precision_ratio(1e-4, 0.0)


def _benchmark_decomposition(t=1e3, atom="g"):
    """The first-order decomposition at the fig1 settings."""
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e15)
    d = DispersiveConfig(mu=1e5, phi=c.phi, alpha=1.0, t=t)
    return photon_added_decomposition(d, atom)


def _benchmark_state(t=1e3, atom="g"):
    """The first-order field at the fig1 settings in the lab-frame Fock basis,
    cut at 40, and its beta: its amplitudes over |beta> and the one- and
    two-photon-added states at beta."""
    dec = _benchmark_decomposition(t, atom)
    basis = [photon_added_coherent_state(dec.beta, m, 40).amps for m in range(3)]
    amps = dec.base_amp * basis[0] + dec.pacs1_amp * basis[1] + dec.pacs2_amp * basis[2]
    return FockVector(40, amps), dec.beta


def test_difference_linear_in_time():
    vals = []
    for t in (1e3, 2e3):
        dec = _benchmark_decomposition(t)
        vals.append(wigner_difference(dec.displaced, dec.beta, small_grid(n=61)).max_abs)
    assert vals[1] / vals[0] == pytest.approx(2.0, rel=0.1)


def refined(spec):
    """``spec`` with each cell halved along both axes."""
    return GridSpec(spec.re_min, spec.re_max, spec.im_min, spec.im_max,
                    2 * spec.n_re - 1, 2 * spec.n_im - 1)


def test_difference_extrema_stable_under_refinement():
    # the signed lobes keep their positions within one coarse cell when the
    # grid is refined; the two lobes are nearly degenerate in |value|, so the
    # global argmax may hop between them and only the value is compared
    dec = _benchmark_decomposition()
    coarse_spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 101, 101)
    coarse = wigner_difference(dec.displaced, dec.beta, coarse_spec)
    fine = wigner_difference(dec.displaced, dec.beta, refined(coarse_spec))
    cell = 8.0 / 100.0

    def extremum(grid_values, axes, pick):
        i, j = np.unravel_index(pick(grid_values), grid_values.shape)
        return complex(axes[1][j], axes[0][i])

    for pick in (np.argmax, np.argmin):
        loc_c = extremum(coarse.grid.values, (coarse.grid.im_axis, coarse.grid.re_axis), pick)
        loc_f = extremum(fine.grid.values, (fine.grid.im_axis, fine.grid.re_axis), pick)
        assert abs(loc_c - loc_f) <= cell * math.sqrt(2.0) + 1e-12
    assert fine.max_abs == pytest.approx(coarse.max_abs, rel=1e-2)


def displaced_parity_mpmath(phi_amps, z, beta, dps=50, levels=200):
    """(2/pi) [sum_n (-1)^n |<n|D(-u) phi>|^2 - e^{-2|u|^2}] at u = z - beta:
    the map of |phi><phi| - |0><0| at u as a displaced parity, in ``dps``
    digits, with u formed exactly.  D(-u)|m> = (a^dag + u*)^m |-u> / sqrt(m!)
    is summed over ``levels`` Fock levels, so no Laguerre polynomial enters."""
    with mpmath.workdps(dps):
        u = mpmath.mpc(complex(z)) - mpmath.mpc(complex(beta))
        coh = [mpmath.exp(-abs(u) ** 2 / 2)]
        for n in range(1, levels):
            coh.append(coh[-1] * (-u) / mpmath.sqrt(n))
        basis = [coh]
        for m in range(1, len(phi_amps)):
            prev = basis[-1]
            basis.append([(mpmath.conj(u) * prev[n] + (mpmath.sqrt(n) * prev[n - 1] if n else 0))
                          / mpmath.sqrt(m) for n in range(levels)])
        phi = [mpmath.mpc(complex(a)) for a in phi_amps]
        amps = [mpmath.fsum(c * b[n] for c, b in zip(phi, basis)) for n in range(levels)]
        parity = mpmath.fsum((-1) ** n * abs(a) ** 2 for n, a in enumerate(amps))
        return 2 / mpmath.pi * (parity - mpmath.exp(-2 * abs(u) ** 2))


# fig1 grid points: the extremum with the atom in g and in e, the corners,
# the origin and three more
ORACLE_POINTS = [(-0.92, 1.0), (0.04, -1.28), (-4.0, -4.0), (4.0, 4.0), (0.0, 0.0),
                 (0.5, -0.5), (2.5, 1.5), (-2.0, 3.0)]


@pytest.mark.parametrize("atom", ["g", "e"])
def test_displaced_difference_matches_the_displaced_parity_oracle(atom):
    dec = _benchmark_decomposition(atom=atom)
    grid = wigner_difference(dec.displaced, dec.beta, GridSpec()).grid
    for x, y in ORACLE_POINTS:
        i, j = int(np.argmin(np.abs(grid.im_axis - y))), int(np.argmin(np.abs(grid.re_axis - x)))
        z = complex(grid.re_axis[j], grid.im_axis[i])
        oracle = displaced_parity_mpmath(dec.displaced.amps, z, dec.beta)
        error = abs(grid.values[i, j] - oracle)
        assert error <= 2e-16, (z, error)
        if (x, y) == (-4.0, -4.0) and atom == "g":
            # 6.9e-36 here; the lab-frame pass misses it by 18%
            assert 1e-36 < abs(oracle) < 1e-35 and error <= 1e-12 * abs(oracle), error / abs(oracle)


@pytest.mark.parametrize("atom", ["g", "e"])
def test_displaced_difference_matches_the_lab_frame_pass(atom):
    dec = _benchmark_decomposition(atom=atom)
    values = wigner_difference(dec.displaced, dec.beta, GridSpec()).grid.values
    re_axis, im_axis = GridSpec().axes()
    zs = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    field, beta = _benchmark_state(atom=atom)
    lab = difference_values_at(field, zs, coherent_state(beta, 40))
    assert np.max(np.abs(values.ravel() - lab)) <= 2e-16


ROWS_PER_BLOCK = wigner.CHUNK // 201


@pytest.mark.parametrize("atom, spec", [
    ("g", GridSpec()),
    ("e", GridSpec()),
    # a row count that is not a multiple of the rows per block
    ("g", GridSpec(-3.0, 3.0, -2.0, 2.5, 201, 2 * ROWS_PER_BLOCK + 7)),
    # a row wider than one block
    ("e", GridSpec(-4.0, 4.0, -1.0, 1.0, wigner.CHUNK + 5, 3)),
], ids=["fig1 g", "fig1 e", "partial block", "wide row"])
def test_blocked_difference_equals_one_kernel_call_bitwise(atom, spec):
    dec = _benchmark_decomposition(atom=atom)
    re_axis, im_axis = spec.axes()
    shifted = (re_axis[None, :] + 1j * im_axis[:, None] - dec.beta).ravel()
    one_call = difference_values_at(dec.displaced, shifted, fock_state(0, 2))
    values = wigner_difference(dec.displaced, dec.beta, spec).grid.values
    assert values.shape == (spec.n_im, spec.n_re)
    assert np.array_equal(values.ravel().view(np.uint64), one_call.view(np.uint64))


def test_difference_peak_memory_on_the_fig1_grid():
    # the blocks keep the per-point work space at one block's size
    dec = _benchmark_decomposition()
    wigner_difference(dec.displaced, dec.beta, GridSpec())
    tracemalloc.start()
    try:
        wigner_difference(dec.displaced, dec.beta, GridSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_points_past_the_limit_from_beta_read_zero():
    # every point lies within MAX_ABS_Z of 0, but some corners lie past it
    # from beta, where the kernel refuses them
    dec = _benchmark_decomposition()
    spec = GridSpec(-13.3, 13.3, -13.3, 13.3, 3, 3)
    re_axis, im_axis = spec.axes()
    shifted = (re_axis[None, :] + 1j * im_axis[:, None] - dec.beta).ravel()
    far = np.abs(shifted) > MAX_ABS_Z
    assert far.any() and not far.all()
    with pytest.raises(ValueError, match="exceeds"):
        difference_values_at(dec.displaced, shifted, fock_state(0, 2))
    values = wigner_difference(dec.displaced, dec.beta, spec).grid.values.ravel()
    assert np.all(values[far] == 0.0)
    inside = difference_values_at(dec.displaced, shifted[~far], fock_state(0, 2))
    assert np.array_equal(values[~far], inside)
    # the 0 stands for less than 1e-300: no term |m><m+k| with m + k <= 2
    # reaches 1e-301 at or past MAX_ABS_Z
    with mpmath.workdps(30):
        for rho in (MAX_ABS_Z, 19.0, 25.0, 60.0):
            x = 4 * mpmath.mpf(rho) ** 2
            for m in range(3):
                for k in range(3 - m):
                    w = (mpmath.exp(-x / 2) * (2 * mpmath.mpf(rho)) ** k * mpmath.laguerre(m, k, x)
                         * mpmath.sqrt(mpmath.factorial(m) / mpmath.factorial(m + k)))
                    assert 2 * TWO_OVER_PI * abs(w) < 1e-301, (rho, m, k)
    # a displaced state on more levels is refused there, as the kernel refuses
    with pytest.raises(ValueError, match="exceeds"):
        wigner_difference(coherent_state(0.5, 20), dec.beta, spec)


def test_grid_out_of_reach_of_beta_is_refused_before_any_evaluation(monkeypatch):
    # a grid whose nearest point lies just inside MAX_ABS_Z from beta keeps a
    # positive reference peak; one past it, or a NaN beta, is refused by that
    # distance before the kernel is called
    spec = small_grid(n=5)
    diff = wigner_difference(fock_state(0, 2), complex(3.0 + 18.8, 0.0), spec)
    assert diff.ref_peak > 0.0 and diff.max_abs == 0.0
    calls = []
    monkeypatch.setattr(wigner, "_wigner_terms", lambda ops, zs: calls.append(zs))
    for beta in (complex(3.0 + MAX_ABS_Z + 1e-9, 0.0), -30.0j, complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match=rf"lies \S+ from it, past the Wigner evaluation "
                                             rf"limit {MAX_ABS_Z:.4g}"):
            wigner_difference(fock_state(0, 2), beta, spec)
    assert calls == []


def test_nan_state_or_point_is_refused():
    nan_state = FockVector(2, [math.nan, 0.0, 0.0])
    zs = np.array([0.0j, 1.0 + 0.0j])
    with pytest.raises(ValueError, match="normalized"):
        values_at(nan_state, zs)
    with pytest.raises(ValueError, match="normalized"):
        difference_values_at(fock_state(0, 2), zs, nan_state)
    with pytest.raises(ValueError, match="exceeds"):
        values_at(coherent_state(1.0, 20), np.array([0.0j, complex(math.nan, 0.0)]))


@pytest.mark.parametrize("points", ["grid", "scattered"])
def test_values_at_many_points_equal_per_point_values(points):
    if points == "grid":
        re_axis, im_axis = small_grid(n=21).axes()
        zs = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
        assert np.unique(np.abs(zs)).size < zs.size / 4
    else:
        rng = np.random.default_rng(11)
        zs = rng.uniform(-3.0, 3.0, 60) + 1j * rng.uniform(-3.0, 3.0, 60)
        assert np.unique(np.abs(zs)).size == zs.size
    field, reference = _benchmark_state()
    ops = [term_operator(field), term_operator(field, coherent_state(reference, field.ncut))]
    # each point alone, given twice: numpy's in-place complex multiply
    # rounds a one-element array differently from longer ones.  Both
    # operators share each one-point call; that a shared pass at one radius
    # has the bits of one operator alone is
    # test_blocked_pass_equals_the_single_state_kernel_bitwise[one radius]
    each = np.stack([_wigner_terms(ops, np.full(2, z))[:, 0] for z in zs], axis=1)
    for op, alone in zip(ops, each):
        many = _wigner_terms([op], zs)[0]
        assert np.array_equal(many.view(np.uint64), alone.view(np.uint64))


def single_state_kernel(psi, zs, reference=None):
    """The one-state kernel that the shared pass replaced: its own point plan
    and its own recurrence, run over every (k, m) of the cutoff."""
    amps = psi.amps
    zs = np.asarray(zs, dtype=complex).ravel()
    r, inv = np.unique(np.abs(zs), return_inverse=True)
    x = 4.0 * r * r
    unit = np.exp(1j * np.angle(zs))
    signs = np.where(np.arange(psi.ncut + 1) % 2 == 0, 1.0, -1.0)
    start = np.exp(-0.5 * x)
    turn = np.ones(zs.size, dtype=complex)
    total = np.zeros(zs.size)
    w_prev, w, w_next, scratch, acc_re, acc_im = (np.empty(r.size) for _ in range(6))
    at_re, at_im = np.empty(zs.size), np.empty(zs.size)
    for k in range(psi.ncut + 1):
        if k:
            start *= 2.0 / math.sqrt(k)
            start *= r
            turn *= unit
        n = psi.ncut + 1 - k
        coeffs = amps[:n] * np.conj(amps[k:])
        if reference is not None:
            coeffs -= reference.amps[:n] * np.conj(reference.amps[k:])
        coeffs *= signs[:n]
        c_re, c_im = coeffs.real.tolist(), coeffs.imag.tolist()
        w[:] = start
        w_prev[:] = 0.0
        np.multiply(w, c_re[0], out=acc_re)
        np.multiply(w, c_im[0], out=acc_im)
        for m in range(n - 1):
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
        np.take(acc_re, inv, out=at_re)
        np.take(acc_im, inv, out=at_im)
        at_re *= turn.real
        at_im *= turn.imag
        at_re -= at_im
        if k:
            at_re *= 2.0
        total += at_re
    total *= TWO_OVER_PI
    return total


def _mixed_batch():
    """States whose cutoffs, last nonzero coefficients and zero diagonals all
    differ: |0>..|5> at their own cutoffs, a complex-alpha coherent state, the
    photon-added state, and (|1> + |4>)/sqrt(2), which has zero diagonals
    between nonzero ones."""
    sparse = np.zeros(8, dtype=complex)
    sparse[[1, 4]] = 1.0 / math.sqrt(2.0)
    return [
        *(fock_state(n, max(n, 1)) for n in range(6)),
        coherent_state(0.8 + 0.3j, 30),
        photon_added_coherent_state(1.0, 1, 20),
        FockVector(7, sparse),
    ]


def test_maps_of_a_mixed_batch_equal_the_single_state_kernel_bitwise():
    spec = GridSpec(-4.0, 4.0, -3.0, 3.5, 41, 37)
    re_axis, im_axis = spec.axes()
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    states = _mixed_batch()
    maps = wigner_maps(states, spec)
    assert len(maps) == len(states)
    for psi, w in zip(states, maps):
        assert np.array_equal(w.re_axis, re_axis) and np.array_equal(w.im_axis, im_axis)
        oracle = single_state_kernel(psi, zz.ravel()).reshape(zz.shape)
        assert np.array_equal(w.values.view(np.uint64), oracle.view(np.uint64))
        assert np.array_equal(wigner_maps([psi], spec)[0].values, w.values)


def test_difference_term_in_a_batch_equals_the_one_pass_difference_bitwise():
    field, reference = _benchmark_state()
    ref_state = coherent_state(reference, field.ncut)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-3.0, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
    states = _mixed_batch()
    terms = [(psi, None) for psi in states] + [(field, ref_state), (ref_state, None)]
    values = _wigner_terms([term_operator(psi, ref) for psi, ref in terms], zs)
    assert values.shape == (len(terms), zs.size)
    delta = difference_values_at(field, zs, ref_state)
    assert np.array_equal(values[-2].view(np.uint64), delta.view(np.uint64))
    assert np.array_equal(delta.view(np.uint64),
                          single_state_kernel(field, zs, ref_state).view(np.uint64))
    for (psi, _), row in zip(terms[:-2] + terms[-1:], np.delete(values, -2, axis=0)):
        assert np.array_equal(row.view(np.uint64), single_state_kernel(psi, zs).view(np.uint64))


def _batch_terms():
    """(state, reference) pairs for a batched pass, each evaluated as
    ``term_operator(state, reference)``: the mixed batch, the fig1 difference
    term, and (|0> + i|2> - |3> + |5>/2)/|.|, whose diagonal runs grow with k
    (k = 1 runs to m = 2, k = 2 to m = 3)."""
    field, reference = _benchmark_state()
    gappy = np.array([1.0, 0.0, 1j, -1.0, 0.0, 0.5])
    return ([(psi, None) for psi in _mixed_batch()]
            + [(field, coherent_state(reference, field.ncut)),
               (FockVector(5, gappy / np.linalg.norm(gappy)), None)])


@pytest.mark.parametrize("points", ["one radius", "61x61", "201x201"])
def test_blocked_pass_equals_the_single_state_kernel_bitwise(points):
    if points == "one radius":
        zs = np.full(2, 0.3 - 0.7j)
    else:
        n = int(points.split("x")[0])
        re_axis, im_axis = GridSpec(-4.0, 4.0, -4.0, 4.0, n, n).axes()
        zs = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    terms = _batch_terms()
    if points == "201x201":
        terms = terms[6:]
    values = _wigner_terms([term_operator(psi, ref) for psi, ref in terms], zs)
    for (psi, reference), row in zip(terms, values):
        oracle = single_state_kernel(psi, zs, reference)
        assert np.array_equal(row.view(np.uint64), oracle.view(np.uint64))


def test_batch_refuses_a_bad_term_and_takes_an_empty_one():
    zs = np.array([0.0j, 1.0 + 0.5j])
    with pytest.raises(ValueError, match="normalized"):
        wigner_maps([fock_state(0, 2), FockVector(2, [math.nan, 0.0, 0.0])], small_grid(n=3))
    assert _wigner_terms([], zs).shape == (0, 2)
    assert wigner_maps([], small_grid(n=3)) == []


def pairwise_coefficients(psi, reference, k):
    """The coefficients that the kernel formed from amplitudes on diagonal k
    before ``_density`` took over: (-1)^m (a_m a*_{m+k} - b_m b*_{m+k}),
    with b the reference's amplitudes, or 0."""
    amps = psi.amps
    n = amps.size - k
    coeffs = amps[:n] * np.conj(amps[k:])
    if reference is not None:
        coeffs -= reference.amps[:n] * np.conj(reference.amps[k:])
    coeffs *= np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return coeffs


def _coefficient_cases():
    """(state, reference) pairs: fig1's difference term with the atom in g and
    in e, verify's eight Wigner fixture states, and the gappy batch state."""
    for atom in ("g", "e"):
        field, reference = _benchmark_state(atom=atom)
        yield f"fig1 {atom}", field, coherent_state(reference, field.ncut)
    fixtures = [coherent_state(checks._WIGNER_ALPHA, checks._WIGNER_NCUT),
                *(fock_state(n, max(n, 1)) for n in range(6)),
                photon_added_coherent_state(1.0, 1, checks._WIGNER_NCUT)]
    for i, psi in enumerate(fixtures):
        yield f"verify fixture {i}", psi, None
    gappy, _ = _batch_terms()[-1]
    yield "gappy", gappy, None


@pytest.mark.parametrize("case", list(_coefficient_cases()), ids=lambda case: case[0])
def test_density_diagonals_equal_the_pairwise_coefficients_bitwise(case):
    _, psi, reference = case
    rho = term_operator(psi, reference)
    assert rho.shape == (psi.ncut + 1, psi.ncut + 1)
    signs = np.where(np.arange(psi.ncut + 1) % 2 == 0, 1.0, -1.0)
    for k in range(psi.ncut + 1):
        coeffs = np.diagonal(rho, k) * signs[: psi.ncut + 1 - k]
        oracle = pairwise_coefficients(psi, reference, k)
        assert np.array_equal(coeffs.view(np.uint64), oracle.view(np.uint64)), k


def test_a_mixed_operator_is_the_mean_of_its_fock_maps():
    # the sum is linear in the operator: (|0><0| + |1><1|)/2 maps to the mean
    # of the two Fock states' closed forms
    re_axis, im_axis = small_grid().axes()
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    rho = np.diag([0.5, 0.5]).astype(complex)
    values = _wigner_terms([rho], zz.ravel())[0].reshape(zz.shape)
    mean = (fock_wigner_exact(0, zz) + fock_wigner_exact(1, zz)) / 2.0
    assert np.max(np.abs(values - mean)) <= 1e-15


def _csv_writer_oracle(grid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "w"])
        for i, y in enumerate(grid.im_axis):
            for j, x in enumerate(grid.re_axis):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(grid.values[i, j]))])


def _json_dump_oracle(grid, path):
    payload = {
        "re_axis": [float(v) for v in grid.re_axis],
        "im_axis": [float(v) for v in grid.im_axis],
        "values_row_major": [float(v) for v in grid.values.ravel()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# every layout repr() uses: positional, small positional, integral, exponent
# with two and three digits, signed zeros, subnormals and the extremes
LAYOUT_FORMS = [0.0, -0.0, 1.0, -2.5, 0.001, -0.0001234, 1e-05, 123456.789, 1e15,
                9999999999999998.0, 1e16, -1.5e-300, 5e-324, 1.7976931348623157e308,
                12.0, 0.1, 2.2250738585072014e-308, -3.3e+100, 1e22, 0.5]


@pytest.mark.parametrize("shape", [
    (1, 1), (3, 2), (4, 5), (2, 0), "benchmark", "fig1",
    # a row wider than one formatting chunk, and a row count that is not a
    # multiple of the rows written per block
    (2, wigner.CHUNK + 5), (wigner.CHUNK // 1000 * 2 + 1, 1000),
    "layout forms", "widest axes", "block widths",
])
def test_grid_writers_match_csv_and_json_oracles(tmp_path, shape):
    if shape == "benchmark":
        dec = _benchmark_decomposition()
        grid = wigner_difference(dec.displaced, dec.beta, small_grid(n=41)).grid
    elif shape == "fig1":
        dec = _benchmark_decomposition()
        grid = wigner_difference(dec.displaced, dec.beta, GridSpec()).grid
    elif shape == "layout forms":
        values = np.array(LAYOUT_FORMS).reshape(4, 5)
        grid = WignerGrid(np.array([-1e-05, 0.0, 1e16, 3.0, -7e-300]),
                          np.array([0.25, -1e-4, 1e200, 2.0]), values)
    elif shape == "widest axes":
        # axes whose reprs run from 3 to 24 characters, on a row count that
        # leaves the last block partial
        forms = np.array([1.0, -0.0, 5e-324, -2.2250738585072014e-308, -1.7976931348623157e+308])
        n_im = 2 * (wigner.CHUNK // forms.size) + 3
        values = np.resize(np.array(LAYOUT_FORMS), (n_im, forms.size))
        grid = WignerGrid(forms, np.resize(forms[::-1], n_im), values)
    elif shape == "block widths":
        # blocks whose live cell columns differ: fig1-like values with
        # two-digit exponents, then "0.000"-prefixed positional values and a
        # three-digit exponent, then a partial block of short values
        n_re = 50
        per_block = wigner.CHUNK // n_re
        rng = np.random.default_rng(11)
        values = rng.normal(size=(2 * per_block + 3, n_re)) * 1e-5
        values[per_block: 2 * per_block] = rng.uniform(1e-4, 9e-4, size=(per_block, n_re))
        values[per_block + 1, 7] = -2.5e-123
        values[2 * per_block:] = np.round(values[2 * per_block:] * 1e5, 1)
        widths = {wigner._live_cells(values[first: first + per_block]).shape[1]
                  for first in range(0, len(values), per_block)}
        assert len(widths) == 3, widths
        grid = WignerGrid(np.linspace(-1.0, 1.0, n_re), np.linspace(-2.0, 0.3, len(values)),
                          values)
    else:
        n_im, n_re = shape
        values = np.random.default_rng(7).normal(size=shape) * np.logspace(-300, 300, n_re)
        if values.size:
            values.flat[0] = -0.0
        grid = WignerGrid(np.linspace(-1.0, 1.0, n_re), np.linspace(-2.0, 0.3, n_im), values)
    write_grid(grid, tmp_path / "fast.csv", tmp_path / "fast.json")
    _csv_writer_oracle(grid, tmp_path / "oracle.csv")
    _json_dump_oracle(grid, tmp_path / "oracle.json")
    for suffix in ("csv", "json"):
        assert (tmp_path / f"fast.{suffix}").read_bytes() == (
            tmp_path / f"oracle.{suffix}").read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_writers_refuse_non_finite_values(tmp_path, bad):
    values = np.zeros((2, 2))
    values[1, 0] = bad
    grid = WignerGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), values)
    with pytest.raises(ValueError, match="non-finite"):
        write_grid(grid, tmp_path / "w.csv", tmp_path / "w.json")
    assert not (tmp_path / "w.csv").exists() and not (tmp_path / "w.json").exists()


def test_grid_spec_and_wigner_grid_helpers():
    spec = GridSpec(-2.0, 2.0, -1.0, 1.0, 5, 3)
    re_axis, im_axis = spec.axes()
    assert re_axis.shape == (5,) and im_axis.shape == (3,)
    fine = refined(spec)
    assert fine.n_re == 9 and fine.n_im == 5
    values = np.zeros((3, 5))
    values[1, 2] = -0.5
    grid = WignerGrid(re_axis, im_axis, values)
    max_abs, loc = grid.max_abs_location()
    assert max_abs == 0.5 and loc == 0.0 + 0.0j
