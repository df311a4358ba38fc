"""Checks of the verify registry against the code they replaced, kept here
as oracles: the per-draw loop of ``coefficient-identity``, the one-time
eigh propagator behind ``block-propagator``, ``dyson-fidelity`` and
``perturbation-scaling``, the block-by-block loop of
``interaction_picture_propagate``, and the three Wigner checks evaluating
their own maps.  Also: one Wigner pass per verify run, and library bugs
that a check must catch."""

import dataclasses
import json

import numpy as np
import pytest

from gupjc import checks, cli, dispersive, gup, wigner
from gupjc.checks import (
    _DYSON_CFG,
    _DYSON_COEFFS,
    _DYSON_T,
    CHECKS,
    VerifyRun,
    coefficient_identity,
)
from gupjc.dispersive import interaction_picture_propagate
from gupjc.errors import NonHermitianError
from gupjc.fock import (
    FockVector,
    coherent_state,
    evolve_on_grid,
    fock_state,
    laguerre,
    photon_added_coherent_state,
)
from gupjc.gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    build_full_interaction_hamiltonian,
    build_rwa_hamiltonian,
    derive_coefficients,
    rwa_block,
)
from gupjc.wigner import TWO_OVER_PI, GridSpec, wigner_maps


def per_draw_coefficient_identity(params, rng):
    """The check one draw at a time, through GupParams and derive_coefficients."""
    samples = rng.uniform([0.0, -3.0, -3.0, 1e9], [1e8, 3.0, 3.0, 1e17],
                          size=(params["draws"], 4))
    worst = 0.0
    for gamma0, delta, epsilon, omega in map(np.ndarray.tolist, samples):
        c = derive_coefficients(GupParams(gamma0, delta, epsilon), omega)
        scale = abs(c.phi) + 2.0 * abs(c.beta) + 8.0 * abs(c.chi)
        if scale > 0.0:
            worst = max(worst, abs(8.0 * c.chi - (c.phi + 2.0 * c.beta)) / scale)
    return worst


# seed 89 with 7 draws holds a gamma whose libm pow() square is one ulp off
# the product gamma*gamma
@pytest.mark.parametrize("draws", [1, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 89, 1234, 2**32 - 1])
def test_vectorized_check_equals_per_draw_loop(seed, draws):
    params = {"draws": draws}
    vectorized = coefficient_identity(VerifyRun(params), np.random.default_rng(seed))
    assert type(vectorized) is float
    assert vectorized == per_draw_coefficient_identity(params, np.random.default_rng(seed))


class _LowDraws:
    """A generator whose uniform draws all sit at the low end, gamma0 = 0, so
    that no draw has scale > 0."""

    def uniform(self, low, high, size):
        return np.broadcast_to(np.asarray(low, dtype=float), size).copy()


def test_no_resolved_draw_measures_zero():
    assert coefficient_identity(VerifyRun({"draws": 5}), _LowDraws()) == 0.0
    assert per_draw_coefficient_identity({"draws": 5}, _LowDraws()) == 0.0


def eigh_apply(h, t, psi):
    """The one-time propagator exp(-i H t) psi that ``evolve_on_grid`` replaced."""
    vals, vecs = np.linalg.eigh(h)
    return vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))


def _propagator_cases():
    """(H/hbar, t, psi) as the checks evolve them."""
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    for n in range(18):
        yield rwa_block(n, _DYSON_CFG, _DYSON_COEFFS), _DYSON_T, psi0[[19 + n, n + 1]]
    yield build_rwa_hamiltonian(_DYSON_CFG, _DYSON_COEFFS, 18), _DYSON_T, psi0
    # perturbation-scaling: |e,2> under the free terms plus the full interaction
    c = GupCoefficients(phi=1e-3, chi=0.0, beta=-5e-4, omega=50.0, xi_mag=2e-3)
    levels = np.arange(11.0)
    h0 = np.diag(np.concatenate([-15.0 + 50.0 * levels, 15.0 + 50.0 * levels]))
    psi = np.zeros(22, dtype=complex)
    psi[13] = 1.0
    for lam in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        cfg = InteractionConfig(omega=50.0, omega0=30.0, coupling=lam)
        yield h0 + build_full_interaction_hamiltonian(cfg, c, 10), 0.35, psi


def test_one_time_evolution_equals_the_replaced_propagator_bitwise():
    for h, t, psi in _propagator_cases():
        assert np.array_equal(evolve_on_grid(h, [t], psi)[0], eigh_apply(h, t, psi))


def test_stacked_evolution_equals_the_per_block_calls_bitwise():
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    blocks = np.array([rwa_block(n, _DYSON_CFG, _DYSON_COEFFS) for n in range(18)])
    pairs = np.stack([psi0[19:37], psi0[1:19]], axis=1)
    ts = [0.0, _DYSON_T, 3.7 * _DYSON_T]
    stacked = evolve_on_grid(blocks, ts, pairs)
    assert stacked.shape == (18, 3, 2)
    for block, pair, evolved in zip(blocks, pairs, stacked):
        assert np.array_equal(evolved, evolve_on_grid(block, ts, pair))


def test_block_propagation_equals_the_per_block_loop_bitwise():
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    psi = psi0.copy()
    for n in range(18):
        block = rwa_block(n, _DYSON_CFG, _DYSON_COEFFS)
        idx = [19 + n, n + 1]
        psi[idx] = np.exp(1j * _DYSON_T * np.diag(block)) * evolve_on_grid(
            block, [_DYSON_T], psi[idx])[0]
    blocks = interaction_picture_propagate(_DYSON_CFG, _DYSON_COEFFS, 18, _DYSON_T, psi0)
    assert np.array_equal(blocks, psi)


def test_stacked_evolution_refuses_a_non_hermitian_block():
    blocks = np.array([rwa_block(n, _DYSON_CFG, _DYSON_COEFFS) for n in range(3)])
    blocks[1, 0, 1] += 1e-9
    with pytest.raises(NonHermitianError):
        evolve_on_grid(blocks, [_DYSON_T], np.ones((3, 2)))


def _per_check_grid(params):
    n = params["grid_points"]
    return GridSpec(-4.0, 4.0, -4.0, 4.0, n, n)


def _per_check_fock_states():
    return [fock_state(n, max(n, 1)) for n in range(6)]


def per_check_wigner_pointwise(params):
    """``wigner-pointwise`` with a wigner_maps call of its own."""
    alpha = checks._WIGNER_ALPHA
    maps = wigner_maps([coherent_state(alpha, 20), *_per_check_fock_states()],
                       _per_check_grid(params))
    re_axis, im_axis = maps[0].re_axis, maps[0].im_axis
    zz = re_axis[None, :] + 1j * im_axis[:, None]
    r2 = np.abs(zz) ** 2
    exact = [TWO_OVER_PI * np.exp(-2.0 * np.abs(zz - alpha) ** 2),
             *(TWO_OVER_PI * (-1.0) ** n * laguerre(n, 4.0 * r2) * np.exp(-2.0 * r2)
               for n in range(6))]
    return max(float(np.max(np.abs(w.values - e))) for w, e in zip(maps, exact))


def per_check_wigner_integral(params):
    """``wigner-integral`` with a wigner_maps call of its own."""
    maps = wigner_maps([*_per_check_fock_states(), photon_added_coherent_state(1.0, 1, 20)],
                       _per_check_grid(params))
    return max(abs(w.integral() - 1.0) for w in maps)


def per_check_wigner_negativity(params):
    """``wigner-negativity`` with a map of its own."""
    pacs = photon_added_coherent_state(1.0, 1, 20)
    return float(np.min(wigner_maps([pacs], _per_check_grid(params))[0].values))


PER_CHECK_WIGNER = {
    "wigner-pointwise": per_check_wigner_pointwise,
    "wigner-integral": per_check_wigner_integral,
    "wigner-negativity": per_check_wigner_negativity,
}


@pytest.mark.parametrize("grid_points", [31, 61])
def test_shared_wigner_maps_equal_the_per_check_evaluations_bitwise(grid_points):
    params = {"grid_points": grid_points}
    run = VerifyRun(params)
    for check in CHECKS:
        if check.name in PER_CHECK_WIGNER:
            measured, _ = check.run(run, 0)
            assert measured == PER_CHECK_WIGNER[check.name](params), check.name


_SMALL_VERIFY = ["verify", "--set", "draws=50", "--set", "grid_points=31"]


def test_one_wigner_pass_per_verify_run(monkeypatch, tmp_path):
    calls = []

    def counting_wigner_maps(states, grid):
        calls.append(len(states))
        return wigner_maps(states, grid)

    monkeypatch.setattr(checks, "wigner_maps", counting_wigner_maps)
    assert cli.main([*_SMALL_VERIFY, "--out", str(tmp_path / "first")]) == 0
    assert calls == [8]
    # a second run in the same process evaluates its own maps
    assert cli.main([*_SMALL_VERIFY, "--out", str(tmp_path / "second")]) == 0
    assert calls == [8, 8]


def _failed_checks(tmp_path):
    """Names of the checks that a small verify run fails; the run must exit 1."""
    assert cli.main([*_SMALL_VERIFY, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    return {row["name"] for row in report["checks"] if not row["ok"]}


def test_an_off_by_one_laguerre_fails_the_normalizer_check(monkeypatch, tmp_path):
    monkeypatch.setattr(checks, "laguerre", lambda m, x: laguerre(m + 1, x))
    assert "photon-added-normalizers" in _failed_checks(tmp_path)


def test_a_dropped_conjugate_fails_the_pointwise_check(monkeypatch, tmp_path):
    # rho_{m,n} = c_m c_n instead of c_m c*_n: invisible on real amplitudes,
    # about 0.8 off on the coherent fixture at alpha = e^{i pi/3}
    def unconjugated(psi):
        return np.multiply.outer(psi.amps, psi.amps)

    monkeypatch.setattr(wigner, "_density", unconjugated)
    assert "wigner-pointwise" in _failed_checks(tmp_path)


def test_a_dropped_two_photon_term_fails_the_overlap_check(monkeypatch, tmp_path):
    # |beta> in place of the two-photon-added state leaves a defect of order
    # s^2, whose slope in log s is 2, not 4
    add_photons = dispersive._add_photons

    def without_two(base, beta, m):
        return FockVector(base.size - 1, base) if m == 2 else add_photons(base, beta, m)

    monkeypatch.setattr(dispersive, "_add_photons", without_two)
    assert "photon-added-overlap" in _failed_checks(tmp_path)


def test_a_flipped_phi_in_the_coupling_element_fails_the_commutator_check(monkeypatch, tmp_path):
    # sqrt(n+1) (1 + (n+1) phi) in every band and block: the commutator's
    # residual against H_eff turns linear in phi, a slope of 1, not 2
    element = gup._rwa_coupling_element

    def flipped(n, c):
        return element(n, dataclasses.replace(c, phi=-c.phi))

    monkeypatch.setattr(gup, "_rwa_coupling_element", flipped)
    monkeypatch.setattr(dispersive, "_rwa_coupling_element", flipped)
    assert "commutator-scaling" in _failed_checks(tmp_path)


def test_an_off_by_one_band_fails_the_commutator_check(monkeypatch, tmp_path):
    # f_{n+1} in place of f_n: the commutator misses H_eff by about mu on
    # every row, whatever phi, a slope of 0
    element = gup._rwa_coupling_element
    monkeypatch.setattr(dispersive, "_rwa_coupling_element", lambda n, c: element(n + 1, c))
    assert "commutator-scaling" in _failed_checks(tmp_path)


# the checks that still read exactly 0 at the default seed, because they
# restate the code they check or sit below double precision; a check leaves
# this list when it learns to fail, and none may join it
STILL_READING_ZERO = {"photon-added-amplitude"}


def test_only_the_listed_checks_read_zero_at_the_default_seed(tmp_path):
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [row["name"] for row in report["checks"]] == [check.name for check in CHECKS]
    zero = {row["name"] for row in report["checks"] if row["measured"] == 0.0}
    assert zero == STILL_READING_ZERO
