"""Checks of the verify registry against the code they replaced, kept here
as oracles: the per-draw loop of ``coefficient-identity``, the one-time
eigh propagator behind ``block-propagator``, ``dyson-fidelity`` and
``perturbation-scaling``, the block-by-block loop of
``interaction_picture_propagate``, and the three Wigner checks evaluating
their own maps.  Also: one Wigner pass per verify run, and library bugs
that a check must catch."""

import __future__
import inspect
import json
import sys

import numpy as np
import pytest

from gupjc import checks, cli, dispersive, dynamics, fock, gup, wigner
from gupjc.checks import (
    _DYSON_CFG,
    _DYSON_COEFFS,
    _DYSON_T,
    CHECKS,
    VerifyRun,
    coefficient_identity,
)
from gupjc.dispersive import interaction_picture_propagate
from gupjc.dynamics import evolve_rwa_blocks
from gupjc.errors import NonHermitianError
from gupjc.fock import (
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
    for n, block in enumerate(rwa_block(np.arange(18), _DYSON_CFG, _DYSON_COEFFS)):
        yield block, _DYSON_T, psi0[[19 + n, n + 1]]
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
    blocks = rwa_block(np.arange(18), _DYSON_CFG, _DYSON_COEFFS)
    pairs = np.stack([psi0[19:37], psi0[1:19]], axis=1)
    ts = [0.0, _DYSON_T, 3.7 * _DYSON_T]
    stacked = evolve_on_grid(blocks, ts, pairs)
    assert stacked.shape == (18, 3, 2)
    for block, pair, evolved in zip(blocks, pairs, stacked):
        assert np.array_equal(evolved, evolve_on_grid(block, ts, pair))


def test_block_propagation_equals_the_per_block_loop_bitwise():
    # the loop that built one block, evolved it and removed its free phases,
    # against evolve_rwa_blocks' one stack, alone and inside
    # interaction_picture_propagate
    psi0 = np.concatenate([coherent_state(1.0, 18).amps, np.zeros(19, dtype=complex)])
    psi = psi0.copy()
    for n in range(18):
        block = rwa_block(n, _DYSON_CFG, _DYSON_COEFFS)
        idx = [19 + n, n + 1]
        psi[idx] = np.exp(1j * _DYSON_T * np.diag(block)) * evolve_on_grid(
            block, [_DYSON_T], psi[idx])[0]
    pairs = np.stack([psi0[19:37], psi0[1:19]], axis=1)
    stacked = evolve_rwa_blocks(np.arange(18), _DYSON_CFG, _DYSON_COEFFS, [_DYSON_T], pairs)
    assert np.array_equal(stacked[:, 0], np.stack([psi[19:37], psi[1:19]], axis=1))
    blocks = interaction_picture_propagate(_DYSON_CFG, _DYSON_COEFFS, 18, _DYSON_T, psi0)
    assert np.array_equal(blocks, psi)


def test_stacked_evolution_refuses_a_non_hermitian_block():
    blocks = rwa_block(np.arange(3), _DYSON_CFG, _DYSON_COEFFS)
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


def _edit(monkeypatch, module, name, old, new):
    """Bind ``module.name``, in every gupjc module that binds it, to a copy of
    the function whose source has ``old`` replaced by ``new``."""
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    for key, bound in list(sys.modules.items()):
        if key.split(".")[0] == "gupjc" and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, namespace[name])


# one plausible bug per row, as an edit of one function's source, and the
# checks that a verify run fails with it in place
MUTATIONS = {
    # the rotated amplitude mirrored, in both atoms: the displaced frame no
    # longer follows the exact state
    "conjugated beta": (
        dispersive, "photon_added_decomposition", "beta = alpha * rot",
        "beta = np.conj(alpha * rot)", {"photon-added-overlap", "photon-added-projection"}),
    # |beta> in place of the two-photon-added state: the first-order field
    # misses a term of order s, and the overlap defect turns quadratic in s
    "two-photon-added state as |0> in the displaced frame": (
        dispersive, "photon_added_decomposition",
        "c2 * np.array([b * b, 2.0 * b, math.sqrt(2.0)]) / k2", "c2 * np.array([1.0, 0.0, 0.0])",
        {"photon-added-overlap", "photon-added-projection"}),
    # the GUP phase rounded at the scale of the rate phase mu t m = 1e8 m rad:
    # the exact state's phases are off by 1.4e-7 rad at fig1
    "GUP phase and rate phase formed as one": (
        dispersive, "evolve_dispersive_series",
        "np.exp(-1j * rate_t) * np.exp(-1j * gup_t)", "np.exp(-1j * (rate_t + gup_t))",
        {"photon-added-projection"}),
    # 2s in place of s in the one-photon term
    "doubled one-photon term": (
        dispersive, "photon_added_decomposition", "u1 = shift * (-1j * kt",
        "u1 = shift * (-2j * kt", {"photon-added-overlap", "photon-added-projection"}),
    # m = n on the excited level as on the ground one: the levels, the
    # rotation and the GUP phase of an excited start all lose their offset
    "offset dropped in e": (
        dispersive, "dispersive_levels", "m = n + o", "m = n",
        {"commutator-scaling", "photon-added-projection"}),
    # the recurrence stops one step short: L_{m-1} in place of L_m for m >= 2
    "off-by-one Laguerre recurrence": (
        fock, "laguerre", "for k in range(1, m):", "for k in range(1, m - 1):",
        {"photon-added-normalizers", "wigner-pointwise"}),
    # rho_{m,n} = c_m c_n instead of c_m c*_n: invisible on real amplitudes,
    # about 0.8 off on the coherent fixture at alpha = e^{i pi/3}
    "unconjugated density": (
        wigner, "_density", "np.multiply.outer(psi.amps, np.conj(psi.amps))",
        "np.multiply.outer(psi.amps, psi.amps)", {"wigner-pointwise"}),
    # sqrt(n+1) (1 + (n+1) phi) in every band and block: the commutator's
    # residual against H_eff turns linear in phi, a slope of 1, not 2, and the
    # Rabi shift read from the blocks' eigenvalues flips its sign
    "flipped phi in the coupling element": (
        gup, "_rwa_coupling_element", "(1.0 - m * c.phi)", "(1.0 + m * c.phi)",
        {"commutator-scaling", "rabi-shift-closed-form"}),
    # f_{n+1} in place of f_n: the commutator misses H_eff by about mu on
    # every row, whatever phi, a slope of 0
    "band read one level up": (
        dispersive, "commutator_check", "_rwa_coupling_element(np.arange(ncut - 1), c)",
        "_rwa_coupling_element(np.arange(1, ncut), c)", {"commutator-scaling"}),
    # the (2 - delta_k0) factor dropped: each diagonal k >= 1 counted once,
    # not for itself and its mirror, about 0.25 off on the pointwise fixture
    "diagonals above the main one counted once": (
        wigner, "_wigner_terms", "        if k:\n            at_re *= 2.0\n", "",
        {"wigner-pointwise"}),
    # e^{-+i d t} in place of e^{+-i d t}: the interaction picture turns by
    # twice the blocks' free phases, which the Dyson and the dense
    # lab-frame evolutions both see
    "block free phases with the wrong sign": (
        dynamics, "evolve_rwa_blocks", "np.exp(1j * t", "np.exp(-1j * t",
        {"dyson-fidelity", "block-propagator"}),
    # 2 (3 delta^2 - 2 epsilon): phi doubled, and with it the Rabi shift and
    # the quadratic channel of the validity ratios
    "doubled quadratic weight": (
        gup, "quadratic_weight", "return 3.0 * (delta * delta) - 2.0 * epsilon",
        "return 2.0 * (3.0 * (delta * delta) - 2.0 * epsilon)",
        {"coefficient-identity", "rabi-shift-magnitude", "zeta-spot-values"}),
}


@pytest.mark.parametrize("bug", MUTATIONS)
def test_verify_fails_the_checks_that_catch_each_bug(bug, monkeypatch, tmp_path):
    module, name, old, new, failing = MUTATIONS[bug]
    _edit(monkeypatch, module, name, old, new)
    assert _failed_checks(tmp_path) == failing


def test_no_check_reads_zero_at_the_default_seed(tmp_path):
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [row["name"] for row in report["checks"]] == [check.name for check in CHECKS]
    assert all(row["measured"] != 0.0 for row in report["checks"])
