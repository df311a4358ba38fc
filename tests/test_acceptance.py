"""Acceptance suite: every check of the ``gupjc.checks`` registry, run at
verify's defaults on the 201x201 grid, against its tolerance and runtime
budget (run with ``pytest -s`` to see one line per check), plus the two
criteria that are not verify checks: the fig1 Wigner-difference magnitude
and byte-identical replay of saved runs.  The per-check tests share one
``VerifyRun``, and so one Wigner pass, as the checks of a ``verify`` run do.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from gupjc.checks import CHECKS, VerifyRun
from gupjc.cli import DEFAULT_SEED, DEFAULTS
from gupjc.cli import main as cli_main
from gupjc.dispersive import DispersiveConfig, photon_added_decomposition
from gupjc.fock import coherent_state
from gupjc.gup import GupParams, derive_coefficients
from gupjc.wigner import GridSpec, wigner_difference, wigner_maps

VERIFY_PARAMS = dict(DEFAULTS["verify"], grid_points=201)


@pytest.fixture(scope="module")
def verify_run():
    return VerifyRun(VERIFY_PARAMS)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_check(check, verify_run):
    measured, elapsed = check.run(verify_run, DEFAULT_SEED)
    ok = measured < check.tolerance
    print(f"[{check.name}] {'PASS' if ok else 'FAIL'}: measured {measured:.3e}, "
          f"tolerance {check.tolerance:g} ({elapsed:.3f}s / budget {check.budget_s:g}s)")
    assert ok, f"{check.name}: measured {measured!r}, tolerance {check.tolerance!r}"
    assert elapsed < check.budget_s, f"{check.name} took {elapsed:.2f}s >= {check.budget_s}s"


def test_criterion_08_wigner_difference_magnitude():
    start = time.perf_counter()
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e15)
    d = DispersiveConfig(mu=1e5, phi=c.phi, alpha=1.0, t=1e3, ncut=40)
    dec = photon_added_decomposition(d, "g")
    reference = dec.beta
    grid = GridSpec()
    diff = wigner_difference(dec.displaced, reference, grid)

    # perturbation scale relative to the coherent peak: ~1e-5..1e-4, accepted
    # within one order of magnitude
    rel_peak = diff.max_abs / diff.ref_peak
    scale_ok = 1e-6 < rel_peak < 1e-3

    # required precision at the measurement point: |dW| / W_ref there, the
    # same-point ratio the 1e-3 estimate refers to (accepted within an order)
    w_ref = wigner_maps([coherent_state(reference, d.ncut)], grid)[0]
    i = int(np.argmin(np.abs(w_ref.im_axis - diff.location.imag)))
    j = int(np.argmin(np.abs(w_ref.re_axis - diff.location.real)))
    precision = diff.max_abs / float(w_ref.values[i, j])
    precision_ok = 1e-4 <= precision <= 1e-2

    assert scale_ok and precision_ok, (
        f"max|dW|/peak {rel_peak:.2e}, precision at measurement point {precision:.2e}"
    )
    assert time.perf_counter() - start < 2.0


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    jobs = {
        "rabi": ["rabi", "--set", "points=40", "--set", "periods=2.0"],
        "dispersive": ["dispersive", "--preset", "fig1", "--set", "fidelity_points=4"],
        "wigner-diff": [
            "wigner-diff", "--preset", "fig1",
            "--set", "grid_points=31", "--set", "grid_extent=3.0",
        ],
        "zeta-maps": ["zeta-maps", "--preset", "fig2",
                      "--set", "n_omega=5", "--set", "n_delta=3"],
        "verify": ["verify", "--set", "draws=500", "--set", "grid_points=31"],
    }
    differing = []
    for name, args in jobs.items():
        first = tmp_path / name / "a"
        second = tmp_path / name / "b"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([*args, "--out", str(first)]) == 0
            assert cli_main([args[0], "--out", str(second),
                             "--config", str(first / "run_config.json")]) == 0
        for path in sorted(first.iterdir()):
            if path.name == "manifest.json":
                continue  # metadata: carries wall time by design
            replay = second / path.name
            if not (replay.exists() and replay.read_bytes() == path.read_bytes()):
                differing.append(f"{name}/{path.name}")
    assert not differing, f"replay changed {differing}"
    assert time.perf_counter() - start < 2.0
