"""Benchmark workloads and their per-iteration correctness gates.

Each workload is a fixed sequence of ``gupjc`` CLI invocations at paper
presets.  After every iteration the gate re-reads the artifacts the run
wrote and compares values within tolerances.  It never compares checksums:
planned changes to the Wigner engine and to the GUP phase arithmetic move
last digits legitimately, and the GUP part of ``exact_state.csv`` moves by
about 2.3e-4 relative, so that file is not pinned at all.

Reference values are closed forms computed here from the preset inputs, or
values measured at the commit that introduced the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HBAR = 1.054571817e-34  # J s, CODATA value typed independently of gupjc.constants


class GateError(Exception):
    """An artifact failed its correctness check."""


@dataclass(frozen=True)
class Step:
    """One CLI invocation and the check applied to the directory it wrote."""

    argv: tuple[str, ...]
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: Callable[[int], list[Step]]  # benchmark seed -> steps


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _close(value: float, expected: float, rel: float, what: str) -> None:
    _require(
        math.isfinite(value) and abs(value - expected) <= rel * abs(expected),
        f"{what} = {value!r}, expected {expected!r} within {rel:g} relative",
    )


def _phi(gamma: float, omega: float, delta: float = 1.0, epsilon: float = 1.0) -> float:
    """Linear GUP coefficient phi = hbar*omega*gamma^2*(3 delta^2 - 2 epsilon)."""
    return HBAR * omega * gamma**2 * (3.0 * delta**2 - 2.0 * epsilon)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def check_rabi(out: Path, n: int, points: int = 600, gamma: float = 1e3,
               omega: float = 1e16, coupling: float = 1.0) -> None:
    """Inversion series against cos(2 w t), Rabi shift against its closed form."""
    series = _rows(out / "inversion.csv")
    _require(len(series) == points, f"inversion.csv has {len(series)} rows, expected {points}")
    worst = max(abs(float(r["w_numeric"]) - float(r["w_analytic"])) for r in series)
    _require(worst <= 1e-9, f"n = {n}: max |w_numeric - w_analytic| = {worst:.3e} > 1e-9")

    phi = _phi(gamma, omega)
    table = _rows(out / "rabi_table.csv")
    _require(len(table) == 11, f"rabi_table.csv has {len(table)} rows, expected 11")
    for row in table:
        k = int(row["n"])
        omega_std = 2.0 * math.sqrt(k + 1) * coupling
        _close(float(row["omega_std"]), omega_std, 1e-14, f"omega_std(n={k})")
        _close(float(row["delta_omega"]), omega_std * (k + 1) * phi, 1e-12,
               f"delta_omega(n={k})")


# wigner-diff --preset fig1, measured when the benchmark was introduced
FIG1_MAX_ABS_DELTA_W = 5.7452358501297596e-05
FIG1_LOCATION = (-0.92, 1.0)
FIG1_REF_PEAK = 0.6364327281347555  # 2/pi, sampled on the grid point nearest the peak


def check_wigner_fig1(out: Path) -> None:
    summary = _load(out / "wigner_summary.json")
    _close(summary["max_abs_delta_w"], FIG1_MAX_ABS_DELTA_W, 1e-3, "max_abs_delta_w")
    x, y = summary["location"]
    _require(
        abs(x - FIG1_LOCATION[0]) < 0.02 and abs(y - FIG1_LOCATION[1]) < 0.02,
        f"extremum at ({x}, {y}), expected {FIG1_LOCATION}",
    )
    _close(summary["ref_peak"], FIG1_REF_PEAK, 1e-6, "ref_peak")
    _close(summary["ref_peak"], 2.0 / math.pi, 1e-3, "ref_peak against 2/pi")

    grid = _load(out / "delta_w.json")
    values = grid["values_row_major"]
    _require(len(values) == 201 * 201, f"delta_w.json holds {len(values)} values")
    peak = max(abs(v) for v in values)
    _require(peak == summary["max_abs_delta_w"],
             f"delta_w.json peak {peak!r} differs from the summary")
    with open(out / "delta_w.csv", "rb") as fh:
        lines = sum(1 for _ in fh)
    _require(lines == 201 * 201 + 1, f"delta_w.csv has {lines} lines")


def check_verify(out: Path) -> None:
    report = _load(out / "verify_report.json")
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    _require(report["all_passed"] is True and not failed, f"verify failed: {failed}")


def check_dispersive_fig1(out: Path) -> None:
    """Photon-added amplitude |pacs1|*N = 2 phi mu t k1, and overlaps near 1."""
    dec = _load(out / "decomposition.json")
    phi, mu, t = _phi(1e3, 1e15), 1e5, 1e3
    k1 = math.sqrt(2.0)  # sqrt(L_1(-|alpha|^2)) at alpha = 1
    pacs1 = math.hypot(*dec["pacs1_amp"]) * dec["normalization"]
    _close(pacs1, 2.0 * phi * mu * t * k1, 1e-6, "|pacs1|*N")
    _close(dec["k_alpha_1"], k1, 1e-12, "k_alpha_1")

    rows = _rows(out / "fidelity_vs_t.csv")
    _require(len(rows) == 20, f"fidelity_vs_t.csv has {len(rows)} rows, expected 20")
    worst = min(float(r["overlap_sq"]) for r in rows)
    _require(1.0 - 1e-8 <= worst and max(float(r["overlap_sq"]) for r in rows) <= 1.0 + 1e-12,
             f"decomposition overlap {worst!r} outside [1 - 1e-8, 1]")


# zeta-maps spot values at omega = 1e16 rad/s, detuning = 1e4 rad/s
ZETA_SPOTS = {
    "fig2": ("zeta_lq_row_major", 3.8943807408761314e-04),
    "fig3": ("zeta_rq_row_major", 3.6819982086464724e-04),
}


def check_zeta(out: Path, preset: str) -> None:
    zmap = _load(out / "zeta_map.json")
    omega_axis, delta_axis = zmap["omega_axis"], zmap["delta_axis"]
    _require(len(omega_axis) == 33 and len(delta_axis) == 17, "zeta map has the wrong shape")
    j = min(range(len(omega_axis)), key=lambda k: abs(math.log10(omega_axis[k]) - 16.0))
    i = min(range(len(delta_axis)), key=lambda k: abs(math.log10(delta_axis[k]) - 4.0))
    _close(omega_axis[j], 1e16, 1e-12, "omega axis point")
    _close(delta_axis[i], 1e4, 1e-12, "detuning axis point")
    key, expected = ZETA_SPOTS[preset]
    _close(zmap[key][i * len(omega_axis) + j], expected, 1e-9, f"{preset} {key} spot value")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# BENCHMARK.json lists wigner-fig1 and verify, the pair that judges the Wigner
# engine: large grids where a faster kernel should win, and small grids where
# its set-up could lose; between them they reach every layer but
# rwa_validity.zeta_map.  On a shared 2-vCPU host the iteration time drifts
# with the host's load over tens of seconds; calibrated times (see
# calibration.py) of verify and wigner-fig1 held steady over 45 s runs, but
# those of paper-sweep, whose 50 ms iterations mostly write small files,
# still moved by 20% between runs.  So the benchmark measures two workloads
# for 45 s.  rabi-n800 and paper-sweep run by name (paper-sweep also feeds
# the self-test).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wigner-fig1",
            "paper headline map: two padded eigh at dim 310 and 201x201 displaced-parity "
            "matmuls take ~90%, serialization ~10%; target of the Wigner engine rewrite",
            lambda seed: [Step(("wigner-diff", "--preset", "fig1"), check_wigner_fig1)],
        ),
        Workload(
            "rabi-n800",
            "large photon number: dense eigh at dim 1606 in fock.evolve_on_grid takes ~95% "
            "and drives memory; no Wigner work; target of the block solver",
            lambda seed: [Step(("rabi", "--set", "n=800"), lambda out: check_rabi(out, 800))],
        ),
        Workload(
            "verify",
            "many small calls across every layer: RK4 Dyson check, 1e4 coefficient draws, "
            "61x61 Wigner maps where eigh set-up outweighs the kernel",
            lambda seed: [Step(("verify", "--seed", str(seed)), check_verify)],
        ),
        Workload(
            "paper-sweep",
            "rabi, dispersive fig1, zeta-maps fig2 and fig3: the only zeta_map and "
            "fidelity-loop user; per-call overhead and serialization dominate",
            lambda seed: [
                Step(("rabi",), lambda out: check_rabi(out, 1)),
                Step(("dispersive", "--preset", "fig1"), check_dispersive_fig1),
                Step(("zeta-maps", "--preset", "fig2"), lambda out: check_zeta(out, "fig2")),
                Step(("zeta-maps", "--preset", "fig3"), lambda out: check_zeta(out, "fig3")),
            ],
        ),
    )
}
