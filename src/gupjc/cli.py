"""Command-line front end.

Commands reproduce the headline quantities as CSV/JSON artifacts:

- ``rabi``: corrected Rabi frequency table and inversion time series
- ``dispersive``: exact dispersive state, photon-added decomposition,
  decomposition fidelity over time
- ``wigner-diff``: Wigner-difference map against the rotated coherent
  reference, with the measurement-precision summary
- ``zeta-maps``: rotating-wave validity ratio maps over (omega, detuning)
- ``verify``: every check of the ``checks.CHECKS`` registry; exit code 0 iff
  all pass

Every run resolves its configuration (defaults <- preset <- config file <-
--set overrides), writes it back as ``run_config.json`` once the command
has returned, and records a manifest.  Replaying a saved run_config.json reproduces every data artifact
byte for byte; the manifest is metadata (it carries wall time, stage times
and a ``health`` block of numerical diagnostics) and is not part of that
contract.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .checks import CHECKS, VerifyRun
from .constants import C_LIGHT, GAMMA_SI_DIVISOR, HBAR, PLANCK_LENGTH, PLANCK_MASS
from .dispersive import (
    DispersiveConfig,
    evolve_dispersive_series,
    photon_added_decomposition,
)
from .dynamics import (
    amplitude_angular_frequency,
    atomic_inversion,
    exact_rabi_shift,
    rabi_shift,
)
from .errors import GupJcError
from .fock import evolve_on_grid, laguerre
from .gup import GupParams, InteractionConfig, derive_coefficients, rwa_block
from .rwa_validity import ZetaMapSpec, zeta_map
from .wigner import (
    MAX_ABS_Z,
    GridSpec,
    wigner_difference,
    wigner_precision_ratio,
    write_grid,
)

PRESETS: dict[str, dict] = {
    # electroweak-scale GUP, coherent |alpha|=1, dispersive rate 1e5 rad/s
    "fig1": {
        "gamma": 1e3,
        "delta": 1.0,
        "epsilon": 1.0,
        "omega": 1e15,
        "mu": 1e5,
        "alpha_re": 1.0,
        "alpha_im": 0.0,
        "t": 1e3,
        "ncut": 40,
        "initial_atom": "g",
    },
    # linear-vs-quadratic channel map
    "fig2": {"n": 50, "gamma": 0.5, "delta": 1.0, "epsilon": 1.0},
    # counter-rotating-vs-quadratic channel map
    "fig3": {"n": 50, "gamma": 5e3, "delta": 1.0, "epsilon": 1.0},
}

DEFAULTS: dict[str, dict] = {
    "rabi": {
        "gamma": 1e3,
        "delta": 1.0,
        "epsilon": 1.0,
        "omega": 1e16,
        "omega0": None,
        "coupling": 1.0,
        "n": 1,
        "n_table_max": 10,
        "periods": 10.0,
        "points": 600,
    },
    "dispersive": dict(PRESETS["fig1"], fidelity_points=20),
    "wigner-diff": dict(
        PRESETS["fig1"],
        grid_extent=4.0,
        grid_points=201,
    ),
    "zeta-maps": dict(
        PRESETS["fig2"],
        omega_min=1e9,
        omega_max=1e17,
        n_omega=33,
        delta_min=1e3,
        delta_max=1e5,
        n_delta=17,
    ),
    "verify": {"draws": 10000, "grid_points": 61},
}

# seed of the randomized checks when neither --seed nor a config file sets one
DEFAULT_SEED = 1234

# Integer parameters and their smallest valid values, whichever command has them.
INT_MINIMUMS: dict[str, int] = {
    "grid_points": 2,
    "n_omega": 1,
    "n_delta": 1,
    "points": 1,
    "fidelity_points": 1,
    "draws": 1,
    "n": 0,
    "n_table_max": 0,
    "ncut": 1,
}

# Parameters whose default is a float, whichever command has them: each must
# be given as a number.
FLOAT_PARAMS = frozenset(
    key for defaults in DEFAULTS.values() for key, value in defaults.items()
    if isinstance(value, float)
)

# Float parameters that must be > 0, whichever command has them.  omega0 may
# also be None, its default, which means "equal to omega".
POSITIVE_FLOATS = (
    "grid_extent", "periods", "coupling", "t", "omega", "omega0", "omega_min", "omega_max",
    "delta_min", "delta_max",
)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def resolve_config(command: str, args) -> dict:
    """defaults <- preset <- config file <- --set overrides."""
    params = dict(DEFAULTS[command])
    seed = DEFAULT_SEED
    file_cfg = {}
    if args.config:
        file_cfg = _read_config_file(args.config)
        if file_cfg.get("command") not in (None, command):
            raise ValueError(
                f"config file is for command {file_cfg.get('command')!r}, not {command!r}"
            )
    preset = args.preset or file_cfg.get("preset")
    if preset:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        for key, value in PRESETS[preset].items():
            if key in params:
                params[key] = value
    for key, value in file_cfg.get("params", {}).items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for command {command!r}")
        params[key] = value
    seed = file_cfg.get("seed", seed)
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if not _ or key not in params:
            raise ValueError(f"cannot override unknown parameter {key!r}")
        params[key] = _parse_set_value(raw)
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
        seed = args.seed
    _check_params(params)
    return {"command": command, "params": params, "seed": seed}


def _read_config_file(path: str) -> dict:
    """The JSON object of a --config file, refused by name when it cannot be
    read, is not an object, or holds a ``params`` that is not one, a
    ``preset`` that is not a name or a ``seed`` that is not an integer >= 0."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object, not a {type(cfg).__name__}")
    if not isinstance(cfg.get("params", {}), dict):
        raise ValueError(f"config file {path}: params must be a JSON object, "
                         f"not a {type(cfg['params']).__name__}")
    if not isinstance(cfg.get("preset"), (str, type(None))):
        raise ValueError(f"config file {path}: preset must be a name or null, "
                         f"not a {type(cfg['preset']).__name__}")
    seed = cfg.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"config file {path}: seed must be an integer >= 0, got {seed!r}")
    return cfg


def _check_params(params: dict) -> None:
    """Reject counts, extents, non-numbers and non-finite floats that would
    crash a command or yield an empty or misleading artifact."""
    for key, value in params.items():
        if key in FLOAT_PARAMS and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"{key} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    for key, minimum in INT_MINIMUMS.items():
        if key not in params:
            continue
        value = params[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
    for key in POSITIVE_FLOATS:
        if params.get(key) is None:
            continue
        value = params[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"{key} must be a finite number > 0, got {value!r}")
    # a grid's largest |z| is its corner, which the Wigner kernel refuses past
    # MAX_ABS_Z; refuse it here, by the kernel's own test, before any state
    extent = params.get("grid_extent")
    corner = _grid_corner(extent) if extent is not None else 0.0
    if not corner <= MAX_ABS_Z:
        raise ValueError(
            f"grid_extent must be at most {_largest_grid_extent()!r}, got {extent!r}: the grid "
            f"corner |z| = {corner:.4g} exceeds the Wigner evaluation limit "
            f"|z| <= {MAX_ABS_Z:.4g}, where e^(-2|z|^2) underflows"
        )
    if "initial_atom" in params and params["initial_atom"] not in ("g", "e"):
        raise ValueError(f"initial_atom must be 'g' or 'e', got {params['initial_atom']!r}")
    # mu = 0 leaves the state unchanged, so every GUP difference would be zero;
    # a negative mu is valid: the atom sits below resonance
    if "mu" in params and params["mu"] == 0:
        raise ValueError(f"mu must be nonzero, got {params['mu']!r}")


def _grid_corner(extent: float) -> float:
    """|z| of the grid corner extent * (1 + i) as the Wigner kernel computes it:
    numpy's complex abs, which rounds unlike Python's abs(complex) on about
    half of such corners."""
    return float(np.abs(complex(extent, extent)))


def _largest_grid_extent() -> float:
    """The largest grid_extent whose grid corner the Wigner kernel evaluates."""
    extent = MAX_ABS_Z / math.sqrt(2.0)
    while _grid_corner(extent) > MAX_ABS_Z:
        extent = math.nextafter(extent, 0.0)
    while _grid_corner(math.nextafter(extent, math.inf)) <= MAX_ABS_Z:
        extent = math.nextafter(extent, math.inf)
    return extent


def _fmt(value) -> str:
    """Shortest round-trip decimal form for floats."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _print_line(line: str) -> None:
    """Print one line of a run's console output.

    A reader may close stdout early (``gupjc verify | head -1``).  The run
    then goes on silently, so it writes the same artifacts as a run that is
    read to the end: stdout is pointed at the null device, which also keeps
    the exit-time flush from failing.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def stage(stages: dict, name: str):
    """Record the wall seconds of the ``with`` block as stages[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = time.perf_counter() - start


def write_manifest(out_dir: Path, config: dict, outputs: list[Path], wall_time: float,
                   stages: dict, health: dict) -> Path:
    manifest = {
        "manifest_schema": 1,
        "command": config["command"],
        "config": config,
        "constants": {
            "hbar_J_s": HBAR,
            "c_m_per_s": C_LIGHT,
            "planck_mass_kg": PLANCK_MASS,
            "planck_length_m": PLANCK_LENGTH,
            "gamma_si_divisor": GAMMA_SI_DIVISOR,
        },
        "versions": {
            "gupjc": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "outputs": {p.name: _sha256(p) for p in outputs},
        "wall_time_s": wall_time,
        "stages": stages,
        "health": health,
        "written_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def _alpha(params: dict) -> complex:
    return complex(params["alpha_re"], params["alpha_im"])


def _dispersive_inputs(params: dict) -> DispersiveConfig:
    p = GupParams.from_gamma(params["gamma"], params["delta"], params["epsilon"])
    return DispersiveConfig(
        mu=params["mu"],
        phi=derive_coefficients(p, params["omega"]).phi,
        alpha=_alpha(params),
        t=params["t"],
        ncut=int(params["ncut"]),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rabi(params: dict, out_dir: Path, seed: int, stages: dict,
             health: dict) -> list[Path]:
    omega = params["omega"]
    omega0 = params["omega0"] if params["omega0"] is not None else omega
    cfg = InteractionConfig(omega=omega, omega0=omega0, coupling=params["coupling"])
    p = GupParams.from_gamma(params["gamma"], params["delta"], params["epsilon"])
    c = derive_coefficients(p, omega)

    ns = range(int(params["n_table_max"]) + 1)
    exact = exact_rabi_shift(np.array(ns), cfg, c).tolist()
    table_rows = []
    for n in ns:
        sol = rabi_shift(n, cfg, c)
        table_rows.append([n, sol.omega_std, sol.omega_qg, sol.delta_omega, exact[n]])
    table_path = out_dir / "rabi_table.csv"
    write_csv(table_path, ["n", "omega_std", "omega_qg", "delta_omega", "delta_omega_exact"],
              table_rows)

    n = int(params["n"])
    w_half = amplitude_angular_frequency(n, cfg, c)
    t_max = params["periods"] * 2.0 * math.pi / (2.0 * w_half)
    t_grid = np.linspace(0.0, t_max, int(params["points"]))
    states = evolve_on_grid(rwa_block(n, cfg, c), t_grid, np.array([1.0, 0.0]))
    w_numeric = np.abs(states[:, 0]) ** 2 - np.abs(states[:, 1]) ** 2
    w_analytic = atomic_inversion(n, cfg, c, t_grid)
    series_path = out_dir / "inversion.csv"
    write_csv(
        series_path,
        ["t", "w_analytic", "w_numeric"],
        zip(t_grid.tolist(), w_analytic.tolist(), w_numeric.tolist()),
    )
    return [table_path, series_path]


def cmd_dispersive(params: dict, out_dir: Path, seed: int, stages: dict,
                   health: dict) -> list[Path]:
    d = _dispersive_inputs(params)
    atom = params["initial_atom"]

    ts = np.linspace(0.0, d.t, int(params["fidelity_points"]) + 1)[1:]
    # one exact series for the fidelity times; linspace ends on d.t exactly,
    # so its last row is the state at d.t.  H_eff keeps the atom in its
    # level, so the other level's columns are zero
    series = evolve_dispersive_series(d, ts, atom)
    field = series[-1]
    zeros = np.zeros_like(field)
    ground, excited = (field, zeros) if atom == "g" else (zeros, field)
    state_path = out_dir / "exact_state.csv"
    write_csv(
        state_path,
        ["n", "g_re", "g_im", "e_re", "e_im"],
        (
            [n, amp_g.real, amp_g.imag, amp_e.real, amp_e.imag]
            for n, (amp_g, amp_e) in enumerate(zip(ground, excited))
        ),
    )

    dec = photon_added_decomposition(d, atom)
    a2 = abs(d.alpha) ** 2
    dec_path = out_dir / "decomposition.json"
    write_json(
        dec_path,
        {
            "base_amp": [dec.base_amp.real, dec.base_amp.imag],
            "pacs1_amp": [dec.pacs1_amp.real, dec.pacs1_amp.imag],
            "pacs2_amp": [dec.pacs2_amp.real, dec.pacs2_amp.imag],
            "normalization": dec.normalization,
            "k_alpha_1": math.sqrt(laguerre(1, -a2)),
            "k_alpha_2": math.sqrt(laguerre(2, -a2) * 2.0),
            "phi": d.phi,
            "mu": d.mu,
            "t": d.t,
            "expansion_parameter": d.linear_expansion_parameter,
            "linear_time_bound_s": d.linear_time_bound(),
        },
    )

    fid_rows = []
    for t, exact in zip(ts, series):
        approx = photon_added_decomposition(dataclasses.replace(d, t=float(t)), atom).state
        overlap = abs(np.vdot(exact, approx.amps)) ** 2
        fid_rows.append([float(t), float(overlap)])
    fid_path = out_dir / "fidelity_vs_t.csv"
    write_csv(fid_path, ["t", "overlap_sq"], fid_rows)
    return [state_path, dec_path, fid_path]


def cmd_wigner_diff(params: dict, out_dir: Path, seed: int, stages: dict,
                    health: dict) -> list[Path]:
    with stage(stages, "state_s"):
        d = _dispersive_inputs(params)
        dec = photon_added_decomposition(d, params["initial_atom"])

    with stage(stages, "wigner_s"):
        extent = params["grid_extent"]
        grid = GridSpec(-extent, extent, -extent, extent, int(params["grid_points"]),
                        int(params["grid_points"]))
        diff = wigner_difference(dec.displaced, dec.beta, grid)
    health.update(
        expansion_parameter=d.linear_expansion_parameter,
        coherent_tail_weight=dec.state.tail_weight,
        displaced_norm_defect=abs(dec.displaced.norm() - 1.0),
    )

    csv_path = out_dir / "delta_w.csv"
    json_path = out_dir / "delta_w.json"
    summary_path = out_dir / "wigner_summary.json"
    with stage(stages, "write_s"):
        write_grid(diff.grid, csv_path, json_path)
        write_json(
            summary_path,
            {
                "max_abs_delta_w": diff.max_abs,
                "location": [diff.location.real, diff.location.imag],
                "ref_peak": diff.ref_peak,
                "precision_ratio": wigner_precision_ratio(diff.max_abs, diff.ref_peak),
                "phi": d.phi,
                "mu": d.mu,
                "t": d.t,
                "expansion_parameter": d.linear_expansion_parameter,
            },
        )
    return [csv_path, json_path, summary_path]


def cmd_zeta_maps(params: dict, out_dir: Path, seed: int, stages: dict,
                  health: dict) -> list[Path]:
    p = GupParams.from_gamma(params["gamma"], params["delta"], params["epsilon"])
    spec = ZetaMapSpec(
        n=int(params["n"]),
        params=p,
        omega_min=params["omega_min"],
        omega_max=params["omega_max"],
        n_omega=int(params["n_omega"]),
        delta_min=params["delta_min"],
        delta_max=params["delta_max"],
        n_delta=int(params["n_delta"]),
    )
    zmap = zeta_map(spec)

    rows = []
    for i, delta in enumerate(zmap.delta_axis):
        for j, omega in enumerate(zmap.omega_axis):
            rows.append([float(omega), float(delta),
                         float(zmap.zeta_lq[i, j]), float(zmap.zeta_rq[i, j])])
    csv_path = out_dir / "zeta_map.csv"
    write_csv(csv_path, ["omega", "delta", "zeta_lq", "zeta_rq"], rows)
    json_path = out_dir / "zeta_map.json"
    write_json(
        json_path,
        {
            "omega_axis": [float(v) for v in zmap.omega_axis],
            "delta_axis": [float(v) for v in zmap.delta_axis],
            "zeta_lq_row_major": [float(v) for v in zmap.zeta_lq.ravel()],
            "zeta_rq_row_major": [float(v) for v in zmap.zeta_rq.ravel()],
            "n": zmap.n,
            "gamma": zmap.gamma,
            "delta": zmap.delta,
            "epsilon": zmap.epsilon,
        },
    )
    return [csv_path, json_path]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(params: dict, out_dir: Path, seed: int, stages: dict,
               health: dict) -> tuple[list[Path], int]:
    width = max(len(check.name) for check in CHECKS)
    run = VerifyRun(params)
    rows = []
    for check in CHECKS:
        measured, elapsed = check.run(run, seed)
        stages[check.name] = elapsed
        ok = measured < check.tolerance
        _print_line(f"{check.name:<{width}}  {'PASS' if ok else 'FAIL'}  measured "
                    f"{measured:.3e}, tolerance {check.tolerance:g}  ({elapsed:.3f} s)")
        rows.append({"name": check.name, "ok": ok, "measured": measured,
                     "tolerance": check.tolerance})
    all_passed = all(row["ok"] for row in rows)
    report_path = out_dir / "verify_report.json"
    # elapsed times go to the manifest's stages and stay out of the report,
    # which replays byte for byte
    write_json(report_path, {"checks": rows, "all_passed": all_passed})
    return [report_path], 0 if all_passed else 1


COMMANDS = {
    "rabi": cmd_rabi,
    "dispersive": cmd_dispersive,
    "wigner-diff": cmd_wigner_diff,
    "zeta-maps": cmd_zeta_maps,
    "verify": cmd_verify,
}


def run_command(command: str, args) -> int:
    config = resolve_config(command, args)
    out_dir = Path(args.out) if args.out else Path("runs") / command
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    # wall seconds of the command's stages and the health of its numerics,
    # for the manifest
    stages: dict[str, float] = {}
    health: dict[str, float] = {}
    result = COMMANDS[command](config["params"], out_dir, config["seed"], stages, health)
    outputs, code = result if isinstance(result, tuple) else (result, 0)
    # written only once the command has returned, so a failed run leaves no
    # configuration that claims to reproduce it
    config_path = out_dir / "run_config.json"
    write_json(config_path, config)
    wall = time.perf_counter() - start
    write_manifest(out_dir, config, [config_path, *outputs], wall, stages, health)
    for path in outputs:
        _print_line(str(path))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupjc",
        description="GUP-corrected Jaynes-Cummings simulator",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to compute")
    parser.add_argument("--config", help="JSON run configuration to replay")
    parser.add_argument("--preset", help=f"named parameter set: {sorted(PRESETS)}")
    parser.add_argument("--out", help="output directory (default runs/<command>)")
    parser.add_argument("--seed", type=int, help="seed for randomized checks")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a single parameter (JSON-typed value)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args.command, args)
    except GupJcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
