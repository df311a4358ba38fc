import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gupjc
from gupjc.checks import CHECKS
from gupjc.cli import DEFAULTS, PRESETS, build_parser, main, resolve_config
from gupjc.dispersive import (
    DispersiveConfig,
    evolve_dispersive_series,
    photon_added_decomposition,
)
from gupjc.fock import fock_state
from gupjc.gup import GupParams, derive_coefficients
from gupjc.wigner import MAX_ABS_Z, _density, _wigner_terms


def run_cli(args):
    return main(args)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def databytes(out_dir):
    """All artifact bytes except the manifest (which carries wall time)."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    }


RABI_FAST = [
    "--set", "points=50", "--set", "periods=2.0", "--set", "n_table_max=4",
]


def test_rabi_default_benchmark(tmp_path):
    out = tmp_path / "rabi"
    assert run_cli(["rabi", "--out", str(out), *RABI_FAST]) == 0
    rows = read_rows(out / "rabi_table.csv")
    shift = float(rows[1]["delta_omega"])  # n = 1 row
    assert 1e-13 < shift < 1e-11
    # the defaults have chi = 0, where the exact shift is the closed form
    for row in rows:
        assert float(row["delta_omega_exact"]) == pytest.approx(float(row["delta_omega"]),
                                                               rel=1e-14)
    series = read_rows(out / "inversion.csv")
    assert len(series) == 50
    # numeric and leading-order inversion agree at these tiny GUP strengths
    worst = max(abs(float(r["w_analytic"]) - float(r["w_numeric"])) for r in series)
    assert worst < 1e-6
    assert (out / "manifest.json").exists()
    assert (out / "run_config.json").exists()


def test_rabi_at_large_photon_number(tmp_path):
    # the 2x2 block keeps n = 800 as cheap and as exact as n = 1
    out = tmp_path / "rabi800"
    assert run_cli(["rabi", "--out", str(out), "--set", "n=800"]) == 0
    series = read_rows(out / "inversion.csv")
    assert len(series) == 600
    worst = max(abs(float(r["w_analytic"]) - float(r["w_numeric"])) for r in series)
    assert worst <= 1e-9


def test_rabi_without_gup_has_zero_shift_column(tmp_path):
    out = tmp_path / "rabi0"
    assert run_cli(["rabi", "--out", str(out), "--set", "gamma=0.0", *RABI_FAST]) == 0
    rows = read_rows(out / "rabi_table.csv")
    assert all(float(r["delta_omega"]) == 0.0 for r in rows)


def test_rabi_runs_a_detuning_inside_the_resonance_tolerance(tmp_path):
    # 5e-4 rad/s against a coupling of 1 rad/s: the exact shift is taken from
    # the no-GUP block at the same detuning, so it meets the closed form
    out = tmp_path / "detuned"
    assert run_cli(["rabi", "--out", str(out), "--set", "omega=1000.0", "--set",
                    "omega0=1000.0005", *RABI_FAST]) == 0
    for row in read_rows(out / "rabi_table.csv"):
        assert float(row["delta_omega_exact"]) == pytest.approx(float(row["delta_omega"]),
                                                               rel=1e-6)


def test_rabi_replay_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    assert run_cli(["rabi", "--out", str(first), *RABI_FAST]) == 0
    second = tmp_path / "b"
    assert run_cli(["rabi", "--out", str(second), "--config", str(first / "run_config.json")]) == 0
    assert databytes(first) == databytes(second)


def test_dispersive_benchmark_preset(tmp_path):
    out = tmp_path / "disp"
    assert run_cli(["dispersive", "--out", str(out), "--preset", "fig1",
                    "--set", "fidelity_points=5"]) == 0
    with open(out / "decomposition.json") as fh:
        dec = json.load(fh)
    pacs1 = math.hypot(*dec["pacs1_amp"]) * dec["normalization"]
    assert pacs1 == pytest.approx(3.0e-5, rel=0.02)
    assert dec["k_alpha_1"] == pytest.approx(math.sqrt(2.0), rel=1e-10)
    assert dec["k_alpha_2"] == pytest.approx(math.sqrt(7.0), rel=1e-10)
    fid = read_rows(out / "fidelity_vs_t.csv")
    assert all(float(r["overlap_sq"]) > 1.0 - 1e-6 for r in fid)
    state_rows = read_rows(out / "exact_state.csv")
    norm = sum(float(r["g_re"]) ** 2 + float(r["g_im"]) ** 2 for r in state_rows)
    assert norm == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("atom, other", [("g", "e"), ("e", "g")])
def test_dispersive_exact_state_fills_the_initial_level_only(tmp_path, atom, other):
    out = tmp_path / atom
    assert run_cli(["dispersive", "--out", str(out), "--preset", "fig1",
                    "--set", f'initial_atom="{atom}"', "--set", "fidelity_points=1"]) == 0
    c = derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0), 1e15)
    d = DispersiveConfig(mu=1e5, phi=c.phi, alpha=1.0, t=1e3)
    field = evolve_dispersive_series(d, 40, [d.t], atom)[0]
    rows = read_rows(out / "exact_state.csv")
    assert [int(r["n"]) for r in rows] == list(range(41))
    assert all(r[f"{other}_re"] == r[f"{other}_im"] == "0.0" for r in rows)
    assert [complex(float(r[f"{atom}_re"]), float(r[f"{atom}_im"])) for r in rows] == list(field)


def test_dispersive_time_past_bound_exits_cleanly(tmp_path, capsys):
    out = tmp_path / "disp_long"
    code = run_cli(["dispersive", "--out", str(out), "--preset", "fig1", "--set", "t=1e9"])
    captured = capsys.readouterr()
    assert code == 2
    assert "LinearityError" in captured.err
    assert "expansion invalid" in captured.err
    # the refusal comes before the first file, so no partial artifact is left
    assert not out.exists() or not any(out.iterdir())


def test_wigner_diff_small_grid(tmp_path):
    out = tmp_path / "wig"
    assert run_cli([
        "wigner-diff", "--out", str(out), "--preset", "fig1",
        "--set", "grid_points=41", "--set", "grid_extent=3.0",
    ]) == 0
    with open(out / "wigner_summary.json") as fh:
        summary = json.load(fh)
    assert 1e-6 < summary["max_abs_delta_w"] < 1e-3
    assert summary["ref_peak"] == pytest.approx(2.0 / math.pi, rel=0.05)
    assert summary["precision_ratio"] > 0
    rows = read_rows(out / "delta_w.csv")
    assert len(rows) == 41 * 41
    with open(out / "delta_w.json") as fh:
        grid = json.load(fh)
    assert len(grid["values_row_major"]) == 41 * 41


def test_wigner_diff_needs_no_cutoff_at_large_alpha(tmp_path):
    # a cutoff of 40 would drop 2e-3 of |beta> at |alpha| = 5; the map is
    # formed from the displaced field on three levels and truncates nothing
    out = tmp_path / "a5"
    assert run_cli(["wigner-diff", "--out", str(out), "--preset", "fig1",
                    "--set", "alpha_re=5.0", "--set", "grid_extent=8.0",
                    "--set", "grid_points=41"]) == 0
    with open(out / "wigner_summary.json") as fh:
        summary = json.load(fh)
    assert summary["max_abs_delta_w"] > 0.0
    assert all(-8.0 <= x <= 8.0 for x in summary["location"])


def test_wigner_diff_replay_is_byte_identical(tmp_path):
    first = tmp_path / "w1"
    assert run_cli([
        "wigner-diff", "--out", str(first), "--preset", "fig1",
        "--set", "grid_points=31", "--set", "grid_extent=3.0", "--set", 'initial_atom="e"',
    ]) == 0
    second = tmp_path / "w2"
    assert run_cli(["wigner-diff", "--out", str(second),
                    "--config", str(first / "run_config.json")]) == 0
    data = databytes(first)
    assert {"delta_w.csv", "delta_w.json", "wigner_summary.json"} <= set(data)
    assert data == databytes(second)


def test_wigner_diff_self_reference_is_zero(tmp_path):
    out = tmp_path / "wig0"
    assert run_cli([
        "wigner-diff", "--out", str(out), "--preset", "fig1",
        "--set", "gamma=0.0", "--set", "grid_points=21", "--set", "grid_extent=2.0",
    ]) == 0
    with open(out / "wigner_summary.json") as fh:
        summary = json.load(fh)
    assert summary["max_abs_delta_w"] < 1e-10


def test_zeta_maps_presets(tmp_path):
    for preset, column in (("fig2", "zeta_lq"), ("fig3", "zeta_rq")):
        out = tmp_path / preset
        assert run_cli([
            "zeta-maps", "--out", str(out), "--preset", preset,
            "--set", "omega_min=1e16", "--set", "omega_max=1e16", "--set", "n_omega=1",
            "--set", "n_delta=9",
        ]) == 0
        rows = read_rows(out / "zeta_map.csv")
        assert len(rows) == 9
        assert all(float(r[column]) < 1.0 for r in rows)


def test_zeta_maps_degenerate_model_message(tmp_path, capsys):
    out = tmp_path / "zdeg"
    code = run_cli([
        "zeta-maps", "--out", str(out), "--set", "delta=1.0", "--set", "epsilon=1.5",
        "--set", "n_omega=2", "--set", "n_delta=2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "DegenerateModelError" in captured.err


def test_zeta_maps_replay_byte_identical(tmp_path):
    first = tmp_path / "z1"
    args = ["zeta-maps", "--preset", "fig2", "--set", "n_omega=5", "--set", "n_delta=3"]
    assert run_cli([*args, "--out", str(first)]) == 0
    second = tmp_path / "z2"
    assert run_cli(["zeta-maps", "--out", str(second),
                    "--config", str(first / "run_config.json")]) == 0
    assert databytes(first) == databytes(second)


def test_config_resolution_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "command": "rabi",
        "preset": None,
        "params": {"gamma": 5.0, "n": 3},
        "seed": 77,
    }))
    parser = build_parser()
    args = parser.parse_args([
        "rabi", "--config", str(cfg_path), "--set", "n=4", "--seed", "99",
    ])
    resolved = resolve_config("rabi", args)
    assert resolved["params"]["gamma"] == 5.0   # from file
    assert resolved["params"]["n"] == 4         # flag overrides file
    assert resolved["seed"] == 99               # flag overrides file
    assert resolved["params"]["omega"] == DEFAULTS["rabi"]["omega"]


def test_config_rejects_unknown_keys(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["rabi", "--set", "nonsense=1"])
    with pytest.raises(ValueError):
        resolve_config("rabi", args)


def test_unknown_preset_rejected():
    parser = build_parser()
    args = parser.parse_args(["rabi", "--preset", "fig9"])
    assert main(["rabi", "--preset", "fig9"]) == 2
    with pytest.raises(ValueError):
        resolve_config("rabi", args)


def test_presets_carry_expected_parameters():
    assert PRESETS["fig1"]["gamma"] == 1e3 and PRESETS["fig1"]["mu"] == 1e5
    assert PRESETS["fig2"]["gamma"] == 0.5 and PRESETS["fig2"]["n"] == 50
    assert PRESETS["fig3"]["gamma"] == 5e3


def test_verify_exit_code_and_report(tmp_path, capsys):
    out = tmp_path / "verify"
    code = run_cli([
        "verify", "--out", str(out), "--seed", "5",
        "--set", "draws=500", "--set", "grid_points=31",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in captured.out
    with open(out / "verify_report.json") as fh:
        report = json.load(fh)
    assert report["all_passed"]
    assert [c["name"] for c in report["checks"]] == [check.name for check in CHECKS]
    printed = {line.split()[0]: line.split()[1] for line in captured.out.splitlines()[:-1]}
    for row, check in zip(report["checks"], CHECKS):
        assert set(row) == {"name", "ok", "measured", "tolerance"}
        assert row["tolerance"] == check.tolerance
        assert row["ok"] and row["measured"] < row["tolerance"]
        assert printed[check.name] == "PASS"
    # each check's elapsed seconds go to the manifest, and the report, which
    # leaves them out, replays byte for byte
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["stages"]) == sorted(check.name for check in CHECKS)
    assert all(0.0 < seconds < manifest["wall_time_s"] for seconds in manifest["stages"].values())
    replay = tmp_path / "replay"
    assert run_cli(["verify", "--config", str(out / "run_config.json"), "--out", str(replay)]) == 0
    assert databytes(replay) == databytes(out)


def test_verify_reports_failing_checks(tmp_path, capsys):
    # two points over [-4, 4] miss the whole Wigner mass and its negative part
    out = tmp_path / "coarse"
    code = run_cli(["verify", "--out", str(out), "--set", "draws=10", "--set", "grid_points=2"])
    captured = capsys.readouterr()
    assert code == 1
    with open(out / "verify_report.json") as fh:
        report = json.load(fh)
    failed = [row["name"] for row in report["checks"] if not row["ok"]]
    assert failed == ["wigner-integral", "wigner-negativity"]
    assert not report["all_passed"]
    assert all(row["ok"] == (row["measured"] < row["tolerance"]) for row in report["checks"])
    assert captured.out.count("FAIL") == 2


def test_verify_survives_a_reader_that_closes_stdout(tmp_path):
    # like `gupjc verify | head -1`: the run goes on to write every artifact,
    # and the report matches a run whose output is read to the end
    env = dict(os.environ, PYTHONPATH=str(Path(gupjc.__file__).parents[1]))
    args = [sys.executable, "-m", "gupjc.cli", "verify", "--set", "draws=500",
            "--set", "grid_points=31"]
    proc = subprocess.Popen([*args, "--out", str(tmp_path / "closed")], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(CHECKS[0].name.encode())
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert stderr == b""
    read = subprocess.run([*args, "--out", str(tmp_path / "read")], env=env,
                          capture_output=True, timeout=120)
    assert read.returncode == 0
    closed = tmp_path / "closed"
    assert sorted(p.name for p in closed.iterdir()) == sorted(
        p.name for p in (tmp_path / "read").iterdir())
    assert databytes(closed) == databytes(tmp_path / "read")


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, gupjc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(gupjc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_manifest_contents(tmp_path):
    out = tmp_path / "m"
    assert run_cli(["rabi", "--out", str(out), *RABI_FAST]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "rabi"
    assert "hbar_J_s" in manifest["constants"]
    assert "rabi_table.csv" in manifest["outputs"]
    assert manifest["wall_time_s"] > 0
    assert manifest["versions"]["gupjc"]
    assert manifest["stages"] == {}
    assert manifest["health"] == {}


def test_wigner_diff_manifest_records_its_stages(tmp_path):
    out = tmp_path / "w"
    assert run_cli(["wigner-diff", "--preset", "fig1", "--set", "grid_points=11",
                    "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    stages = manifest["stages"]
    assert sorted(stages) == ["state_s", "wigner_s", "write_s"]
    assert all(0.0 < seconds < manifest["wall_time_s"] for seconds in stages.values())
    assert sum(stages.values()) <= manifest["wall_time_s"]


def test_wigner_diff_manifest_records_its_numerical_health(tmp_path):
    out = tmp_path / "w"
    assert run_cli(["wigner-diff", "--preset", "fig1", "--set", "grid_points=11",
                    "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        health = json.load(fh)["health"]
    with open(out / "wigner_summary.json") as fh:
        summary = json.load(fh)
    assert sorted(health) == ["displaced_norm_defect", "expansion_parameter"]
    assert health["expansion_parameter"] == summary["expansion_parameter"]
    assert 0.0 <= health["displaced_norm_defect"] < 1e-15


def test_dispersive_manifest_records_its_truncation_tail(tmp_path):
    # |beta| = 1 leaves about e^-1/15! = 2.9e-13 beyond ncut 14
    out = tmp_path / "d"
    assert run_cli(["dispersive", "--preset", "fig1", "--set", "fidelity_points=2",
                    "--set", "ncut=14", "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        health = json.load(fh)["health"]
    assert sorted(health) == ["coherent_tail_weight"]
    assert 1e-13 < health["coherent_tail_weight"] < 1e-12


@pytest.mark.parametrize("command, setting, name", [
    ("wigner-diff", "grid_points=1", "grid_points"),
    ("wigner-diff", "grid_points=0", "grid_points"),
    ("wigner-diff", "grid_points=2.5", "grid_points"),
    ("wigner-diff", "grid_points=true", "grid_points"),
    ("wigner-diff", "grid_extent=0", "grid_extent"),
    ("wigner-diff", "grid_extent=-1.5", "grid_extent"),
    ("wigner-diff", "grid_extent=NaN", "grid_extent"),
    ("wigner-diff", "grid_extent=Infinity", "grid_extent"),
    ("verify", "grid_points=1", "grid_points"),
    ("verify", "draws=0", "draws"),
    ("rabi", "n=-1", "n"),
    ("rabi", "points=0", "points"),
    ("rabi", "n_table_max=-1", "n_table_max"),
    ("zeta-maps", "n_omega=0", "n_omega"),
    ("zeta-maps", "n_delta=0", "n_delta"),
    ("dispersive", "fidelity_points=0", "fidelity_points"),
    ("rabi", "periods=NaN", "periods must be finite"),
    ("zeta-maps", "omega_min=NaN", "omega_min must be finite"),
    ("wigner-diff", "alpha_re=NaN", "alpha_re must be finite"),
    ("dispersive", "t=Infinity", "t must be finite"),
    ("dispersive", "ncut=2.5", "ncut must be an integer"),
    ("wigner-diff", "ncut=40", "unknown parameter 'ncut'"),
    ("rabi", "periods=-1", "periods must be a finite number > 0"),
    ("rabi", "periods=0", "periods must be a finite number > 0"),
    ("dispersive", 'initial_atom="x"', "initial_atom must be 'g' or 'e', got 'x'"),
    ("dispersive", "mu=0", "mu must be nonzero, got 0"),
    ("wigner-diff", "mu=0", "mu must be nonzero, got 0"),
    ("rabi", "coupling=0", "coupling must be a finite number > 0"),
    ("dispersive", "t=0", "t must be a finite number > 0"),
    ("zeta-maps", "omega_min=-1", "omega_min must be a finite number > 0"),
    ("zeta-maps", "omega_max=0", "omega_max must be a finite number > 0"),
    ("zeta-maps", "delta_min=-1", "delta_min must be a finite number > 0"),
    ("zeta-maps", "delta_max=0", "delta_max must be a finite number > 0"),
    ("rabi", "omega=0", "omega must be a finite number > 0"),
    ("wigner-diff", "omega=-1", "omega must be a finite number > 0"),
    ("zeta-maps", 'gamma="x"', "gamma must be a number, got 'x'"),
    ("rabi", 'omega0="x"', "omega0 must be a finite number > 0, got 'x'"),
    ("rabi", 'delta="x"', "delta must be a number, got 'x'"),
    ("wigner-diff", 'alpha_im="1"', "alpha_im must be a number, got '1'"),
    ("wigner-diff", "gamma=null", "gamma must be a number, got None"),
    ("dispersive", "epsilon=[1]", "epsilon must be a number, got [1]"),
    ("rabi", "gamma=true", "gamma must be a number, got True"),
    ("rabi", "omega0=0", "omega0 must be"),
    ("dispersive", "alpha_re=40", "|alpha| = 40: the vacuum amplitude"),
])
def test_bad_grid_rejected_before_any_output(tmp_path, capsys, command, setting, name):
    out = tmp_path / "bad"
    code = run_cli([command, "--out", str(out), "--set", setting])
    captured = capsys.readouterr()
    assert code == 2
    assert name in captured.err
    assert not out.exists() or not any(out.iterdir())


QUADRATIC_ONLY = ["--set", "delta=0.0", "--set", "epsilon=0.25"]


@pytest.mark.parametrize("args, causes", [
    # chi != 0: H_eff drops the free field's Kerr term, 5e9 times the GUP term
    (["dispersive", "--preset", "fig1", *QUADRATIC_ONLY],
     ["chi = -1.32e-14", "Kerr term 4*omega*chi = -52.7 rad/s",
      "2*mu*phi = -1.05e-08 rad/s", "delta^2 = epsilon"]),
    (["wigner-diff", "--preset", "fig1", *QUADRATIC_ONLY],
     ["chi = -1.32e-14", "Kerr term 4*omega*chi = -52.7 rad/s", "delta^2 = epsilon"]),
    # past the rounding of delta*delta by a relative 1e-12
    (["wigner-diff", "--preset", "fig1", "--set", "delta=0.1", "--set",
      "epsilon=0.01000000000001"],
     ["chi = -5.27e-28 at delta = 0.1, epsilon = 0.01000000000001", "delta^2 = epsilon"]),
    # the Rabi frequency's first-order factor 1 - (n+1) phi, at the table's
    # largest n and at the series' n
    (["rabi", "--set", "gamma=1e12"],
     ["LinearityError", "(n+1)*phi = 1.16e+07 at n = 10", "first-order Rabi frequency"]),
    (["rabi", "--set", "n=800", "--set", "gamma=1.1e7"],
     ["LinearityError", "(n+1)*phi = 0.102 at n = 800"]),
    # the block's chi detuning against a coupling of 1 rad/s
    (["rabi", *QUADRATIC_ONLY],
     ["LinearityError", "chi-channel term 4*sqrt(n+1)*chi*omega/coupling = -1.75e+04",
      "8*(n+1)*chi*omega = -1.16e+05 rad/s", "delta^2 = epsilon"]),
    # omega0 two ulps above omega = 1e16: a detuning of 4 rad/s against a
    # coupling of 1 rad/s, which the resonant closed forms do not describe
    (["rabi", "--set", "omega0=1.0000000000000004e16"],
     ["|detuning| = |omega0 - omega| = 4 rad/s", "resonance tolerance 0.001 * coupling",
      "coupling of 1 rad/s"]),
])
def test_a_model_the_command_would_misreport_is_refused_before_any_output(
        tmp_path, capsys, args, causes):
    out = tmp_path / "refused"
    assert run_cli([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(cause in err for cause in causes), err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("delta, epsilon", [(0.5, 0.25), (0.1, 0.01), (0.7, 0.49)])
@pytest.mark.parametrize("command, small", [("dispersive", "fidelity_points=2"),
                                            ("wigner-diff", "grid_points=11")])
def test_dispersive_commands_run_every_model_with_chi_zero(tmp_path, command, small, delta,
                                                          epsilon):
    # delta^2 = epsilon away from the paper's delta = epsilon = 1; at 0.1 and
    # 0.7 the rounded delta*delta misses epsilon by one ulp, which leaves chi
    # at 9.1e-32 and -2.9e-30
    out = tmp_path / command
    assert run_cli([command, "--preset", "fig1", "--set", f"delta={delta}", "--set",
                    f"epsilon={epsilon}", "--set", small, "--out", str(out)]) == 0


def test_wigner_diff_past_underflow_limit_exits_cleanly(tmp_path, capsys):
    # every point of this grid lies past MAX_ABS_Z from beta: no map and no
    # reference peak is left to write
    out = tmp_path / "far"
    code = run_cli(["wigner-diff", "--out", str(out), "--preset", "fig1",
                    "--set", "grid_extent=200.0", "--set", "grid_points=4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "the grid point nearest beta = -0.3634+0.9316j lies 93.37 from it" in err
    assert f"Wigner evaluation limit {MAX_ABS_Z:.4g}" in err and "underflows" in err
    assert not out.exists() or not any(out.iterdir())


def test_grid_extent_past_the_kernel_limit_reads_zero_there(tmp_path):
    # the kernel refuses a point past its limit by name; a grid whose corners
    # lie past it from beta is served, and reads exactly 0 at those corners
    largest = 13.30785875462563
    past = math.nextafter(largest, math.inf)
    vacuum = [_density(fock_state(0, 1))]
    _wigner_terms(vacuum, np.array([complex(largest, largest)]))
    with pytest.raises(ValueError, match="exceeds the Wigner evaluation limit"):
        _wigner_terms(vacuum, np.array([complex(past, past)]))
    d = DispersiveConfig(mu=1e5, phi=derive_coefficients(GupParams.from_gamma(1e3, 1.0, 1.0),
                                                          1e15).phi, alpha=1.0, t=1e3)
    dec = photon_added_decomposition(d, "g")
    op = _density(dec.displaced)
    op[0, 0] -= 1.0
    for points in (41, 3):
        out = tmp_path / str(points)
        assert run_cli(["wigner-diff", "--out", str(out), "--preset", "fig1",
                        "--set", "grid_extent=20", "--set", f"grid_points={points}"]) == 0
        with open(out / "delta_w.json") as fh:
            grid = json.load(fh)
        u = (np.array(grid["re_axis"])[None, :] + 1j * np.array(grid["im_axis"])[:, None]
             - dec.beta).ravel()
        values = np.array(grid["values_row_major"])
        far = np.abs(u) > MAX_ABS_Z
        assert far.any() and not far.all()
        assert np.all(values[far] == 0.0)
        assert np.array_equal(values[~far], _wigner_terms([op], u[~far])[0])
    # the 3-point grid's centre, z = 0
    assert values[4] == -5.36576293361542e-10


def test_failed_run_leaves_no_run_config(tmp_path, capsys):
    out = tmp_path / "failed"
    code = run_cli(["wigner-diff", "--out", str(out), "--preset", "fig1",
                    "--set", "alpha_re=10", "--set", "grid_points=3"])
    assert code == 2
    assert "LinearityError" in capsys.readouterr().err
    assert not (out / "run_config.json").exists()


@pytest.mark.parametrize("command, text, cause", [
    ("rabi", None, "No such file or directory"),
    ("rabi", "{", "is not valid JSON"),
    ("rabi", "[1, 2]", "must hold a JSON object, not a list"),
    ("rabi", '{"params": [1]}', "params must be a JSON object, not a list"),
    ("rabi", '{"preset": [1]}', "preset must be a name or null, not a list"),
    ("rabi", '{"seed": "x"}', "seed must be an integer >= 0, got 'x'"),
    ("verify", '{"seed": "x"}', "seed must be an integer >= 0, got 'x'"),
    ("verify", '{"seed": 1.5}', "seed must be an integer >= 0, got 1.5"),
    ("rabi", '{"seed": true}', "seed must be an integer >= 0, got True"),
    ("verify", '{"seed": -1}', "seed must be an integer >= 0, got -1"),
    ("wigner-diff", '{"params": {"ncut": 40}}', "unknown parameter 'ncut'"),
    # a flag in place of the file: a seed the replay of run_config.json
    # would refuse is refused on the command line too
    ("rabi", "--seed=-1", "--seed must be an integer >= 0, got -1"),
    ("verify", "--seed=-1", "--seed must be an integer >= 0, got -1"),
])
def test_malformed_config_file_is_refused_by_name(tmp_path, capsys, command, text, cause):
    cfg_path = tmp_path / "cfg.json"
    source, named = ["--config", str(cfg_path)], str(cfg_path)
    if text is not None and text.startswith("--"):
        source, named = [text], text.partition("=")[0]
    elif text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    assert run_cli([command, "--out", str(out), *source]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and cause in err, err
    assert not (out / "run_config.json").exists()


def test_wigner_diff_rejects_retired_pad_levels(tmp_path, capsys):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"command": "wigner-diff", "params": {"pad_levels": None}}))
    code = run_cli(["wigner-diff", "--out", str(tmp_path / "old"), "--config", str(cfg_path)])
    assert code == 2
    assert "pad_levels" in capsys.readouterr().err


def test_rabi_rejects_retired_ncut(tmp_path, capsys):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"command": "rabi", "params": {"ncut": None}}))
    code = run_cli(["rabi", "--out", str(tmp_path / "old"), "--config", str(cfg_path)])
    assert code == 2
    assert "ncut" in capsys.readouterr().err
