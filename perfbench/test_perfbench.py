"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing
from tracing import Span, Tracer, self_times
from workloads import WORKLOADS, GateError, check_verify, check_wigner_fig1

sys.path.insert(0, str(run.SRC))
import gupjc.cli  # noqa: E402
import gupjc.fock  # noqa: E402

SELFTEST = run.WORK / "selftest"


# ---------------------------------------------------------------------------
# statistics and self time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count, expected", [(1, 50.0), (5, 50.0), (11, 50.0), (20, 50.0),
                                             (25, 60.0), (40, 75.0), (400, 97.5)])
def test_tail_percentile_from_sample_count(count, expected):
    assert run.tail_percentile(count) == pytest.approx(expected)


@pytest.mark.parametrize("count", [20, 21, 37, 100, 400, 1001])
def test_tail_leaves_ten_samples_beyond(count):
    samples = [float(i) for i in range(count, 0, -1)]
    tail = run.percentile(samples, run.tail_percentile(count))
    assert sum(s > tail for s in samples) == 10


def test_percentile_median_and_nearest_rank():
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.5
    assert run.percentile([float(i) for i in range(1, 101)], 90.0) == 90.0


class _FakeRunner:
    """Iterations of fixed (wall, CPU) times, for the calibration arithmetic."""

    def __init__(self, times):
        self.times = iter(times)

    def iteration(self):
        return next(self.times)


def test_iterations_are_scaled_by_the_kernel_times_around_their_block(monkeypatch):
    import calibration

    kernel_times = iter([0.5, 1.0, 2.0])
    monkeypatch.setattr(calibration, "REFERENCE_S", 1.0)
    monkeypatch.setattr(calibration, "kernel", lambda: next(kernel_times))
    monkeypatch.setattr(run, "CALIBRATE_EVERY_S", 1.0)
    # a block ends once its iterations took 1 s: [0.25, 0.75] then [1.5]
    runner = _FakeRunner([(0.25, 0.5), (0.75, 1.5), (1.5, 3.0)])
    clock = iter([0.0, 1.0, 2.0, 100.0])  # deadline set at 0, passed after the third
    monkeypatch.setattr(run, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    raw, scaled, kernels = run.run_untraced(runner, seconds=50.0)
    assert raw == [(0.25, 0.5), (0.75, 1.5), (1.5, 3.0)]
    assert kernels == [0.5, 1.0, 2.0]
    assert scaled == pytest.approx([(0.25 / 0.75, 0.5 / 0.75), (0.75 / 0.75, 1.5 / 0.75),
                                    (1.5 / 1.5, 3.0 / 1.5)])


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 9.5, 0),    # overlaps b, as a second thread would
        Span("d", 9.25, 11.0, 0),  # ends after its parent: clipped to it
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.5 - 0.5, 2.0, 1.0, 4.0, 1.5, 1.75])


def test_self_times_sum_to_root_duration():
    spans = [Span("root", 0.0, 6.0, -1), Span("x", 1.0, 2.0, 0), Span("y", 2.0, 5.0, 0),
             Span("z", 3.0, 4.0, 2)]
    assert sum(self_times(spans)) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _run_steps(workload: str, seed: int = 1) -> list[tuple[Path, object]]:
    shutil.rmtree(SELFTEST, ignore_errors=True)
    done = []
    for i, step in enumerate(WORKLOADS[workload].steps(seed)):
        out = SELFTEST / f"{i}-{step.argv[0]}"
        assert gupjc.cli.main([*step.argv, "--out", str(out)]) == 0
        step.check(out)
        done.append((out, step.check))
    return done


def _edit_csv(path: Path, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[len(rows) // 2][column] = repr(change(float(rows[len(rows) // 2][column])))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _scale_spot(payload, key):
    i = payload["delta_axis"].index(1e4)
    j = payload["omega_axis"].index(1e16)
    payload[key][i * len(payload["omega_axis"]) + j] *= 1.0 + 1e-6


PERTURBATIONS = {
    "rabi-inversion": (0, lambda out: _edit_csv(out / "inversion.csv", "w_numeric",
                                                lambda v: v + 1e-6)),
    "rabi-shift": (0, lambda out: _edit_csv(out / "rabi_table.csv", "delta_omega",
                                            lambda v: v * (1.0 + 1e-9))),
    "pacs1": (1, lambda out: _edit_json(out / "decomposition.json",
                                        lambda d: d["pacs1_amp"].__setitem__(0, d["pacs1_amp"][0] * 1.001))),
    "fidelity": (1, lambda out: _edit_csv(out / "fidelity_vs_t.csv", "overlap_sq",
                                          lambda v: v - 1e-6)),
    "zeta-lq": (2, lambda out: _edit_json(out / "zeta_map.json",
                                          lambda d: _scale_spot(d, "zeta_lq_row_major"))),
    "zeta-rq": (3, lambda out: _edit_json(out / "zeta_map.json",
                                          lambda d: _scale_spot(d, "zeta_rq_row_major"))),
    "missing-file": (3, lambda out: (out / "zeta_map.json").unlink()),
}


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_gate_fails_perturbed_paper_sweep_artifact(name):
    index, perturb = PERTURBATIONS[name]
    out, check = _run_steps("paper-sweep")[index]
    perturb(out)
    with pytest.raises((GateError, OSError)):
        check(out)


def test_gate_fails_failed_verify_check():
    out = SELFTEST / "verify"
    out.mkdir(parents=True, exist_ok=True)
    report = {"checks": [{"name": "a", "ok": True}, {"name": "b", "ok": False}],
              "all_passed": True}
    (out / "verify_report.json").write_text(json.dumps(report))
    with pytest.raises(GateError, match="b"):
        check_verify(out)


@pytest.mark.parametrize("key, value", [("max_abs_delta_w", 5.76e-05),
                                        ("ref_peak", 2.0 / 3.14159),
                                        ("location", [-0.88, 1.0])])
def test_gate_fails_perturbed_wigner_summary(key, value):
    out = SELFTEST / "wigner"
    out.mkdir(parents=True, exist_ok=True)
    summary = {"max_abs_delta_w": 5.7452358501297596e-05, "location": [-0.92, 1.0],
               "ref_peak": 0.6364327281347555, key: value}
    (out / "wigner_summary.json").write_text(json.dumps(summary))
    with pytest.raises(GateError):
        check_wigner_fig1(out)


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

DETERMINISTIC_COUNTS = ("wigner.points", "wigner.states", "wigner.basis_dim",
                        "fock.evolve_dim_max", "gup.coeff_calls", "rwa_validity.ratio_calls",
                        "cli.bytes_written")


def _traced_counts(runner) -> dict[str, float]:
    tracer = Tracer()
    tracer.install(tracing.gupjc_modules())
    try:
        runner.iteration(tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return {k: metrics[k] for k in DETERMINISTIC_COUNTS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_two_traced_runs_give_identical_counts(workload):
    runner = run.Runner(gupjc.cli.main, WORKLOADS[workload], seed=5)
    first, second = _traced_counts(runner), _traced_counts(runner)
    assert runner.failed == 0
    assert first == second
    assert first["cli.bytes_written"] > 0


def test_tracer_wraps_every_binding_and_restores_them():
    original, original_cmd = gupjc.fock.evolve_on_grid, gupjc.cli.cmd_rabi
    tracer = Tracer()
    tracer.install(tracing.gupjc_modules())
    try:
        wrapped = gupjc.cli.evolve_on_grid
        assert wrapped is not original
        assert sys.modules["gupjc.dynamics"].evolve_on_grid is wrapped
        assert gupjc.cli.COMMANDS["rabi"] is gupjc.cli.cmd_rabi is not original_cmd
    finally:
        tracer.uninstall()
    assert gupjc.cli.evolve_on_grid is original
    assert sys.modules["gupjc.dynamics"].evolve_on_grid is original
    assert gupjc.cli.COMMANDS["rabi"] is gupjc.cli.cmd_rabi is original_cmd


def test_layer_times_cover_the_traced_iteration():
    runner = run.Runner(gupjc.cli.main, WORKLOADS["paper-sweep"], seed=1)
    tracer = Tracer()
    tracer.install(tracing.gupjc_modules())
    try:
        runner.iteration(tracer)
    finally:
        tracer.uninstall()
    root = tracer.spans[0]
    assert root.name == "iteration" and root.parent == -1
    metrics = tracer.layer_metrics()
    charged = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "wigner.points_per_s")
    assert 0.0 < charged <= root.end - root.start


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"]: w["why"] for w in manifest["workloads"]}
    assert listed == {name: WORKLOADS[name].why for name in listed}
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == tracing.PER_LAYER_UNITS
