"""gupjc benchmark: closed loop, one client, in-process CLI calls.

Usage (from the repository root):

    python3 perfbench/run.py --workload wigner-fig1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every workload, a table

One run measures one workload in this fresh process, so peak memory belongs
to that workload.  An untraced run first times ``setup_s``, the start of a
fresh interpreter until ``import gupjc.cli`` returns, in several child
processes.  It then imports gupjc from ``src/``, runs one warm-up iteration and loops
``gupjc.cli.main(argv)`` until ``--seconds`` have passed.  Every iteration,
warm-up included, passes through the workload's correctness gate; the gate
runs outside the timed region.

Times are calibrated (see calibration.py): a fixed kernel that uses no gupjc
code runs between set-up samples and between blocks of iterations, and each
time is scaled to the speed at which the kernel takes REFERENCE_S.  On a
shared host this removes most of the drift in machine speed; the
uncalibrated medians and the kernel times are printed alongside.  The
per-layer times of a traced run are not calibrated.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics; the
tracing overhead is the traced median wall time minus the untraced one.

BLAS runs one thread, set before numpy is imported; the count numpy's
OpenBLAS reports is recorded with the environment.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
from tracing import PER_LAYER_UNITS, Tracer, gupjc_modules
from workloads import WORKLOADS, GateError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
# a fresh interpreter prints the monotonic clock once gupjc.cli is imported;
# on Linux that clock is shared by all processes, so the parent can subtract
SETUP_CODE = "import time, gupjc.cli; print(time.monotonic())"
TAIL_MIN_BEYOND = 10
# One BLAS thread: on a shared 2-vCPU host, two-thread BLAS work also slowed
# with the neighbours' use of the second vCPU, which the calibration kernel
# (see calibration.py) does not follow.
BLAS_THREADS = 1
CALIBRATE_EVERY_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s_p50": "s",
    "wall_s_tail": "s",
    "cpu_s_p50": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples above it, never below 50.

    With n samples the k-th smallest (1-based) has n - k samples above it,
    so k = n - 10 sits at percentile 100 * (n - 10) / n.  Runs with fewer
    than 20 samples have no such percentile above the median and report p50.
    """
    if count <= 0:
        raise ValueError("no samples")
    return max(50.0, 100.0 * (count - TAIL_MIN_BEYOND) / count)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile; p50 is the median."""
    if pct == 50.0:
        return statistics.median(samples)
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def openblas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gupjc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, threads: int) -> dict:
    import gupjc
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "gupjc": gupjc.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_threads_reported": openblas_threads_in_use(),
        "nproc": usable_cpus(),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(env: dict) -> list[float]:
    """Fresh-interpreter import times, each scaled by the calibration kernel
    times on either side of it, as timed iterations are."""
    samples, kernel_times = [], [calibration.kernel()]
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"importing gupjc.cli failed:\n{out.stderr}")
        seconds = float(out.stdout.split()[-1]) - start
        kernel_times.append(calibration.kernel())
        samples.append(seconds * calibration.REFERENCE_S / statistics.fmean(kernel_times[-2:]))
    return samples


class Runner:
    """Runs gated iterations of one workload and keeps their outcomes."""

    def __init__(self, cli_main, workload, seed: int) -> None:
        self.cli_main = cli_main
        self.steps = workload.steps(seed)
        self.work = WORK / workload.name
        self.attempted = 0
        self.failed = 0

    def iteration(self, tracer=None) -> tuple[float, float]:
        """One gated iteration; returns (wall seconds, CPU seconds)."""
        shutil.rmtree(self.work, ignore_errors=True)
        outs = [self.work / f"{i}-{step.argv[0]}" for i, step in enumerate(self.steps)]
        codes = []
        self.attempted += 1
        root = tracer.begin("iteration") if tracer else None
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for step, out in zip(self.steps, outs):
                    codes.append(self.cli_main([*step.argv, "--out", str(out)]))
            error = None
        except Exception:  # a crash of the program is a failed iteration
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if tracer:
            tracer.end(root)
        if error is None:
            try:
                for step, out, code in zip(self.steps, outs, codes):
                    if code != 0:
                        raise GateError(f"{' '.join(step.argv)} exited with code {code}")
                    step.check(out)
            except (GateError, OSError, LookupError, ValueError, TypeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            print(f"iteration {self.attempted} failed: {error}", file=sys.stderr)
        return wall, cpu


def run_untraced(runner: Runner, seconds: float):
    """Timed iterations until the deadline, calibrated in blocks.

    The calibration kernel runs before the first iteration and after every
    block of iterations that together took CALIBRATE_EVERY_S or more.  Each
    iteration's (wall, CPU) pair is scaled by REFERENCE_S over the mean of
    the kernel times on either side of its block.  Returns the raw pairs,
    the scaled pairs and the kernel times.
    """
    raw, scaled, kernel_times, block = [], [], [calibration.kernel()], []
    deadline = time.perf_counter() + seconds
    while True:
        block.append(runner.iteration())
        done = time.perf_counter() >= deadline
        if done or sum(wall for wall, _ in block) >= CALIBRATE_EVERY_S:
            kernel_times.append(calibration.kernel())
            factor = calibration.REFERENCE_S / statistics.fmean(kernel_times[-2:])
            raw += block
            scaled += [(wall * factor, cpu * factor) for wall, cpu in block]
            block = []
        if done:
            return raw, scaled, kernel_times


def run_traced(runner: Runner, seconds: float):
    """Pairs of untraced and traced iterations, alternating which goes first
    so that drift does not bias the overhead; returns walls and tracers."""
    modules = gupjc_modules()
    untraced, traced, tracers = [], [], []

    def one_traced():
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced.append(runner.iteration(tracer)[0])
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(traced) % 2:
            one_traced()
            untraced.append(runner.iteration()[0])
        else:
            untraced.append(runner.iteration()[0])
            one_traced()
    return untraced, traced, tracers


def per_layer(untraced: list[float], traced: list[float], tracers: list) -> dict[str, float]:
    per_iteration = [t.layer_metrics() for t in tracers]
    metrics = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def end_to_end(setup: list[float], samples: list[tuple[float, float]],
               attempted: int, failed: int) -> tuple[dict[str, float], float]:
    """End-to-end metrics from set-up times and calibrated (wall, CPU) pairs."""
    walls = [wall for wall, _ in samples]
    tail_pct = tail_percentile(len(walls))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": percentile(walls, tail_pct),
        "cpu_s_p50": statistics.median(cpu for _, cpu in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    return metrics, tail_pct


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump([vars(s) for s in tracer.spans], fh)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    if not (SRC / "gupjc" / "cli.py").is_file():
        print(f"error: no gupjc sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        setup = [] if args.trace else measure_setup(child_env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # gupjc (and numpy) are imported only after the BLAS thread count is set
    sys.path.insert(0, str(SRC))
    import gupjc.cli

    if not Path(gupjc.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: gupjc imported from {gupjc.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed, BLAS_THREADS)
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(gupjc.cli.main, workload, args.seed)
    runner.iteration()  # warm-up: gated, not timed
    if args.trace:
        untraced, traced, tracers = run_traced(runner, args.seconds)
        metrics = per_layer(untraced, traced, tracers)
        units = PER_LAYER_UNITS
        write_spans(tracers[-1], runner.work / "spans.json")
        wall = metrics["trace.wall_s"]
        print(f"{len(traced)} traced and {len(untraced)} untraced iterations")
        for name, unit in units.items():
            share = f"  {100.0 * metrics[name] / wall:5.1f}% of traced wall" if unit == "s" else ""
            print(f"  {name:<30} {metrics[name]:>14.6g} {unit}{share}")
    else:
        raw, scaled, kernel_times = run_untraced(runner, args.seconds)
        metrics, tail_pct = end_to_end(setup, scaled, runner.attempted, runner.failed)
        units = END_TO_END_UNITS
        print(f"{len(scaled)} timed iterations, {len(setup)} set-up samples, "
              f"wall_s_tail at p{tail_pct:g}")
        print(f"calibration kernel: median {statistics.median(kernel_times):.4g} s over "
              f"{len(kernel_times)} runs; uncalibrated medians: wall "
              f"{statistics.median(w for w, _ in raw):.4g} s, "
              f"cpu {statistics.median(c for _, c in raw):.4g} s")
        for name, unit in units.items():
            print(f"  {name:<14} {metrics[name]:>12.6g} {unit}")
        print(f"  {'fail_ratio':<14} {runner.failed / runner.attempted:>12.6g} "
              f"({runner.failed}/{runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one summary table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: workload {name} exited with code {out.returncode}", file=sys.stderr)
            return out.returncode
        results[name] = json.loads(out.stdout.splitlines()[-1])
    print()
    for name, result in results.items():
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:<12} failed={result['failed']}/{result['attempted']}  {cells}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
