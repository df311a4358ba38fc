"""In-memory span tracing of gupjc's layers for the benchmark's traced runs.

While installed, a ``Tracer`` replaces each instrumented function at every
module namespace that binds it (``from .fock import evolve_on_grid`` copies
the name into ``cli`` and ``dynamics``, so both bindings are wrapped), plus
dict-valued module globals such as ``cli.COMMANDS``.  A wrapper records a
span (name, start, end, parent) and counts the call.  Removing the tracer
restores every original binding.

Per-layer times are self times: a span's duration minus the part its child
spans cover.  Each instant of a traced iteration is thereby charged to the
innermost instrumented function running at that instant.  A function that a
later refactor removes is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

# Per-layer time metrics: each sums the self time of the spans of the listed
# functions ("module.function" within the gupjc package).
SELF_TIME: dict[str, tuple[str, ...]] = {
    "fock.evolve_s": ("fock.evolve_on_grid", "fock.matrix_exponential_apply"),
    "fock.state_build_s": ("fock.coherent_state", "fock.photon_added_coherent_state"),
    "gup.coeff_s": ("gup.derive_coefficients",),
    "gup.hamiltonian_s": (
        "gup.build_rwa_hamiltonian",
        "gup.build_full_interaction_hamiltonian",
        "gup.build_modified_free_field",
    ),
    "dynamics.frame_hamiltonian_s": ("dynamics.resonant_frame_hamiltonian",),
    "dynamics.validate_s": ("dynamics.validate_against_numeric",),
    "dispersive.exact_s": ("dispersive.evolve_dispersive_exact",),
    "dispersive.decomposition_s": (
        "dispersive.photon_added_decomposition",
        "dispersive.decomposition_field_state",
    ),
    "dispersive.rk4_s": ("dispersive.interaction_picture_rk4",),
    "dispersive.commutator_s": ("dispersive.commutator_check",),
    "wigner.eval_s": ("wigner.wigner_values_at",),
    "rwa_validity.zeta_map_s": ("rwa_validity.zeta_map",),
    "rwa_validity.cross_check_s": ("rwa_validity.perturbation_cross_check",),
    "cli.serialize_s": (
        "cli.write_csv",
        "cli.write_json",
        "cli.write_manifest",
        "wigner.grid_to_csv",
        "wigner.grid_to_json",
    ),
    "cli.command_self_s": (
        "cli.cmd_rabi",
        "cli.cmd_dispersive",
        "cli.cmd_wigner_diff",
        "cli.cmd_zeta_maps",
        "cli.cmd_verify",
    ),
}

# Functions that are counted but get no span, so their time stays with the
# caller: zeta_map's cost is measured whole, whether or not it loops over
# the scalar ratios, and wigner_of_state only delegates to wigner_values_at.
COUNT_ONLY = ("wigner.wigner_of_state", "rwa_validity.zeta_lq", "rwa_validity.zeta_rq")

CALLS: dict[str, tuple[str, ...]] = {
    "fock.evolve_calls": SELF_TIME["fock.evolve_s"],
    "fock.state_build_calls": SELF_TIME["fock.state_build_s"],
    "gup.coeff_calls": SELF_TIME["gup.coeff_s"],
    "dynamics.validate_calls": SELF_TIME["dynamics.validate_s"],
    "wigner.states": ("wigner.wigner_of_state",),
    "rwa_validity.ratio_calls": ("rwa_validity.zeta_lq", "rwa_validity.zeta_rq"),
}

# Real flops of one dense Hermitian eigendecomposition with eigenvectors,
# per dim^3: ~9 n^3 for the real symmetric QR algorithm (Golub & Van Loan),
# times 4 for complex arithmetic.  A model, reported as computed.
EIGH_FLOPS_PER_DIM3 = 36

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS: dict[str, str] = {
    "fock.evolve_s": "s",
    "fock.evolve_calls": "count",
    "fock.evolve_dim_max": "count",
    "fock.state_build_s": "s",
    "fock.state_build_calls": "count",
    "gup.coeff_s": "s",
    "gup.coeff_calls": "count",
    "gup.hamiltonian_s": "s",
    "dynamics.frame_hamiltonian_s": "s",
    "dynamics.validate_s": "s",
    "dynamics.validate_calls": "count",
    "dispersive.exact_s": "s",
    "dispersive.decomposition_s": "s",
    "dispersive.rk4_s": "s",
    "dispersive.commutator_s": "s",
    "wigner.eval_s": "s",
    "wigner.states": "count",
    "wigner.points": "count",
    "wigner.basis_dim": "count",
    "wigner.flops_computed": "flop",
    "wigner.points_per_s": "1/s",
    "rwa_validity.zeta_map_s": "s",
    "rwa_validity.ratio_calls": "count",
    "rwa_validity.cross_check_s": "s",
    "cli.serialize_s": "s",
    "cli.bytes_written": "B",
    "cli.command_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    result = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Spans and counters of one traced iteration, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.totals: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self._open: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def record_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), int(value))

    def _wrap(self, name: str, fn: Callable, timed: bool) -> Callable:
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if timed:
                index = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(index)
            else:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every binding of each instrumented function in ``modules``."""
        timed = [n for names in SELF_TIME.values() for n in names]
        for name in [*timed, *COUNT_ONLY]:
            module, _, func = name.partition(".")
            original = getattr(modules.get(module), func, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, name not in COUNT_ONLY)
            for mod in modules.values():
                namespaces = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapper
                            self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            ns[key] = original
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the iteration, without the trace.* entries."""
        by_name: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            by_name[span.name] += own
        metrics: dict[str, float] = {
            metric: sum(by_name[n] for n in names) for metric, names in SELF_TIME.items()
        }
        metrics.update({metric: sum(self.calls[n] for n in names) for metric, names in CALLS.items()})
        for key in ("fock.evolve_dim_max", "wigner.basis_dim"):
            metrics[key] = self.maxima.get(key, 0)
        for key in ("wigner.points", "wigner.flops_computed", "cli.bytes_written"):
            metrics[key] = self.totals[key]
        eval_s = metrics["wigner.eval_s"]
        metrics["wigner.points_per_s"] = metrics["wigner.points"] / eval_s if eval_s > 0 else 0.0
        return metrics


def gupjc_modules() -> dict[str, ModuleType]:
    """The imported gupjc package and submodules, keyed by short name."""
    return {
        name.partition(".")[2] or name: mod
        for name, mod in list(sys.modules.items())
        if name == "gupjc" or name.startswith("gupjc.")
    }


# ---------------------------------------------------------------------------
# observers: work counts read from a call's arguments after it returns
# ---------------------------------------------------------------------------

def _evolve_dim(tracer: Tracer, args: dict) -> None:
    state = args.get("state")
    if state is not None:
        tracer.record_max("fock.evolve_dim_max", len(state))


def _wigner_work(tracer: Tracer, args: dict) -> None:
    import numpy as np

    psi, zs = args["psi"], np.asarray(args["zs"]).ravel()
    pad = args.get("pad_levels")
    if pad is None:
        default_pad = getattr(sys.modules["gupjc.wigner"], "default_pad_levels", None)
        max_abs_sq = float(np.max(np.abs(zs)) ** 2) if zs.size else 0.0
        pad = default_pad(psi, max_abs_sq) if default_pad else 0
    dim = psi.ncut + 1 + int(pad)
    tracer.totals["wigner.points"] += zs.size
    tracer.totals["wigner.flops_computed"] += 16 * zs.size * dim**2 + EIGH_FLOPS_PER_DIM3 * dim**3
    tracer.record_max("wigner.basis_dim", dim)


def _bytes_written(tracer: Tracer, args: dict) -> None:
    path = args["path"]
    # the manifest carries wall time and a timestamp, so its size varies per run
    if os.path.basename(path) != "manifest.json":
        tracer.totals["cli.bytes_written"] += os.path.getsize(path)


OBSERVERS: dict[str, Callable[[Tracer, dict], None]] = {
    "fock.evolve_on_grid": _evolve_dim,
    "fock.matrix_exponential_apply": _evolve_dim,
    "wigner.wigner_values_at": _wigner_work,
    "cli.write_csv": _bytes_written,
    "cli.write_json": _bytes_written,
    "wigner.grid_to_csv": _bytes_written,
    "wigner.grid_to_json": _bytes_written,
}
