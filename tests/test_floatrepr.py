"""float_cells against repr() itself, through its str view float_reprs:
random bit patterns, a hypothesis property, named edge sets, and mutants
that each of them must catch."""

import inspect
import math
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupjc import _floatrepr
from gupjc._floatrepr import CHUNK, WIDTH, float_cells


def float_reprs(values) -> list[str]:
    """The str view of float_cells: [repr(x) for x in values.ravel().tolist()]
    for finite float64 values, if the cells are right."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    strings: list[str] = []
    for start in range(0, flat.size, CHUNK):
        cells = float_cells(flat[start: start + CHUNK])
        lines = np.full((len(cells), WIDTH + 1), ord("\n"), dtype=np.uint8)
        lines[:, :WIDTH] = cells
        strings += lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return strings


def repr_oracle(values) -> list[str]:
    return [repr(x) for x in np.asarray(values, dtype=float).ravel().tolist()]


def random_finite(count: int, seed: int) -> np.ndarray:
    bits = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])

EDGE_SETS = {
    "signed zeros": np.array([0.0, -0.0]),
    "extremes": np.array([
        5e-324,  # smallest subnormal
        np.nextafter(np.finfo(float).tiny, 0.0),  # largest subnormal
        np.finfo(float).tiny,  # smallest normal
        np.finfo(float).max,
    ]),
    # the rounding interval is asymmetric at a power of two
    "powers of two": np.array([math.ldexp(1.0, k) for k in range(-1074, 1024)]),
    "powers of ten and neighbours": with_neighbours(POWERS_OF_TEN[np.isfinite(POWERS_OF_TEN)]),
    "integers around 2^53": np.array([float(2**53 + i) for i in range(-64, 65)]
                                     + [float(2**54 + 2 * i) for i in range(-64, 65)]),
    # positional for -4 < decpt <= 16, exponent form outside
    "layout switches": with_neighbours(
        [1e-4, 1e-5, 9.99e-5, 1e15, 1e16, 1e17, 9999999999999998.0, 123456789012345.6]),
    "three-digit exponents": with_neighbours(
        [1e100, 1e-100, 2.5e-123, 6.02e+299, 1.5e-300, 1e-310, 4.9e-322]),
    "short decimals": np.array([0.1, 0.2, 0.3, 1.1, 2.675, 100.0, 1234.5, 0.001, 12.0, 1.5]),
}


@pytest.mark.parametrize("name", EDGE_SETS)
def test_edge_sets_equal_repr(name):
    values = EDGE_SETS[name]
    for signed in (values, -values):
        assert float_reprs(signed) == repr_oracle(signed)


def test_random_bit_patterns_equal_repr():
    values = random_finite(320_000, seed=2024)
    assert values.size > 300_000
    assert float_reprs(values) == repr_oracle(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_any_finite_floats_equal_repr(values):
    assert float_reprs(np.array(values, dtype=float)) == repr_oracle(values)


def test_shapes_chunks_and_dtypes():
    values = random_finite(3 * CHUNK + 7, seed=5)
    assert float_reprs(values.reshape(1, -1)) == repr_oracle(values)
    grid = values[: 4 * 13].reshape(4, 13)
    assert float_reprs(grid.T) == repr_oracle(grid.T)
    assert float_reprs(np.float32([0.1, -2.5e-8])) == repr_oracle(np.float32([0.1, -2.5e-8]))
    assert float_reprs(np.array([])) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        float_reprs(np.array([1.0, bad]))


def test_every_shift_lies_strictly_inside_0_64():
    # the result is bits j .. j + 63 of limbs 3 to 5: low_word >> shift and
    # limb 5 << (64 - shift), with j = 96 + shift
    shift = _floatrepr._tables()["shift"]
    assert 0 < shift.min() and shift.max() <= 32


def test_tables_wait_for_the_first_call():
    code = ("import gupjc.cli, gupjc._floatrepr as f; "
            "print(f._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# Each mutant is a plausible slip in the Ryu port or the layout; one of the
# sets above must catch it.
MUTANTS = {
    "no round-half-even": (
        "round_up = ((last >= 5) & ~tie) |", "round_up = (last >= 5) |"),
    "no vm trailing-zero loop": ("while tail.size:", "while False:"),
    "symmetric interval at powers of two": (
        "mm_shift = ((mantissa != 0) | (field <= 1)).astype(np.uint64)",
        "mm_shift = np.ones_like(mantissa)"),
    "layout switch at 1e15": (
        "exponent = (decpt <= -4) | (decpt > 16)", "exponent = (decpt <= -4) | (decpt > 15)"),
    "digit table bytes reversed": ('f"{i:04d}" for i', 'f"{i:04d}"[::-1] for i'),
    "no positional rewrite": ("cells[positional, 1:] = _positional(", "_positional("),
    "5^q tests on the complement": (
        "five = np.flatnonzero(pow5)", "five = np.flatnonzero(pow5 == 0)"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_every_mutant_fails_a_set(monkeypatch, name):
    source = inspect.getsource(_floatrepr)
    old, new = MUTANTS[name]
    assert source.count(old) == 1
    mutant = types.ModuleType("mutant")
    exec(compile(source.replace(old, new), "mutant", "exec"), mutant.__dict__)
    monkeypatch.setattr(_floatrepr, "_shortest", mutant._shortest)
    monkeypatch.setattr(_floatrepr, "_layout", mutant._layout)
    sets = [*EDGE_SETS.values(), random_finite(320_000, seed=2024)]
    assert any(float_reprs(values) != repr_oracle(values) for values in sets)
