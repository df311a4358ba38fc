"""Shortest round-trip decimal strings of float64 arrays, laid out as repr().

``float_reprs(values)`` returns ``[repr(x) for x in values.ravel().tolist()]``
for finite float64 input, computed on whole arrays instead of one Python call
per value.  The digits are Ryu's (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018, the d2d step of its reference d2s.c): the shortest
decimal that reads back to the same double and, among those, the one nearest
to it, with ties to even.  That is the digit string CPython's repr() takes
from David Gay's dtoa in mode 0.  The layout is CPython's ``'r'`` format:
positional when the decimal point position decpt (value = 0.d1d2... x
10^decpt) satisfies -4 < decpt <= 16, with ``.0`` after an integral value,
else d1[.d2...]e+XX with at least two exponent digits; the sign of -0.0 is
kept.  "Exactly repr()" covers every finite double, subnormals and the
largest double included; the equality is tested against repr() itself.
NaN and infinities are refused.

The d2d step runs on uint64 arrays.  Ryu multiplies the mantissa m and its
rounding interval (4m, 4m + 2 and 4m - 2, or 4m - 1 at a power of two, all
below 2^55) by a 125-bit approximation of 5^-q or 5^i and shifts the
180-bit product right; numpy has no 128-bit integers, so the products are
formed from 32-bit limbs, whose partial products fit in 64 bits.  Ryu then
removes one decimal digit at a time while the interval still holds a
shorter decimal (vp // 10 > vm // 10).  That loop runs here on whole
arrays: the test is monotone in the digits removed, so a value's count is
the number of rounds it passes, and the trailing-zero flags that settle
exact ties follow from the count.  The per-exponent constants (multiplier
limbs, shift, decimal exponent) come from exact Python-int powers of 5,
built on the first call and cached, so importing the module costs nothing.
The strings are cut from a character matrix with one row per position,
whose unused cells are deleted from its bytes.  Values go through in passes
of CHUNK, which bounds the work arrays.

Two numpy rules the code keeps: an int64 and a uint64 array never meet in
one operation (numpy would promote the pair to float64 and drop digits), and
every variable shift count lies strictly inside (0, 64).
"""

from __future__ import annotations

import functools

import numpy as np

# Values formatted per pass.  A pass makes about 150 numpy calls whatever its
# size, and its work arrays and strings grow with it.  Measured in-process on
# fig1's 201x201 map (40 401 values, 2-vCPU Xeon, medians of interleaved
# calls): 2048 values a pass took 30-35 ms, 3072 25-32 ms, 4096 25-30 ms,
# and 6144 or 8192 were no faster; the resident memory the first grid write
# adds was 0.51, 0.59, 0.67, 0.82 and 1.02 MB (0.38 MB of it numpy code).
CHUNK = 4096

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_TEN = _U64(10)
_POW10 = np.array([10**p for p in range(20)], dtype=np.uint64)
_POW10_32 = _POW10[:10].astype(np.uint32)
_POW5_BITS = 125  # Ryu's DOUBLE_POW5_INV_BITCOUNT and DOUBLE_POW5_BITCOUNT
_EXPONENT_BIAS = 1023 + 52 + 2  # Ryu takes 2 more bits for the interval bounds
_FIELDS = 2047  # biased exponents of the finite doubles
# the rows of the 18-character body: the 17 significant digits (padded with
# zeros) with a "." inserted
_ROWS = np.arange(18)[:, None]
_NO_DOT = 99


@functools.cache
def _tables() -> dict:
    """Ryu's per-exponent constants, indexed by the biased exponent field.

    For e2 >= 0 the multiplier is floor(2^(k - 1) / 5^q) + 1 with
    k = bits(5^q) + 125, for e2 < 0 it is 5^i cut to its top 125 bits; both
    are exact here.  Every shift j lies in (96, 128], so the result is bits
    j .. j + 63 of limbs 3 to 5, and ``shift`` holds j - 96.
    """
    limbs = np.zeros((4, _FIELDS), dtype=np.uint64)
    shift = np.zeros(_FIELDS, dtype=np.uint64)
    e10 = np.zeros(_FIELDS, dtype=np.int64)
    # e2 >= 0 and q <= 21: 4m and its bounds end in q decimal zeros iff 5^q
    # divides them (0: no test)
    pow5_test = np.zeros(_FIELDS, dtype=np.uint64)
    # e2 < 0 and q <= 1: every product ends in q decimal zeros
    exact = np.zeros(_FIELDS, dtype=bool)
    # e2 < 0 and 1 < q < 63: 4m ends in q decimal zeros iff its low q bits
    # are 0 (0: no test)
    low_bits = np.zeros(_FIELDS, dtype=np.uint64)
    for field in range(_FIELDS):
        e2 = max(field, 1) - _EXPONENT_BIAS
        if e2 >= 0:
            q = (e2 * 78913 >> 18) - (e2 > 3)  # floor(e2 log10 2), less 1 past 3
            pow5 = 5**q
            bits = pow5.bit_length()
            mul = (1 << (bits - 1 + _POW5_BITS)) // pow5 + 1
            j = -e2 + q + _POW5_BITS + bits - 1
            e10[field] = q
            if q <= 21:
                pow5_test[field] = pow5
        else:
            q = (-e2 * 732923 >> 20) - (-e2 > 1)  # floor(-e2 log10 5), less 1 past 1
            pow5 = 5 ** (-e2 - q)
            bits = pow5.bit_length()
            mul = pow5 >> (bits - _POW5_BITS) if bits >= _POW5_BITS else pow5 << (_POW5_BITS - bits)
            j = q - bits + _POW5_BITS
            e10[field] = q + e2
            exact[field] = q <= 1
            if 1 < q < 63:
                low_bits[field] = (1 << q) - 1
        shift[field] = j - 96
        limbs[:, field] = [(mul >> (32 * t)) & 0xFFFFFFFF for t in range(4)]
    return {"limbs": limbs, "shift": shift, "e10": e10, "pow5": pow5_test,
            "exact": exact, "low_bits": low_bits}


def float_reprs(values) -> list[str]:
    """[repr(x) for x in values.ravel().tolist()] for finite float64 values."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(flat).all():
        raise ValueError("float_reprs formats finite values only")
    strings: list[str] = []
    for start in range(0, flat.size, CHUNK):
        # each step's work arrays are freed before the next step starts
        strings += _layout(*_shortest(flat[start: start + CHUNK])).split("\n")
    return strings


def _shortest(x: np.ndarray) -> tuple:
    """Ryu's d2d: (digits, e10, negative) with x = +-digits * 10^e10, digits
    the shortest that reads back to x and, of those, the nearest to x."""
    tables = _tables()
    bits = x.view(np.uint64)
    field = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    mantissa = bits & _U64((1 << 52) - 1)
    zero = (field == 0) & (mantissa == 0)
    # a zero is written from its own digits below; 1.0 stands in for it
    field[zero] = 1023
    m2 = mantissa | (field != 0).astype(np.uint64) << _U64(52)
    accept = (m2 & _U64(1)) == 0  # an even mantissa reads its bounds back
    # the interval is 4m - 1 - shift .. 4m + 2 around 4m; the lower gap is
    # half as wide at a power of two above the smallest normal
    mm_shift = ((mantissa != 0) | (field <= 1)).astype(np.uint64)
    mv = m2 << _U64(2)
    mm = mv - _U64(1) - mm_shift
    vr, vp, vm = _mul_shift(mm, mm_shift, np.take(tables["limbs"], field, axis=1),
                            tables["shift"][field])

    # whether the exact products 4m * 10^-e10 and its bounds are integers,
    # that is, whether vr and vm drop only zeros below the kept digits
    pow5 = tables["pow5"][field]
    five = pow5 != 0
    pow5[~five] = 1
    mv_not5 = mv - mv // _U64(5) * _U64(5) != 0
    vr_zeros = five & (mv % pow5 == 0)
    vm_zeros = five & mv_not5 & accept & (mm % pow5 == 0)
    vp -= (five & mv_not5 & ~accept & ((mv + _U64(2)) % pow5 == 0)).astype(np.uint64)
    exact = tables["exact"][field]
    vr_zeros |= exact
    vm_zeros |= exact & accept & (mm_shift == 1)
    vp -= (exact & ~accept).astype(np.uint64)
    low_bits = tables["low_bits"][field]
    vr_zeros |= (low_bits != 0) & ((mv & low_bits) == 0)

    # drop a digit while the interval still holds a shorter decimal; the
    # test is monotone, so each value's count is the number of rounds it
    # passes
    removed = np.zeros(x.size, dtype=np.intp)
    quot_p, quot_m = vp, vm
    while True:
        quot_p, quot_m = quot_p // _TEN, quot_m // _TEN
        shorter = quot_p > quot_m
        if not shorter.any():
            break
        removed += shorter
    vm_zeros &= vm % _POW10[removed] == 0
    # a lower bound that is itself the shorter decimal goes on losing zeros
    extend = np.flatnonzero(vm_zeros)
    tail = vm[extend] // _POW10[removed[extend]]
    while tail.size:
        quot = tail // _TEN
        more = quot * _TEN == tail
        if not more.any():
            break
        removed[extend] += more
        tail = np.where(more, quot, tail)
    scale = _POW10[removed]
    last_scale = _POW10[np.maximum(removed - 1, 0)]
    digits = vr // scale
    last = np.where(removed > 0, vr // last_scale - digits * _TEN, _U64(0))
    vr_zeros &= vr % last_scale == 0
    # an exact ...50..0 rounds to even
    tie = vr_zeros & (last == 5) & ((digits & _U64(1)) == 0)
    round_up = ((last >= 5) & ~tie) | ((digits == vm // scale) & ~(accept & vm_zeros))
    digits += round_up.astype(np.uint64)
    digits[zero] = 0
    e10 = tables["e10"][field] + removed
    e10[zero] = 0
    return digits, e10, bits >> _U64(63) != 0


def _mul_shift(mm: np.ndarray, mm_shift: np.ndarray, limbs: np.ndarray, shift: np.ndarray):
    """floor(m * mul / 2^(96 + shift)) for m = 4m2 (vr), 4m2 + 2 (vp) and
    mm = 4m2 - 1 - mm_shift (vm), all below 2^55, with the 125-bit multipliers
    given as (4, n) 32-bit limbs, least first; ``limbs`` is overwritten."""
    # the 32-bit limb columns of mm * mul, not yet carried: a column sums the
    # halves of the low limb's products and the whole products of the high
    # limb (below 2^55), so it stays below 2^57; work in place, as the
    # (4, n) and (6, n) arrays are the largest of a chunk
    part = (mm & _MASK32) * limbs
    base = np.empty((6, mm.size), dtype=np.uint64)
    np.bitwise_and(part, _MASK32, out=base[:4])
    base[4:] = 0
    part >>= _U64(32)
    base[1:5] += part
    np.multiply(limbs, mm >> _U64(32), out=part)
    base[1:5] += part
    # 4m2 = mm + 1 + mm_shift and 4m2 + 2 = mm + 3 + mm_shift
    step_r = np.multiply(limbs, mm_shift + _U64(1), out=part)
    limbs <<= _U64(1)
    step_p = np.add(limbs, step_r, out=limbs)
    results = []
    for step in (step_r, step_p, None):
        # carry upwards; the columns below limb 3 only feed the carries
        col = base[0] if step is None else base[0] + step[0]
        for c in range(1, 6):
            col = base[c] + (col >> _U64(32))
            if step is not None and c < 4:
                col += step[c]
            if c == 3:
                low_word = col & _MASK32
            elif c == 4:
                low_word |= col << _U64(32)
        results.append(low_word >> shift | col << (_U64(64) - shift))
    return results


def _layout(digits: np.ndarray, e10: np.ndarray, negative: np.ndarray) -> str:
    """CPython's 'r' layout of +-digits * 10^e10, the strings joined by "\\n".

    The characters go into a (30, n) matrix, one row a position: sign, "0."
    and up to three zeros before a small value, an 18-character body of the
    digits with a "." inserted, "e" with the exponent's sign and digits, and a
    separator.  A 0 marks an unused position and is deleted from the bytes.
    """
    n = digits.size
    count = np.searchsorted(_POW10[1:18], digits, side="right") + 1
    decpt = e10 + count
    exponent = (decpt <= -4) | (decpt > 16)
    small = ~exponent & (decpt <= 0)
    chars = np.zeros((30, n), dtype=np.uint8)
    chars[0] = negative * ord("-")
    chars[1] = small * ord("0")
    chars[2] = small * ord(".")
    chars[3:6] = (_ROWS[:3] < np.where(small, -decpt, 0)) * ord("0")
    # the digits, left-aligned in rows 1..17 of ``padded``: scaled up to 17
    # digits, so that they run on in zeros, and split as 9 + 8 in uint32;
    # the digit arithmetic is modulo 256, which keeps every digit exact
    scaled = digits * _POW10[17 - count]
    high = scaled // _U64(10**8)
    low = (scaled - high * _U64(10**8)).astype(np.uint32)
    padded = np.zeros((19, n), dtype=np.uint8)
    np.floor_divide(high.astype(np.uint32), _POW10_32[8::-1, None], out=padded[1:10],
                    casting="unsafe")
    np.floor_divide(low, _POW10_32[7::-1, None], out=padded[10:18], casting="unsafe")
    padded[2:10] -= padded[1:9] * np.uint8(10)
    padded[11:18] -= padded[10:17] * np.uint8(10)
    padded[1:] += np.uint8(ord("0"))
    # the "." follows digit 1 in the exponent form and digit decpt in the
    # positional one; an integral value runs on in zeros up to decpt, then
    # ".0", which takes digit decpt (a padding zero)
    dot = np.where(exponent, np.where(count > 1, 1, _NO_DOT), np.where(small, _NO_DOT, decpt))
    end = np.where(~exponent & (decpt >= count), decpt + 1, count)
    # body row p shows digit p before the "." and digit p - 1 after it, and
    # is kept while that digit's index is below ``end``
    after = _ROWS > dot
    body = padded[1:]
    body -= after * (body - padded[:-1])
    at_dot = _ROWS == dot
    body[at_dot] = ord(".")
    keep = _ROWS < end
    keep |= after & (_ROWS == end)
    keep |= at_dot
    chars[6:24] = body * keep
    power = decpt - 1
    size = np.where(power < 0, 1 - decpt, power)  # |power|
    chars[24] = exponent * ord("e")
    chars[25] = exponent * np.where(power < 0, ord("-"), ord("+"))
    chars[26] = (exponent & (size >= 100)) * (size // 100 + ord("0"))
    chars[27] = exponent * (size // 10 % 10 + ord("0"))
    chars[28] = exponent * (size % 10 + ord("0"))
    chars[29, :-1] = ord("\n")
    return chars.T.tobytes().translate(None, b"\0").decode("ascii")
