"""Shortest round-trip decimal strings of float64 arrays, laid out as repr().

``float_cells(values)`` returns the characters of ``[repr(x) for x in
values.ravel().tolist()]`` for finite float64 input as a numpy matrix,
computed on whole arrays instead of one Python call per value.  The digits
are Ryu's (Adams, "Ryu: fast float-to-string conversion", PLDI 2018, the
d2d step of its reference d2s.c): the shortest decimal that reads back to
the same double and, among those, the one nearest to it, with ties to even.
That is the digit string CPython's repr() takes from David Gay's dtoa in
mode 0.  The layout is CPython's ``'r'`` format: positional when the
decimal point position decpt (value = 0.d1d2... x 10^decpt) satisfies
-4 < decpt <= 16, with ``.0`` after an integral value, else d1[.d2...]e+XX
with at least two exponent digits; the sign of -0.0 is kept.  "Exactly
repr()" covers every finite double, subnormals and the largest double
included; the equality is tested against repr() itself.  NaN and infinities
are refused.

The d2d step runs on uint64 arrays.  Ryu multiplies the mantissa m and its
rounding interval (4m, 4m + 2 and 4m - 2, or 4m - 1 at a power of two, all
below 2^55) by a 125-bit approximation of 5^-q or 5^i and shifts the
180-bit product right; numpy has no 128-bit integers, so the products are
formed from 32-bit limbs, whose partial products fit in 64 bits.  Ryu then
removes one decimal digit at a time while the interval still holds a
shorter decimal (vp // 10 > vm // 10).  That loop runs here on whole
arrays: the test is monotone in the digits removed, so a value's count is
the number of rounds it passes, and the trailing-zero flags that settle
exact ties follow from the count.  Whether a product ends in q decimal
zeros is a test for divisibility by 5^q when the binary exponent e2 >= 0
and q <= 21; those tests run only on the values whose exponent has one,
which no value of magnitude below 2^54 has.

The layout fills a uint8 matrix of character cells, one row per value and
WIDTH = 32 cells a row, read as four 8-byte words: the sign, "0." and three
zeros before a small value, the first digit and "."; digits 1 to 8; digits
9 to 16; "e", the exponent's sign and three digits.  Every part of the
layout sits at a fixed column, and the cells a value leaves unused hold 0.
Every row is first written in the exponent form.  Its digits come four at a
time from a 10 000-entry table of ASCII digits, indexed by splits of the
digits by 10^8 and 10^4 (scalar divisors, which numpy divides fast), and a
byte mask per digit count cuts them after the last digit; the first word and
the exponent word come from tables of their own.  Only the rows of
positional values, ``np.flatnonzero(~exponent)``, are then laid out again,
with the "." moved or the "0.000" prefix added; for a map whose values all
take the exponent form, that subset is empty.  The tables hold bytes read as
uint32 or uint64 words, so the cells do not depend on the byte order.  All
tables, Ryu's per-exponent constants included, are built from exact Python
ints and bytes on the first call and cached, so importing the module costs
nothing.  A writer composes whole lines around the cells in numpy and
deletes the 0 cells with one ``bytes.translate`` over its buffer; the tests
read the cells as strings and compare them with repr().  Values go through
in passes of at most CHUNK, which bounds the work arrays.

Two numpy rules the code keeps: an int64 and a uint64 array never meet in
one operation (numpy would promote the pair to float64 and drop digits), and
every variable shift count lies strictly inside (0, 64).
"""

from __future__ import annotations

import functools

import numpy as np

# Values formatted per pass.  A pass makes over a hundred numpy calls
# whatever its size, and its work arrays and cells grow with it.  Measured
# in-process on fig1's 201x201 map (40 401 values, 2-vCPU Xeon, medians of
# interleaved calls) with the layout of the time, before its digit tables:
# 2048 values a pass took 30-35 ms, 3072 25-32 ms, 4096 25-30 ms, and 6144
# or 8192 were no faster; the resident memory the first grid write adds was
# 0.51, 0.59, 0.67, 0.82 and 1.02 MB (0.38 MB of it numpy code).
CHUNK = 4096

# Character cells of a value, four 8-byte words: sign, "0." and three zeros
# before a small value, and an 18-character body in the first three; "e",
# the exponent's sign and three digits in the last.  A repr() of a double
# fills at most 24 of them.
WIDTH = 32

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_TEN = _U64(10)
_POW10 = np.array([10**p for p in range(20)], dtype=np.uint64)
_POW5_BITS = 125  # Ryu's DOUBLE_POW5_INV_BITCOUNT and DOUBLE_POW5_BITCOUNT
_EXPONENT_BIAS = 1023 + 52 + 2  # Ryu takes 2 more bits for the interval bounds
_FIELDS = 2047  # biased exponents of the finite doubles
# the columns of the 18-character body: the 17 significant digits (padded
# with zeros) with a "." inserted
_COLUMNS = np.arange(18)
_NO_DOT = 99
_SMALL_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)
_MIN_POWER = -324  # the decimal exponent of the smallest subnormal, 5e-324


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
    # The layout's tables hold cells as bytes, read as one uint32 or uint64,
    # so that they do not depend on the byte order.  The digits of 0000 to
    # 9999:
    quads = np.array([f"{i:04d}" for i in range(10_000)], dtype="S4").view(np.uint32)
    # the first word of an exponent form (sign, d0, "." unless d0 is the only
    # digit), at (negative * 10 + d0) * 2 + (count > 1):
    heads = np.array([sign.ljust(6, b"\0") + bytes([ord("0") + d0]) + dot
                      for sign in (b"", b"-") for d0 in range(10) for dot in (b"\0", b".")],
                     dtype="S8").view(np.uint64)
    # at count, the bytes of d1 to d16 that count digits keep (count >= 1):
    masks = np.array([(b"\xff" * max(count - 1, 0)).ljust(16, b"\0") for count in range(18)],
                     dtype="S16").view(np.uint64).reshape(-1, 2)
    # "e", the sign and the three digits of each decimal exponent, with 0
    # for the hundreds digit below 100:
    exponents = []
    for power in range(_MIN_POWER, 309):
        text = f"e{power:+04d}".encode()  # e-005, e+022, e-324
        exponents.append(text[:2] + b"\0" + text[3:] if abs(power) < 100 else text)
    exponents = np.array(exponents, dtype="S8").view(np.uint64)
    return {"limbs": limbs, "shift": shift, "e10": e10, "pow5": pow5_test,
            "exact": exact, "low_bits": low_bits, "quads": quads, "heads": heads,
            "masks": masks, "exponents": exponents}


def float_cells(values) -> np.ndarray:
    """The repr() of each finite float64 value as ASCII cells, shape (n, WIDTH).

    Row i holds the characters of repr(values.flat[i]) in order, with 0 in
    the cells it leaves unused.  The values go through in one pass, so a
    caller bounds their number (CHUNK).
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(flat).all():
        raise ValueError("only finite values can be formatted")
    return _layout(*_shortest(flat))


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
    # that is, whether vr and vm drop only zeros below the kept digits; the
    # 5^q tests run only on the values whose exponent field has one
    pow5 = tables["pow5"][field]
    five = np.flatnonzero(pow5)
    pow5, mv5, mm5, accept5 = pow5[five], mv[five], mm[five], accept[five]
    mv_not5 = mv5 % _U64(5) != 0
    vr_zeros = np.zeros(x.size, dtype=bool)
    vm_zeros = np.zeros(x.size, dtype=bool)
    vr_zeros[five] = mv5 % pow5 == 0
    vm_zeros[five] = mv_not5 & accept5 & (mm5 % pow5 == 0)
    vp[five] -= (mv_not5 & ~accept5 & ((mv5 + _U64(2)) % pow5 == 0)).astype(np.uint64)
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
    # two divisions by per-value powers of ten: vm by 10^removed, vr by
    # 10^(removed - 1), which keeps its last removed digit
    scale = _POW10[removed]
    vm_kept = vm // scale
    vm_zeros &= vm_kept * scale == vm
    # a lower bound that is itself the shorter decimal goes on losing zeros
    extend = np.flatnonzero(vm_zeros)
    tail = vm_kept[extend]
    while tail.size:
        quot = tail // _TEN
        more = quot * _TEN == tail
        if not more.any():
            break
        removed[extend] += more
        tail = np.where(more, quot, tail)
    vm_kept[extend] = tail
    has_last = removed > 0
    last_scale = _POW10[removed - has_last]
    vr_kept = vr // last_scale
    vr_zeros &= vr_kept * last_scale == vr
    digits = np.where(has_last, vr_kept // _TEN, vr_kept)
    last = np.where(has_last, vr_kept - digits * _TEN, _U64(0))
    # an exact ...50..0 rounds to even
    tie = vr_zeros & (last == 5) & ((digits & _U64(1)) == 0)
    round_up = ((last >= 5) & ~tie) | ((digits == vm_kept) & ~(accept & vm_zeros))
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


def _layout(digits: np.ndarray, e10: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """CPython's 'r' layout of +-digits * 10^e10 as (n, WIDTH) character cells.

    Every row is first laid out in exponent form as four 8-byte words: the
    sign, d0 and "."; d1 to d8; d9 to d16; the exponent.  The digits come
    from the digit table four at a time and are cut after the last one.
    Only the rows of positional values are then laid out again.
    """
    tables = _tables()
    n = digits.size
    count = np.searchsorted(_POW10[1:18], digits, side="right") + 1
    decpt = e10 + count
    exponent = (decpt <= -4) | (decpt > 16)
    # the 17 digits of digits * 10^(17 - count), which runs on in zeros: the
    # leading one, then two halves of eight, each split into two groups of four
    scaled = digits * _POW10[17 - count]
    high = scaled // _U64(10**8)
    lead = high // _U64(10**8)
    halves = np.stack([high - lead * _U64(10**8), scaled - high * _U64(10**8)])
    upper = halves // _U64(10**4)
    groups = np.empty((n, 4), dtype=np.intp)
    groups[:, 0], groups[:, 2] = upper
    groups[:, 1], groups[:, 3] = halves - upper * _U64(10**4)
    digit_words = np.take(tables["quads"], groups).view(np.uint64)  # d1 to d8, d9 to d16
    cells = np.empty((n, WIDTH), dtype=np.uint8)
    words = cells.view(np.uint64)
    # the sign, d0, and "." unless d0 is the only digit
    head = (negative * _U64(10) + lead) * _U64(2) + (count > 1)
    words[:, 0] = np.take(tables["heads"], head)
    masks = np.take(tables["masks"], count, axis=0)
    np.bitwise_and(digit_words[:, 0], masks[:, 0], out=words[:, 1])
    np.bitwise_and(digit_words[:, 1], masks[:, 1], out=words[:, 2])
    words[:, 3] = np.take(tables["exponents"], decpt - 1 - _MIN_POWER)
    positional = np.flatnonzero(~exponent)
    cells[positional, 1:] = _positional(lead[positional], digit_words[positional],
                                        decpt[positional], count[positional])
    return cells


def _positional(lead: np.ndarray, digit_words: np.ndarray, decpt: np.ndarray,
                count: np.ndarray) -> np.ndarray:
    """Cells 1 to WIDTH - 1 of positional values, from their leading digits
    and the two words of their other 16 digits.

    The "." follows digit decpt, or a small value (decpt <= 0) starts with
    "0." and -decpt zeros; an integral value runs on in zeros up to decpt,
    then ".0", which takes digit decpt (a padding zero).
    """
    padded = np.zeros((len(lead), 19), dtype=np.uint8)  # 0, the 17 digits, a padding zero
    padded[:, 1] = lead + _U64(ord("0"))
    padded[:, 2:18] = digit_words.view(np.uint8)
    padded[:, 18] = ord("0")
    small = decpt <= 0
    dot = np.where(small, _NO_DOT, decpt)[:, None]
    end = np.where(decpt >= count, decpt + 1, count)[:, None]
    # body column p shows digit p before the "." and digit p - 1 after it,
    # and is kept while that digit's index is below ``end``
    after = _COLUMNS > dot
    at_dot = _COLUMNS == dot
    body = np.where(after, padded[:, :-1], padded[:, 1:])
    body[at_dot] = ord(".")
    keep = (_COLUMNS < end) | (after & (_COLUMNS == end)) | at_dot
    cells = np.zeros((len(lead), WIDTH - 1), dtype=np.uint8)
    cells[:, :5] = _SMALL_PREFIX * (_COLUMNS[:5] < np.where(small, 2 - decpt, 0)[:, None])
    cells[:, 5:23] = body * keep
    return cells
