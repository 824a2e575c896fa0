"""Table rows as ASCII text, a block of rows at a time: a vectorized `%.12g`.

The CLI writes every number with 12 significant digits, exactly as
Python's `format(x, ".12g")` does. :func:`text_rows` lays out a block of
rows, each row a list of literal text and arrays, in one byte buffer:
the literal text and a fixed-width slot per cell, filled one column at a
time, with NUL bytes where a cell is shorter than its slot; the NULs are
dropped and the bytes decoded once. :func:`float_cells` and
:func:`int_cells` make the cells of a whole column in a fixed number of
numpy calls. A float cell takes its decimal exponent from `frexp` and a
table by binary exponent, so subnormals need no other path, and its
16-digit string from int64 arithmetic and tables of 4-digit groups.
:func:`num` formats one number, and the few float cells the numpy path
cannot prove exact. A float cell has at most 19 bytes
("-1.23456789012e-100").
"""

from __future__ import annotations

import math

import numpy as np


def num(x: float) -> str:
    # 12 significant digits, trailing zeros trimmed, locale-independent
    return format(float(x), ".12g")


# bytes of a float cell's slot
FLOAT_WIDTH = 19

_GROUPS = np.arange(10_000, dtype=np.uint16)
# the four ASCII digits of 0..9999, the first digit in the lowest byte
_DIGITS4 = (
    np.stack([48 + _GROUPS // 10**k % 10 for k in (3, 2, 1, 0)], axis=1, dtype=np.uint8)
    .view("<u4").ravel().astype(np.uint64)
)
# digits of a 4-digit group up to its last nonzero one, plus 4 for each
# earlier group of a 16-digit string; 0 for 0000, so that the max over the
# groups is the 16-digit string's digits up to its last nonzero one
_SIG = np.full((4, 10_000), 4, np.int8)
for _zeros in (1, 2, 3):
    _SIG[:, _GROUPS % 10**_zeros == 0] = 4 - _zeros
_SIG += np.arange(0, 16, 4, dtype=np.int8)[:, None]
_SIG[:, 0] = 0

# Tables by the frexp exponent k of x, x in [2**(k-1), 2**k): k runs from
# -1073 (the smallest subnormal) to 1024. The binade's lowest decimal
# exponent is floor((k - 1) log10 2), never within 1e-4 of an integer here
# but for k = 1, where it is 0 exactly.
_K = np.arange(-1073, 1025)
_E_LO = np.array([math.floor((k - 1) * math.log10(2.0)) for k in _K.tolist()])
# 5**j, rounded once: Python's int-to-float and int / int round once
_FIVE_MIN = -325
_FIVE = np.array([float(5**j) if j >= 0 else 1 / 5**-j for j in range(_FIVE_MIN, 337)])


def _pow10_pow2(j: np.ndarray, k: np.ndarray) -> np.ndarray:
    # 10**j * 2**k, rounded once (5**j) and scaled exactly (ldexp), if normal
    return np.ldexp(_FIVE[j - _FIVE_MIN], j + k)


def _wrapped(values: np.ndarray, first: int) -> np.ndarray:
    # the values at consecutive indexes from `first`, as a table read with
    # take(mode="wrap"), so that a negative index needs no offset
    return np.roll(values, first % len(values))


# at k: x >= 10**(e_lo + 1) exactly when its frexp fraction is >= this; the
# fraction has 53 bits, so comparing with the rounded threshold decides
# wrongly only for x within 2**-53 of a power of 10, which then rounds to
# 1e11 under either exponent
_PHI = _wrapped(_pow10_pow2(_E_LO + 1, -_K), _K[0])
# at 2 * k + (fraction >= _PHI[k]): the decimal exponent e of x (as its
# index in the tables by e below), and 2**k * 10**(11 - e), so that m =
# fraction * scale, in [1e11, 1e12), is rounded twice in all, subnormal x too
_E_MIN = -324
_E_AT = np.empty(2 * len(_K), np.int16)
_SCALE_TO_12 = np.empty(2 * len(_K))
for _up in (0, 1):
    _E_AT[_up::2] = _E_LO + _up - _E_MIN
    _SCALE_TO_12[_up::2] = _pow10_pow2(11 - _E_LO - _up, _K)
_E_AT, _SCALE_TO_12 = (_wrapped(t, 2 * _K[0]) for t in (_E_AT, _SCALE_TO_12))

# tables by decimal exponent e, at index e - _E_MIN
_E = np.arange(_E_MIN, 310)
_E_FORM = (_E < -4) | (_E >= 12)
# the 16-digit string of a cell is its 12 digits times this: "0" * -e in
# front below 1 (so "0.000123..." is a mantissa with one digit before the
# point), zeros behind otherwise; exact, as 12 digits times 5**4 fit in 53 bits
_SCALE_TO_16 = 10.0 ** np.where((_E < 0) & ~_E_FORM, 4 + np.minimum(_E, 0), 4)
# digits before the point, times 17, plus the significant digits: the layout
_LAYOUT_AT = (np.where(_E_FORM | (_E < 0), 1, _E + 1) * 17).astype(np.int16)


def _words(cells: np.ndarray, words: slice) -> np.ndarray:
    # (rows, 24) bytes -> (words, rows): the given little-endian words of each row
    return np.ascontiguousarray(cells.astype(np.uint8)).view("<u8")[:, words].T.copy()


# Masks by layout p * 17 + s, for p digits before the point and s
# significant ones, one row per word: the digits before the point (words 0
# and 1); the digits after it, shifted one byte right to make room for it
# (words 0, 1 and 2); and the point, if any (words 0 and 1).
_BYTE = np.arange(24)
_P = np.arange(13)[:, None, None]
_S = np.arange(17)[:, None]
_SIZE = np.where(_S > _P, _S + 1, _P)  # bytes of the mantissa
_KEEP = _words(np.repeat(np.where(_BYTE < _P[:, 0], 255, 0), 17, axis=0), slice(2))
_FRACTION = _words(np.where((_BYTE > _P) & (_BYTE < _SIZE), 255, 0).reshape(-1, 24), slice(3))
_POINT = _words(np.where((_BYTE == _P) & (_S > _P), 46, 0).reshape(-1, 24), slice(2))
# "e+05", "e-123" at bytes 14 on, past the longest e-form mantissa
# ("1.23456789012") and the NUL after it; nothing in fixed form (words 1 and 2)
_EXPONENT = np.zeros((len(_E), 24), np.uint8)
_EXPONENT[_E_FORM, 14:19] = (
    np.array([b"e%+03d" % e for e in _E[_E_FORM].tolist()], "S5").view(np.uint8).reshape(-1, 5)
)
_EXPONENT = _words(_EXPONENT, slice(1, 3))

_8, _32, _56 = np.uint64(8), np.uint64(32), np.uint64(56)
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# the larger arrays that only built the tables
del _GROUPS, _K, _E_LO


def float_cells(x: np.ndarray) -> np.ndarray:
    """Each float64 of `x` as the bytes of `format(x, ".12g")`.

    Returns an (n, FLOAT_WIDTH) uint8 array: each row is the cell's bytes
    in order, with NULs between and after them (an e-form exponent sits at
    a fixed byte). A finite x >= 0, subnormal or not, is scaled to m =
    fraction * 2**k * 10**(11 - e) in [1e11, 1e12), from its frexp
    fraction and exponent k, with e from a table by k. The scale is rounded
    once and the product once, so m is off by at most 1e12 * 2**-52 < 2.3e-4,
    and `rint(m)` is the 12 correctly rounded digits unless m is within 3e-4
    of a rounding tie. Those cells, and negative, nan and inf x (no column
    the CLI writes has them), are formatted by :func:`num`.
    """
    n = len(x)
    given = x
    # finite with the sign bit clear is below the bits of inf
    mixed = n and x.view(np.uint64).max() >= 0x7FF0000000000000
    if mixed:
        plain = x.view(np.uint64) < 0x7FF0000000000000
        x = np.where(plain, x, 0.0)
    m, k = np.frexp(x)
    k = k.astype(np.intp)
    up = m >= _PHI.take(k, mode="wrap")
    k += k
    k += up
    m *= _SCALE_TO_12.take(k, mode="wrap")
    digits = np.rint(m)
    m -= digits
    exact = np.abs(m, out=m) < 0.4997
    if mixed:
        exact &= plain
    at = _E_AT.take(k, mode="wrap")
    del m, k, up
    if n and digits.max() == 1e12:  # rounded up to 13 digits
        carry = np.flatnonzero(digits == 1e12)
        at[carry] += 1
        digits[carry] = 1e11

    # the 16-digit string as two halves of eight digits, and each half as
    # two groups of four, in int64
    number = np.empty(n, np.int64)
    np.multiply(digits, _SCALE_TO_16.take(at), out=number, casting="unsafe")
    del digits
    halves = np.empty((2, n), np.int64)
    np.floor_divide(number, 10**8, out=halves[0])
    np.multiply(halves[0], 10**8, out=halves[1])
    np.subtract(number, halves[1], out=halves[1])
    del number
    groups = np.empty((4, n), np.intp)
    np.floor_divide(halves, 10**4, out=groups[0::2])
    np.multiply(groups[0::2], 10**4, out=groups[1::2])
    np.subtract(halves, groups[1::2], out=groups[1::2])
    del halves
    low = _DIGITS4.take(groups[1]) << _32  # digits 0-7
    low |= _DIGITS4.take(groups[0])
    high = _DIGITS4.take(groups[3]) << _32  # digits 8-15
    high |= _DIGITS4.take(groups[2])
    significant = _SIG[0].take(groups[0])
    for g in (1, 2, 3):
        np.maximum(significant, _SIG[g].take(groups[g]), out=significant)
    del groups

    # the digits before the point, then "." and the significant rest, if
    # any, then the exponent, one word of the cells at a time
    layout = _LAYOUT_AT.take(at)
    layout += significant
    cells = np.empty((n, 3), np.uint64)
    word = cells.T
    np.right_shift(high, _56, out=word[2])
    word[2] &= _FRACTION[2].take(layout)
    word[2] |= _EXPONENT[1].take(at)
    np.bitwise_and(high, _KEEP[1].take(layout), out=word[1])
    word[1] |= _EXPONENT[0].take(at)
    del at
    shifted = high << _8
    shifted |= low >> _56
    shifted &= _FRACTION[1].take(layout)
    word[1] |= shifted
    word[1] |= _POINT[1].take(layout)
    np.bitwise_and(low, _KEEP[0].take(layout), out=word[0])
    np.left_shift(low, _8, out=shifted)
    shifted &= _FRACTION[0].take(layout)
    word[0] |= shifted
    word[0] |= _POINT[0].take(layout)
    cells = cells.view(np.uint8)[:, :FLOAT_WIDTH]

    if not exact.all():
        slow = np.flatnonzero(~exact)
        text = [num(v) for v in given[slow].tolist()]
        cells[slow] = np.array(text, f"S{FLOAT_WIDTH}").view(np.uint8).reshape(-1, FLOAT_WIDTH)
    return cells


def int_cells(v: np.ndarray) -> np.ndarray:
    """Non-negative int64 cells, right-aligned in a field as wide as the
    widest, with NUL in place of leading zeros: an (n, width) uint8 array."""
    width, least = (len(str(int(f(v)))) for f in (np.max, np.min))
    groups = -(-width // 4)
    words = np.empty((len(v), groups), "<u4")
    rest = v
    for j in reversed(range(groups)):
        high = rest // 10_000
        words[:, j] = _DIGITS4.take(rest - high * 10_000)
        rest = high
    cells = words.view(np.uint8)[:, 4 * groups - width:]
    if least < width:
        # a number of d digits leads with width - d zeros; row l of `keep`
        # masks the first l bytes
        lead = width - 1 - np.searchsorted(_POW10, v, side="right")
        keep = np.where(np.arange(width) >= np.arange(width)[:, None], 255, 0).astype(np.uint8)
        cells &= keep.take(lead, axis=0)
    return cells


def text_rows(row: list, rows: int) -> str:
    """`rows` rows of a table as text, each row the items of `row` in order.

    An item is literal text (a str), a block of float64 or non-negative
    int64 values, one a row, or a (block, missing) pair that reads "-"
    where the bool array `missing` is set. Each item is popped from `row`
    as it is laid out, so that its arrays are let go once its cells are.
    """
    widths = []
    for item in row:
        if isinstance(item, str):
            widths.append(len(item))
            continue
        block = item[0] if isinstance(item, tuple) else item
        widths.append(FLOAT_WIDTH if block.dtype.kind == "f" else len(str(int(block.max()))))
    buffer = bytearray(rows * sum(widths))
    cells = np.frombuffer(buffer, np.uint8).reshape(rows, -1)
    at = 0
    for width in widths:
        item = row.pop(0)
        if isinstance(item, str):
            cells[:, at:at + width] = np.frombuffer(item.encode("ascii"), np.uint8)
        else:
            block, missing = item if isinstance(item, tuple) else (item, None)
            cells[:, at:at + width] = (float_cells if block.dtype.kind == "f" else int_cells)(block)
            if missing is not None:
                cells[missing, at:at + width] = 0
                cells[missing, at] = ord("-")
        at += width
    text = buffer.translate(None, b"\0")
    del cells, buffer
    return text.decode("ascii")
