"""Table cells as ASCII bytes, many at once: a vectorized `%.12g`.

The CLI writes every number with 12 significant digits, exactly as
Python's `format(x, ".12g")` does. :func:`float_cells` and
:func:`int_cells` make the cells of a whole column in a few numpy calls,
each cell a row of bytes padded with NUL, which the writer drops when it
joins a block of rows. :func:`num` formats one number, and the few float
cells the numpy path cannot prove exact. A float cell has at most 19 bytes
("-1.23456789012e-100").
"""

from __future__ import annotations

import numpy as np


def num(x: float) -> str:
    # 12 significant digits, trailing zeros trimmed, locale-independent
    return format(float(x), ".12g")


_GROUPS = np.arange(10_000, dtype=np.uint16)
# the four ASCII digits of 0..9999, the first digit in the lowest byte
_DIGITS4 = (
    np.stack([48 + _GROUPS // 10**k % 10 for k in (3, 2, 1, 0)], axis=1, dtype=np.uint8)
    .view("<u4").ravel().astype(np.uint64)
)
# digits of a 4-digit group up to its last nonzero one, and that plus 4, 8
# and 12 for the later groups of a 16-digit string; negative for 0000, so
# that the max over the groups skips it
_SIG4 = np.full(10_000, 4, np.int8)
for _zeros in (1, 2, 3):
    _SIG4[_GROUPS % 10**_zeros == 0] = 4 - _zeros
_SIG4[0] = -64
_SIG4_AT = [_SIG4 + np.int8(4 * g) for g in range(4)]

# A cell is 32 bytes, four little-endian words; these tables hold one
# 32-byte item per index so that a block gathers from them with 1-D takes.
_BYTE = np.arange(32)
_AT = np.arange(18)
# bytes [0, p): the digits before the point
_KEEP = np.where(_BYTE < _AT[:, None], 255, 0).astype(np.uint8).view("V32").ravel()
# at 18 * p + size: bytes (p, size), the digits after the point of a
# mantissa `size` bytes long, and "." at byte p if there are any
_FRACTION = np.where(
    (_BYTE > _AT[:, None, None]) & (_BYTE < _AT[:, None]), 255, 0
).astype(np.uint8).view("V32").ravel()
_POINT = np.where(
    (_BYTE == _AT[:, None, None]) & (_AT[:, None] > _AT[:, None, None]), 46, 0
).astype(np.uint8).view("V32").ravel()

# tables by decimal exponent e, at index e - _E_MIN; the fast path takes
# |x| in [1e-290, 1e290], so e stays in range and 10**(11 - e) finite
_TINY, _HUGE = 1e-290, 1e290
_E_MIN = -295
_E = np.arange(_E_MIN, 296)
_E_FORM = (_E < -4) | (_E >= 12)
# 10**(11 - e), correctly rounded: Python's int-to-float and int / int round once
_SCALE_TO_12 = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in (11 - _E).tolist()])
# the 16-digit string of a cell is its 12 digits times this: "0" * -e in
# front below 1 (so "0.000123..." is a mantissa with one digit before the
# point), zeros behind otherwise
_SCALE_TO_16 = 10 ** np.where((_E < 0) & ~_E_FORM, 4 + _E, 4)
_POINT_AT = np.where(_E_FORM | (_E < 0), 1, _E + 1).astype(np.int8)
# "e+05", "e-123": the exponent of the e form
_EXPONENT = np.array([b"e%+03d" % e for e in _E.tolist()], "S5").view(np.uint8).reshape(-1, 5)
_POW10_INT = 10 ** np.arange(1, 19, dtype=np.int64)
# at b + 16: the bytes from b on of a 4-byte group, the digits that follow
# the b zeros leading an int cell
_DIGITS_FROM = (
    np.where(np.arange(4) >= np.arange(-16, 20)[:, None], 255, 0)
    .astype(np.uint8).view("<u4").ravel().astype(np.uint64)
)


def float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float64 of `x` as the bytes of `format(x, ".12g")`.

    Returns an (n, 32) uint8 array, each row a cell followed by NULs, and
    the cell lengths. A finite |x| in [1e-290, 1e290] is scaled to m =
    |x| * 10**(11 - e) in [1e11, 1e12). The scale is rounded once and the
    product once, so m is off by at most ~3e-4, and `rint(m)` is the 12
    correctly rounded digits unless m is within 1e-3 of a rounding tie.
    Those cells, and nan, inf and values outside the range, are formatted
    by :func:`num`; 0 and -0 are exact.
    """
    n = len(x)
    a = np.abs(x)
    scaled = (a >= _TINY) & (a <= _HUGE)
    zero = a == 0
    a[~scaled] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    m = a * _SCALE_TO_12[e - _E_MIN]
    off = np.flatnonzero((m < 1e11) | (m >= 1e12))  # log10 rounded across a power of 10
    if len(off):
        e[off] += np.where(m[off] >= 1e12, 1, -1)
        m[off] = a[off] * _SCALE_TO_12[e[off] - _E_MIN]
    rounded = np.rint(m)
    exact = scaled & (np.abs(m - rounded) < 0.499) | zero
    digits = rounded.astype(np.int64)
    carry = np.flatnonzero(digits == 10**12)
    e[carry] += 1
    digits[carry] = 10**11
    digits[zero] = 0
    at = e - _E_MIN

    number = digits * _SCALE_TO_16[at]
    groups = []
    for scale in (10**12, 10**8, 10**4):
        high = number // scale
        groups.append(high)
        number -= high * scale
    groups.append(number)
    cells = np.zeros((n, 4), np.uint64)
    cells[:, 0] = _DIGITS4[groups[0]] | (_DIGITS4[groups[1]] << np.uint64(32))
    cells[:, 1] = _DIGITS4[groups[2]] | (_DIGITS4[groups[3]] << np.uint64(32))
    significant = _SIG4_AT[0][groups[0]]
    for g in (1, 2, 3):
        np.maximum(significant, _SIG4_AT[g][groups[g]], out=significant)

    # the digits before the point, then "." and the significant rest, if any
    point = _POINT_AT[at]
    lengths = np.where(significant > point, significant + 1, point)
    shifted = cells << np.uint64(8)
    shifted[:, 1] |= cells[:, 0] >> np.uint64(56)
    shifted[:, 2] = cells[:, 1] >> np.uint64(56)
    table = point * np.intp(18) + lengths
    cells = (
        (cells & _KEEP.take(point).view(np.uint64).reshape(n, 4))
        | (shifted & _FRACTION.take(table).view(np.uint64).reshape(n, 4))
        | _POINT.take(table).view(np.uint64).reshape(n, 4)
    ).view(np.uint8)

    negative = np.flatnonzero(np.signbit(x) & exact)
    if len(negative):
        cells[negative, 1:] = cells[negative, :-1]
        cells[negative, 0] = ord("-")
        lengths[negative] += 1
    e_form = np.flatnonzero(_E_FORM[at] & exact)
    if len(e_form):
        cells[e_form[:, None], lengths[e_form, None] + np.arange(5)] = _EXPONENT[at[e_form]]
        lengths[e_form] += 4 + (np.abs(e[e_form]) >= 100)
    slow = np.flatnonzero(~exact)
    if len(slow):
        text = [num(v) for v in x[slow].tolist()]
        cells[slow] = np.array(text, "S32").view(np.uint8).reshape(-1, 32)
        lengths[slow] = [len(t) for t in text]
    return cells, lengths


def int_cells(v: np.ndarray) -> np.ndarray:
    """Non-negative int64 cells, right-aligned in a field as wide as the
    widest, with NUL in place of leading zeros: an (n, width) uint8 array."""
    width = len(str(int(v.max())))
    groups = -(-width // 4)
    lead = 4 * groups - 1 - np.searchsorted(_POW10_INT, v, side="right")
    words = np.empty((len(v), groups), "<u4")
    rest = v
    for j in reversed(range(groups)):
        high = rest // 10_000
        words[:, j] = _DIGITS4[rest - high * 10_000] & _DIGITS_FROM[lead - 4 * j + 16]
        rest = high
    return words.view(np.uint8)[:, 4 * groups - width:]
