"""Block folds over a stack's radians: the exact engines' arithmetic.

:func:`_stage_factors` hands each stage of a block the plane it sees (the
input's at stage 1, the axis before it at later stages) and a kernel turns
the two into the stage's factor: :func:`_malus` the Malus cos^2 factor,
:func:`_born` the Born-rule pass probability, each bit for bit the
per-filter function in :mod:`polcascade.core`. :func:`_fold` makes one
block of a trace's column with its running product, carried across each
block edge by :func:`_running_product` with the roundings of one product
over the whole column, and with the quantum extinction cut; :func:`_walk`
yields the blocks in order. The engines, every read of a trace's column,
`compare` and the CLI's render take their blocks from them, so each holds
working arrays of `_BLOCK` stages beside the stack.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .core import Angle, ClassicalBeam, ZERO_PROBABILITY_TOL

# Stages the folds, the Monte Carlo chain, `compare` and the render work on
# at a time: it bounds each working array that is not a whole column.
_BLOCK = 2048


def _stage_factors(plane: Angle | None, axes: np.ndarray, factor, lo: int, hi: int
                   ) -> np.ndarray:
    """The factors of stages lo..hi-1 (0-based), from each stage's axis and
    the plane of polarization it sees, in one new array.

    Stage 1 sees `plane`, and every later stage the axis before it; for
    unpolarized input (`plane` None) stage 1's factor is exactly 1/2, in
    Malus's law and the Born rule alike. `factor(planes, out)` writes the
    factors to `out`, where `planes` is the plane the first stage sees,
    then the axes.
    """
    hi = min(hi, len(axes))
    factors = np.empty(hi - lo)
    if lo:  # a block also reads the last axis of the block before
        factor(axes[lo - 1:hi], factors)
    elif plane is None:
        factors[0] = 0.5
        factor(axes[:hi], factors[1:])
    else:  # or the input plane: filling an array costs ~1 us less than np.concatenate
        planes = np.empty(hi + 1)
        planes[0], planes[1:] = plane.radians, axes[:hi]
        factor(planes, factors)
    return factors


def _malus(planes: np.ndarray, out: np.ndarray) -> None:
    """Malus factors cos^2(axis - plane), as :func:`polcascade.core.malus_factor`."""
    np.subtract(planes[1:], planes[:-1], out=out)
    np.cos(out, out=out)
    np.multiply(out, out, out=out)


def _born(planes: np.ndarray, out: np.ndarray) -> None:
    """Born-rule pass probabilities, as :func:`polcascade.core.pass_probability`.

    Each is the squared dot product of the (cos, sin) kets, clamped to [-1, 1].
    """
    v = np.sin(planes)
    h = np.cos(planes)
    # the dot products; the spent h holds the v products
    np.multiply(h[1:], h[:-1], out=out)
    out += np.multiply(v[1:], v[:-1], out=h[1:])
    # squared, then capped at 1: the bits of clamping to [-1, 1] first, since
    # rounding is monotonic. If |dot| > 1, dot * dot >= 1 and the cap gives
    # exactly 1.0, the square of the clamped +-1; if |dot| <= 1, dot * dot
    # <= 1 and the cap leaves it as it is
    np.multiply(out, out, out=out)
    np.minimum(out, 1.0, out=out)


def _running_product(factors: np.ndarray, carry: float, out: np.ndarray) -> np.ndarray:
    """Write carry * f0, then that times f1, and so on, to `out` and return it.

    These are the roundings of one sequential product over the whole
    column, so a column made a block at a time, each block's carry being
    the last product of the block before, has its bits: the first block's
    carry, 1.0, is exact, as is 1.0 * f0. `out` may be `factors`.
    """
    if carry != 1.0:  # a carry of 1.0 changes no bit, so it needs no step
        if out is not factors:
            out[1:] = factors[1:]
        out[:1] = factors[:1] * carry
        factors = out
    return np.multiply.accumulate(factors, out=out)


def _walk(input, radians: np.ndarray, head: np.ndarray | None = None) -> Iterator[tuple]:
    """Yield (lo, column, product) for each block of stages from lo on, in order.

    `input` is a classical beam or a photon input. A classical column is
    the intensities, the input intensity times the stages' Malus factors,
    so it is its own running product. A quantum column is the Born-rule
    stage probabilities, cut to 0 from the first below the zero tolerance
    on, and its product the cumulative probability. Each block carries its
    last product, and the cut, to the next. `head`, a trace's first block
    of column, stands for that block; every other is folded from `radians`.
    """
    # the last product and the last stage's factor before the next block: a
    # quantum factor is 0 only past the cut
    state = [input.intensity if isinstance(input, ClassicalBeam) else 1.0, 1.0]
    for lo in range(0, len(radians), _BLOCK):
        # made by a call, so that this frame holds no block while the caller does
        yield _fold(input, radians, lo, head, state)


def _fold(input, radians: np.ndarray, lo: int, head: np.ndarray | None, state: list) -> tuple:
    """The block of :func:`_walk` from stage lo, after the `state` of the
    block before, which it moves past the block."""
    classical = isinstance(input, ClassicalBeam)
    column = head
    if lo or head is None:
        plane, factor = (input.plane, _malus) if classical else (input.angle, _born)
        column = _stage_factors(plane, radians, factor, lo, lo + _BLOCK)
        if classical:
            _running_product(column, state[0], column)
        else:
            low = (column < ZERO_PROBABILITY_TOL).nonzero()[0]
            if len(low) or not state[1]:
                column[low[0] if state[1] else 0:] = 0.0
    if classical:  # the intensities are their own running product
        state[0] = column[-1]
        return lo, column, column
    product = _running_product(column, state[0], np.empty(len(column)))
    state[:] = product[-1], column[-1]
    return lo, column, product


def _gather(blocks: Iterator[tuple], n: int) -> np.ndarray:
    """The second item of each (lo, array, ...) block, laid end to end in one new array."""
    out = np.empty(n)
    for lo, block, *_ in blocks:
        out[lo:lo + len(block)] = block
    return out
