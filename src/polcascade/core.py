"""Domain types and single-filter physics for ideal linear polarizers.

Everything here is per-filter: the Malus cos^2 factor for classical beams,
polarization kets with the Born-rule pass probability, and projective
collapse. They are the reference the array folds in :mod:`polcascade.engines`
are tested against; :class:`FilterStack` holds one read-only array of radians.

All values are immutable after construction and every operation is a pure
function, so they are safe to share between concurrent workers.
"""

from __future__ import annotations

import math
import numbers
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

# Tolerance on the normalization of a ket.
NORM_TOL = 1e-12

# Below this pass probability a projection is treated as the physical
# zero-probability event (an orthogonal state hitting the filter).
ZERO_PROBABILITY_TOL = 1e-15


class ZeroProbabilityProjectionError(ValueError):
    """Raised when projecting a state orthogonal to the polarizer axis."""


def _is_number(kind: type, abc: type = numbers.Real) -> bool:
    # the one type test for a number: an `abc` (numbers.Real or Integral) type
    # but bool and numpy's times, which numpy registers as integers
    return issubclass(kind, abc) and not issubclass(kind, (bool, np.datetime64, np.timedelta64))


def _integer(value: object, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """`value` as a Python int in [lo, hi), or a ValueError naming `name`.

    Every integer type passes but bool and numpy's timedelta64; a float
    does not, even an integral one. A bound of None is no bound.
    """
    # an int, what the library passes itself, is let through first, as in _real
    if type(value) is int or _is_number(type(value), numbers.Integral):
        n = int(value)
        if (lo is None or lo <= n) and (hi is None or n < hi):
            return n
    top = f"2**{hi.bit_length() - 1}" if hi and hi > 2**32 and hi.bit_count() == 1 else hi
    span = "" if lo is None else f" n >= {lo}" if hi is None else f" n in [{lo}, {top})"
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def _real(value: object, name: str, lo: float | None = None) -> float:
    """`value` as a finite Python float >= lo, or a ValueError naming `name`.

    Every real type passes but bool and numpy's times; text, complex,
    Decimal and 0-d arrays do not. A bound of None is no bound.
    """
    # a float, what the library passes itself, is let through first: the
    # subclass test against the ABC costs ~20 times the type test
    if type(value) is float or _is_number(type(value)):
        try:
            x = float(value)
        except OverflowError:  # an int or a Fraction beyond float's range
            x = math.inf
        if math.isfinite(x) and (lo is None or lo <= x):
            return x
    span = "" if lo is None else f" >= {lo}"
    raise ValueError(f"{name} must be a finite real{span}, got {value!r}")


class _ByValue:
    """Equality and hash by value, of the tuple `_key()` each subclass gives.

    A value of any other type is unequal.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is type(self) and self._key() == other._key())

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, slots=True)
class Angle:
    """Orientation of a polarizer axis or polarization plane.

    A polarizer axis at theta is physically identical to theta + pi, so the
    stored value is canonicalized to [0, pi). Construction rejects
    anything but a finite real number.
    """

    radians: float

    def __post_init__(self) -> None:
        v = _real(self.radians, "radians") % math.pi
        # float mod can land exactly on the divisor for tiny negatives
        if v >= math.pi:
            v = 0.0
        object.__setattr__(self, "radians", v)

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


def angle_from_degrees(degrees: float) -> Angle:
    """Build a canonical :class:`Angle` from a value in degrees.

    Reduction modulo 180 degrees happens in the Angle constructor, e.g.
    225 degrees canonicalizes to pi/4 radians.
    """
    return Angle(math.radians(_real(degrees, "degrees")))


# the slot's own setter, which the frozen __setattr__ does not guard
_set_radians = Angle.__dict__["radians"].__set__


def _canonical_angle(radians: float) -> Angle:
    # an Angle of radians already in [0, pi), which Angle.__post_init__ would
    # return unchanged; skipping it halves the cost of FilterStack.axes
    angle = object.__new__(Angle)
    _set_radians(angle, radians)
    return angle


def _angle_array(values: object) -> np.ndarray:
    # the one rule for a list of angles, as a 1-D float64 array: each element,
    # at any depth, passes _is_number, checked once per type, and a numeric
    # array is checked by its dtype alone; an iterator is read once. A bare
    # number, or a 0-d array, is not a list.
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" and values.ndim:
        return values.astype(np.float64, copy=False).ravel()
    values = list(values) if isinstance(values, Iterator) else values
    if isinstance(values, (bytes, bytearray, memoryview)):
        kinds = {type(values)}  # rejected whole: numpy would read the byte codes
    elif isinstance(values, np.ndarray) and values.dtype.kind != "O":
        kinds = {values.dtype.type}  # text, bools, complex or times
    else:
        # a flat sequence's types are cheapest read from it; any other value's
        # (`object` until then) from an object array of its elements at any depth
        kinds = set(map(type, values)) if isinstance(values, (list, tuple, range)) else {object}
        if not all(map(_is_number, kinds)):
            kinds = set(map(type, np.asarray(values, dtype=object).flat))
    bad = sorted("None" if k is type(None) else k.__name__.rstrip("_")
                 for k in kinds if not _is_number(k))
    if bad:
        raise ValueError(f"filter angles must be numbers, not {bad[0]}")
    array = np.asarray(values)
    if array.ndim == 0:
        raise ValueError(f"filter angles must be a list, not {type(values).__name__}")
    try:
        return array.astype(np.float64, copy=False).ravel()
    except OverflowError:  # an int beyond float's range, which _real reads as inf
        raise ValueError("filter angle must be finite, got an int beyond float's range") from None


def _reduced(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    # r reduced to [0, pi) in `out`, which may be r, made read-only; each
    # value as Angle reduces it. min and max, from 0, find a nan, an
    # infinity or a negative value with no array as long as r; a value on
    # the divisor can only come from a negative one, and reducing again
    # takes pi, and only pi, to 0
    lo, hi = np.minimum.reduce(r, initial=0.0), np.maximum.reduce(r, initial=0.0)
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"filter angle must be finite, got {r[~np.isfinite(r)][0].item()!r}")
    np.mod(r, np.pi, out)
    if lo < 0.0:
        np.mod(out, np.pi, out)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class FilterStack:
    """Ordered polarizer axes; an empty stack transmits unchanged.

    `radians` is one read-only float64 array, each axis reduced to
    [0, pi) exactly as :class:`Angle` reduces a single value. Stacks
    compare and hash by value, reading the array in place.
    """

    radians: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        r = _angle_array(self.radians)
        object.__setattr__(self, "radians", _reduced(r, np.empty(len(r))))  # never the caller's

    @classmethod
    def from_degrees(cls, degrees: Iterable[float]) -> FilterStack:
        """Stack from axis angles in degrees, read by the same rule as radians."""
        stack = object.__new__(cls)
        # the radians are made here, so they are reduced where they are
        r = np.radians(_angle_array(degrees))
        object.__setattr__(stack, "radians", _reduced(r, r))
        return stack

    def __reduce__(self) -> tuple:
        # a copy, a deep copy or an unpickled stack is built from the radians
        # again, so its array is read-only too
        return type(self), (self.radians,)

    @property
    def axes(self) -> tuple[Angle, ...]:
        return tuple(map(_canonical_angle, self.radians.tolist()))

    def __len__(self) -> int:
        return len(self.radians)

    def __eq__(self, other: object) -> bool:
        # reduced to [0, pi), the angles hold no -0.0 and no nan, so equal
        # elements are equal bytes, and equal stacks hash alike
        return self is other or (
            type(other) is type(self) and np.array_equal(self.radians, other.radians)
        )

    def __hash__(self) -> int:
        return zlib.crc32(self.radians)


@dataclass(frozen=True, slots=True)
class ClassicalBeam:
    """Classical light state: unpolarized, or linearly polarized in `plane`.

    Intensity is in arbitrary units and must be finite and nonnegative.
    An unpolarized beam carries no plane angle.
    """

    intensity: float
    plane: Angle | None = None

    def __post_init__(self) -> None:
        i = _real(self.intensity, "intensity", 0)
        if self.plane is not None and not isinstance(self.plane, Angle):
            raise ValueError(f"plane must be an Angle or None, got {self.plane!r}")
        object.__setattr__(self, "intensity", i)

    @classmethod
    def unpolarized(cls, intensity: float) -> ClassicalBeam:
        return cls(intensity=intensity, plane=None)

    @classmethod
    def linear(cls, plane: Angle, intensity: float) -> ClassicalBeam:
        return cls(intensity=intensity, plane=plane)


def malus_factor(plane: Angle, axis: Angle) -> float:
    """Transmitted intensity fraction cos^2(axis - plane), in [0, 1].

    This is Malus's law for an ideal linear polarizer: a beam polarized in
    `plane` keeps the squared cosine of the relative angle when passing a
    polarizer with transmission `axis`.
    """
    c = math.cos(axis.radians - plane.radians)
    # multiply rather than ** 2: float pow is not correctly rounded, and the
    # whole-stack folds must reproduce these squares bit for bit
    return c * c


def classical_transmit(beam: ClassicalBeam, axis: Angle) -> ClassicalBeam:
    """Send a classical beam through an ideal polarizer at `axis`.

    Unpolarized light is halved and leaves polarized along the axis;
    polarized light is attenuated by the Malus factor. Output intensity
    never exceeds the input intensity.
    """
    if beam.plane is None:
        out = beam.intensity / 2.0
    else:
        out = beam.intensity * malus_factor(beam.plane, axis)
    return ClassicalBeam.linear(axis, out)


@dataclass(frozen=True, slots=True)
class PolarizationKet:
    """Pure photon polarization state: real amplitudes over {H, V}.

    |H> = (1, 0) and |V> = (0, 1). The amplitudes must be normalized
    (amp_h^2 + amp_v^2 = 1 within 1e-12). A global sign flip represents
    the same physical state; all probability-valued operations are
    invariant under it.
    """

    amp_h: float
    amp_v: float

    def __post_init__(self) -> None:
        h, v = _real(self.amp_h, "amp_h"), _real(self.amp_v, "amp_v")
        norm_sq = h * h + v * v
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"ket must be normalized: amp_h^2 + amp_v^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amp_h", h)
        object.__setattr__(self, "amp_v", v)


def ket(axis: Angle) -> PolarizationKet:
    """Polarization ket along `axis`: (cos axis, sin axis).

    0 degrees gives |H>, 90 degrees gives |V>, 45 degrees gives the
    diagonal superposition (|H> + |V>)/sqrt(2).
    """
    return PolarizationKet(math.cos(axis.radians), math.sin(axis.radians))


def pass_probability(state: PolarizationKet, axis: Angle) -> float:
    """Born-rule probability |<axis|state>|^2 of passing a polarizer at `axis`.

    The overlap is clamped to [-1, 1], which absorbs the 1-ulp overshoot
    the normalization tolerance allows.
    """
    k = ket(axis)
    dot = k.amp_h * state.amp_h + k.amp_v * state.amp_v
    c = min(1.0, max(-1.0, dot))
    return c * c


def project(state: PolarizationKet, axis: Angle) -> PolarizationKet:
    """Collapse `state` onto the polarizer axis after a successful pass.

    Returns ket(axis) verbatim; the overall sign is a convention since
    both signs describe the same physical state.

    Raises
    ------
    ZeroProbabilityProjectionError
        If the pass probability is below 1e-15: projecting a state
        orthogonal to the axis is undefined.
    """
    if pass_probability(state, axis) < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityProjectionError(
            f"cannot project: state is orthogonal to axis at "
            f"{axis.degrees!r} degrees"
        )
    return ket(axis)
