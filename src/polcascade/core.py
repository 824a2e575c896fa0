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
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

# Tolerance on the normalization of a ket.
NORM_TOL = 1e-12

# Below this pass probability a projection is treated as the physical
# zero-probability event (an orthogonal state hitting the filter).
ZERO_PROBABILITY_TOL = 1e-15


class ZeroProbabilityProjectionError(ValueError):
    """Raised when projecting a state orthogonal to the polarizer axis."""


@dataclass(frozen=True)
class Angle:
    """Orientation of a polarizer axis or polarization plane.

    A polarizer axis at theta is physically identical to theta + pi, so the
    stored value is canonicalized to [0, pi). Construction rejects
    non-finite input.
    """

    radians: float

    def __post_init__(self) -> None:
        r = float(self.radians)
        if not math.isfinite(r):
            raise ValueError(f"angle must be finite, got {r!r}")
        v = r % math.pi
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
    return Angle(math.radians(degrees))


def _canonical_angle(radians: float) -> Angle:
    # an Angle of radians already in [0, pi), which Angle.__post_init__ would
    # return unchanged; skipping it halves the cost of FilterStack.axes
    angle = object.__new__(Angle)
    object.__setattr__(angle, "radians", radians)
    return angle


def _reject_text(angles: object) -> None:
    # numpy would read a string as one number and iteration would yield its
    # characters (or a bytes object's codes), so text is never a list of angles
    if isinstance(angles, (str, bytes, bytearray)):
        raise ValueError(f"filter angles must be numbers, not {type(angles).__name__}")


@dataclass(frozen=True, eq=False)
class FilterStack:
    """Ordered polarizer axes; an empty stack transmits unchanged.

    `radians` is one read-only float64 array, each axis reduced to
    [0, pi) exactly as :class:`Angle` reduces a single value.
    """

    radians: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        _reject_text(self.radians)
        r = np.asarray(self.radians, dtype=np.float64).ravel()
        finite = np.isfinite(r)
        if np.count_nonzero(finite) < len(r):
            raise ValueError(f"filter angle must be finite, got {r[~finite][0].item()!r}")
        r = np.mod(r, np.pi)  # a new array, never the caller's
        r[r >= np.pi] = 0.0  # same landing-on-the-divisor case as Angle
        r.setflags(write=False)
        object.__setattr__(self, "radians", r)

    @classmethod
    def from_degrees(cls, degrees: Iterable[float]) -> FilterStack:
        """Stack from axis angles in degrees; an array is converted whole,
        any other iterable is read element by element."""
        if not isinstance(degrees, np.ndarray):
            _reject_text(degrees)
            degrees = np.fromiter(degrees, dtype=np.float64)
        return cls(np.radians(np.asarray(degrees, dtype=np.float64)))

    @property
    def axes(self) -> tuple[Angle, ...]:
        return tuple(map(_canonical_angle, self.radians.tolist()))

    def __len__(self) -> int:
        return len(self.radians)

    def __eq__(self, other: object) -> bool:
        if self is other:  # the angles are finite, so a stack equals itself
            return True
        if not isinstance(other, FilterStack):
            return NotImplemented
        return np.array_equal(self.radians, other.radians)

    def __hash__(self) -> int:
        return hash(self.radians.tobytes())


@dataclass(frozen=True)
class ClassicalBeam:
    """Classical light state: unpolarized, or linearly polarized in `plane`.

    Intensity is in arbitrary units and must be finite and nonnegative.
    An unpolarized beam carries no plane angle.
    """

    intensity: float
    plane: Angle | None = None

    def __post_init__(self) -> None:
        i = float(self.intensity)
        if not math.isfinite(i) or i < 0.0:
            raise ValueError(f"intensity must be finite and >= 0, got {i!r}")
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


@dataclass(frozen=True)
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
        h, v = float(self.amp_h), float(self.amp_v)
        if not (math.isfinite(h) and math.isfinite(v)):
            raise ValueError("amplitudes must be finite")
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
