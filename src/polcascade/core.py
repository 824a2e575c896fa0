"""Domain types and single-filter physics for ideal linear polarizers.

Everything here is per-filter: the Malus cos^2 factor for classical beams,
polarization kets with the Born-rule pass probability, projective collapse,
and the 2x2 density-matrix treatment needed to describe unpolarized light
exactly. They are the reference the array folds in :mod:`polcascade.engines`
are tested against; :class:`FilterStack` holds one read-only array of radians.

All values are immutable after construction and every operation is a pure
function, so they are safe to share between concurrent workers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

# Tolerance for exact-math invariants (normalization, trace, symmetry).
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

    @classmethod
    def from_degrees(cls, degrees: float) -> Angle:
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


def angle_from_degrees(degrees: float) -> Angle:
    """Build a canonical :class:`Angle` from a value in degrees.

    Reduction modulo 180 degrees happens in the Angle constructor, e.g.
    225 degrees canonicalizes to pi/4 radians.
    """
    if not math.isfinite(degrees):
        raise ValueError(f"angle must be finite, got {degrees!r}")
    return Angle(math.radians(degrees))


@dataclass(frozen=True)
class Polarizer:
    """Ideal linear polarizer: no absorption along the axis, total
    extinction perpendicular to it."""

    axis: Angle

    @classmethod
    def from_degrees(cls, degrees: float) -> Polarizer:
        return cls(angle_from_degrees(degrees))


@dataclass(frozen=True, eq=False)
class FilterStack:
    """Ordered polarizer axes; an empty stack transmits unchanged.

    `radians` is one read-only float64 array, each axis reduced to
    [0, pi) exactly as :class:`Angle` reduces a single value.
    """

    radians: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        r = np.array(self.radians, dtype=np.float64).reshape(-1)
        if not np.isfinite(r).all():
            raise ValueError("angle must be finite")
        r = np.mod(r, np.pi)
        r[r >= np.pi] = 0.0  # same landing-on-the-divisor case as Angle
        r.flags.writeable = False
        object.__setattr__(self, "radians", r)

    @classmethod
    def from_degrees(cls, degrees: Iterable[float]) -> FilterStack:
        return cls(np.radians(np.fromiter(degrees, dtype=np.float64)))

    @property
    def axes(self) -> tuple[Angle, ...]:
        return tuple(Angle(r) for r in self.radians.tolist())

    def __len__(self) -> int:
        return len(self.radians)

    def __eq__(self, other: object) -> bool:
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
        object.__setattr__(self, "intensity", i)

    @classmethod
    def unpolarized(cls, intensity: float) -> ClassicalBeam:
        return cls(intensity=intensity, plane=None)

    @classmethod
    def linear(cls, plane: Angle, intensity: float) -> ClassicalBeam:
        return cls(intensity=intensity, plane=plane)

    @property
    def is_polarized(self) -> bool:
        return self.plane is not None


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


def classical_transmit(beam: ClassicalBeam, p: Polarizer) -> ClassicalBeam:
    """Send a classical beam through one polarizer.

    Unpolarized light is halved and leaves polarized along the axis;
    polarized light is attenuated by the Malus factor. Output intensity
    never exceeds the input intensity.
    """
    if beam.plane is None:
        out = beam.intensity / 2.0
    else:
        out = beam.intensity * malus_factor(beam.plane, p.axis)
    return ClassicalBeam.linear(p.axis, out)


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

    def __neg__(self) -> PolarizationKet:
        return PolarizationKet(-self.amp_h, -self.amp_v)


def ket(axis: Angle) -> PolarizationKet:
    """Polarization ket along `axis`: (cos axis, sin axis).

    0 degrees gives |H>, 90 degrees gives |V>, 45 degrees gives the
    diagonal superposition (|H> + |V>)/sqrt(2).
    """
    return PolarizationKet(math.cos(axis.radians), math.sin(axis.radians))


def inner_product(a: PolarizationKet, b: PolarizationKet) -> float:
    """Real inner product <a|b>, clamped to [-1, 1].

    The clamp absorbs the 1-ulp overshoot allowed by the normalization
    tolerance.
    """
    dot = a.amp_h * b.amp_h + a.amp_v * b.amp_v
    return min(1.0, max(-1.0, dot))


def pass_probability(state: PolarizationKet, p: Polarizer) -> float:
    """Born-rule probability |<axis|state>|^2 of passing the polarizer."""
    c = inner_product(ket(p.axis), state)
    return c * c


def project(state: PolarizationKet, p: Polarizer) -> PolarizationKet:
    """Collapse `state` onto the polarizer axis after a successful pass.

    Returns ket(p.axis) verbatim; the overall sign is a convention since
    both signs describe the same physical state.

    Raises
    ------
    ZeroProbabilityProjectionError
        If the pass probability is below 1e-15: projecting a state
        orthogonal to the axis is undefined.
    """
    if pass_probability(state, p) < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityProjectionError(
            f"cannot project: state is orthogonal to axis at "
            f"{p.axis.degrees!r} degrees"
        )
    return ket(p.axis)


@dataclass(frozen=True, eq=False)
class DensityMatrix2:
    """2x2 real symmetric unit-trace PSD matrix (possibly mixed state).

    The identity over two describes fully unpolarized light; pure states
    embed as outer products. Validation enforces symmetry and unit trace
    within 1e-12 and eigenvalues >= -1e-12.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=np.float64)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        if abs(m[0, 1] - m[1, 0]) > NORM_TOL:
            raise ValueError("density matrix must be symmetric")
        if abs(m[0, 0] + m[1, 1] - 1.0) > NORM_TOL:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(m).min() < -NORM_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @classmethod
    def unpolarized(cls) -> DensityMatrix2:
        """Fully unpolarized state I/2."""
        return cls(np.eye(2) / 2.0)

    @classmethod
    def from_pure(cls, state: PolarizationKet) -> DensityMatrix2:
        """Embed a pure state as the outer product |s><s|."""
        v = np.array([state.amp_h, state.amp_v])
        return cls(np.outer(v, v))


def density_pass_probability(rho: DensityMatrix2, p: Polarizer) -> float:
    """Probability <axis|rho|axis> of passing the polarizer, in [0, 1].

    For rho = I/2 this is 1/2 for every axis, which is exactly the
    classical halving of unpolarized light by the first filter.
    """
    k = ket(p.axis)
    v = np.array([k.amp_h, k.amp_v])
    prob = float(v @ rho.m @ v)
    return min(1.0, max(0.0, prob))


def density_project(rho: DensityMatrix2, p: Polarizer) -> DensityMatrix2:
    """Post-measurement state given passage: the pure projector onto the axis.

    Raises
    ------
    ZeroProbabilityProjectionError
        If the pass probability is below 1e-15.
    """
    if density_pass_probability(rho, p) < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityProjectionError(
            f"cannot project: state has no component along axis at "
            f"{p.axis.degrees!r} degrees"
        )
    return DensityMatrix2.from_pure(ket(p.axis))
