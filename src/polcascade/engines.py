"""Whole-stack evaluation engines and their mutual-consistency check.

The exact engines are array folds over :attr:`FilterStack.radians` that
match, bit for bit, a loop over the single-filter functions in
:mod:`polcascade.core`:

* :func:`run_classical` is one running product of Malus cos^2 factors.
* :func:`run_quantum_exact` multiplies Born-rule pass probabilities, squared
  dot products of (cos, sin) kets, along the collapse chain; unpolarized
  input passes the first filter with probability exactly 1/2.
* :func:`run_monte_carlo` samples individual photons against the same
  Born-rule stage probabilities with counter-based per-photon random
  streams, so results are bit-identical for a fixed seed no matter how the
  photons are partitioned across workers.

A :class:`CascadeTrace` holds one array per column an engine produces; its
`stages` are a per-row view. :func:`compare` reconciles the classical
intensity fraction with the quantum cumulative probability; the two agree
because transmitted intensity is proportional to the photon transmission
probability.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Angle, ClassicalBeam, FilterStack, ZERO_PROBABILITY_TOL

# Two-sided 95% normal quantile, used by the Wilson score interval.
_Z95 = 1.959963984540054

# Photons per work unit; counts reduce by integer addition, so any
# partitioning yields identical results.
_CHUNK_SIZE = 1 << 16


class ComparisonDomainError(ValueError):
    """Raised when two traces are not comparable (different stack or input)."""


@dataclass(frozen=True)
class PhotonInput:
    """Quantum-side input: a pure ket at a plane angle, or unpolarized.

    Unpolarized input is the density matrix I/2, whose exact first-filter
    factor 1/2 the exact engine uses directly, and a uniform random plane
    angle per photon for the Monte Carlo engine, which reproduces it.
    """

    angle: Angle | None = None

    @classmethod
    def unpolarized(cls) -> PhotonInput:
        return cls(angle=None)

    @classmethod
    def pure_ket(cls, angle: Angle) -> PhotonInput:
        return cls(angle=angle)

    @property
    def is_unpolarized(self) -> bool:
        return self.angle is None


@dataclass(frozen=True)
class StageRecord:
    """Per-filter result of an engine run (1-based stage index)."""

    stage_index: int
    axis: Angle
    classical_intensity_after: float | None = None
    stage_pass_probability: float | None = None
    cumulative_probability: float | None = None


@dataclass(frozen=True, eq=False)
class CascadeTrace:
    """End-to-end result of a classical or exact quantum run.

    Per-stage results are columns aligned with `stack`, one float64 array
    each, and None for a column the engine does not produce.
    """

    input_description: ClassicalBeam | PhotonInput
    stack: FilterStack
    final_transmitted_fraction: float
    classical_intensity_after: np.ndarray | None = None
    stage_pass_probability: np.ndarray | None = None
    cumulative_probability: np.ndarray | None = None

    @property
    def stages(self) -> tuple[StageRecord, ...]:
        """The columns as one :class:`StageRecord` per filter."""
        n = len(self.stack)
        columns = (
            self.classical_intensity_after,
            self.stage_pass_probability,
            self.cumulative_probability,
        )
        rows = zip(self.stack.axes, *([None] * n if c is None else c.tolist() for c in columns))
        return tuple(StageRecord(i, *row) for i, row in enumerate(rows, start=1))


@dataclass(frozen=True)
class MonteCarloConfig:
    """Photon-sampling run description; identifies the result bit-exactly."""

    photon_count: int
    seed: int
    input: PhotonInput
    stack: FilterStack

    def __post_init__(self) -> None:
        count, seed = _as_int(self.photon_count), _as_int(self.seed)
        if count is None or count < 1:
            raise ValueError(
                f"photon_count must be an integer >= 1, got {self.photon_count!r}"
            )
        if seed is None or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "photon_count", count)
        object.__setattr__(self, "seed", seed)


def _as_int(value: object) -> int | None:
    """`value` as a Python int if it is an integer type other than bool."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class MonteCarloReport:
    """Counts and binomial statistics from a Monte Carlo run."""

    config: MonteCarloConfig
    per_stage_survivor_counts: tuple[int, ...]
    transmitted_count: int
    estimate: float
    standard_error: float
    confidence_interval_95: tuple[float, float]

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def photon_count(self) -> int:
        return self.config.photon_count


@dataclass(frozen=True)
class ComparisonReport:
    """Per-stage and final differences between classical and quantum runs."""

    stage_differences: tuple[float, ...]
    final_difference: float
    max_difference: float
    tolerance: float
    passed: bool


def run_classical(input: ClassicalBeam, stack: FilterStack) -> CascadeTrace:
    """Fold Malus-law transmission over the stack.

    Records the intensity after each stage. The final transmitted fraction
    is final intensity over input intensity (0 for a dark input beam); an
    empty stack transmits unchanged with fraction 1.
    """
    axes = stack.radians
    planes = axes if input.plane is None else np.concatenate(([input.plane.radians], axes))
    c = np.cos(np.diff(planes))
    halved = [0.5] * len(axes[:1]) if input.plane is None else []
    # a sequential running product: the same roundings as the per-filter loop
    intensities = np.cumprod(np.concatenate(([input.intensity], halved, c * c)))
    if input.intensity > 0.0:
        fraction = float(intensities[-1]) / input.intensity
    else:
        fraction = 0.0
    return CascadeTrace(
        input_description=input,
        stack=stack,
        final_transmitted_fraction=fraction,
        classical_intensity_after=intensities[1:],
    )


def _born_probabilities(input: PhotonInput, axes: np.ndarray) -> np.ndarray:
    """Born-rule pass probability of each stage, before any extinction cut.

    Stage 1 sees the input state (exactly 1/2 for unpolarized light, since
    <axis|I/2|axis> = 1/2 for every axis); every later stage sees the ket
    of the filter before it. Probabilities are squared, clamped dot products
    of (cos, sin) kets, as :func:`polcascade.core.pass_probability` has them.
    """
    planes = axes if input.is_unpolarized else np.concatenate(([input.angle.radians], axes))
    h, v = np.cos(planes), np.sin(planes)
    dot = np.clip(h[1:] * h[:-1] + v[1:] * v[:-1], -1.0, 1.0)
    probs = dot * dot
    if input.is_unpolarized and len(axes):
        probs = np.concatenate(([0.5], probs))
    return probs


def run_quantum_exact(input: PhotonInput, stack: FilterStack) -> CascadeTrace:
    """Exact sequential projective-measurement probabilities for the stack.

    For a pure-ket input each stage contributes the Born-rule pass
    probability and collapses the state onto the filter axis; the
    cumulative probability is the running product. Unpolarized input
    starts from the density matrix I/2, which every first filter passes
    with probability 1/2, and evolves as a pure state afterwards.

    A stage probability below 1e-15 is the physical zero (orthogonal
    filter pair): it is recorded as exactly 0, every later stage and
    cumulative probability is exactly 0, and no projection error is raised.
    """
    probs = _born_probabilities(input, stack.radians)
    probs[np.logical_or.accumulate(probs < ZERO_PROBABILITY_TOL)] = 0.0
    cumulative = np.cumprod(probs)
    return CascadeTrace(
        input_description=input,
        stack=stack,
        final_transmitted_fraction=float(cumulative[-1]) if len(cumulative) else 1.0,
        stage_pass_probability=probs,
        cumulative_probability=cumulative,
    )


def wilson_interval_95(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and keeps a sensible width when the observed
    proportion is 0 or 1, unlike the normal approximation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = _Z95
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)
    )
    # the score equation has exact roots at the scale ends; computing them
    # as center -/+ margin would leave rounding residue
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return (lo, hi)


def _photon_uniforms(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """Uniform [0, 1) draws for photons [start, start + count).

    Counter-based streams: photon i owns the Philox counter blocks
    [i*bpp, (i+1)*bpp) under the key `seed`, where each 256-bit block
    yields four doubles. Row j of the result is therefore a pure function
    of (seed, start + j), independent of how photons are chunked.
    """
    bpp = (draws + 3) // 4  # blocks per photon
    bg = np.random.Philox(key=seed, counter=[start * bpp, 0, 0, 0])
    u = np.random.Generator(bg).random((count, 4 * bpp))
    return u[:, :draws]


def _survivors_in_chunk(
    config: MonteCarloConfig,
    start: int,
    count: int,
    probs: np.ndarray,
) -> np.ndarray:
    """Per-stage survivor counts for a contiguous block of photons.

    `probs` are the Born-rule stage probabilities; for unpolarized input
    the first stage is sampled from each photon's own plane angle instead.
    """
    n_stages = len(config.stack)
    draws = n_stages + 1  # slot 0 is the plane-angle draw, then one per filter
    u = _photon_uniforms(config.seed, start, count, draws)
    counts = np.zeros(n_stages, dtype=np.int64)

    if config.input.is_unpolarized:
        first_axis = config.stack.radians[0]
        theta = u[:, 0] * np.pi
        dot = np.cos(first_axis) * np.cos(theta) + np.sin(first_axis) * np.sin(theta)
        p_first = dot * dot
    else:
        p_first = probs[0]
    alive = u[:, 1] < p_first
    counts[0] = np.count_nonzero(alive)
    # after any filter every survivor is collapsed onto that axis, so the
    # remaining stage probabilities are scalars
    for j in range(1, n_stages):
        alive &= u[:, j + 1] < probs[j]
        counts[j] = np.count_nonzero(alive)
    return counts


def run_monte_carlo(config: MonteCarloConfig, workers: int = 1) -> MonteCarloReport:
    """Sample individual photons through the stack.

    Each photon draws a plane angle uniform on [0, pi) if the input is
    unpolarized, then at each filter draws u uniform on [0, 1) and passes
    iff u < its Born-rule pass probability, collapsing onto the filter
    axis. All randomness comes from a dedicated counter-based stream per
    photon keyed by (seed, photon index), and per-stage survivor counts
    reduce by integer addition, so the report is bit-identical for a fixed
    config regardless of worker count or execution order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    n = config.photon_count
    stack = config.stack
    if len(stack) == 0:
        # nothing to absorb a photon: every one is transmitted
        counts: tuple[int, ...] = ()
        transmitted = n
    else:
        probs = _born_probabilities(config.input, stack.radians)
        chunks = [
            (start, min(_CHUNK_SIZE, n - start)) for start in range(0, n, _CHUNK_SIZE)
        ]

        def work(chunk: tuple[int, int]) -> np.ndarray:
            start, count = chunk
            return _survivors_in_chunk(config, start, count, probs)

        if workers == 1 or len(chunks) == 1:
            partials = [work(c) for c in chunks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                partials = list(pool.map(work, chunks))
        totals = np.sum(partials, axis=0, dtype=np.int64)
        counts = tuple(int(c) for c in totals)
        transmitted = counts[-1]
    estimate = transmitted / n
    stderr = math.sqrt(estimate * (1.0 - estimate) / n)
    return MonteCarloReport(
        config=config,
        per_stage_survivor_counts=counts,
        transmitted_count=transmitted,
        estimate=estimate,
        standard_error=stderr,
        confidence_interval_95=wilson_interval_95(transmitted, n),
    )


def _compatible_inputs(
    classical: ClassicalBeam | PhotonInput, quantum: ClassicalBeam | PhotonInput
) -> bool:
    # unpolarized matches unpolarized; a linear beam matches a pure ket at
    # the same canonical plane angle
    if isinstance(classical, ClassicalBeam) and isinstance(quantum, PhotonInput):
        if classical.plane is None:
            return quantum.is_unpolarized
        return quantum.angle == classical.plane
    return False


def compare(
    classical: CascadeTrace, quantum: CascadeTrace, tolerance: float
) -> ComparisonReport:
    """Check that intensity fractions and cumulative probabilities agree.

    The compared quantity is the dimensionless transmitted fraction:
    classical intensity after each stage divided by the input intensity,
    against the quantum cumulative probability. Intensities are never
    compared to probabilities directly. For unpolarized input both engines
    include the 1/2 first-filter factor, so the fractions line up stage by
    stage.

    Raises
    ------
    ValueError
        If `tolerance` is negative or NaN.
    ComparisonDomainError
        If the traces are not a (classical, quantum) pair over the same
        stack and equivalent input.
    """
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    if not isinstance(classical.input_description, ClassicalBeam):
        raise ComparisonDomainError("first trace must come from the classical engine")
    if not isinstance(quantum.input_description, PhotonInput):
        raise ComparisonDomainError("second trace must come from the quantum engine")
    if not _compatible_inputs(classical.input_description, quantum.input_description):
        raise ComparisonDomainError("traces describe different input kinds")
    if classical.stack != quantum.stack:
        raise ComparisonDomainError("traces describe different filter stacks")
    if classical.classical_intensity_after is None:
        raise ComparisonDomainError("classical trace is missing stage intensities")
    if quantum.cumulative_probability is None:
        raise ComparisonDomainError("quantum trace is missing stage probabilities")

    intensity_in = classical.input_description.intensity
    fractions = classical.classical_intensity_after / intensity_in if intensity_in > 0.0 else 0.0
    diffs = np.abs(fractions - quantum.cumulative_probability)
    final_diff = abs(
        classical.final_transmitted_fraction - quantum.final_transmitted_fraction
    )
    max_diff = float(np.max(diffs, initial=final_diff))
    return ComparisonReport(
        stage_differences=tuple(diffs.tolist()),
        final_difference=final_diff,
        max_difference=max_diff,
        tolerance=tolerance,
        passed=max_diff <= tolerance,
    )


def staircase_transmission(n: int, start: Angle, end: Angle) -> CascadeTrace:
    """Exact quantum transmission through n equally spaced filters.

    The stack steps from `start` to `end` in n equal increments (the first
    filter sits one step past `start`, the last exactly at `end`) and the
    input is the pure ket at `start`. For equal steps the cumulative
    probability is (cos^2((end-start)/n))^n, which grows toward 1 as n
    increases: frequent gentle projections pass almost everything.
    """
    if n < 1:
        raise ValueError(f"staircase needs n >= 1 filters, got {n!r}")
    step = (end.radians - start.radians) / n
    stack = FilterStack(start.radians + np.arange(1, n + 1) * step)
    return run_quantum_exact(PhotonInput.pure_ket(start), stack)
