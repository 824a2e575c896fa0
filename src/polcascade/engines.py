"""Whole-stack evaluation engines and their mutual-consistency check.

The exact engines are array folds over :attr:`FilterStack.radians` that
match, bit for bit, a loop over the single-filter functions in
:mod:`polcascade.core`. One walk, :func:`_stage_factors`, hands each stage
the plane it sees (the input's at stage 1, the axis before it at later
stages) and a kernel turns the two into the stage's factor:

* :func:`run_classical` is one running product of Malus cos^2 factors.
* :func:`run_quantum_exact` multiplies Born-rule pass probabilities, squared
  dot products of (cos, sin) kets, along the collapse chain; unpolarized
  input passes the first filter with probability exactly 1/2.
* :func:`run_monte_carlo` samples each photon at the first filter from its
  own counter-based random draws; the survivors, all collapsed onto that
  axis, then pass the later filters as a chain of binomial draws with the
  same Born-rule stage probabilities. An unpolarized photon's stage-1 test
  is screened in float32 and near-ties are decided in float64, so every
  decision is the float64 one. Each worker reads one contiguous run of
  photons in stream order: a seed gives the same bits at any worker count.

A :class:`CascadeTrace` keeps the first `_BLOCK` stages of its engine's
column, its head, as immutable bytes (~185 bytes in all at 7 stages), and
its final fraction; `stages` is a per-row view. One fold, :func:`_fold`,
makes a column a block at a time with its running product, which
:func:`_running_product` carries across each block edge with the
roundings of one product over the whole column, and the quantum
extinction cut with it. Every read of a column, `compare` and the CLI's
render take their blocks from its walk, the first from the head and every
later one folded again from the stack. :func:`compare` reconciles the classical
intensity fraction with the quantum cumulative probability; the two agree
because transmitted intensity is proportional to the photon transmission
probability.

Each engine and each read holds working arrays of `_BLOCK` stages only,
besides a column it returns whole; a :class:`ComparisonReport` keeps no
column, and a :class:`MonteCarloReport` only its counts.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ._folds import _BLOCK, _born, _fold, _gather, _stage_factors, _walk
from .core import Angle, ClassicalBeam, FilterStack
from .core import _ArrayKey, _ByValue, _integer, _real

# Two-sided 95% normal quantile, used by the Wilson score interval.
_Z95 = 1.959963984540054

# Photons a share draws at a time: it bounds the draw buffer, 16 bytes a
# photon, plus 5 for the unpolarized screen and its mask. A share reads its
# draws in stream order, so the size does not change a count. 1 << 15 keeps
# a share at 512 KiB of draws. 1 << 14 would save ~2.5 MB more peak RSS, but
# each chunk costs ~20 numpy calls and two shares contend for the GIL: a
# two-worker 5e7-photon run took 0.800 s at 1 << 14, 0.720 s at 1 << 15 and
# 0.664 s at 1 << 16, medians of 10 interleaved runs on 2 shared vCPUs whose
# quartiles overlap; 10 earlier runs gave 0.896, 0.706 and 0.763 s.
_CHUNK_SIZE = 1 << 15

# Margin of the float32 screen of the unpolarized stage-1 test. The screen's
# argument pi*v - a is off by at most ~5 * 2**-24 * pi ~ 1e-6 (v in [0, 1), a
# in [0, pi), five float32 roundings), so its cos^2 is off from the float64
# one by at most ~1e-6 (4e-7 over a dense grid of v and a), and its
# u0 - cos^2 by ~1e-7 more, from two more roundings. A photon whose float32
# u0 - cos^2 lies within this margin of 0 is decided by the float64 test
# instead, so every decision is the float64 one; about 2e-5 of photons are.
_SCREEN_MARGIN = 1e-5

# Philox counter of the stream that draws the binomial chain of stages
# 2..S. Photon blocks have a zero third word, so the streams never overlap.
_CHAIN_COUNTER = (0, 0, 1, 0)

# Integer ranges [lo, hi): the binomial chain counts survivors in int64, and
# a seed is a Philox key, one unsigned 64-bit word.
_PHOTONS, _SEEDS = (1, 2**63), (0, 2**64)


class ComparisonDomainError(ValueError):
    """Raised when two traces are not comparable (different stack or input)."""


@dataclass(frozen=True, slots=True)
class PhotonInput:
    """Quantum-side input: a pure ket at a plane angle, or unpolarized.

    Unpolarized input is the density matrix I/2. The exact engine uses its
    first-filter factor 1/2 directly; the Monte Carlo engine gives each
    photon a plane angle uniform on [0, pi) at the first filter, which
    reproduces it. After the first filter the input no longer matters.
    """

    angle: Angle | None = None

    def __post_init__(self) -> None:
        if self.angle is not None and not isinstance(self.angle, Angle):
            raise ValueError(f"angle must be an Angle or None, got {self.angle!r}")

    @classmethod
    def unpolarized(cls) -> PhotonInput:
        return cls(angle=None)

    @classmethod
    def pure_ket(cls, angle: Angle) -> PhotonInput:
        return cls(angle=angle)

    @property
    def is_unpolarized(self) -> bool:
        return self.angle is None


class StageRecord(NamedTuple):
    """Per-filter result of an engine run (1-based stage index)."""

    stage_index: int
    axis: Angle
    classical_intensity_after: float | None = None
    stage_pass_probability: float | None = None
    cumulative_probability: float | None = None


@dataclass(frozen=True, eq=False, slots=True)
class CascadeTrace:
    """End-to-end result of a classical or exact quantum run.

    The trace keeps the first `_BLOCK` stages of its engine's column, the
    classical intensities or the quantum stage probabilities, as immutable
    bytes (~185 bytes a 7-stage trace in all); each read of a column
    returns a new float64 array aligned with `stack`, its later blocks
    folded again from the stack, and None for a column the engine does not
    produce.
    """

    input_description: ClassicalBeam | PhotonInput
    stack: FilterStack
    final_transmitted_fraction: float
    _head: bytes = field(repr=False)

    def _blocks(self) -> Iterable[tuple[int, np.ndarray, np.ndarray]]:
        # (lo, column, product) of each block, as _walk makes them; a head
        # that is the whole column is the one block
        head = np.frombuffer(self._head)
        if len(head) < len(self.stack):
            return _walk(self.input_description, self.stack.radians, head)
        classical = isinstance(self.input_description, ClassicalBeam)
        return ((0, head, head if classical else np.multiply.accumulate(head)),)

    def _column(self) -> np.ndarray:
        # the whole column: a view of the head when it is the whole stack
        head = np.frombuffer(self._head)
        if len(head) == len(self.stack):
            return head
        return _gather(self._blocks(), len(self.stack))

    def _read(self, kind: type) -> np.ndarray | None:
        # the column, as a new array, of a trace whose input is of `kind`
        if isinstance(self.input_description, kind):
            column = self._column()
            return column if column.flags.writeable else column.copy()

    @property
    def classical_intensity_after(self) -> np.ndarray | None:
        return self._read(ClassicalBeam)

    @property
    def stage_pass_probability(self) -> np.ndarray | None:
        return self._read(PhotonInput)

    @property
    def cumulative_probability(self) -> np.ndarray | None:
        """The running product of the stage probabilities."""
        probs = self._read(PhotonInput)
        # a sequential product: the roundings of the per-filter loop
        return None if probs is None else np.multiply.accumulate(probs, out=probs)

    @property
    def stages(self) -> tuple[StageRecord, ...]:
        """The columns as one :class:`StageRecord` per filter."""
        n, column = len(self.stack), self._column()
        if isinstance(self.input_description, ClassicalBeam):
            columns = (column, None, None)
        else:
            columns = (None, column, np.multiply.accumulate(column))
        values = [repeat(None, n) if c is None else c.tolist() for c in columns]
        # each row made in C, as StageRecord._make makes it, less its length check
        rows = zip(range(1, n + 1), self.stack.axes, *values)
        return tuple(map(tuple.__new__, repeat(StageRecord), rows))


@dataclass(frozen=True, slots=True)
class MonteCarloConfig:
    """Photon-sampling run description; identifies the result bit-exactly."""

    photon_count: int
    seed: int
    input: PhotonInput
    stack: FilterStack

    def __post_init__(self) -> None:
        if not isinstance(self.input, PhotonInput):
            raise ValueError(f"input must be a PhotonInput, got {self.input!r}")
        if not isinstance(self.stack, FilterStack):
            raise ValueError(f"stack must be a FilterStack, got {self.stack!r}")
        count = _integer(self.photon_count, "photon_count", *_PHOTONS)
        object.__setattr__(self, "photon_count", count)
        object.__setattr__(self, "seed", _integer(self.seed, "seed", *_SEEDS))


@dataclass(frozen=True, eq=False, slots=True)
class MonteCarloReport(_ByValue):
    """Survivor counts from a Monte Carlo run, and their binomial statistics.

    `per_stage_survivor_counts` is one read-only int64 array aligned with
    the stack. The statistics are computed from the counts when read;
    reports compare and hash by config and counts.
    """

    config: MonteCarloConfig
    per_stage_survivor_counts: np.ndarray

    def _key(self) -> tuple:
        return (self.config, _ArrayKey(self.per_stage_survivor_counts))

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def photon_count(self) -> int:
        return self.config.photon_count

    @property
    def transmitted_count(self) -> int:
        """Photons past the last filter; every photon for an empty stack."""
        counts = self.per_stage_survivor_counts
        return int(counts[-1]) if len(counts) else self.config.photon_count

    @property
    def estimate(self) -> float:
        """The transmitted fraction k / n of the n photons."""
        return self.transmitted_count / self.config.photon_count

    @property
    def standard_error(self) -> float:
        """The binomial standard error sqrt(p (1 - p) / n) of the estimate p."""
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.config.photon_count)

    @property
    def confidence_interval_95(self) -> tuple[float, float]:
        """The 95% Wilson score interval of the estimate."""
        return wilson_interval_95(self.transmitted_count, self.config.photon_count)


@dataclass(frozen=True, eq=False, slots=True)
class ComparisonReport:
    """The largest difference between a classical and a quantum run.

    The report keeps the two traces it compared, so, like
    :class:`CascadeTrace`, reports compare by identity. It stores only what
    `compare` folds over the stages, `max_difference`; the final and
    per-stage differences and the verdict are computed from the traces
    each time they are read. `stage_differences` is a new float64 column
    aligned with the stack.
    """

    classical: CascadeTrace
    quantum: CascadeTrace
    max_difference: float
    tolerance: float

    @property
    def final_difference(self) -> float:
        """|classical fraction - quantum fraction| after the last stage."""
        return abs(self.classical.final_transmitted_fraction
                   - self.quantum.final_transmitted_fraction)

    @property
    def stage_differences(self) -> np.ndarray:
        """|intensity fraction - cumulative probability| at each stage."""
        return _gather(_difference_blocks(self.classical, self.quantum), len(self.classical.stack))

    @property
    def passed(self) -> bool:
        """Whether the largest difference is within the tolerance."""
        return self.max_difference <= self.tolerance


def _trace(input: ClassicalBeam | PhotonInput, stack: FilterStack, start: float) -> CascadeTrace:
    """The trace of one walk over the stack from `start`, the product before
    the first stage: its head is the first block's column as bytes, and its
    final fraction the last product over `start` (0 for a dark beam, and 1
    for an empty stack). The blocks are folded by calls, not by a generator,
    which would cost a short stack ~10% more."""
    radians, state = stack.radians, [start, 1.0]
    head = _fold(input, radians, 0, None, state)[1].tobytes() if len(radians) else b""
    for lo in range(_BLOCK, len(radians), _BLOCK):
        _fold(input, radians, lo, None, state)
    return CascadeTrace(input, stack, float(state[0]) / start if start else 0.0, head)


def run_classical(input: ClassicalBeam, stack: FilterStack) -> CascadeTrace:
    """Fold Malus-law transmission over the stack.

    Records the intensity after each stage. The final transmitted fraction
    is final intensity over input intensity (0 for a dark input beam); an
    empty stack transmits unchanged with fraction 1. A subnormal input
    intensity is a ValueError: dividing by it loses the fraction's digits.
    """
    if input.intensity:  # a dark beam (0) has fraction 0; any other must be normal
        _real(input.intensity, "intensity", sys.float_info.min)
    # each stage's factor, then their running product after the input
    # intensity, I0 * f1 first, then * f2 and so on
    return _trace(input, stack, input.intensity)


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
    return _trace(input, stack, 1.0)


def wilson_interval_95(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and keeps a sensible width when the observed
    proportion is 0 or 1, unlike the normal approximation.
    """
    n = _integer(trials, "trials", 1)
    k = _integer(successes, "successes", 0, n + 1)
    z = _Z95
    p_hat = k / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    # the score equation has exact roots at the scale ends; computing them
    # as center -/+ margin would leave rounding residue
    lo = 0.0 if k == 0 else max(0.0, center - margin)
    hi = 1.0 if k == n else min(1.0, center + margin)
    return (lo, hi)


def _effective_workers(workers: int, n_chunks: int, cpus: int | None) -> int:
    """Threads worth starting: no more than there are chunks or CPUs."""
    return max(1, min(workers, n_chunks, cpus or 1))


def _passes_first(u0: np.ndarray, v: np.ndarray, axis: float) -> np.ndarray:
    """Whether unpolarized photons with draws (u0, v) pass the first filter.

    This float64 test defines the counts: the photon's plane pi * v is
    uniform on [0, pi), and it passes iff u0 is below cos^2 of that plane's
    angle to `axis`.
    """
    c = np.cos(np.pi * v - axis)
    return u0 < c * c


def _screen(u: np.ndarray, axis: float, d: np.ndarray) -> None:
    """Write u0 - cos(pi * v - axis)^2 of each draw pair in `u` to `d`, in float32."""
    f32 = np.float32
    np.multiply(u[:, 1], f32(np.pi), out=d, dtype=f32, casting="same_kind")
    d -= f32(axis)
    np.cos(d, out=d)
    np.square(d, out=d)
    np.subtract(u[:, 0], d, out=d, dtype=f32, casting="same_kind")


def _screened_passes(u: np.ndarray, axis: float, d: np.ndarray, near: np.ndarray) -> int:
    """count_nonzero(_passes_first(u[:, 0], u[:, 1], axis)), mostly in float32.

    The float32 screen decides each photon whose margin u0 - cos^2 is
    beyond _SCREEN_MARGIN; the float64 test decides the rest. `d` (float32)
    and `near` (bool) are scratch as long as `u`.
    """
    _screen(u, axis, d)
    passed = int(np.count_nonzero(np.less(d, -_SCREEN_MARGIN, out=near)))
    ties = np.flatnonzero(np.less_equal(np.abs(d, out=d), _SCREEN_MARGIN, out=near))
    return passed + int(np.count_nonzero(_passes_first(u[ties, 0], u[ties, 1], axis)))


def _first_stage_survivors(config: MonteCarloConfig, p_first: float, lo: int, hi: int,
                           stop: threading.Event) -> int:
    """Photons lo, lo + 1, ..., hi - 1 passing filter 1.

    Photon i owns doubles [2i, 2i + 2) of the Philox stream keyed by the
    seed, which is counter block i // 2: the first is its pass draw, the
    second its plane angle as a fraction of pi when the input is
    unpolarized. `lo` is even, so the share starts at block lo // 2 and
    reads on in order, a chunk at a time into one buffer. `p_first` is the
    pass probability of a linearly polarized input. Once `stop` is set the
    share returns before its next chunk, with a count that is not used.
    """
    rows = min(_CHUNK_SIZE, hi - lo)
    draws = np.empty((rows, 2))
    unpolarized = config.input.is_unpolarized
    if unpolarized:
        d, near = np.empty(rows, np.float32), np.empty(rows, np.bool_)
    first_axis = config.stack.radians[0]
    generator = np.random.Generator(np.random.Philox(key=config.seed, counter=lo // 2))
    passed = 0
    for start in range(lo, hi, _CHUNK_SIZE):
        if stop.is_set():
            break
        count = min(_CHUNK_SIZE, hi - start)
        u = generator.random(out=draws[:count])
        if unpolarized:
            passed += _screened_passes(u, first_axis, d[:count], near[:count])
        else:
            passed += int(np.count_nonzero(u[:, 0] < p_first))
    return passed


def _sample_first_stage(config: MonteCarloConfig, p_first: float, requested: int) -> int:
    """Photons passing filter 1, counted in shares on up to `requested` threads.

    The calling thread counts share 0 and one helper thread each other
    share. A helper writes its count, or the exception it raised, to its
    own slot. A failing helper sets the stop event, and so does the caller
    on any exception of its own, KeyboardInterrupt included, before it
    joins the helpers: every share then stops within one chunk. After the
    join the caller's exception, else the first helper's, is raised
    unchanged.
    """
    n = config.photon_count
    # the CPUs this process may run on, by its affinity mask where the OS has one
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    threads = _effective_workers(requested, -(-n // _CHUNK_SIZE), cpus)
    # share k reads photons [edges[k], edges[k + 1]), starting on a block of 2 photons
    blocks = -(-n // 2)
    edges = [min(n, 2 * (blocks * k // threads)) for k in range(threads + 1)]
    slots = [None] * threads
    stop = threading.Event()

    def share(k: int) -> None:
        try:
            slots[k] = _first_stage_survivors(config, p_first, edges[k], edges[k + 1], stop)
        except BaseException as exc:  # raised by the caller after the join
            slots[k] = exc
            stop.set()

    helpers = []
    try:
        for k in range(1, threads):
            helper = threading.Thread(target=share, args=(k,))
            helper.start()
            helpers.append(helper)
        slots[0] = _first_stage_survivors(config, p_first, edges[0], edges[1], stop)
        for helper in helpers:
            helper.join()
    except BaseException:  # share 0's, or a KeyboardInterrupt during the join
        stop.set()
        for helper in helpers:
            helper.join()
        raise
    for result in slots:
        if isinstance(result, BaseException):
            raise result
    return sum(slots)


def run_monte_carlo(config: MonteCarloConfig, workers: int = 1) -> MonteCarloReport:
    """Sample photons through the stack.

    Only the first filter is sampled photon by photon, because it is the
    one stage where a photon's own plane matters: an unpolarized photon
    takes a plane angle uniform on [0, pi) and passes iff a uniform draw is
    below cos^2 of its angle to the axis; a polarized photon passes iff the
    draw is below the Born-rule probability. Every survivor is collapsed
    onto the filter axis, so from then on its chance of passing filter j
    is the Born-rule p_j whatever its history, and the survivor counts are
    exactly the chain Binomial(survivors, p_j) for j = 2..S. One Philox
    stream keyed by the seed at counter [0, 0, 1, 0], disjoint from every
    photon's block, draws that chain in stage order (numpy's BTPE
    binomial). The chain takes its p_j a `_BLOCK` of stages at a time and
    stops after the block where no photon is left, so a stack that empties
    early is walked only that far.

    Work is O(photons + stages reached); memory is the counts column plus
    O(block) for the chain. The photons are split into min(workers, chunks,
    CPUs this process may run on) contiguous shares, each starting on an
    even photon, and a share reads its own run of the stream in order, one
    chunk of 32 768 photons at a time: 512 KiB of draws, and for
    unpolarized input 128 KiB of float32 screen and 32 KiB of mask. Stage-1
    counts reduce by integer addition and the chain runs once after, so the
    report is bit-identical for a fixed config whatever the worker count,
    chunk size or execution order. The calling thread counts share 0 and a
    plain `threading.Thread` each other share, so a one-share run starts no
    thread; one stop event, checked between chunks, ends every share within
    one chunk of a failing share or of Ctrl-C (:func:`_sample_first_stage`).
    """
    requested = _integer(workers, "workers", 1)
    plane, axes = config.input.angle, config.stack.radians
    # the stages after the chain runs out of photons keep their zero; an
    # empty stack has no stage to sample and transmits every photon
    counts = np.zeros(len(axes), np.int64)
    if len(axes):
        p_first = _stage_factors(plane, axes, _born, 0, 1)[0]
        # made before any share starts, so numpy.random, which numpy imports
        # on first use, is imported here and not by whichever share is first
        binomial = np.random.Generator(
            np.random.Philox(key=config.seed, counter=_CHAIN_COUNTER)
        ).binomial
        survivors = _sample_first_stage(config, p_first, requested)
        counts[0] = survivors
        # the stage probabilities as Python floats and the counts as Python
        # ints, one block of stages at a time: the same draws, without a
        # numpy scalar per stage
        for lo in range(1, len(axes), _BLOCK):
            if not survivors:
                break
            alive = []
            for p in _stage_factors(plane, axes, _born, lo, lo + _BLOCK).tolist():
                survivors = binomial(survivors, p)
                alive.append(survivors)
                if not survivors:
                    break
            counts[lo:lo + len(alive)] = alive
    counts.flags.writeable = False
    return MonteCarloReport(config, counts)


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
        If `tolerance` is not a finite real number >= 0.
    ComparisonDomainError
        If the traces are not a (classical, quantum) pair over the same
        stack and equivalent input, or the classical input is dark.
    """
    tolerance = _real(tolerance, "tolerance", 0)
    if not isinstance(classical.input_description, ClassicalBeam):
        raise ComparisonDomainError("first trace must come from the classical engine")
    if not isinstance(quantum.input_description, PhotonInput):
        raise ComparisonDomainError("second trace must come from the quantum engine")
    # unpolarized (None) matches unpolarized; a linear beam matches a pure
    # ket at the same canonical plane angle
    if classical.input_description.plane != quantum.input_description.angle:
        raise ComparisonDomainError("traces describe different input kinds")
    if classical.stack != quantum.stack:
        raise ComparisonDomainError("traces describe different filter stacks")
    if classical.input_description.intensity == 0.0:
        raise ComparisonDomainError("classical input is dark, so it has no transmitted fraction")
    # the largest difference; the last stage's is the final difference,
    # with the same division and subtraction, so the fold starts from 0
    max_diff = 0.0
    for _, diffs in _difference_blocks(classical, quantum):
        max_diff = np.maximum.reduce(diffs, initial=max_diff)
    return ComparisonReport(classical, quantum, float(max_diff), tolerance)


def _difference_blocks(classical: CascadeTrace, quantum: CascadeTrace) -> Iterator[tuple]:
    """(lo, |intensity fraction - cumulative probability|) of each block."""
    for (lo, intensities, _), (_, _, cumulative) in zip(classical._blocks(), quantum._blocks()):
        yield lo, _differences(intensities, classical.input_description.intensity, cumulative)


def _differences(intensities: np.ndarray, intensity_in: float, cumulative: np.ndarray) -> np.ndarray:
    """|intensities / intensity_in - cumulative| at each stage, in one new array."""
    diffs = intensities / intensity_in
    diffs -= cumulative
    return np.abs(diffs, out=diffs)


def staircase_transmission(n: int, start: Angle, end: Angle) -> CascadeTrace:
    """Exact quantum transmission through n equally spaced filters.

    The stack steps from `start` to `end` in n equal increments (the first
    filter sits one step past `start`, the last exactly at `end`) and the
    input is the pure ket at `start`. For equal steps the cumulative
    probability is (cos^2((end-start)/n))^n, which grows toward 1 as n
    increases: frequent gentle projections pass almost everything.
    """
    count = _integer(n, "n", 1)
    step = (end.radians - start.radians) / count
    stack = FilterStack(start.radians + np.arange(1, count + 1) * step)
    return run_quantum_exact(PhotonInput.pure_ket(start), stack)
