"""Tests for the whole-stack engines and their mutual consistency."""

import contextlib
import dataclasses
import functools
import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polcascade import _folds, engines
from polcascade.core import (
    Angle,
    ClassicalBeam,
    FilterStack,
    ZeroProbabilityProjectionError,
    angle_from_degrees,
    classical_transmit,
    ket,
    pass_probability,
    project,
)
from polcascade.engines import (
    ComparisonDomainError,
    MonteCarloConfig,
    MonteCarloReport,
    PhotonInput,
    StageRecord,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
    staircase_transmission,
    wilson_interval_95,
)


def deg(d):
    return angle_from_degrees(d)


def stack_of(*degrees):
    return FilterStack.from_degrees(degrees)


def random_stack(rng, max_len=10):
    n = int(rng.integers(0, max_len + 1))
    return FilterStack.from_degrees(rng.uniform(0.0, 180.0, size=n))


class TestRunClassical:
    def test_perpendicular_pair(self):
        trace = run_classical(ClassicalBeam.unpolarized(1.0), stack_of(0, 90))
        intensities = [s.classical_intensity_after for s in trace.stages]
        assert intensities[0] == 0.5
        assert intensities[1] <= 1e-15
        assert trace.final_transmitted_fraction <= 1e-15

    def test_intermediate_diagonal_filter(self):
        trace = run_classical(ClassicalBeam.unpolarized(1.0), stack_of(0, 45, 90))
        intensities = [s.classical_intensity_after for s in trace.stages]
        assert intensities == pytest.approx([0.5, 0.25, 0.125], abs=1e-12)
        assert trace.final_transmitted_fraction == pytest.approx(0.125, abs=1e-12)

    def test_empty_stack_is_identity(self):
        trace = run_classical(ClassicalBeam.unpolarized(3.0), FilterStack())
        assert trace.stages == ()
        assert trace.final_transmitted_fraction == 1.0

    def test_dark_input_has_zero_fraction(self):
        trace = run_classical(ClassicalBeam.unpolarized(0.0), stack_of(0, 45))
        assert trace.final_transmitted_fraction == 0.0

    @pytest.mark.parametrize("intensity", [5e-324, 1e-320])
    def test_subnormal_input_is_rejected(self, intensity):
        # its fraction would lose digits, or underflow to 0
        with pytest.raises(ValueError, match="^intensity must be"):
            run_classical(ClassicalBeam.unpolarized(intensity), stack_of(0, 30))

    @pytest.mark.parametrize("intensity", [0.0, sys.float_info.min])
    def test_dark_and_smallest_normal_input_run(self, intensity):
        trace = run_classical(ClassicalBeam.unpolarized(intensity), stack_of(0, 30))
        assert trace.final_transmitted_fraction == (0.375 if intensity else 0.0)

    def test_intensity_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            stack = random_stack(rng)
            trace = run_classical(ClassicalBeam.unpolarized(1.0), stack)
            intensities = [1.0] + [s.classical_intensity_after for s in trace.stages]
            assert all(b <= a for a, b in zip(intensities, intensities[1:]))

    @given(
        a=st.floats(allow_nan=False, allow_infinity=False),
        plane=st.none() | st.floats(allow_nan=False, allow_infinity=False),
        intensity=st.floats(min_value=sys.float_info.min, max_value=1e300),
    )
    def test_a_repeated_filter_passes_all_it_is_given(self, a, plane, intensity):
        # the second of two equal axes sees the plane the first leaves, so
        # its Malus factor is cos^2(0), exactly 1, whatever the angle
        beam = ClassicalBeam(intensity, None if plane is None else deg(plane))
        first, second = run_classical(beam, stack_of(a, a)).classical_intensity_after.tolist()
        assert second.hex() == first.hex()


class TestStageRows:
    def test_rows_are_the_columns_as_named_tuples(self):
        stack = stack_of(0, 45, 90)
        trace = run_quantum_exact(PhotonInput.unpolarized(), stack)
        columns = (trace.stage_pass_probability.tolist(), trace.cumulative_probability.tolist())
        assert trace.stages == tuple(
            (i, axis, None, p, c) for i, axis, p, c in zip((1, 2, 3), stack.axes, *columns)
        )
        first = trace.stages[0]
        assert first == StageRecord(1, deg(0), stage_pass_probability=0.5, cumulative_probability=0.5)
        assert first.axis == deg(0) and first.classical_intensity_after is None
        assert repr(first) == (
            "StageRecord(stage_index=1, axis=Angle(radians=0.0), classical_intensity_after=None, "
            "stage_pass_probability=0.5, cumulative_probability=0.5)"
        )
        assert StageRecord(2, deg(30)) == (2, deg(30), None, None, None)


class TestRunQuantumExact:
    def test_perpendicular_pair_exactly_zero(self):
        trace = run_quantum_exact(PhotonInput.pure_ket(deg(0)), stack_of(90))
        assert trace.stages[0].stage_pass_probability == 0.0
        assert trace.final_transmitted_fraction == 0.0

    def test_probability_product(self):
        trace = run_quantum_exact(PhotonInput.pure_ket(deg(0)), stack_of(45, 90))
        probs = [s.stage_pass_probability for s in trace.stages]
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)
        assert trace.final_transmitted_fraction == pytest.approx(0.25, abs=1e-12)

    def test_unpolarized_input_through_three_filters(self):
        # first stage checked against an explicit I/2 expectation value
        axis = deg(0)
        v = np.array([math.cos(axis.radians), math.sin(axis.radians)])
        first = float(v @ (np.eye(2) / 2.0) @ v)
        assert first == pytest.approx(0.5, abs=1e-15)

        trace = run_quantum_exact(PhotonInput.unpolarized(), stack_of(0, 45, 90))
        probs = [s.stage_pass_probability for s in trace.stages]
        assert probs == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
        assert trace.final_transmitted_fraction == pytest.approx(0.125, abs=1e-12)

    def test_empty_stack_transmits_everything(self):
        trace = run_quantum_exact(PhotonInput.unpolarized(), FilterStack())
        assert trace.stages == ()
        assert trace.final_transmitted_fraction == 1.0

    def test_extinction_is_permanent(self):
        # no projection error is raised; later stages stay at exactly zero
        trace = run_quantum_exact(PhotonInput.pure_ket(deg(0)), stack_of(0, 90, 45))
        cumulative = [s.cumulative_probability for s in trace.stages]
        assert trace.stages[0].stage_pass_probability == 1.0
        assert cumulative[1] == 0.0
        assert cumulative[2] == 0.0
        assert trace.stages[2].stage_pass_probability == 0.0
        assert trace.final_transmitted_fraction == 0.0

    def test_cumulative_is_running_product(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            stack = random_stack(rng)
            trace = run_quantum_exact(PhotonInput.unpolarized(), stack)
            running = 1.0
            for s in trace.stages:
                running *= s.stage_pass_probability
                assert s.cumulative_probability == pytest.approx(running, abs=1e-12)

    def test_cumulative_non_increasing(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            trace = run_quantum_exact(PhotonInput.unpolarized(), random_stack(rng))
            cumulative = [1.0] + [s.cumulative_probability for s in trace.stages]
            assert all(b <= a for a, b in zip(cumulative, cumulative[1:]))

    def test_any_perpendicular_pair_zeroes_the_cascade(self):
        # a blocked stage must force the final probability to exactly zero
        # no matter what follows it
        rng = np.random.default_rng(17)
        for _ in range(100):
            before = list(rng.uniform(0.0, 180.0, size=rng.integers(0, 4)))
            pivot = float(rng.uniform(0.0, 180.0))
            after = list(rng.uniform(0.0, 180.0, size=rng.integers(0, 4)))
            stack = FilterStack.from_degrees(before + [pivot, pivot + 90.0] + after)
            trace = run_quantum_exact(PhotonInput.unpolarized(), stack)
            assert trace.final_transmitted_fraction == 0.0


def oracle_loop(degrees, plane_deg):
    """Per-filter loop over the core functions: the classical intensity, the
    quantum stage pass probability and the cumulative probability after
    each stage.

    The quantum state collapses with `project`; the projection error it
    raises for an orthogonal filter is the extinction event, after which
    every later stage passes nothing. A flag tracks it rather than a zero
    running product, which can also come from underflow."""
    if plane_deg is None:
        beam, state = ClassicalBeam.unpolarized(1.0), None
    else:
        beam, state = ClassicalBeam.linear(deg(plane_deg), 1.0), ket(deg(plane_deg))
    intensities, probs, cumulative = [], [], []
    running, extinct = 1.0, False
    for d in degrees:
        axis = deg(d)
        beam = classical_transmit(beam, axis)
        intensities.append(beam.intensity)
        if extinct:
            prob = 0.0
        elif state is None:
            # I/2 passes every axis with probability 1/2, up to the rounding
            # of the matrix product
            v = np.array([math.cos(axis.radians), math.sin(axis.radians)])
            assert abs(v @ (np.eye(2) / 2) @ v - 0.5) <= 2.3e-16
            prob, state = 0.5, ket(axis)
        else:
            prob = pass_probability(state, axis)
            try:
                state = project(state, axis)
            except ZeroProbabilityProjectionError:
                extinct, prob = True, 0.0
        running = 0.0 if extinct else running * prob
        probs.append(prob)
        cumulative.append(running)
    return intensities, probs, cumulative


# crossed and aligned pairs, which random floats almost never draw
oracle_angles = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False) | st.sampled_from(
    [0.0, 45.0, 90.0, 135.0, 180.0, -90.0]
)


class TestFoldsMatchOracle:
    @given(
        degrees=st.lists(oracle_angles, min_size=1, max_size=40),
        plane_deg=st.none() | oracle_angles,
    )
    def test_bit_identical_to_per_filter_loop(self, degrees, plane_deg):
        stack = FilterStack.from_degrees(degrees)
        if plane_deg is None:
            beam, photons = ClassicalBeam.unpolarized(1.0), PhotonInput.unpolarized()
        else:
            beam = ClassicalBeam.linear(deg(plane_deg), 1.0)
            photons = PhotonInput.pure_ket(deg(plane_deg))
        intensities, probs, cumulative = oracle_loop(degrees, plane_deg)
        classical = run_classical(beam, stack)
        quantum = run_quantum_exact(photons, stack)
        assert classical.classical_intensity_after.tolist() == intensities
        assert quantum.stage_pass_probability.tolist() == probs
        assert quantum.cumulative_probability.tolist() == cumulative
        assert classical.final_transmitted_fraction == intensities[-1]
        assert quantum.final_transmitted_fraction == cumulative[-1]


BLOCK = engines._BLOCK


def photon_inputs(plane_deg):
    if plane_deg is None:
        return ClassicalBeam.unpolarized(1.0), PhotonInput.unpolarized()
    return ClassicalBeam.linear(deg(plane_deg), 1.0), PhotonInput.pure_ket(deg(plane_deg))


def walk_degrees(n, seed=11):
    # ~0.5 degree steps: a photon passes all 2 * BLOCK + 1 stages with p ~ 0.7
    return np.cumsum(np.random.default_rng(seed).normal(0.0, 0.5, n)).tolist()


@contextlib.contextmanager
def blocks_of(block):
    # the folds and walks, and the Monte Carlo chain, `block` stages at a time
    with mock.patch.object(_folds, "_BLOCK", block), mock.patch.object(engines, "_BLOCK", block):
        yield


class TestBlockEdges:
    # the exact folds and compare work BLOCK stages at a time; a stack that
    # ends just before, on or after a block edge, or reaches a third block,
    # has the per-filter loop's bits
    SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
    PHOTONS, SEED = 1000, 5

    @pytest.fixture(scope="class", params=[None, 30.0], ids=["unpolarized", "linear"])
    def walk(self, request):
        # the loop over a stack's first n filters is the first n rows of the
        # loop over the whole stack, so one loop serves every size
        degrees = walk_degrees(max(self.SIZES))
        return request.param, degrees, oracle_loop(degrees, request.param)

    @pytest.mark.parametrize("n", SIZES)
    def test_exact_engines_match_the_per_filter_loop(self, walk, n):
        plane_deg, degrees, (intensities, probs, cumulative) = walk
        beam, photons = photon_inputs(plane_deg)
        stack = FilterStack.from_degrees(degrees[:n])
        classical = run_classical(beam, stack)
        quantum = run_quantum_exact(photons, stack)
        assert classical.classical_intensity_after.tolist() == intensities[:n]
        assert quantum.stage_pass_probability.tolist() == probs[:n]
        assert quantum.cumulative_probability.tolist() == cumulative[:n]
        self.assert_every_read_matches(classical, quantum, (intensities, probs, cumulative), n)

    @staticmethod
    def assert_every_read_matches(classical, quantum, oracle, n):
        # a trace keeps one block of its column and folds the rest again on
        # each read: every read, twice, gives the per-filter loop's first n
        # rows, in a new array that the caller may write
        intensities, probs, cumulative = (column[:n] for column in oracle)
        reads = [(classical, "classical_intensity_after", intensities),
                 (quantum, "stage_pass_probability", probs),
                 (quantum, "cumulative_probability", cumulative)]
        for trace, name, expected in reads:
            first = getattr(trace, name)
            assert first.tolist() == expected, name
            first[:] = -1.0
            assert getattr(trace, name).tolist() == expected, name
        assert classical.stage_pass_probability is None
        assert classical.cumulative_probability is None
        assert quantum.classical_intensity_after is None
        report = compare(classical, quantum, 1e-9)
        diffs = np.abs(np.array(intensities) - np.array(cumulative))
        assert report.stage_differences.tobytes() == diffs.tobytes()
        assert report.max_difference == float(diffs.max())
        axes = classical.stack.axes
        assert classical.stages == tuple(zip(range(1, n + 1), axes, intensities, [None] * n,
                                             [None] * n))
        assert quantum.stages == tuple(zip(range(1, n + 1), axes, [None] * n, probs, cumulative))

    @pytest.fixture(scope="class", params=["cut", "subnormal-carry"])
    def across_the_first_edge(self, request):
        # filters BLOCK - 1 and BLOCK crossed, so every stage from BLOCK on is
        # cut to 0; or equal steps from the input plane, each passing
        # cos^2(step), whose running product is subnormal, ~1e-312, after
        # BLOCK stages and carried into the second block
        if request.param == "cut":
            plane_deg, degrees = 30.0, walk_degrees(max(self.SIZES))
            degrees[BLOCK] = degrees[BLOCK - 1] + 90.0
        else:
            step = math.degrees(math.acos(math.exp(math.log(1e-312) / (2 * BLOCK))))
            plane_deg, degrees = 0.0, (step * np.arange(1, max(self.SIZES) + 1)).tolist()
        oracle = oracle_loop(degrees, plane_deg)
        carried = oracle[2][BLOCK - 1]
        if request.param == "cut":
            assert carried > 0.0 and not any(oracle[2][BLOCK:])
        else:
            assert 0.0 < carried < sys.float_info.min and all(oracle[2])
        return plane_deg, degrees, oracle

    @pytest.mark.parametrize("n", SIZES)
    def test_every_column_read_across_the_first_edge(self, across_the_first_edge, n):
        plane_deg, degrees, oracle = across_the_first_edge
        beam, photons = photon_inputs(plane_deg)
        stack = FilterStack.from_degrees(degrees[:n])
        classical, quantum = run_classical(beam, stack), run_quantum_exact(photons, stack)
        assert quantum.final_transmitted_fraction == oracle[2][n - 1]
        assert classical.final_transmitted_fraction == oracle[0][n - 1]
        self.assert_every_read_matches(classical, quantum, oracle, n)

    @pytest.fixture(scope="class")
    def chain(self, walk):
        # stage 1 by the photon draws, then Binomial(survivors, p_j) drawn in
        # stage order from the chain's stream, p_j from the per-filter loop;
        # a shorter stack's counts are this chain's first rows too
        plane_deg, degrees, (_, probs, _) = walk
        u = np.random.Generator(np.random.Philox(key=self.SEED)).random((self.PHOTONS, 2))
        if plane_deg is None:
            first_axis = FilterStack.from_degrees(degrees[:1]).radians[0]
            survivors = np.count_nonzero(engines._passes_first(u[:, 0], u[:, 1], first_axis))
        else:
            survivors = np.count_nonzero(u[:, 0] < probs[0])
        binomial = np.random.Generator(
            np.random.Philox(key=self.SEED, counter=engines._CHAIN_COUNTER)
        ).binomial
        counts = [int(survivors)]
        for p in probs[1:]:
            counts.append(int(binomial(counts[-1], p)) if counts[-1] else 0)
        assert counts[-1] > 0
        return counts

    @pytest.mark.parametrize("n", SIZES)
    def test_monte_carlo_matches_the_per_filter_chain(self, walk, chain, n):
        plane_deg, degrees, _ = walk
        _, photons = photon_inputs(plane_deg)
        config = MonteCarloConfig(self.PHOTONS, self.SEED, photons, FilterStack.from_degrees(degrees[:n]))
        assert run_monte_carlo(config).per_stage_survivor_counts.tolist() == chain[:n]

    @pytest.mark.parametrize("plane_deg", [None, 30.0], ids=["unpolarized", "linear"])
    @pytest.mark.parametrize("cut", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_an_orthogonal_pair_by_a_block_edge_cuts_every_later_stage(self, plane_deg, cut):
        # filters cut - 1 and cut are crossed: the pair ends before the second
        # block, straddles its edge or starts it
        degrees = walk_degrees(2 * BLOCK + 1)
        degrees[cut] = degrees[cut - 1] + 90.0
        _, photons = photon_inputs(plane_deg)
        quantum = run_quantum_exact(photons, FilterStack.from_degrees(degrees))
        probs, cumulative = quantum.stage_pass_probability, quantum.cumulative_probability
        assert np.all(probs[:cut] > 0.0) and np.all(cumulative[:cut] > 0.0)
        assert not probs[cut:].any() and not cumulative[cut:].any()
        assert quantum.final_transmitted_fraction == 0.0

    @staticmethod
    def running_stack(case):
        # the photon input and stack of each case; a number is a walk's length
        if isinstance(case, int):
            return PhotonInput.unpolarized(), FilterStack.from_degrees(walk_degrees(case))
        if case == "cut-straddling-an-edge":  # filters BLOCK - 1 and BLOCK are crossed
            degrees = walk_degrees(2 * BLOCK + 1)
            degrees[BLOCK] = degrees[BLOCK - 1] + 90.0
            return PhotonInput.pure_ket(deg(30)), FilterStack.from_degrees(degrees)
        # equal steps from the input plane, each passing cos^2(step): after
        # BLOCK stages the product is subnormal, ~1e-312, or has underflowed
        # to 0 (0.25 a stage), with no stage below the extinction cut
        step = {"subnormal-carry": math.acos(math.exp(math.log(1e-312) / (2 * BLOCK))),
                "zero-carry": math.pi / 3}[case]
        return PhotonInput.pure_ket(deg(0)), FilterStack(step * np.arange(1, 2 * BLOCK + 2))

    @pytest.mark.parametrize("case", [*SIZES, "cut-straddling-an-edge", "subnormal-carry",
                                      "zero-carry"])
    def test_every_running_product_is_one_whole_accumulate(self, case):
        # the trace's cumulative column, the blocks compare carries it across
        # and the blocks of the trace's walk, which the render lays out, all
        # have the bits of one accumulate over the whole column
        photons, stack = self.running_stack(case)
        quantum = run_quantum_exact(photons, stack)
        whole = np.multiply.accumulate(quantum.stage_pass_probability)
        if case == "subnormal-carry":  # the product carried into the second block
            assert 0.0 < whole[BLOCK - 1] < sys.float_info.min
        elif case == "zero-carry":
            assert not whole[BLOCK // 2:].any() and np.all(whole[:BLOCK // 8] > 0.0)
        elif case == "cut-straddling-an-edge":
            assert whole[BLOCK - 1] > 0.0 and not whole[BLOCK:].any()
        assert quantum.cumulative_probability.tobytes() == whole.tobytes()
        assert quantum.final_transmitted_fraction == whole[-1]

        classical = run_classical(ClassicalBeam(1.0, photons.angle), stack)
        blocks, differences = [], engines._differences

        def spy(intensities, intensity_in, cumulative):
            blocks.append(cumulative.copy())
            return differences(intensities, intensity_in, cumulative)

        with mock.patch.object(engines, "_differences", spy):
            compare(classical, quantum, 1e-9)
        assert len(blocks) == -(-len(stack) // BLOCK)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

        # the blocks the render lays out, each read from the trace's walk
        walked = [product.copy() for _, _, product in quantum._blocks()]
        assert len(walked) == -(-len(stack) // BLOCK)
        assert np.concatenate(walked).tobytes() == whole.tobytes()

    @settings(max_examples=30)
    @given(
        degrees=st.lists(oracle_angles, min_size=0, max_size=40),
        plane_deg=st.none() | oracle_angles,
        intensity=st.floats(min_value=1e-3, max_value=1e3),
        tolerance=st.sampled_from([0.0, 1e-16, 1e-9]),
        block=st.sampled_from([1, 2, 3, 7, BLOCK]),
    )
    def test_compare_folds_blocks_to_the_whole_column_values(
        self, degrees, plane_deg, intensity, tolerance, block
    ):
        # the values a compare once took from one whole column of differences
        stack = FilterStack.from_degrees(degrees)
        angle = None if plane_deg is None else deg(plane_deg)
        classical = run_classical(ClassicalBeam(intensity, angle), stack)
        quantum = run_quantum_exact(PhotonInput(angle), stack)
        diffs = np.abs(classical.classical_intensity_after / intensity
                       - quantum.cumulative_probability)
        final = abs(classical.final_transmitted_fraction - quantum.final_transmitted_fraction)
        max_diff = float(np.maximum.reduce(diffs, initial=final))
        with blocks_of(block):
            report = compare(classical, quantum, tolerance)
            # and the folds give the same columns a few stages at a time
            assert np.array_equal(
                run_quantum_exact(PhotonInput(angle), stack).cumulative_probability,
                quantum.cumulative_probability,
            )
        assert report.max_difference == max_diff
        assert report.passed == (max_diff <= tolerance)
        assert report.final_difference == final
        assert report.stage_differences.dtype == np.float64
        assert np.array_equal(report.stage_differences, diffs)

    @settings(max_examples=30)
    @given(
        degrees=st.lists(oracle_angles, min_size=0, max_size=40),
        plane_deg=st.none() | oracle_angles,
    )
    def test_every_block_loop_at_tiny_blocks_gives_the_same_bits(self, degrees, plane_deg):
        # the stage walk, the extinction cut and the Monte Carlo chain each
        # step a block at a time; blocks shorter than the stack change no bit
        beam, photons = photon_inputs(plane_deg)
        stack = FilterStack.from_degrees(degrees)
        config = MonteCarloConfig(300, 5, photons, stack)

        def columns():
            quantum = run_quantum_exact(photons, stack)
            return (run_classical(beam, stack).classical_intensity_after.tobytes(),
                    quantum.stage_pass_probability.tobytes(),
                    quantum.cumulative_probability.tobytes(),
                    run_monte_carlo(config).per_stage_survivor_counts.tolist())

        whole = columns()
        for block in (1, 2, 3, 7):
            with blocks_of(block):
                assert columns() == whole, block


class TestEquivalence:
    def test_classical_and_quantum_agree_on_1000_random_stacks(self):
        rng = np.random.default_rng(20240911)
        worst = 0.0
        for _ in range(1000):
            stack = random_stack(rng)
            theta = float(rng.uniform(0.0, 180.0))

            classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
            quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
            report = compare(classical, quantum, 1e-9)
            assert report.passed
            worst = max(worst, report.max_difference)

            classical = run_classical(ClassicalBeam.linear(deg(theta), 1.0), stack)
            quantum = run_quantum_exact(PhotonInput.pure_ket(deg(theta)), stack)
            report = compare(classical, quantum, 1e-9)
            assert report.passed
            worst = max(worst, report.max_difference)
        assert worst <= 1e-9


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestEngineMemory:
    # a trace keeps one block of its column and each engine, and compare,
    # works a block of stages at a time: beside the stack, a run of a long
    # stack holds a few block columns of 8 bytes a stage and no whole-stack
    # array (a whole column was 8 bytes a filter, 800 kB here)
    N = 100_000
    BLOCKS = 10 * 8 * BLOCK

    @pytest.fixture(params=[None, 30.0], ids=["unpolarized", "linear"])
    def runs(self, request):
        stack = FilterStack(np.cumsum(np.random.default_rng(3).normal(0.0, 0.01, self.N)))
        angle = None if request.param is None else deg(request.param)
        return (lambda: run_classical(ClassicalBeam(1.0, angle), stack),
                lambda: run_quantum_exact(PhotonInput(angle), stack))

    def test_classical_holds_its_intensities_and_one_temporary(self, runs):
        # measured: 2.0 block columns, the kept head among them
        _, peak = _traced_peak(runs[0])
        assert peak < self.BLOCKS, peak

    def test_quantum_holds_one_column_and_one_temporary(self, runs):
        # measured: 4.1 block columns; the Born kernel's sines and cosines
        # are two of them
        _, peak = _traced_peak(runs[1])
        assert peak < self.BLOCKS, peak

    def test_compare_holds_its_differences_and_one_temporary(self, runs):
        # both columns are folded again, a block at a time, beside the
        # blocks of the step before; measured: 8.2 block columns
        classical, quantum = runs[0](), runs[1]()
        report, peak = _traced_peak(lambda: compare(classical, quantum, 1e-9))
        assert report.passed
        assert peak < self.BLOCKS, peak

    def test_a_column_read_holds_the_column_and_a_few_blocks(self, runs):
        # each read folds the column again into one new array
        for trace in (runs[0](), runs[1]()):
            for name in ("classical_intensity_after", "stage_pass_probability",
                         "cumulative_probability"):
                column, peak = _traced_peak(lambda: getattr(trace, name))
                if column is not None:
                    assert len(column) == self.N
                    assert peak < 8 * self.N + self.BLOCKS, (name, peak)


class TestCompare:
    def test_three_filter_agreement(self):
        stack = stack_of(0, 45, 90)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        report = compare(classical, quantum, 1e-12)
        assert report.passed
        assert report.max_difference <= 1e-12

    def test_perpendicular_agreement(self):
        stack = stack_of(0, 90)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        assert compare(classical, quantum, 1e-12).passed

    def test_stack_mismatch_rejected(self):
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack_of(0, 45))
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack_of(0, 60))
        with pytest.raises(ComparisonDomainError):
            compare(classical, quantum, 1e-9)

    def test_input_kind_mismatch_rejected(self):
        stack = stack_of(0, 45)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.pure_ket(deg(0)), stack)
        with pytest.raises(ComparisonDomainError):
            compare(classical, quantum, 1e-9)

    def test_linear_angle_mismatch_rejected(self):
        stack = stack_of(45)
        classical = run_classical(ClassicalBeam.linear(deg(10), 1.0), stack)
        quantum = run_quantum_exact(PhotonInput.pure_ket(deg(20)), stack)
        with pytest.raises(ComparisonDomainError):
            compare(classical, quantum, 1e-9)

    def test_two_quantum_traces_rejected(self):
        stack = stack_of(45)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        with pytest.raises(ComparisonDomainError):
            compare(quantum, quantum, 1e-9)

    def test_classical_trace_second_rejected(self):
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack_of(45))
        with pytest.raises(ComparisonDomainError, match="^second trace must come from the quantum engine$"):
            compare(classical, classical, 1e-9)

    def test_a_trace_holds_only_its_engines_column(self):
        # a trace keeps one block of its engine's column, so it has no column
        # to be missing, and the other engine's columns read None
        stack = stack_of(0, 0)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        assert [field.name for field in dataclasses.fields(classical)] == [
            "input_description", "stack", "final_transmitted_fraction", "_head"]
        assert classical.classical_intensity_after.tolist() == [0.5, 0.5]
        assert classical.stage_pass_probability is None
        assert classical.cumulative_probability is None
        assert quantum.classical_intensity_after is None
        assert quantum.stage_pass_probability.tolist() == [0.5, 1.0]
        assert quantum.cumulative_probability.tolist() == [0.5, 0.5]
        with pytest.raises(ComparisonDomainError, match="^second trace must come from the quantum engine$"):
            compare(classical, classical, 1e-9)

    @pytest.mark.parametrize("tolerance", [math.nan, -1e-9, math.inf])
    def test_invalid_tolerance_rejected(self, tolerance):
        stack = stack_of(0, 45)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        with pytest.raises(ValueError, match="tolerance"):
            compare(classical, quantum, tolerance)

    def test_wrong_types_rejected_at_construction(self):
        stack = stack_of(0, 45)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        # each once failed later, with AttributeError or TypeError
        cases = [
            ("angle", lambda: PhotonInput(angle=30.0)),
            ("plane", lambda: ClassicalBeam(1.0, plane=30.0)),
            ("tolerance", lambda: compare(classical, quantum, "1e-9")),
            ("input", lambda: MonteCarloConfig(10, 1, None, stack)),
            ("stack", lambda: MonteCarloConfig(10, 1, PhotonInput.unpolarized(), [0.0, 1.0])),
        ]
        for field, build in cases:
            with pytest.raises(ValueError, match=f"^{field} "):
                build()

    @pytest.mark.parametrize("plane", [None, deg(10)])
    def test_dark_classical_input_rejected(self, plane):
        # a dark beam has no transmitted fraction; its trace once "failed"
        # against the quantum one with max_diff 0.5
        stack = stack_of(0, 45, 90)
        classical = run_classical(ClassicalBeam(0.0, plane), stack)
        quantum = run_quantum_exact(PhotonInput(plane), stack)
        with pytest.raises(ComparisonDomainError, match="dark"):
            compare(classical, quantum, 1e-9)

    def test_stage_differences_are_an_array(self):
        stack = stack_of(0, 45, 90)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        report = compare(classical, quantum, 1e-9)
        assert report.stage_differences.dtype == np.float64
        np.testing.assert_array_equal(
            report.stage_differences,
            np.abs(classical.classical_intensity_after - quantum.cumulative_probability),
        )

    def test_empty_stacks_compare_equal(self):
        classical = run_classical(ClassicalBeam.unpolarized(1.0), FilterStack())
        quantum = run_quantum_exact(PhotonInput.unpolarized(), FilterStack())
        report = compare(classical, quantum, 1e-12)
        assert report.passed
        assert report.final_difference == 0.0


class TestMonteCarlo:
    def test_rejects_zero_photons(self):
        for count in (0, True, 1000.0, 2**63):
            with pytest.raises(ValueError):
                MonteCarloConfig(
                    photon_count=count, seed=1, input=PhotonInput.unpolarized(), stack=stack_of(0)
                )

    def test_rejects_out_of_range_seed(self):
        for seed in (-1, 2**64, False, 1.0):
            with pytest.raises(ValueError):
                MonteCarloConfig(
                    photon_count=1, seed=seed, input=PhotonInput.unpolarized(), stack=stack_of(0)
                )

    def test_rejects_non_integer_workers(self):
        config = MonteCarloConfig(
            photon_count=1, seed=1, input=PhotonInput.unpolarized(), stack=stack_of(0)
        )
        for workers in (1.5, 2.0, True, "2", 0):
            with pytest.raises(ValueError, match="workers"):
                run_monte_carlo(config, workers=workers)

    @pytest.mark.parametrize(
        "count,seed", [(np.int64(1000), np.uint64(2**64 - 1)), (np.int32(1000), np.int64(7))]
    )
    def test_accepts_numpy_integers(self, count, seed):
        config = MonteCarloConfig(
            photon_count=count, seed=seed, input=PhotonInput.unpolarized(), stack=stack_of(0)
        )
        assert type(config.photon_count) is int and type(config.seed) is int
        assert config == MonteCarloConfig(
            photon_count=int(count),
            seed=int(seed),
            input=PhotonInput.unpolarized(),
            stack=stack_of(0),
        )

    def test_perpendicular_transmits_nothing(self):
        config = MonteCarloConfig(
            photon_count=100_000,
            seed=123,
            input=PhotonInput.pure_ket(deg(0)),
            stack=stack_of(90),
        )
        report = run_monte_carlo(config)
        assert report.transmitted_count == 0
        assert report.estimate == 0.0
        assert report.standard_error == 0.0
        assert report.confidence_interval_95[0] == 0.0
        assert report.confidence_interval_95[1] > 0.0

    def test_empty_stack_transmits_everything(self):
        config = MonteCarloConfig(
            photon_count=1000, seed=5, input=PhotonInput.unpolarized(), stack=FilterStack()
        )
        report = run_monte_carlo(config)
        assert report.per_stage_survivor_counts.tolist() == []
        assert report.transmitted_count == 1000
        assert report.estimate == 1.0

    def test_identical_config_is_bit_identical(self):
        config = MonteCarloConfig(
            photon_count=200_000,
            seed=987654321,
            input=PhotonInput.unpolarized(),
            stack=stack_of(0, 45, 90),
        )
        a = run_monte_carlo(config)
        b = run_monte_carlo(config)
        assert a == b

    def test_survivor_counts_are_a_read_only_int64_array(self):
        config = MonteCarloConfig(
            photon_count=1000, seed=9, input=PhotonInput.pure_ket(deg(0)), stack=stack_of(30, 120, 0)
        )
        report = run_monte_carlo(config)
        counts = report.per_stage_survivor_counts
        assert counts.dtype == np.int64 and counts.shape == (3,)
        assert not counts.flags.writeable
        # crossed at stage 2: the chain stops and the later stages stay 0
        assert counts[0] > 0 and counts[1:].tolist() == [0, 0]
        assert report.transmitted_count == 0
        empty = run_monte_carlo(MonteCarloConfig(5, 9, PhotonInput.unpolarized(), FilterStack()))
        assert empty.per_stage_survivor_counts.dtype == np.int64
        assert not empty.per_stage_survivor_counts.flags.writeable

    def test_reports_compare_and_hash_by_value(self):
        config = MonteCarloConfig(
            photon_count=5000, seed=4, input=PhotonInput.unpolarized(), stack=stack_of(0, 45, 90)
        )
        report, twin = run_monte_carlo(config), run_monte_carlo(config, workers=2)
        assert report is not twin and report == twin and hash(report) == hash(twin)
        other = run_monte_carlo(MonteCarloConfig(5000, 5, config.input, config.stack))
        assert other != report
        # any other type is unequal, as a plain bool; the counts array once
        # answered element by element
        assert (report != report.per_stage_survivor_counts) is True
        assert (report == report.per_stage_survivor_counts) is False

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_does_not_change_results(self, workers):
        config = MonteCarloConfig(
            photon_count=300_000,
            seed=2718281828,
            input=PhotonInput.unpolarized(),
            stack=stack_of(10, 40, 70, 100),
        )
        assert run_monte_carlo(config, workers=workers) == run_monte_carlo(config)

    @pytest.mark.parametrize("chunk", [4097, 1000])
    @pytest.mark.parametrize(
        "photon_input",
        [PhotonInput.unpolarized(), PhotonInput.pure_ket(angle_from_degrees(25))],
        ids=["unpolarized", "linear"],
    )
    def test_chunk_size_does_not_change_results(self, monkeypatch, chunk, photon_input):
        config = MonteCarloConfig(
            photon_count=200_001,
            seed=1618033988,
            input=photon_input,
            stack=stack_of(10, 40, 70, 100),
        )
        expected = run_monte_carlo(config)
        monkeypatch.setattr(engines, "_CHUNK_SIZE", chunk)
        for workers in (1, 2):
            assert run_monte_carlo(config, workers=workers) == expected

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize(
        "photon_input",
        [PhotonInput.unpolarized(), PhotonInput.pure_ket(angle_from_degrees(25))],
        ids=["unpolarized", "linear"],
    )
    def test_stage_one_reads_one_stream_in_photon_order(self, monkeypatch, seed, photon_input):
        # photon i passes filter 1 by doubles 2i and 2i + 1 of the seed's
        # stream, read whole: whatever the chunk size and the shares
        stack = stack_of(10, 40, 70)
        p_first = run_quantum_exact(photon_input, stack).stage_pass_probability[0]
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for n in (1, 2, 1001, 65_537):
            u = np.random.Generator(np.random.Philox(key=seed)).random((n, 2))
            if photon_input.is_unpolarized:
                expected = np.count_nonzero(engines._passes_first(u[:, 0], u[:, 1], stack.radians[0]))
            else:
                expected = np.count_nonzero(u[:, 0] < p_first)
            config = MonteCarloConfig(n, seed, photon_input, stack)
            for chunk in (3, 4097, engines._CHUNK_SIZE) if n <= 1001 else (4097, engines._CHUNK_SIZE):
                monkeypatch.setattr(engines, "_CHUNK_SIZE", chunk)
                for workers in (1, 2, 3):
                    report = run_monte_carlo(config, workers=workers)
                    assert report.per_stage_survivor_counts[0] == expected, (n, chunk, workers)

    def test_effective_workers_capped_by_chunks_and_cpus(self):
        assert engines._effective_workers(100_000, 150_000, 2) == 2
        assert engines._effective_workers(8, 3, 64) == 3
        assert engines._effective_workers(1, 10, 64) == 1
        assert engines._effective_workers(4, 10, None) == 1

    def test_pool_gets_capped_workers(self, monkeypatch):
        # the helpers are plain threads, each started once
        started, shares = [], []
        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread)
            start(thread)

        def recorded(config, p_first, lo, hi, stop):
            shares.append((lo, hi))
            return count(config, p_first, lo, hi, stop)

        config = MonteCarloConfig(
            photon_count=10 * engines._CHUNK_SIZE + 1,
            seed=99,
            input=PhotonInput.unpolarized(),
            stack=stack_of(10, 40),
        )
        expected = run_monte_carlo(config)
        count = engines._first_stage_survivors
        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        monkeypatch.setattr(engines, "_first_stage_survivors", recorded)
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert run_monte_carlo(config, workers=100_000) == expected
        # min(workers, chunks, CPUs) = 3 shares: the caller's and 2 helpers'
        assert len(started) == 2
        # contiguous runs that start on even photons and cover [0, n) once
        edges = sorted(shares)
        assert len(edges) == 3 and edges[0][0] == 0 and edges[-1][1] == config.photon_count
        assert all(hi == lo for (_, hi), (lo, _) in zip(edges, edges[1:]))
        assert all(lo % 2 == 0 and lo < hi for lo, hi in edges)

    def test_one_share_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a one-share run started a thread")

        config = MonteCarloConfig(
            photon_count=3 * engines._CHUNK_SIZE + 1,
            seed=5,
            input=PhotonInput.unpolarized(),
            stack=stack_of(10, 40),
        )
        two_shares = run_monte_carlo(config, workers=2)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run_monte_carlo(config) == two_shares

    def test_threads_are_capped_by_the_cpus_this_process_may_use(self, monkeypatch):
        # under a one-CPU affinity mask, --workers 8 runs on the calling thread
        def no_thread(self):
            raise AssertionError("a thread started on a one-CPU affinity mask")

        config = MonteCarloConfig(
            photon_count=300_000,
            seed=2718281828,
            input=PhotonInput.pure_ket(angle_from_degrees(25)),
            stack=stack_of(10, 40, 70, 100),
        )
        expected = run_monte_carlo(config, workers=8)
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(engines.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run_monte_carlo(config, workers=8) == expected

    def test_a_helper_share_error_reaches_the_caller(self, monkeypatch):
        count = engines._first_stage_survivors

        def failing(config, p_first, lo, hi, stop):
            if lo > 0:
                raise RuntimeError("helper share failed")
            return count(config, p_first, lo, hi, stop)

        config = MonteCarloConfig(
            photon_count=4 * engines._CHUNK_SIZE,
            seed=8,
            input=PhotonInput.unpolarized(),
            stack=stack_of(10, 40),
        )
        monkeypatch.setattr(engines, "_first_stage_survivors", failing)
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(RuntimeError, match="^helper share failed$"):
            run_monte_carlo(config, workers=2)

    def test_many_shares_on_few_cores_keep_every_count(self, monkeypatch):
        # 8 shares of 25 chunks on an 8-CPU mask, switching threads as often
        # as the interpreter allows: a lost or doubled share changes a count
        config = MonteCarloConfig(200_001, 12, PhotonInput.unpolarized(), stack_of(10, 40, 70))
        expected = run_monte_carlo(config)
        monkeypatch.setattr(engines, "_CHUNK_SIZE", 1000)
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert run_monte_carlo(config, workers=8) == expected
        finally:
            sys.setswitchinterval(interval)

    def _chunks_of_one_share(self, monkeypatch, counted_thread):
        # 2 shares of 100 1000-photon chunks; each chunk of the share that
        # `counted_thread(thread)` picks is logged and lasts 2 ms more, far
        # longer than a failing share takes to set the stop event
        chunks = []
        screened = engines._screened_passes

        def counted(*args):
            if counted_thread(threading.current_thread()):
                chunks.append(None)
                time.sleep(0.002)
            return screened(*args)

        monkeypatch.setattr(engines, "_screened_passes", counted)
        monkeypatch.setattr(engines, "_CHUNK_SIZE", 1000)
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return chunks

    @staticmethod
    def _wait_for(chunks, n):
        deadline = time.monotonic() + 10
        while len(chunks) < n:
            assert time.monotonic() < deadline, "the other share never got under way"
            time.sleep(0.001)

    def test_an_interrupted_caller_stops_its_helper_within_one_chunk(self, monkeypatch):
        caller = threading.current_thread()
        chunks = self._chunks_of_one_share(monkeypatch, lambda thread: thread is not caller)
        raised_at = []
        count = engines._first_stage_survivors

        def interrupted(config, p_first, lo, hi, stop):
            if lo > 0:
                return count(config, p_first, lo, hi, stop)
            self._wait_for(chunks, 2)
            raised_at.append(len(chunks))
            raise KeyboardInterrupt

        config = MonteCarloConfig(200_000, 8, PhotonInput.unpolarized(), stack_of(10, 40))
        monkeypatch.setattr(engines, "_first_stage_survivors", interrupted)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(config, workers=2)
        # the helper was joined, after at most one more chunk
        assert threading.active_count() == threads
        assert raised_at[0] <= len(chunks) <= raised_at[0] + 1

    def test_a_failing_helper_stops_share_0_within_one_chunk(self, monkeypatch):
        caller = threading.current_thread()
        chunks = self._chunks_of_one_share(monkeypatch, lambda thread: thread is caller)
        failed_at = []
        error = RuntimeError("helper share failed")
        count = engines._first_stage_survivors

        def failing(config, p_first, lo, hi, stop):
            if lo == 0:
                return count(config, p_first, lo, hi, stop)
            self._wait_for(chunks, 2)
            failed_at.append(len(chunks))
            raise error

        config = MonteCarloConfig(200_000, 8, PhotonInput.unpolarized(), stack_of(10, 40))
        monkeypatch.setattr(engines, "_first_stage_survivors", failing)
        with pytest.raises(RuntimeError) as raised:
            run_monte_carlo(config, workers=2)
        # the helper's own exception, after at most one more chunk of share 0
        assert raised.value is error
        assert failed_at[0] <= len(chunks) <= failed_at[0] + 1

    def test_stage_survival_is_binomial_over_many_seeds(self):
        # given the count before it, each stage's count is Binomial(count, p_j):
        # pooled over seeds the pass fraction matches p_j, and its spread
        # across seeds is binomial (a chain that rounded count * p_j would
        # pass the first check and fail the second). Stage 1 is unpolarized
        # input at an odd axis, which must pass exactly half.
        stats = pytest.importorskip("scipy.stats")
        stack = stack_of(33.7, 60, 100, 150, 20, 65)
        probs = run_quantum_exact(PhotonInput.unpolarized(), stack).stage_pass_probability
        assert probs[0] == 0.5
        n, seeds = 5000, range(200)

        def counts_for(seed):
            config = MonteCarloConfig(
                photon_count=n, seed=seed, input=PhotonInput.unpolarized(), stack=stack
            )
            return (n, *run_monte_carlo(config).per_stage_survivor_counts)

        counts = np.array([counts_for(seed) for seed in seeds])
        for j, p in enumerate(probs):
            before, after = counts[:, j], counts[:, j + 1]
            assert stats.binomtest(int(after.sum()), int(before.sum()), p).pvalue > 1e-4
            chi2 = np.sum((after - before * p) ** 2 / (before * p * (1.0 - p)))
            assert 1e-4 < stats.chi2.cdf(chi2, len(seeds)) < 1.0 - 1e-4

    def test_memory_is_bounded_by_the_chunk_not_the_stack(self):
        # one double per photon per filter in a 32 768-photon chunk would be
        # ~80 MB for this stack
        config = MonteCarloConfig(
            photon_count=70_000,
            seed=3,
            input=PhotonInput.unpolarized(),
            stack=FilterStack(np.linspace(0.0, np.pi / 2, 300)),
        )
        tracemalloc.start()
        try:
            report = run_monte_carlo(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.transmitted_count > 0
        assert peak < 8 * 2**20

    def test_the_chain_walks_only_the_blocks_photons_reach(self):
        # 1000 photons die out within the first block of 10^6 random filters:
        # the run holds its counts column, and stage probabilities and draws
        # for one block (a whole probability column would be 8n bytes more)
        n = 1_000_000
        stack = FilterStack(np.random.default_rng(5).uniform(0.0, np.pi, n))
        config = MonteCarloConfig(1000, 7, PhotonInput.unpolarized(), stack)
        report, peak = _traced_peak(lambda: run_monte_carlo(config))
        counts = report.per_stage_survivor_counts
        assert counts[0] > 0 and not counts[engines._BLOCK:].any()
        assert peak < 8 * n + 64 * engines._BLOCK, peak

    def test_the_chain_generator_is_made_before_any_share_starts(self, monkeypatch):
        # numpy imports numpy.random on first use: made first, the chain's
        # generator imports it in the calling thread, and no share starts it
        # while another share allocates its draws
        philox, counters = np.random.Philox, []

        def recording(**kwargs):
            counters.append(kwargs["counter"])
            return philox(**kwargs)

        monkeypatch.setattr(np.random, "Philox", recording)
        config = MonteCarloConfig(4 * engines._CHUNK_SIZE, 3, PhotonInput.unpolarized(),
                                  stack_of(0, 45))
        run_monte_carlo(config, workers=2)
        assert counters[0] == engines._CHAIN_COUNTER and len(counters) >= 2

    def test_report_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            stack = random_stack(rng, max_len=5)
            config = MonteCarloConfig(
                photon_count=int(rng.integers(1, 5000)),
                seed=int(rng.integers(0, 2**63)),
                input=PhotonInput.unpolarized(),
                stack=stack,
            )
            r = run_monte_carlo(config)
            counts = (config.photon_count, *r.per_stage_survivor_counts.tolist())
            assert all(b <= a for a, b in zip(counts, counts[1:]))
            assert r.transmitted_count == counts[-1]
            assert r.estimate == r.transmitted_count / config.photon_count
            lo, hi = r.confidence_interval_95
            assert 0.0 <= lo <= r.estimate <= hi <= 1.0

    def test_estimate_matches_exact_engine_within_4_sigma(self):
        n = 100_000
        config = MonteCarloConfig(
            photon_count=n,
            seed=42,
            input=PhotonInput.pure_ket(deg(0)),
            stack=stack_of(45, 90),
        )
        report = run_monte_carlo(config)
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(report.estimate - 0.25) <= 4 * sigma

    def test_quarter_scenario_at_one_million_photons(self):
        n = 1_000_000
        config = MonteCarloConfig(
            photon_count=n,
            seed=42,
            input=PhotonInput.pure_ket(deg(0)),
            stack=stack_of(45, 90),
        )
        report = run_monte_carlo(config)
        # 4 sigma for p = 1/4 at this n
        assert 4 * math.sqrt(0.25 * 0.75 / n) <= 0.00174
        assert abs(report.estimate - 0.25) <= 0.00174

    def test_unpolarized_sampling_matches_density_engine_at_odd_axis(self):
        # uniform-angle photons must reproduce the I/2 halving at any
        # first-filter orientation, not just the textbook 0 degrees
        n = 200_000
        config = MonteCarloConfig(
            photon_count=n,
            seed=7,
            input=PhotonInput.unpolarized(),
            stack=stack_of(33.7),
        )
        report = run_monte_carlo(config)
        sigma = math.sqrt(0.5 * 0.5 / n)
        assert abs(report.estimate - 0.5) <= 4 * sigma


# Survivor counts through the stack (a, a + 60, a + 120) degrees, keyed by
# (input plane in degrees, None for unpolarized; first axis a) and then by
# (seed, photons). Measured once and pinned: a sampling kernel or Philox layout
# that moves any count by one photon fails here. 65 537 photons end on a
# one-photon chunk; 179.999999 degrees puts the axis just below pi.
MC_GOLDEN = {
    (None, 0.0): {
        (0, 1): (1, 0, 0),
        (0, 65_537): (32604, 8285, 2056),
        (0, 200_001): (100093, 25258, 6288),
        (42, 1): (0, 0, 0),
        (42, 65_537): (32796, 8205, 2104),
        (42, 200_001): (100089, 25031, 6350),
        (2**64 - 1, 1): (1, 0, 0),
        (2**64 - 1, 65_537): (32527, 8246, 2084),
        (2**64 - 1, 200_001): (99858, 25165, 6323),
    },
    (None, 45.0): {
        (0, 1): (1, 0, 0),
        (0, 65_537): (32926, 8366, 2076),
        (0, 200_001): (100030, 25242, 6284),
        (42, 1): (1, 1, 0),
        (42, 65_537): (32909, 8233, 2111),
        (42, 200_001): (100002, 25009, 6344),
        (2**64 - 1, 1): (0, 0, 0),
        (2**64 - 1, 65_537): (32842, 8325, 2104),
        (2**64 - 1, 200_001): (100202, 25252, 6345),
    },
    (None, 90.0): {
        (0, 1): (1, 0, 0),
        (0, 65_537): (32762, 8324, 2066),
        (0, 200_001): (99744, 25170, 6266),
        (42, 1): (0, 0, 0),
        (42, 65_537): (32696, 8180, 2098),
        (42, 200_001): (99951, 24996, 6341),
        (2**64 - 1, 1): (1, 0, 0),
        (2**64 - 1, 65_537): (32842, 8325, 2104),
        (2**64 - 1, 200_001): (100003, 25202, 6332),
    },
    (None, 179.999999): {
        (0, 1): (1, 0, 0),
        (0, 65_537): (32604, 8285, 2056),
        (0, 200_001): (100093, 25258, 6288),
        (42, 1): (0, 0, 0),
        (42, 65_537): (32796, 8205, 2104),
        (42, 200_001): (100089, 25031, 6350),
        (2**64 - 1, 1): (1, 0, 0),
        (2**64 - 1, 65_537): (32527, 8245, 2084),
        (2**64 - 1, 200_001): (99858, 25165, 6323),
    },
    (25.0, 0.0): {
        (0, 1): (1, 0, 0),
        (0, 65_537): (53840, 13632, 3389),
        (0, 200_001): (164194, 41349, 10303),
        (42, 1): (1, 1, 0),
        (42, 65_537): (53948, 13494, 3440),
        (42, 200_001): (164378, 41106, 10394),
        (2**64 - 1, 1): (1, 0, 0),
        (2**64 - 1, 65_537): (53900, 13623, 3432),
        (2**64 - 1, 200_001): (164425, 41365, 10380),
    },
}


def golden_config(plane, first, seed, photons):
    photon_input = PhotonInput.unpolarized() if plane is None else PhotonInput.pure_ket(deg(plane))
    return MonteCarloConfig(photons, seed, photon_input, stack_of(first, first + 60, first + 120))


@functools.cache
def golden_report(plane, first, seed, photons, workers):
    # each golden run is made once a worker count, for every test that reads
    # it; a report is frozen and its counts are read-only
    return run_monte_carlo(golden_config(plane, first, seed, photons), workers=workers)


class TestGoldenCounts:
    @pytest.mark.parametrize(
        "plane,first,seed,photons",
        [(*key, *run) for key, runs in MC_GOLDEN.items() for run in runs],
    )
    def test_counts_are_pinned(self, plane, first, seed, photons):
        for workers in (1, 2):
            report = golden_report(plane, first, seed, photons, workers)
            counts = report.per_stage_survivor_counts.tolist()
            assert tuple(counts) == MC_GOLDEN[plane, first][seed, photons]

    @pytest.mark.parametrize("plane,first", list(MC_GOLDEN))
    def test_counts_are_pinned_with_odd_chunk_starts(self, monkeypatch, plane, first):
        # 4097-photon chunks: 16 of them, and every other one starts on an
        # odd photon, in the middle of a counter block
        monkeypatch.setattr(engines, "_CHUNK_SIZE", 4097)
        config = golden_config(plane, first, 2**64 - 1, 65_537)
        for workers in (1, 2):
            report = run_monte_carlo(config, workers=workers)
            counts = report.per_stage_survivor_counts.tolist()
            assert tuple(counts) == MC_GOLDEN[plane, first][2**64 - 1, 65_537]


def assert_statistics(report, k):
    # the statistics of k photons passing out of n, as the engine once stored them
    n = report.photon_count
    assert type(report.transmitted_count) is int and report.transmitted_count == k
    assert report.estimate == k / n
    assert report.standard_error == math.sqrt(k / n * (1.0 - k / n) / n)
    assert report.confidence_interval_95 == wilson_interval_95(k, n)


class TestMonteCarloReport:
    # a report stores its config and counts; its statistics are read from them
    def test_fields_are_the_config_and_the_counts(self):
        names = [field.name for field in dataclasses.fields(MonteCarloReport)]
        assert names == ["config", "per_stage_survivor_counts"]

    @pytest.mark.parametrize("plane,first", list(MC_GOLDEN))
    def test_golden_runs_at_1_2_and_3_workers(self, plane, first):
        for (seed, photons), counts in MC_GOLDEN[plane, first].items():
            reports = [golden_report(plane, first, seed, photons, w) for w in (1, 2, 3)]
            for report in reports:
                assert_statistics(report, counts[-1])
            assert reports[0] == reports[1] == reports[2]
            assert len({hash(report) for report in reports}) == 1

    def test_empty_stack_transmits_every_photon(self):
        config = MonteCarloConfig(1000, 5, PhotonInput.pure_ket(deg(10)), FilterStack())
        report = run_monte_carlo(config)
        assert report.per_stage_survivor_counts.tolist() == []
        assert_statistics(report, 1000)

    def test_extinct_chain_transmits_no_photon(self):
        config = MonteCarloConfig(1000, 9, PhotonInput.unpolarized(), stack_of(30, 120, 0))
        report = run_monte_carlo(config)
        assert report.per_stage_survivor_counts[0] > 0
        assert report.per_stage_survivor_counts[1:].tolist() == [0, 0]
        assert_statistics(report, 0)


def screen_cos2(v, axis):
    """The float32 cos^2 the screen computes: with u0 = 0 its margin is -cos^2."""
    u = np.column_stack((np.zeros_like(v), v))
    d = np.empty(len(v), np.float32)
    engines._screen(u, axis, d)
    return -d.astype(np.float64)


def float64_cos2(v, axis):
    c = np.cos(np.pi * v - axis)
    return c * c


def screened(u, axis):
    n = len(u)
    return engines._screened_passes(u, axis, np.empty(n, np.float32), np.empty(n, np.bool_))


# axes in [0, pi): a grid, the largest canonical axis and 179.999999 degrees
SCREEN_AXES = [
    *np.linspace(0.0, np.pi, 64, endpoint=False),
    np.nextafter(np.pi, 0.0),
    stack_of(179.999999).radians[0],
]


class TestStageOneScreen:
    def test_float32_cos2_within_a_tenth_of_the_margin(self):
        v = np.concatenate((np.linspace(0.0, 1.0, 1 << 14, endpoint=False), [1.0 - 2.0**-53]))
        worst = max(
            float(np.max(np.abs(screen_cos2(v, axis) - float64_cos2(v, axis))))
            for axis in SCREEN_AXES
        )
        assert worst <= engines._SCREEN_MARGIN / 10

    def test_near_ties_are_decided_by_the_float64_test(self, monkeypatch):
        # u0 exactly at the float64 cos^2 and one ulp either side of it: every
        # photon lands inside the margin, and only the float64 test gets the
        # one-ulp decisions right
        rng = np.random.default_rng(20241018)
        v = np.concatenate(([0.0, 0.5, 1.0 - 2.0**-53], rng.random(200)))
        oracle, fixed_up = engines._passes_first, []

        def recording_oracle(u0, v, axis):
            fixed_up.append(len(u0))
            return oracle(u0, v, axis)

        monkeypatch.setattr(engines, "_passes_first", recording_oracle)
        for axis in SCREEN_AXES[::8]:
            c2 = float64_cos2(v, axis)
            for u0 in (c2, np.nextafter(c2, -np.inf), np.nextafter(c2, np.inf)):
                u = np.column_stack((u0, v))
                expected = u0 < c2  # the float64 stage-1 test, written out
                assert np.array_equal(oracle(u0, v, axis), expected)
                decided = [screened(u[i : i + 1], axis) for i in range(len(u))]
                assert decided == expected.astype(int).tolist()
                assert screened(u, axis) == np.count_nonzero(expected)
        assert sum(fixed_up) == 2 * 3 * len(v) * len(SCREEN_AXES[::8])

    def test_screened_count_equals_the_float64_count(self):
        u = np.random.Generator(np.random.Philox(key=3)).random((1 << 16, 2))
        for axis in SCREEN_AXES:
            expected = np.count_nonzero(engines._passes_first(u[:, 0], u[:, 1], axis))
            assert screened(u, axis) == expected


# every library slot that takes an integer, and a function that fills it
_INTEGER_SLOTS = {
    "photon_count": lambda n: MonteCarloConfig(
        photon_count=n, seed=1, input=PhotonInput.unpolarized(), stack=stack_of(0)),
    "seed": lambda n: MonteCarloConfig(
        photon_count=1, seed=n, input=PhotonInput.unpolarized(), stack=stack_of(0)),
    "workers": lambda n: run_monte_carlo(MonteCarloConfig(
        photon_count=1, seed=1, input=PhotonInput.unpolarized(), stack=stack_of(0)), workers=n),
    "n": lambda n: staircase_transmission(n, deg(0), deg(90)),
    "successes": lambda n: wilson_interval_95(n, 10),
    "trials": lambda n: wilson_interval_95(1, n),
}


class TestIntegerSlots:
    @pytest.mark.parametrize("slot", sorted(_INTEGER_SLOTS))
    def test_every_integer_slot_rejects_numpy_times(self, slot):
        # numpy registers timedelta64 as an integer type: 3 s once escaped as
        # a TypeError from int(), and 3 ns was read as 3
        for value in (np.timedelta64(3, "s"), np.timedelta64(3, "ns")):
            with pytest.raises(ValueError, match=f"^{slot} must be an integer"):
                _INTEGER_SLOTS[slot](value)
        _INTEGER_SLOTS[slot](np.int64(3))


class TestWilsonInterval:
    def test_rejects_zero_trials(self):
        bad = [
            (0, 0, "trials"), (0, -3, "trials"), (5, 10.0, "trials"),
            (11, 10, "successes"), (-1, 10, "successes"), (2.5, 10, "successes"),
            (True, 10, "successes"),
        ]
        for successes, trials, name in bad:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                wilson_interval_95(successes, trials)

    def test_zero_successes_has_zero_lower_bound(self):
        lo, hi = wilson_interval_95(0, 100)
        assert lo == 0.0
        assert 0.0 < hi < 1.0

    def test_full_successes_has_unit_upper_bound(self):
        lo, hi = wilson_interval_95(100, 100)
        assert hi == 1.0
        assert 0.0 < lo < 1.0

    @pytest.mark.parametrize("successes,trials", [(1, 10), (5, 10), (250, 1000), (999, 1000)])
    def test_endpoints_solve_the_score_equation(self, successes, trials):
        # interior endpoints p satisfy (p_hat - p)^2 = z^2 p (1 - p) / n
        z = 1.959963984540054
        p_hat = successes / trials
        for p in wilson_interval_95(successes, trials):
            assert (p_hat - p) ** 2 == pytest.approx(
                z * z * p * (1.0 - p) / trials, abs=1e-12
            )

    @pytest.mark.parametrize("successes,trials", [(0, 7), (3, 7), (7, 7), (500, 10**6)])
    def test_brackets_the_point_estimate(self, successes, trials):
        lo, hi = wilson_interval_95(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


class TestStaircase:
    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            staircase_transmission(0, deg(0), deg(90))

    def test_rejects_non_integer_count(self):
        # a fractional n would space the filters so the last misses `end`
        for n in (2.5, True, 0):
            with pytest.raises(ValueError, match="integer n >= 1"):
                staircase_transmission(n, deg(0), deg(90))

    def test_single_step_is_the_perpendicular_case(self):
        trace = staircase_transmission(1, deg(0), deg(90))
        assert trace.final_transmitted_fraction == 0.0

    def test_two_steps_reproduce_the_quarter(self):
        trace = staircase_transmission(2, deg(0), deg(90))
        assert trace.final_transmitted_fraction == pytest.approx(0.25, abs=1e-12)

    def test_matches_closed_form(self):
        for n in (1, 2, 3, 5, 8, 90, 256, 1024):
            trace = staircase_transmission(n, deg(0), deg(90))
            closed = (math.cos((math.pi / 2) / n) ** 2) ** n
            assert trace.final_transmitted_fraction == pytest.approx(closed, abs=1e-12)

    def test_ninety_steps_near_full_transmission(self):
        trace = staircase_transmission(90, deg(0), deg(90))
        assert trace.final_transmitted_fraction == pytest.approx(0.9729554736448175, abs=1e-9)

    def test_transmission_increases_with_step_count(self):
        values = [
            staircase_transmission(n, deg(0), deg(90)).final_transmitted_fraction
            for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    def test_million_filters_keep_precision(self):
        # the folds multiply 10**6 factors near 1; the closed form in log1p
        # space is accurate to a few ulps, so this bounds the accumulated error
        n = 10**6
        quantum = staircase_transmission(n, deg(0), deg(90))
        classical = run_classical(ClassicalBeam.linear(deg(0), 1.0), quantum.stack)
        closed = math.exp(n * math.log1p(-math.sin((math.pi / 2) / n) ** 2))
        assert abs(quantum.final_transmitted_fraction - closed) <= 1e-9
        assert abs(classical.final_transmitted_fraction - closed) <= 1e-9
        gap = np.abs(classical.classical_intensity_after - quantum.cumulative_probability)
        assert gap.max() <= 1e-9

    def test_descending_staircase(self):
        up = staircase_transmission(8, deg(0), deg(90)).final_transmitted_fraction
        down = staircase_transmission(8, deg(90), deg(0)).final_transmitted_fraction
        assert down == pytest.approx(up, abs=1e-12)
