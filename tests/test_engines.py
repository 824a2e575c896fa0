"""Tests for the whole-stack engines and their mutual consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polcascade import engines
from polcascade.core import (
    Angle,
    ClassicalBeam,
    DensityMatrix2,
    FilterStack,
    Polarizer,
    angle_from_degrees,
    classical_transmit,
    density_pass_probability,
    ket,
    pass_probability,
)
from polcascade.engines import (
    ComparisonDomainError,
    MonteCarloConfig,
    PhotonInput,
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

    def test_intensity_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            stack = random_stack(rng)
            trace = run_classical(ClassicalBeam.unpolarized(1.0), stack)
            intensities = [1.0] + [s.classical_intensity_after for s in trace.stages]
            assert all(b <= a for a, b in zip(intensities, intensities[1:]))


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
    """Per-filter loop over the core functions: the classical intensity and
    the quantum cumulative probability after each stage."""
    if plane_deg is None:
        beam, state = ClassicalBeam.unpolarized(1.0), None
    else:
        beam, state = ClassicalBeam.linear(deg(plane_deg), 1.0), ket(deg(plane_deg))
    intensities, cumulative, running = [], [], 1.0
    for d in degrees:
        p = Polarizer.from_degrees(d)
        beam = classical_transmit(beam, p)
        intensities.append(beam.intensity)
        if state is None:
            # I/2 passes every axis with probability 1/2, up to the rounding
            # of the density-matrix product
            assert abs(density_pass_probability(DensityMatrix2.unpolarized(), p) - 0.5) <= 2.3e-16
            prob = 0.5
        else:
            prob = pass_probability(state, p)
        running = 0.0 if prob < 1e-15 else running * prob
        cumulative.append(running)
        state = ket(p.axis)
    return intensities, cumulative


class TestFoldsMatchOracle:
    @given(
        degrees=st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=40
        ),
        plane_deg=st.none() | st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    def test_bit_identical_to_per_filter_loop(self, degrees, plane_deg):
        stack = FilterStack.from_degrees(degrees)
        if plane_deg is None:
            beam, photons = ClassicalBeam.unpolarized(1.0), PhotonInput.unpolarized()
        else:
            beam = ClassicalBeam.linear(deg(plane_deg), 1.0)
            photons = PhotonInput.pure_ket(deg(plane_deg))
        intensities, cumulative = oracle_loop(degrees, plane_deg)
        classical = run_classical(beam, stack)
        quantum = run_quantum_exact(photons, stack)
        assert classical.classical_intensity_after.tolist() == intensities
        assert quantum.cumulative_probability.tolist() == cumulative
        assert classical.final_transmitted_fraction == intensities[-1]
        assert quantum.final_transmitted_fraction == cumulative[-1]


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

    @pytest.mark.parametrize("tolerance", [math.nan, -1e-9])
    def test_invalid_tolerance_rejected(self, tolerance):
        stack = stack_of(0, 45)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        with pytest.raises(ValueError, match="tolerance"):
            compare(classical, quantum, tolerance)

    def test_empty_stacks_compare_equal(self):
        classical = run_classical(ClassicalBeam.unpolarized(1.0), FilterStack())
        quantum = run_quantum_exact(PhotonInput.unpolarized(), FilterStack())
        report = compare(classical, quantum, 1e-12)
        assert report.passed
        assert report.final_difference == 0.0


class TestMonteCarlo:
    def test_rejects_zero_photons(self):
        for count in (0, True, 1000.0):
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
        assert report.per_stage_survivor_counts == ()
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

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_does_not_change_results(self, workers):
        config = MonteCarloConfig(
            photon_count=300_000,
            seed=2718281828,
            input=PhotonInput.unpolarized(),
            stack=stack_of(10, 40, 70, 100),
        )
        assert run_monte_carlo(config, workers=workers) == run_monte_carlo(config)

    @pytest.mark.parametrize("chunk", [7, 1000])
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
            counts = (config.photon_count,) + r.per_stage_survivor_counts
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


class TestWilsonInterval:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval_95(0, 0)

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

    def test_descending_staircase(self):
        up = staircase_transmission(8, deg(0), deg(90)).final_transmitted_fraction
        down = staircase_transmission(8, deg(90), deg(0)).final_transmitted_fraction
        assert down == pytest.approx(up, abs=1e-12)
