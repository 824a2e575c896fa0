"""Tests for command-line parsing, rendering, and exit codes."""

import pytest
from hypothesis import given, strategies as st

from polcascade.cli import (
    ExperimentSpec,
    UsageError,
    exit_policy,
    main,
    parse_spec,
    parse_stack_text,
    render_comparison,
    render_trace,
    run_experiment,
)
from polcascade.core import ClassicalBeam, FilterStack, angle_from_degrees
from polcascade.engines import (
    ComparisonReport,
    MonteCarloConfig,
    PhotonInput,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
)

# a 10-stage stack whose classical/quantum fractions differ by ~1e-16,
# which an absurdly tight tolerance must flag
ROUNDING_STACK = "47.0902,53.7284,146.5606,16.5449,108.0181,131.1409,33.8222,9.9264,49.4945,118.3379"


class TestParseSpec:
    def test_perpendicular_arrangement(self):
        spec = parse_spec(["--filters", "0,90", "--input", "unpolarized", "--mode", "classical"])
        assert spec.filters_deg == (0.0, 90.0)
        assert spec.input_kind == "unpolarized"
        assert spec.mode == "classical"

    def test_compare_defaults(self):
        spec = parse_spec(["--filters", "0,45,90", "--mode", "compare"])
        assert spec.input_kind == "unpolarized"
        assert spec.tolerance == 1e-9
        assert spec.intensity == 1.0
        assert spec.photons == 1_000_000
        assert spec.seed == 42

    def test_zero_photons_rejected(self):
        with pytest.raises(UsageError, match="--photons"):
            parse_spec(["--filters", "0,45,90", "--mode", "mc", "--photons", "0"])

    def test_linear_input(self):
        spec = parse_spec(["--mode", "quantum", "--input", "linear:30.5"])
        assert spec.input_kind == "linear"
        assert spec.input_angle_deg == 30.5

    def test_bad_input_kind_named(self):
        with pytest.raises(UsageError, match="circular"):
            parse_spec(["--mode", "quantum", "--input", "circular"])

    def test_bad_angle_token_named(self):
        with pytest.raises(UsageError, match="'45x'"):
            parse_spec(["--filters", "0,45x,90", "--mode", "classical"])

    def test_non_positive_intensity_rejected(self):
        with pytest.raises(UsageError, match="--intensity"):
            parse_spec(["--mode", "classical", "--intensity", "0"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError, match="--waveplate"):
            parse_spec(["--mode", "classical", "--waveplate", "5"])

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError, match="--seed"):
            parse_spec(["--mode", "mc", "--seed", "-3"])

    def test_missing_filters_means_empty_stack(self):
        spec = parse_spec(["--mode", "classical"])
        assert spec.filters_deg == ()

    def test_negative_angles_via_equals_form(self):
        spec = parse_spec(["--filters=-45,135", "--mode", "classical"])
        assert spec.filters_deg == (-45.0, 135.0)


class TestStackFile:
    def test_comments_and_blanks_ignored(self):
        text = "# polarizer angles\n0\n\n45  # diagonal\n90\n"
        assert parse_stack_text(text) == (0.0, 45.0, 90.0)

    def test_bad_line_is_located(self):
        with pytest.raises(UsageError, match="line 3"):
            parse_stack_text("0\n45\noops\n")

    def test_injected_text_is_used(self):
        spec = parse_spec(["--mode", "classical"], stack_file_text="0\n45\n90\n")
        assert spec.filters_deg == (0.0, 45.0, 90.0)

    def test_flags_override_file(self):
        spec = parse_spec(
            ["--filters", "10,20", "--mode", "classical"],
            stack_file_text="0\n45\n90\n",
        )
        assert spec.filters_deg == (10.0, 20.0)

    def test_read_from_disk(self, tmp_path):
        path = tmp_path / "stack.txt"
        path.write_text("0\n45\n90\n")
        spec = parse_spec(["--stack-file", str(path), "--mode", "classical"])
        assert spec.filters_deg == (0.0, 45.0, 90.0)

    def test_unreadable_file_named(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(UsageError, match="nope.txt"):
            parse_spec(["--stack-file", str(missing), "--mode", "classical"])


spec_strategy = st.builds(
    ExperimentSpec,
    mode=st.sampled_from(["classical", "quantum", "mc", "compare"]),
    filters_deg=st.tuples() | st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=6
    ).map(tuple),
    input_kind=st.just("unpolarized"),
    intensity=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    photons=st.integers(min_value=1, max_value=10**9),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    tolerance=st.floats(min_value=0, max_value=1.0, allow_nan=False),
    output_format=st.sampled_from(["tsv", "text"]),
    workers=st.integers(min_value=1, max_value=64),
)


class TestRoundTrip:
    @given(spec=spec_strategy)
    def test_canonical_argv_round_trips(self, spec):
        assert parse_spec(spec.to_argv()) == spec

    @given(angle=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_linear_input_round_trips(self, angle):
        spec = ExperimentSpec(
            mode="quantum", input_kind="linear", input_angle_deg=angle
        )
        assert parse_spec(spec.to_argv()) == spec


class TestRenderTrace:
    def test_classical_tsv_rows(self):
        trace = run_classical(
            ClassicalBeam.unpolarized(1.0), FilterStack.from_degrees([0, 45, 90])
        )
        lines = render_trace(trace, "tsv").splitlines()
        assert lines[0] == "stage\taxis_deg\tclassical_intensity\tstage_prob\tcumulative_prob"
        assert lines[1] == "1\t0\t0.5\t-\t-"
        assert lines[2] == "2\t45\t0.25\t-\t-"
        assert lines[3] == "3\t90\t0.125\t-\t-"
        assert lines[4] == "# final_fraction=0.125"

    def test_quantum_tsv_rows(self):
        trace = run_quantum_exact(
            PhotonInput.pure_ket(angle_from_degrees(0)),
            FilterStack.from_degrees([45, 90]),
        )
        lines = render_trace(trace, "tsv").splitlines()
        assert lines[1] == "1\t45\t-\t0.5\t0.5"
        assert lines[2] == "2\t90\t-\t0.5\t0.25"
        assert lines[3] == "# final_fraction=0.25"

    def test_empty_stack_header_only(self):
        trace = run_classical(ClassicalBeam.unpolarized(1.0), FilterStack())
        lines = render_trace(trace, "tsv").splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("stage\t")
        assert lines[1] == "# final_fraction=1"

    def test_mc_summary_line(self):
        config = MonteCarloConfig(
            photon_count=1000,
            seed=9,
            input=PhotonInput.unpolarized(),
            stack=FilterStack.from_degrees([0, 45, 90]),
        )
        out = render_trace(run_monte_carlo(config), "tsv")
        summary = out.splitlines()[-1]
        assert summary.startswith("# estimate=")
        assert "stderr=" in summary and "ci95=" in summary and "seed=9" in summary

    def test_text_format_mentions_fraction(self):
        trace = run_classical(ClassicalBeam.unpolarized(1.0), FilterStack.from_degrees([0]))
        out = render_trace(trace, "text")
        assert "transmitted fraction: 0.5" in out

    def test_identical_specs_render_identically(self):
        argv = ["--filters", "0,45,90", "--mode", "mc", "--photons", "20000"]
        out1, _ = run_experiment(parse_spec(argv))
        out2, _ = run_experiment(parse_spec(argv))
        assert out1 == out2


class TestExitPolicy:
    def test_compare_pass_is_zero(self):
        stack = FilterStack.from_degrees([0, 45, 90])
        report = compare(
            run_classical(ClassicalBeam.unpolarized(1.0), stack),
            run_quantum_exact(PhotonInput.unpolarized(), stack),
            1e-9,
        )
        assert exit_policy(report) == 0

    def test_absurd_tolerance_fails_on_rounding(self):
        stack = FilterStack.from_degrees(float(t) for t in ROUNDING_STACK.split(","))
        report = compare(
            run_classical(ClassicalBeam.unpolarized(1.0), stack),
            run_quantum_exact(PhotonInput.unpolarized(), stack),
            1e-18,
        )
        assert not report.passed
        assert exit_policy(report) == 1

    def test_traces_are_success(self):
        trace = run_classical(ClassicalBeam.unpolarized(1.0), FilterStack())
        assert exit_policy(trace) == 0


class TestMain:
    def test_classical_run(self, capsys):
        code = main(["--filters", "0,45,90", "--input", "unpolarized", "--mode", "classical"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# final_fraction=0.125" in out

    def test_compare_pass_run(self, capsys):
        code = main(["--filters", "0,45,90", "--mode", "compare", "--tolerance", "1e-12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# compare=pass" in out

    def test_compare_fail_run(self, capsys):
        code = main(["--filters", ROUNDING_STACK, "--mode", "compare", "--tolerance", "1e-18"])
        out = capsys.readouterr().out
        assert code == 1
        assert "# compare=fail" in out

    def test_usage_error_run(self, capsys):
        code = main(["--filters", "0,45,90", "--mode", "mc", "--photons", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--photons" in err

    def test_mc_run_deterministic_output(self, capsys):
        argv = ["--filters", "0,45,90", "--mode", "mc", "--photons", "50000", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--workers", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestComparisonRendering:
    def test_all_columns_filled(self):
        stack = FilterStack.from_degrees([0, 45, 90])
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        report = compare(classical, quantum, 1e-9)
        lines = render_comparison(classical, quantum, report, "tsv").splitlines()
        assert lines[1] == "1\t0\t0.5\t0.5\t0.5"
        assert lines[2] == "2\t45\t0.25\t0.5\t0.25"
        assert lines[3] == "3\t90\t0.125\t0.5\t0.125"
        assert lines[4] == "# final_fraction=0.125"
        assert lines[5].startswith("# compare=pass")
