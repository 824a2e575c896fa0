"""Tests for command-line parsing, rendering, and exit codes."""

import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polcascade import _cells, cli
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
        assert tuple(spec.filters_deg.tolist()) == (0.0, 90.0)
        assert spec.input_angle_deg is None
        assert spec.mode == "classical"

    def test_compare_defaults(self):
        spec = parse_spec(["--filters", "0,45,90", "--mode", "compare"])
        assert spec.input_angle_deg is None
        assert spec.tolerance == 1e-9
        assert spec.intensity == 1.0
        assert spec.photons == 1_000_000
        assert spec.seed == 42
        # a flag left out takes the spec's own default, which lives only there
        for mode in cli._MODES:
            assert parse_spec(["--mode", mode]) == ExperimentSpec(mode=mode)

    def test_help_states_the_spec_defaults(self):
        # each "(default X)" that -h prints, read with its flag's own converter,
        # is the ExperimentSpec field default the flag falls back to
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            parse_spec(["-h"])
        shown = " ".join(out.getvalue().split())
        default = re.compile(r"\(default:? ([^)]*)\)")
        stated = {}
        for action in cli._build_parser()._actions:
            found = default.search(action.help or "")
            if found:
                assert " ".join(action.help.split()) in shown
                convert = action.type or str
                stated[action.dest] = convert(found.group(1))
        assert len(default.findall(shown)) == len(stated)
        spec_defaults = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
        assert set(stated) == {"input_angle_deg", "intensity", "photons", "seed", "tolerance",
                               "output_format", "workers"}
        assert stated == {name: spec_defaults[name] for name in stated}
        assert stated["input_angle_deg"] is None  # "unpolarized"

    def test_zero_photons_rejected(self):
        for photons in ("0", str(2**63)):
            with pytest.raises(UsageError, match="--photons"):
                parse_spec(["--filters", "0,45,90", "--mode", "mc", "--photons", photons])

    def test_linear_input(self):
        spec = parse_spec(["--mode", "quantum", "--input", "linear:30.5"])
        assert spec.input_angle_deg == 30.5

    def test_bad_input_kind_named(self):
        with pytest.raises(UsageError, match="circular"):
            parse_spec(["--mode", "quantum", "--input", "circular"])

    def test_every_token_is_converted(self):
        # argparse converts each token as it reads it, so a malformed one is
        # an error even when a repeat of its flag or -h comes after it
        for tail in (["--workers=1.5", "--workers=1"], ["--photons", "x", "-h"]):
            with pytest.raises(UsageError, match="^argument --"):
                parse_spec(["--mode", "mc", *tail])

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
        assert tuple(spec.filters_deg.tolist()) == ()

    def test_negative_angles_via_equals_form(self):
        spec = parse_spec(["--filters=-45,135", "--mode", "classical"])
        assert tuple(spec.filters_deg.tolist()) == (-45.0, 135.0)


class TestStackFile:
    def test_comments_and_blanks_ignored(self):
        text = "# polarizer angles\n0\n\n45  # diagonal\n90\n"
        assert tuple(parse_stack_text(text).tolist()) == (0.0, 45.0, 90.0)

    def test_bad_line_is_located(self):
        with pytest.raises(UsageError, match="line 3"):
            parse_stack_text("0\n45\noops\n")

    def test_injected_text_is_used(self, tmp_path, monkeypatch):
        # parse_spec hands the file's text to the module-level parse_stack_text
        # (the name benchmarks/spans.py wraps) and keeps what it returns.
        path = tmp_path / "stack.txt"
        path.write_text("0\n45\n90\n")
        seen = []

        def fake_parse(text, source="stack file"):
            seen.append((text, source))
            return np.array([1.0, 2.0])

        monkeypatch.setattr(cli, "parse_stack_text", fake_parse)
        spec = parse_spec(["--stack-file", str(path), "--mode", "classical"])
        assert seen == [("0\n45\n90\n", str(path))]
        assert tuple(spec.filters_deg.tolist()) == (1.0, 2.0)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "stack.txt"
        path.write_text("0\n45\n90\n")
        spec = parse_spec(["--filters", "10,20", "--stack-file", str(path), "--mode", "classical"])
        assert tuple(spec.filters_deg.tolist()) == (10.0, 20.0)

    def test_read_from_disk(self, tmp_path):
        path = tmp_path / "stack.txt"
        path.write_text("0\n45\n90\n")
        spec = parse_spec(["--stack-file", str(path), "--mode", "classical"])
        assert tuple(spec.filters_deg.tolist()) == (0.0, 45.0, 90.0)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0\r\n45\r\n90\r\n", (0.0, 45.0, 90.0)),
            ("0\n   \n\t\n45\n \r\n", (0.0, 45.0)),
            ("12.5  # note\n", (12.5,)),
            ("0\n45", (0.0, 45.0)),
            ("", ()),
        ],
        ids=["crlf", "whitespace-lines", "trailing-comment", "no-final-newline", "empty"],
    )
    def test_line_forms(self, text, expected):
        assert tuple(parse_stack_text(text).tolist()) == expected

    def test_bad_line_deep_in_long_file_is_located(self):
        lines = [f"{i * 0.25}" for i in range(10_000)]
        lines[8_999] = "  9x  # typo"
        with pytest.raises(UsageError) as info:
            parse_stack_text("\n".join(lines) + "\n", source="walk.txt")
        assert str(info.value) == "walk.txt line 9000: not an angle in degrees: '9x'"

    @given(
        lines=st.lists(
            st.sampled_from(
                ["0", " 12.5 ", "-1e3", "45  # note", "# only", "", "  ", "\t", "x",
                 "1_0", "inf", "nan", "4#5", "\x0c", "7\r", "1 2"]
            ),
            max_size=12,
        ),
        sep=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_matches_line_by_line_reference(self, lines, sep):
        text = sep.join(lines)
        try:
            expected = _parse_line_by_line(text)
        except UsageError as exc:
            with pytest.raises(UsageError, match=re.escape(str(exc))):
                parse_stack_text(text)
        else:
            assert repr(tuple(parse_stack_text(text).tolist())) == repr(expected)  # nan != nan

    @given(
        lines=st.lists(
            st.sampled_from(
                ["0", " 12.5 ", "-1e3", "45  # note", "# only", "", "  ", "\t", "x",
                 "1_0", "inf", "nan", "4#5", "\x0c", "7\r", "1 2"]
            ),
            max_size=12,
        ),
        sep=st.sampled_from(["\n", "\r\n", "\r"]),
        chars=st.integers(min_value=0, max_value=8),
    )
    def test_pieces_split_no_line(self, lines, sep, chars):
        # a long text is parsed piece by piece; tiny pieces cut it everywhere
        text = sep.join(lines)

        def outcome(parse):
            try:
                return repr(tuple(parse(text)))
            except UsageError as exc:
                return str(exc)

        expected = outcome(_parse_line_by_line)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_PARSE_CHARS", chars)
            assert outcome(lambda t: parse_stack_text(t).tolist()) == expected

    @pytest.mark.parametrize("extra", [0, 1], ids=["piece-size", "piece-size-plus-one"])
    @pytest.mark.parametrize("line", ["{}.25", "{}.5  # c"], ids=["plain", "comments"])
    def test_text_at_the_piece_size(self, extra, line):
        # texts of _PARSE_CHARS characters and one more, cut mid-line
        n = cli._PARSE_CHARS + extra
        text = "\n".join(map(line.format, range(n // 5)))[:n]
        assert len(text) == n
        angles = parse_stack_text(text).tolist()
        assert tuple(angles) == _parse_line_by_line(text)
        assert len(angles) > 5_000

    def test_bad_line_in_a_later_piece_is_located(self):
        lines = [f"{i * 0.25}" for i in range(30_000)]
        lines[25_000] = "  9x  # typo"
        text = "\n".join(lines) + "\n"
        assert text.index("9x") > 2 * cli._PARSE_CHARS
        with pytest.raises(UsageError) as info:
            parse_stack_text(text, source="walk.txt")
        assert str(info.value) == "walk.txt line 25001: not an angle in degrees: '9x'"

    def test_unreadable_file_named(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(UsageError, match="nope.txt"):
            parse_spec(["--stack-file", str(missing), "--mode", "classical"])


def _rendered(render, *args):
    # what a renderer writes, read back from a StringIO
    out = io.StringIO()
    render(*args, out)
    return out.getvalue()


def _run(argv):
    # run_experiment's output, read back from a StringIO, and its result
    out = io.StringIO()
    result = run_experiment(parse_spec(argv), out)
    return out.getvalue(), result


def _parse_line_by_line(text):
    # reference: the stack-file rules applied one line at a time
    angles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                angles.append(float(line))
            except ValueError:
                raise UsageError(
                    f"stack file line {lineno}: not an angle in degrees: {line!r}"
                ) from None
    return tuple(angles)


spec_strategy = st.builds(
    ExperimentSpec,
    mode=st.sampled_from(["classical", "quantum", "mc", "compare"]),
    filters_deg=st.tuples() | st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=6
    ).map(tuple),
    intensity=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    photons=st.integers(min_value=1, max_value=10**9),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    tolerance=st.floats(min_value=0, max_value=1.0, allow_nan=False),
    output_format=st.sampled_from(["tsv", "text"]),
    workers=st.integers(min_value=1, max_value=64),
)


class TestRoundTrip:
    @given(spec=spec_strategy)
    @example(spec=ExperimentSpec(mode="compare", intensity=np.float64(2.5), tolerance=np.float32(1e-9)))
    @example(spec=ExperimentSpec(mode="mc", intensity=np.float32(0.3), tolerance=np.float64(1e-9)))
    def test_canonical_argv_round_trips(self, spec):
        assert parse_spec(spec.to_argv()) == spec

    @given(angle=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @example(angle=np.float64(-12.5))
    @example(angle=np.float32(25.3))
    def test_linear_input_round_trips(self, angle):
        spec = ExperimentSpec(mode="quantum", input_angle_deg=angle)
        assert parse_spec(spec.to_argv()) == spec


class TestRenderTrace:
    def test_classical_tsv_rows(self):
        trace = run_classical(
            ClassicalBeam.unpolarized(1.0), FilterStack.from_degrees([0, 45, 90])
        )
        lines = _rendered(render_trace, trace, "tsv").splitlines()
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
        lines = _rendered(render_trace, trace, "tsv").splitlines()
        assert lines[1] == "1\t45\t-\t0.5\t0.5"
        assert lines[2] == "2\t90\t-\t0.5\t0.25"
        assert lines[3] == "# final_fraction=0.25"

    def test_empty_stack_header_only(self):
        trace = run_classical(ClassicalBeam.unpolarized(1.0), FilterStack())
        lines = _rendered(render_trace, trace, "tsv").splitlines()
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
        out = _rendered(render_trace, run_monte_carlo(config), "tsv")
        summary = out.splitlines()[-1]
        assert summary.startswith("# estimate=")
        assert "stderr=" in summary and "ci95=" in summary and "seed=9" in summary

    def test_text_format_mentions_fraction(self):
        trace = run_classical(ClassicalBeam.unpolarized(1.0), FilterStack.from_degrees([0]))
        out = _rendered(render_trace, trace, "text")
        assert "transmitted fraction: 0.5" in out

    def test_identical_specs_render_identically(self):
        argv = ["--filters", "0,45,90", "--mode", "mc", "--photons", "20000"]
        out1, _ = _run(argv)
        out2, _ = _run(argv)
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


def _cli_env():
    # run the CLI of this checkout with buffered stdout, as in a shell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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

    def test_internal_error_run(self, capsys, monkeypatch):
        def crash(config, workers):
            raise MemoryError("no room for photons")

        monkeypatch.setattr(cli, "run_monte_carlo", crash)
        code = main(["--filters", "0,45,90", "--mode", "mc", "--photons", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "polcascade: internal error: MemoryError: no room for photons\n"

    def test_failed_write_is_an_internal_error(self, capsys, monkeypatch):
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStream())
        code = main(["--filters", "0,45,90", "--mode", "compare"])
        assert code == 3
        assert capsys.readouterr().err == (
            "polcascade: internal error: OSError: [Errno 28] No space left on device\n"
        )

    def test_writer_crash_after_first_block_exits_3(self, capsys, monkeypatch):
        write = cli._write

        def crash_after_first_block(table, output_format):
            yield next(write(table, output_format))
            raise RuntimeError("writer broke")

        monkeypatch.setattr(cli, "_write", crash_after_first_block)
        code = main(["--filters", "0,45,90", "--mode", "compare"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == TSV_HEADER
        assert captured.err == "polcascade: internal error: RuntimeError: writer broke\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_3_with_one_line(self):
        # buffered stdout, as in a shell: the interpreter's own flush at exit
        # must not fail again after main has reported the error
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "polcascade.cli", "--filters", "0,45,90", "--mode", "compare"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=60,
            )
        assert proc.returncode == 3
        assert proc.stderr == (
            "polcascade: internal error: OSError: [Errno 28] No space left on device\n"
        )

    def test_closed_pipe_exits_141_quietly(self, tmp_path):
        # ~1.3 MB of output, more than a pipe holds, so the run is still
        # writing when the reader goes away after the first line
        path = tmp_path / "walk.txt"
        path.write_text("".join(f"{a!r}\n" for a in np.random.default_rng(3).normal(0, 9, 20_000).tolist()))
        argv = [sys.executable, "-m", "polcascade.cli", "--stack-file", str(path), "--mode", "compare"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()
        ) as proc:
            assert proc.stdout.readline().decode() == TSV_HEADER
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""

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
        lines = _rendered(render_comparison, classical, quantum, report, "tsv").splitlines()
        assert lines[1] == "1\t0\t0.5\t0.5\t0.5"
        assert lines[2] == "2\t45\t0.25\t0.5\t0.25"
        assert lines[3] == "3\t90\t0.125\t0.5\t0.125"
        assert lines[4] == "# final_fraction=0.125"
        assert lines[5].startswith("# compare=pass")


TSV_HEADER = "stage\taxis_deg\tclassical_intensity\tstage_prob\tcumulative_prob\n"

# exact stdout of `--filters 0,45,90 --mode MODE --input INPUT --format FORMAT`
GOLDEN = {
    ("classical", "unpolarized", "tsv"): TSV_HEADER
    + "1\t0\t0.5\t-\t-\n"
    "2\t45\t0.25\t-\t-\n"
    "3\t90\t0.125\t-\t-\n"
    "# final_fraction=0.125\n",
    ("classical", "unpolarized", "text"): "input: unpolarized, intensity 1\n"
    "  stage 1: axis 0 deg, intensity 0.5\n"
    "  stage 2: axis 45 deg, intensity 0.25\n"
    "  stage 3: axis 90 deg, intensity 0.125\n"
    "transmitted fraction: 0.125\n",
    ("classical", "linear:10", "tsv"): TSV_HEADER
    + "1\t0\t0.969846310393\t-\t-\n"
    "2\t45\t0.484923155196\t-\t-\n"
    "3\t90\t0.242461577598\t-\t-\n"
    "# final_fraction=0.242461577598\n",
    ("classical", "linear:10", "text"): "input: linear at 10 deg, intensity 1\n"
    "  stage 1: axis 0 deg, intensity 0.969846310393\n"
    "  stage 2: axis 45 deg, intensity 0.484923155196\n"
    "  stage 3: axis 90 deg, intensity 0.242461577598\n"
    "transmitted fraction: 0.242461577598\n",
    ("quantum", "unpolarized", "tsv"): TSV_HEADER
    + "1\t0\t-\t0.5\t0.5\n"
    "2\t45\t-\t0.5\t0.25\n"
    "3\t90\t-\t0.5\t0.125\n"
    "# final_fraction=0.125\n",
    ("quantum", "unpolarized", "text"): "input: unpolarized photons\n"
    "  stage 1: axis 0 deg, pass prob 0.5, cumulative 0.5\n"
    "  stage 2: axis 45 deg, pass prob 0.5, cumulative 0.25\n"
    "  stage 3: axis 90 deg, pass prob 0.5, cumulative 0.125\n"
    "transmitted fraction: 0.125\n",
    ("quantum", "linear:10", "tsv"): TSV_HEADER
    + "1\t0\t-\t0.969846310393\t0.969846310393\n"
    "2\t45\t-\t0.5\t0.484923155196\n"
    "3\t90\t-\t0.5\t0.242461577598\n"
    "# final_fraction=0.242461577598\n",
    ("quantum", "linear:10", "text"): "input: photons polarized at 10 deg\n"
    "  stage 1: axis 0 deg, pass prob 0.969846310393, cumulative 0.969846310393\n"
    "  stage 2: axis 45 deg, pass prob 0.5, cumulative 0.484923155196\n"
    "  stage 3: axis 90 deg, pass prob 0.5, cumulative 0.242461577598\n"
    "transmitted fraction: 0.242461577598\n",
    ("compare", "unpolarized", "tsv"): TSV_HEADER
    + "1\t0\t0.5\t0.5\t0.5\n"
    "2\t45\t0.25\t0.5\t0.25\n"
    "3\t90\t0.125\t0.5\t0.125\n"
    "# final_fraction=0.125\n"
    "# compare=pass max_diff=5.55111512313e-17 tolerance=1e-09\n",
    ("compare", "unpolarized", "text"): "input: unpolarized, intensity 1\n"
    "  stage 1: axis 0 deg, intensity 0.5, cumulative prob 0.5\n"
    "  stage 2: axis 45 deg, intensity 0.25, cumulative prob 0.25\n"
    "  stage 3: axis 90 deg, intensity 0.125, cumulative prob 0.125\n"
    "classical fraction 0.125 vs quantum probability 0.125: "
    "pass (max diff 5.55111512313e-17, tolerance 1e-09)\n",
    ("compare", "linear:10", "tsv"): TSV_HEADER
    + "1\t0\t0.969846310393\t0.969846310393\t0.969846310393\n"
    "2\t45\t0.484923155196\t0.5\t0.484923155196\n"
    "3\t90\t0.242461577598\t0.5\t0.242461577598\n"
    "# final_fraction=0.242461577598\n"
    "# compare=pass max_diff=1.11022302463e-16 tolerance=1e-09\n",
    ("compare", "linear:10", "text"): "input: linear at 10 deg, intensity 1\n"
    "  stage 1: axis 0 deg, intensity 0.969846310393, cumulative prob 0.969846310393\n"
    "  stage 2: axis 45 deg, intensity 0.484923155196, cumulative prob 0.484923155196\n"
    "  stage 3: axis 90 deg, intensity 0.242461577598, cumulative prob 0.242461577598\n"
    "classical fraction 0.242461577598 vs quantum probability 0.242461577598: "
    "pass (max diff 1.11022302463e-16, tolerance 1e-09)\n",
}

# `--filters 0,45,90 --mode mc --photons 100000` at the default seed 42; the
# counts are pinned too, so a sampling kernel that drifts fails here
MC_GOLDEN = {
    "tsv": TSV_HEADER + "1\t0\t-\t0.50012\t0.50012\n"
    "2\t45\t-\t0.499840038391\t0.24998\n"
    "3\t90\t-\t0.504280342427\t0.12606\n"
    "# final_fraction=0.12606\n"
    "# estimate=0.12606 stderr=0.00104961362605 ci95=0.124017148658,0.12813157974 seed=42\n",
    "text": "input: unpolarized photons, 100000 photons, seed 42\n"
    "  stage 1: axis 0 deg, 50012 of 100000 photons passed\n"
    "  stage 2: axis 45 deg, 24998 of 50012 photons passed\n"
    "  stage 3: axis 90 deg, 12606 of 24998 photons passed\n"
    "transmitted fraction: 0.12606 (stderr 0.00104961362605, 95% CI [0.124017148658, 0.12813157974])\n",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("mode,input_kind,fmt", sorted(GOLDEN))
    def test_exact_bytes(self, capsys, mode, input_kind, fmt):
        argv = ["--filters", "0,45,90", "--mode", mode, "--input", input_kind, "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN[mode, input_kind, fmt]

    @pytest.mark.parametrize("fmt", ["tsv", "text"])
    def test_mc_exact_bytes(self, capsys, fmt):
        argv = ["--filters", "0,45,90", "--mode", "mc", "--photons", "100000", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == MC_GOLDEN[fmt]

    # each row is checked against the report itself, for any counts
    @pytest.mark.parametrize(
        "filters,input_kind",
        [("0,45,90", "unpolarized"), ("0,45,90", "linear:10"), ("90,45", "linear:0")],
    )
    def test_mc_rows_match_counts(self, filters, input_kind):
        def num(x):
            return format(x, ".12g")

        base = ["--filters", filters, "--mode", "mc", "--input", input_kind, "--photons", "1000"]
        tsv, report = _run(base + ["--format", "tsv"])
        text, _ = _run(base + ["--format", "text"])
        n = report.photon_count
        axes = filters.split(",")
        counts = report.per_stage_survivor_counts
        before = (n, *counts[:-1])
        assert len(counts) == len(axes)
        lo, hi = report.confidence_interval_95
        est, err = num(report.estimate), num(report.standard_error)

        tsv_lines = tsv.splitlines()
        assert tsv_lines[0] + "\n" == TSV_HEADER
        for i, (axis, c, p) in enumerate(zip(axes, counts, before), start=1):
            stage_prob = num(c / p) if p else "-"
            assert tsv_lines[i] == f"{i}\t{axis}\t-\t{stage_prob}\t{num(c / n)}"
        assert tsv_lines[len(axes) + 1:] == [
            f"# final_fraction={est}",
            f"# estimate={est} stderr={err} ci95={num(lo)},{num(hi)} seed=42",
        ]

        text_lines = text.splitlines()
        assert text_lines[0].endswith(", 1000 photons, seed 42")
        for i, (axis, c, p) in enumerate(zip(axes, counts, before), start=1):
            assert text_lines[i] == f"  stage {i}: axis {axis} deg, {c} of {p} photons passed"
        assert text_lines[len(axes) + 1:] == [
            f"transmitted fraction: {est} (stderr {err}, 95% CI [{num(lo)}, {num(hi)}])"
        ]


class TestRenderFormat:
    def test_unknown_format_rejected_by_both_renderers(self):
        stack = FilterStack.from_degrees([0, 45, 90])
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        report = compare(classical, quantum, 1e-9)
        with pytest.raises(ValueError, match="json"):
            _rendered(render_trace, classical, "json")
        with pytest.raises(ValueError, match="json"):
            _rendered(render_comparison, classical, quantum, report, "json")


class TestInputValidation:
    def test_non_utf8_stack_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "stack.bin"
        path.write_bytes(b"0\n\xff\n")
        assert main(["--stack-file", str(path), "--mode", "classical"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polcascade: error: --stack-file: cannot read")
        assert "stack.bin" in err

    def test_integer_fields_reject_non_integers(self):
        for name in ("photons", "seed", "workers"):
            for value in (10.5, 1.5, True, "3"):
                with pytest.raises(UsageError, match=f"--{name}"):
                    ExperimentSpec(mode="mc", **{name: value})
            spec = ExperimentSpec(mode="mc", **{name: np.int64(3)})
            assert type(getattr(spec, name)) is int
            assert parse_spec(spec.to_argv()) == spec

    def test_filters_are_a_read_only_array_compared_by_value(self):
        angles = np.array([-0.0, 45.0])
        spec = ExperimentSpec(mode="classical", filters_deg=angles)
        angles[1] = 46.0  # the spec holds its own copy
        assert spec.filters_deg.dtype == np.float64
        with pytest.raises(ValueError):
            spec.filters_deg[0] = 1.0
        same = ExperimentSpec(mode="classical", filters_deg=(0.0, 45.0))
        assert same == spec and hash(same) == hash(spec)
        assert spec != ExperimentSpec(mode="classical", filters_deg=(0.0, 45.5))
        assert spec != ExperimentSpec(mode="quantum", filters_deg=(0.0, 45.0))

    def test_first_non_finite_angle_named(self):
        with pytest.raises(UsageError, match="finite, got -inf$"):
            ExperimentSpec(mode="classical", filters_deg=(0.0, -np.inf, np.nan))

    def test_real_fields_are_python_floats_and_not_bools(self):
        # a numpy float once rendered as `np.float64(...)` in to_argv, and a
        # bool as `True`; parse_spec rejected both
        fields = [("intensity", "--intensity"), ("tolerance", "--tolerance"), ("input_angle_deg", "--input")]
        for name, flag in fields:
            kwargs = {"input_angle_deg": 10.0}
            with pytest.raises(UsageError, match=f"^{flag}"):
                ExperimentSpec(mode="compare", **{**kwargs, name: True})
            for value in (np.float64(0.5), np.float32(0.5), 1):
                spec = ExperimentSpec(mode="compare", **{**kwargs, name: value})
                assert type(getattr(spec, name)) is float
                assert parse_spec(spec.to_argv()) == spec

    def test_wrong_types_name_the_field(self):
        # each once escaped as a TypeError or a bare ValueError
        cases = [
            ("--tolerance", {"tolerance": "1e-9"}),
            ("--tolerance", {"tolerance": None}),
            ("--intensity", {"intensity": "1"}),
            ("--intensity", {"intensity": None}),
            ("--input", {"input_angle_deg": "30"}),
            ("--filters", {"filters_deg": ("0", "x")}),
            ("--filters", {"filters_deg": [object()]}),
            # text and bools were once read as angles: "45" as one filter at
            # 45 deg, bytearray(b"7") as 55 deg (the code of "7"), True as 1
            ("--filters", {"filters_deg": "45"}),
            ("--filters", {"filters_deg": bytearray(b"7")}),
            ("--filters", {"filters_deg": ["45", "90"]}),
            ("--filters", {"filters_deg": [True, False]}),
            ("--filters", {"filters_deg": (a for a in ["45"])}),
        ]
        for flag, kwargs in cases:
            with pytest.raises(UsageError, match=f"^{flag}"):
                ExperimentSpec(mode="compare", **kwargs)


# (flag=value, what stderr names): every one is rejected in every mode
_BAD_VALUES = [
    *(("--seed=" + v, "--seed") for v in ("-1", str(2**64))),
    *(("--workers=" + v, "--workers") for v in ("0", "-2")),
    *(("--tolerance=" + v, "--tolerance") for v in ("nan", "inf", "-1", "1e400")),
    *(("--intensity=" + v, "--intensity") for v in ("0", "nan", "inf", "-1", "1e-400")),
    *(("--filters=" + v, "filter angle") for v in ("0,inf", "nan,45", "0,-inf")),
    *(("--input=linear:" + v, "--input") for v in ("inf", "nan", "")),
]


class TestEveryModeChecksEveryFlag:
    @pytest.mark.parametrize("mode", ["classical", "quantum", "mc", "compare"])
    def test_bad_values_exit_2_and_name_the_flag(self, capsys, mode):
        base = ["--mode", mode, "--filters=0,45", "--photons", "100"]
        for arg, named in _BAD_VALUES:
            assert main([*base, arg]) == 2, arg
            err = capsys.readouterr().err
            assert err.startswith("polcascade: error: ") and named in err, (arg, err)
        # the photon range applies only where photons are sampled
        assert main([*base, "--photons", "0"]) == (2 if mode == "mc" else 0)
        assert ("--photons" in capsys.readouterr().err) == (mode == "mc")


class TestBenchmarkHooks:
    # the benchmark times rendering by replacing these two module attributes,
    # so run_experiment must look them up on the module on every call
    @pytest.mark.parametrize(
        "mode,expected",
        [
            ("classical", "render_trace"),
            ("quantum", "render_trace"),
            ("mc", "render_trace"),
            ("compare", "render_comparison"),
        ],
    )
    def test_run_experiment_calls_the_module_renderer(self, monkeypatch, mode, expected):
        calls = []

        def recorder(name):
            def record(*args):
                calls.append(name)

            return record

        monkeypatch.setattr(cli, "render_trace", recorder("render_trace"))
        monkeypatch.setattr(cli, "render_comparison", recorder("render_comparison"))
        argv = ["--filters", "0,45,90", "--mode", mode, "--photons", "100"]
        run_experiment(parse_spec(argv), io.StringIO())
        assert calls == [expected]


def _num(x):
    return format(x, ".12g")


def _random_walk(n, seed=5):
    steps = np.random.default_rng(seed).normal(0.0, 3.0, n)
    return FilterStack.from_degrees(np.cumsum(steps).tolist())


BLOCK = cli._BLOCK_ROWS

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _near_ties(draw):
    # a 12-digit mantissa and then a 5: a rounding tie at 12 digits, at any
    # exponent; the test adds the values up to 3 ulps either side
    digits = draw(st.integers(10**11, 10**12 - 1))
    tie = float(f"{digits}5e{draw(st.integers(-330, 295))}")
    return draw(st.sampled_from([1.0, -1.0])) * tie


def _with_neighbours(values):
    # each value and the floats 1, 2 and 3 ulps below and above it
    out = [np.array(values, dtype=np.float64)]
    with np.errstate(over="ignore"):  # the float past the largest is inf
        for toward in (-np.inf, np.inf):
            x = out[0]
            for _ in range(3):
                x = np.nextafter(x, toward)
                out.append(x)
    return np.concatenate(out).tolist()


# where %g changes layout: fixed form from 1e-4 up to 1e12, a third
# exponent digit from 1e100, and values whose rounding carries across
_LAYOUT_EDGES = [
    1e-5, 1e-4, 1e11, 1e12, 99999999999.95, 0.000099999999999995, 999999999999.5,
    9.99999999999995e-5, 9.999999999995e99, 1e100, 1e-100, 1e-99, -0.0, 0.0,
]


def _float_cells(values):
    # the writer's float cells for `values`, as text
    cells, lengths = _cells.float_cells(np.array(values, dtype=np.float64))
    return [bytes(c[:n]).decode() for c, n in zip(cells, lengths.tolist())]


class TestBlockBoundaries:
    """Every row at and around the writer's block edges, against a reference
    built one cell at a time."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_rows_match_cell_by_cell_reference(self, capsys, n):
        degrees = np.cumsum(np.random.default_rng(n).normal(0.0, 1.0, n))
        degrees[-2] = degrees[-3] + 90.0  # a crossed pair stops every photon
        stack = FilterStack.from_degrees(degrees.tolist())
        axes = [_num(a) for a in np.degrees(stack.radians).tolist()]
        beam = ClassicalBeam.linear(angle_from_degrees(33.3), 1.0)
        photons = PhotonInput.pure_ket(angle_from_degrees(33.3))
        classical = run_classical(beam, stack)
        quantum = run_quantum_exact(photons, stack)
        report = compare(classical, quantum, 1e-9)
        mc = run_monte_carlo(
            MonteCarloConfig(photon_count=1000, seed=7, input=photons, stack=stack)
        )
        intensity = [_num(x) for x in classical.classical_intensity_after.tolist()]
        stage_prob = [_num(x) for x in quantum.stage_pass_probability.tolist()]
        cumulative = [_num(x) for x in quantum.cumulative_probability.tolist()]
        counts = mc.per_stage_survivor_counts
        before = (1000, *counts[:-1])
        assert counts[-3] > 0 and before[-1] == 0  # the last MC stage_prob is `-`
        mc_stage = [_num(c / p) if p else "-" for c, p in zip(counts, before)]
        mc_cumulative = [_num(c / 1000) for c in counts]

        def tsv(*columns):
            return ["\t".join(cells) for cells in zip(map(str, range(1, n + 1)), axes, *columns)]

        def text(*cells):
            return [
                ", ".join([f"  stage {i}: axis {a} deg", *more])
                for i, a, *more in zip(range(1, n + 1), axes, *cells)
            ]

        dash = ["-"] * n
        final, quantum_final = (_num(t.final_transmitted_fraction) for t in (classical, quantum))
        max_diff = _num(report.max_difference)
        est, err = _num(mc.estimate), _num(mc.standard_error)
        lo, hi = (_num(x) for x in mc.confidence_interval_95)
        cases = [
            (_rendered(render_trace, classical, "tsv"), [TSV_HEADER.rstrip("\n"),
             *tsv(intensity, dash, dash), f"# final_fraction={final}"]),
            (_rendered(render_trace, quantum, "tsv"), [TSV_HEADER.rstrip("\n"),
             *tsv(dash, stage_prob, cumulative), f"# final_fraction={quantum_final}"]),
            (_rendered(render_comparison, classical, quantum, report, "tsv"), [TSV_HEADER.rstrip("\n"),
             *tsv(intensity, stage_prob, cumulative), f"# final_fraction={final}",
             f"# compare=pass max_diff={max_diff} tolerance=1e-09"]),
            (_rendered(render_trace, mc, "tsv"), [TSV_HEADER.rstrip("\n"),
             *tsv(dash, mc_stage, mc_cumulative), f"# final_fraction={est}",
             f"# estimate={est} stderr={err} ci95={lo},{hi} seed=7"]),
            (_rendered(render_trace, classical, "text"), ["input: linear at 33.3 deg, intensity 1",
             *text([f"intensity {c}" for c in intensity]),
             f"transmitted fraction: {final}"]),
            (_rendered(render_trace, quantum, "text"), ["input: photons polarized at 33.3 deg",
             *text([f"pass prob {c}" for c in stage_prob], [f"cumulative {c}" for c in cumulative]),
             f"transmitted fraction: {quantum_final}"]),
            (_rendered(render_comparison, classical, quantum, report, "text"),
             ["input: linear at 33.3 deg, intensity 1",
              *text([f"intensity {c}" for c in intensity],
                    [f"cumulative prob {c}" for c in cumulative]),
              f"classical fraction {final} vs quantum probability {quantum_final}: "
              f"pass (max diff {max_diff}, tolerance 1e-09)"]),
            (_rendered(render_trace, mc, "text"), ["input: photons polarized at 33.3 deg, 1000 photons, seed 7",
             *text([f"{c} of {p} photons passed" for c, p in zip(counts, before)]),
             f"transmitted fraction: {est} (stderr {err}, 95% CI [{lo}, {hi}])"]),
        ]
        for out, expected in cases:
            assert out == "\n".join(expected) + "\n"
        # the same bytes written to stdout by main and to a StringIO by run_experiment
        modes = [(m, f) for f in ("tsv", "text") for m in ("classical", "quantum", "compare", "mc")]
        filters = "--filters=" + ",".join(map(repr, degrees.tolist()))
        for (mode, fmt), (out, _) in zip(modes, cases):
            argv = [filters, "--mode", mode, "--format", fmt, "--input", "linear:33.3",
                    "--photons", "1000", "--seed", "7"]
            assert main(argv) == 0
            assert capsys.readouterr().out == out
            assert _run(argv)[0] == out

    @given(
        x=_ANY_FLOAT,
        mixed=st.lists(_ANY_FLOAT | _near_ties(), max_size=40),
    )
    def test_printf_matches_format(self, x, mixed):
        assert "%.12g" % x == format(x, ".12g")
        assert _float_cells([x]) == [format(x, ".12g")]
        values = _with_neighbours([x, *mixed, *_LAYOUT_EDGES])
        assert _float_cells(values) == [format(v, ".12g") for v in values]

    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
    def test_int_cells_match_str(self, values):
        cells = _cells.int_cells(np.array(values, dtype=np.int64))
        assert [bytes(c).replace(b"\0", b"").decode() for c in cells] == list(map(str, values))


class _CountingSink(io.TextIOBase):
    # a text stream that keeps only the number of characters and lines written
    chars = lines = 0

    def write(self, text):
        self.chars += len(text)
        self.lines += text.count("\n")
        return len(text)


class TestRenderMemory:
    @pytest.mark.parametrize("fmt", ["tsv", "text"])
    def test_peak_is_one_column_and_one_block(self, fmt):
        n = 100_000
        stack = _random_walk(n)
        classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        report = compare(classical, quantum, 1e-9)
        sink = _CountingSink()
        tracemalloc.start()
        try:
            render_comparison(classical, quantum, report, fmt, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.lines == n + (3 if fmt == "tsv" else 2)
        assert sink.chars > 40 * n
        # the output (~70-100 bytes a row) is never held whole: the peak is
        # the one column the writer adds, the axes in degrees at 8 bytes a
        # filter, and the cells and row bytes of one block
        assert peak < 8 * n + 1000 * BLOCK, peak

    def test_whole_run_peak_is_bounded_by_the_stack(self, tmp_path):
        # main streams its output, so the peak scales with the stack (8
        # bytes a filter), not with the ~80 bytes a filter of output
        n = 100_000
        degrees = np.cumsum(np.random.default_rng(5).normal(0.0, 0.2, n))
        path = tmp_path / "walk.txt"
        path.write_text("".join(f"{a!r}\n" for a in degrees.tolist()))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["--stack-file", str(path), "--mode", "compare"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 8 * n, peak
