"""Tests for command-line parsing, rendering, and exit codes."""

import contextlib
import copy
import dataclasses
import io
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polcascade import _cells, cli, engines
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
from polcascade.core import (
    Angle,
    ClassicalBeam,
    FilterStack,
    PolarizationKet,
    angle_from_degrees,
)
from polcascade.engines import (
    ComparisonReport,
    MonteCarloConfig,
    PhotonInput,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
)


def _partner(amplitude):
    # the other amplitude of a normalized ket, for the amplitudes the rule accepts
    return math.sqrt(0.75) if amplitude == 0.5 else 0.0


def _tolerance_slot(tolerance):
    stack = FilterStack.from_degrees([0, 45])
    classical = run_classical(ClassicalBeam.unpolarized(1.0), stack)
    quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
    return compare(classical, quantum, tolerance).tolerance


# every slot that takes a real number: the name its error starts with,
# whether it must be >= 0, and a function that fills it and returns what it holds
_REAL_SLOTS = {
    "Angle": ("radians", False, lambda x: Angle(x).radians),
    "angle_from_degrees": ("degrees", False, lambda x: angle_from_degrees(x).radians),
    "ClassicalBeam.intensity": ("intensity", True, lambda x: ClassicalBeam(x).intensity),
    "PolarizationKet.amp_h": ("amp_h", False, lambda x: PolarizationKet(x, _partner(x)).amp_h),
    "PolarizationKet.amp_v": ("amp_v", False, lambda x: PolarizationKet(_partner(x), x).amp_v),
    "compare.tolerance": ("tolerance", True, _tolerance_slot),
    "ExperimentSpec.intensity": (
        "--intensity", True, lambda x: ExperimentSpec(mode="compare", intensity=x).intensity),
    "ExperimentSpec.tolerance": (
        "--tolerance", True, lambda x: ExperimentSpec(mode="compare", tolerance=x).tolerance),
    "ExperimentSpec.input_angle_deg": (
        "--input", False,
        lambda x: ExperimentSpec(mode="compare", input_angle_deg=x).input_angle_deg),
}

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


# stack-file lines and line ends for the line-splitting properties
_STACK_LINES = st.lists(
    st.sampled_from(
        ["0", " 12.5 ", "-1e3", "45  # note", "# only", "", "  ", "\t", "x",
         "1_0", "inf", "nan", "4#5", "\x0c", "7\r", "1 2"]
    ),
    max_size=12,
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _outcome(parse, text):
    # what parsing `text` gives: the angles' repr (nan != nan), or the error
    try:
        return repr(tuple(parse(text)))
    except UsageError as exc:
        return str(exc)


class TestStackFile:
    def test_comments_and_blanks_ignored(self):
        text = "# polarizer angles\n0\n\n45  # diagonal\n90\n"
        assert tuple(parse_stack_text(text).tolist()) == (0.0, 45.0, 90.0)

    def test_bad_line_is_located(self):
        with pytest.raises(UsageError, match="line 3"):
            parse_stack_text("0\n45\noops\n")

    def test_injected_text_is_used(self, tmp_path, monkeypatch):
        # parse_spec hands the open file to the module-level parse_stack_text
        # (the name benchmarks/spans.py wraps) and keeps what it returns.
        path = tmp_path / "stack.txt"
        path.write_text("0\n45\n90\n")
        seen = []

        def fake_parse(text, source="stack file"):
            seen.append((text.name, text.read(), source))
            return np.array([1.0, 2.0])

        monkeypatch.setattr(cli, "parse_stack_text", fake_parse)
        spec = parse_spec(["--stack-file", str(path), "--mode", "classical"])
        assert seen == [(str(path), "0\n45\n90\n", str(path))]
        assert tuple(spec.filters_deg.tolist()) == (1.0, 2.0)
        stack = FilterStack.from_degrees(spec.filters_deg)
        assert tuple(stack.radians.tolist()) == (math.radians(1.0), math.radians(2.0))

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

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # Windows editors start UTF-8 files with one
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(b"0\r\n45\r\n90\r\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for path in (plain, bom):
            assert main(["--stack-file", str(path), "--mode", "compare"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0] and outputs[0].err == ""

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

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_angle_names_its_file_and_line(self, tmp_path, capsys, angle):
        # float() reads each of these; the stack once rejected it later,
        # naming neither the file nor the line
        path = tmp_path / "walk.txt"
        path.write_text(f"0\n  {angle}  # typo\n45\n")
        assert main(["--stack-file", str(path), "--mode", "compare"]) == 2
        assert capsys.readouterr().err == (
            f"polcascade: error: {path} line 2: not an angle in degrees: {angle!r}\n"
        )

    def test_bad_line_deep_in_long_file_is_located(self):
        lines = [f"{i * 0.25}" for i in range(10_000)]
        lines[8_999] = "  9x  # typo"
        with pytest.raises(UsageError) as info:
            parse_stack_text("\n".join(lines) + "\n", source="walk.txt")
        assert str(info.value) == "walk.txt line 9000: not an angle in degrees: '9x'"

    @given(lines=_STACK_LINES, sep=_LINE_ENDS)
    def test_matches_line_by_line_reference(self, lines, sep):
        text = sep.join(lines)
        try:
            expected = _parse_line_by_line(text)
        except UsageError as exc:
            with pytest.raises(UsageError, match=re.escape(str(exc))):
                parse_stack_text(text)
        else:
            assert repr(tuple(parse_stack_text(text).tolist())) == repr(expected)  # nan != nan

    @given(lines=_STACK_LINES, sep=_LINE_ENDS, chars=st.integers(min_value=0, max_value=8))
    def test_pieces_split_no_line(self, lines, sep, chars):
        # a long text is parsed piece by piece; tiny pieces cut it everywhere
        text = sep.join(lines)
        expected = _outcome(_parse_line_by_line, text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_PARSE_CHARS", chars)
            assert _outcome(lambda t: parse_stack_text(t).tolist(), text) == expected

    @given(lines=_STACK_LINES, sep=_LINE_ENDS, chars=st.integers(min_value=0, max_value=8),
           bom=st.booleans())
    def test_file_pieces_split_no_line(self, tmp_path_factory, lines, sep, chars, bom):
        # parse_spec reads the file a few characters at a time, and its lines
        # still match the text's, a BOM skipped on the second scan as on the
        # first
        text = sep.join(lines)
        path = tmp_path_factory.mktemp("pieces") / "stack.txt"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        expected = _outcome(_parse_line_by_line, text).replace("stack file", str(path))

        def parse_file(_):
            return parse_spec(["--stack-file", str(path), "--mode", "compare"]).filters_deg.tolist()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_PARSE_CHARS", chars)
            assert _outcome(parse_file, text) == expected

    def test_bom_and_crlf_across_piece_edges(self, tmp_path, monkeypatch, capsys):
        # the file's first "\r\n" straddles the 8192nd byte, where a text
        # file's reader decodes its next buffer, and the edge of the first
        # piece: the run is the same as for the file's LF form
        pad = 8192 - 3 - len("0") - 1  # the BOM, the angle, then the "\r" is byte 8191
        lines = ["0" + " " * pad, *(f"{k * 0.75}" for k in range(1, 4000))]
        plain, crlf = tmp_path / "plain.txt", tmp_path / "crlf.txt"
        plain.write_bytes("\n".join(lines).encode() + b"\n")
        crlf.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n")
        assert crlf.read_bytes()[8191:8193] == b"\r\n"
        monkeypatch.setattr(cli, "_PARSE_CHARS", 8192 - 3 - 1)
        outputs = []
        for path in (plain, crlf):
            assert main(["--stack-file", str(path), "--mode", "compare"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0] and outputs[0].err == ""
        assert outputs[0].out.count("\n") == len(lines) + 3

    def test_bad_line_in_a_later_piece_of_a_file_is_named(self, tmp_path, capsys):
        # the second scan reads the file again from where the first began,
        # past the BOM, and counts its CRLF lines as the first did
        lines = [f"{i * 0.25}" for i in range(30_000)]
        lines[25_000] = "  9x  # typo"
        path = tmp_path / "walk.txt"
        path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n")
        assert path.read_bytes().index(b"9x") > 2 * cli._PARSE_CHARS
        assert main(["--stack-file", str(path), "--mode", "compare"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"polcascade: error: {path} line 25001: not an angle in degrees: '9x'\n"

    def test_invalid_utf8_after_the_first_piece(self, tmp_path, capsys):
        # a byte that is not UTF-8, met once the first piece is parsed, is
        # still a file that cannot be read: exit 2 and one line, no output,
        # naming the byte's place in the file, not in the buffer read last
        path = tmp_path / "walk.txt"
        text = "".join(f"{i * 0.25}\n" for i in range(20_000))
        assert len(text) > 2 * cli._PARSE_CHARS
        path.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"1.5\xff\n2.5\n")
        assert main(["--stack-file", str(path), "--mode", "compare"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"polcascade: error: --stack-file: cannot read {str(path)!r}: 'utf-8' codec can't "
            f"decode byte 0xff in position {3 + len(text) + 3}: invalid start byte\n"
        )

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_line_in_a_pipe_is_named(self, capsys):
        # a pipe cannot be read twice, so its bytes are copied to a temporary
        # file, which is read again to name the line
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as writer:
            writer.write(b"\xef\xbb\xbf0\r\n45\r\noops\r\n")
        try:
            path = f"/dev/fd/{read_end}"
            assert main(["--stack-file", path, "--mode", "compare"]) == 2
        finally:
            os.close(read_end)
        assert capsys.readouterr() == (
            "", f"polcascade: error: {path} line 3: not an angle in degrees: 'oops'\n")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_invalid_utf8_after_the_first_piece_of_a_pipe(self, tmp_path, capsys):
        # the byte's place is counted in the pipe's copy, since a pipe cannot
        # tell where it stands: the message is the file's
        path = tmp_path / "walk.txt"
        text = "".join(f"{i * 0.25}\n" for i in range(20_000))
        path.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"1.5\xff\n2.5\n")
        assert main(["--stack-file", str(path), "--mode", "compare"]) == 2
        from_file = capsys.readouterr()
        with _piped(path) as pipe:
            assert main(["--stack-file", pipe, "--mode", "compare"]) == 2
        assert from_file.out == "" and f"position {3 + len(text) + 3}:" in from_file.err
        assert capsys.readouterr() == ("", from_file.err.replace(repr(str(path)), repr(pipe)))

    @pytest.mark.parametrize("extra", [0, 1], ids=["piece-size", "piece-size-plus-one"])
    @pytest.mark.parametrize("line", ["{}.25", "{}.5  # c"], ids=["plain", "comments"])
    def test_text_at_the_piece_size(self, extra, line):
        # texts of _PARSE_CHARS characters and one more, cut mid-line
        n = cli._PARSE_CHARS + extra
        text = "\n".join(map(line.format, range(n // 5)))[:n]
        assert len(text) == n
        angles = parse_stack_text(text).tolist()
        assert tuple(angles) == _parse_line_by_line(text)
        assert len(angles) > n // 13  # many lines: one per 13 characters at least

    def test_bad_line_in_a_later_piece_is_located(self):
        lines = [f"{i * 0.25}" for i in range(30_000)]
        lines[25_000] = "  9x  # typo"
        text = "\n".join(lines) + "\n"
        assert text.index("9x") > 2 * cli._PARSE_CHARS
        with pytest.raises(UsageError) as info:
            parse_stack_text(text, source="walk.txt")
        assert str(info.value) == "walk.txt line 25001: not an angle in degrees: '9x'"

    def test_file_text_is_let_go_before_the_spec(self, tmp_path):
        # the file (~19 bytes a line here) is read a piece at a time, and
        # the spec holds the parsed angles with no copy and builds no stack:
        # parse_spec peaks where parse_stack_text alone does, as its array
        # grows, within one piece (measured: 11 KB more). With the radians
        # made beside the parsed array it peaked at 2.02 columns. A first
        # parse first imports a few modules (~0.2 columns here, whatever the
        # stack's length), so one small file is parsed before the measured
        # one.
        n = 100_000
        degrees = np.cumsum(np.random.default_rng(5).normal(0.0, 0.2, n))
        path, small = tmp_path / "walk.txt", tmp_path / "small.txt"
        path.write_text("".join(f"{a!r}\n" for a in degrees.tolist()))
        small.write_text("0\n45\n")
        parse_spec(["--stack-file", str(small), "--mode", "compare"])
        text_peak = _parse_text_peak(path)
        tracemalloc.start()
        try:
            spec = parse_spec(["--stack-file", str(path), "--mode", "compare"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(FilterStack.from_degrees(spec.filters_deg)) == n
        assert peak <= text_peak + cli._PARSE_CHARS, (peak, text_peak)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_parsed_like_a_file(self, tmp_path):
        # a pipe's bytes are copied to a temporary file, which is parsed a
        # piece at a time like any file, so the peak is parse_stack_text's on
        # the file, within one piece; read whole, the pipe's text peaked at
        # ~12 columns
        n = 100_000
        degrees = np.cumsum(np.random.default_rng(5).normal(0.0, 0.2, n))
        path, small = tmp_path / "walk.txt", tmp_path / "small.txt"
        path.write_text("".join(f"{a!r}\n" for a in degrees.tolist()))
        small.write_text("0\n45\n")
        with _piped(small) as pipe:
            parse_spec(["--stack-file", pipe, "--mode", "compare"])
        text_peak = _parse_text_peak(path)
        with _piped(path) as pipe:
            tracemalloc.start()
            try:
                spec = parse_spec(["--stack-file", pipe, "--mode", "compare"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert spec.filters_deg.tolist() == degrees.tolist()
        assert peak <= text_peak + cli._PARSE_CHARS, (peak, text_peak)

    def test_unreadable_file_named(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(UsageError, match="nope.txt"):
            parse_spec(["--stack-file", str(missing), "--mode", "classical"])


def _parse_text_peak(path):
    # the traced peak of parse_stack_text alone, from opening the file at `path`
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            parse_stack_text(fh, source=str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def _piped(path):
    # a name for a pipe that `cat` writes the file at `path` to
    cat = subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE)
    try:
        yield f"/dev/fd/{cat.stdout.fileno()}"
    finally:
        cat.stdout.close()
        cat.wait(timeout=60)


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
                angles.append(math.nan)
            if not math.isfinite(angles[-1]):
                raise UsageError(f"stack file line {lineno}: not an angle in degrees: {line!r}")
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

    def test_python_m_polcascade_is_the_console_script(self, capsys):
        # the `polcascade` script is the entry point polcascade.cli:main, run
        # as sys.exit(main()); a failing compare, so the exit code is not 0
        argv = ["--filters", ROUNDING_STACK, "--mode", "compare", "--tolerance", "1e-18"]
        module = subprocess.run([sys.executable, "-m", "polcascade", *argv],
                                capture_output=True, env=_cli_env(), timeout=60)
        code = main(argv)
        script = capsys.readouterr()
        assert module.returncode == code == 1
        assert module.stdout.decode() == script.out and "\n# compare=fail " in script.out
        assert module.stderr == b"" and script.err == ""

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

    def test_runs_without_a_helper_thread_load_no_thread_pool(self):
        # the pool module brings logging, queue and traceback along (~0.6 MB);
        # no run loads it, not even one whose helper shares run on threads
        script = """if True:
            import io, os, sys, threading
            import polcascade.cli as cli
            def loaded(where):
                print(where, sorted({"concurrent.futures", "logging"} & set(sys.modules)))
            loaded("import")
            os.sched_getaffinity = lambda pid: {0, 1}
            os.cpu_count = lambda: 2
            started, start = [], threading.Thread.start
            threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]
            sys.stdout, out = io.StringIO(), sys.stdout
            codes = [cli.main(["--filters", "0,45,90", "--mode", "compare"])]
            for workers in ("1", "2"):
                codes.append(cli.main(["--filters", "0,45,90", "--mode", "mc", "--photons", "200000",
                                       "--workers", workers]))
            sys.stdout = out
            loaded("runs")
            print(codes, len(started))
        """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        # one helper thread, started by the --workers 2 run
        assert proc.stdout == "import []\nruns []\n[0, 0, 0] 1\n"

    def test_interrupt_exits_130_with_one_line(self, capsys, monkeypatch):
        def interrupted(config, workers):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_monte_carlo", interrupted)
        code = main(["--filters", "0,45,90", "--mode", "mc", "--photons", "10"])
        captured = capsys.readouterr()
        assert code == 130
        assert captured.out == ""
        assert captured.err == "polcascade: interrupted\n"

    def test_sigint_stops_a_threaded_mc_run_within_2_s(self):
        # 2e9 photons would take ~30 s; the child says when it is about to
        # run main, and the signal comes once sampling is under way
        script = "import sys, polcascade.cli as cli; print(flush=True); sys.exit(cli.main(sys.argv[1:]))"
        argv = [sys.executable, "-c", script, "--filters", "0,45,90", "--mode", "mc",
                "--photons", "2000000000", "--workers", "2"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()
        ) as proc:
            assert proc.stdout.readline() == b"\n"
            time.sleep(0.1)
            sent = time.monotonic()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 130
            assert time.monotonic() - sent < 2
            assert proc.stderr.read() == b"polcascade: interrupted\n"

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

    @pytest.mark.parametrize(
        "fmt,end", [("tsv", " tolerance=0\n"), ("text", ", tolerance 0)\n")], ids=["tsv", "text"]
    )
    def test_negative_zero_tolerance_reads_zero(self, capsys, fmt, end):
        # -0.0 passes the >= 0 rule; the footer once read "tolerance=-0"
        assert math.copysign(1.0, ExperimentSpec(mode="compare", tolerance=-0.0).tolerance) == 1.0
        argv = ["--filters", "0,45,90", "--mode", "compare", "--tolerance=-0.0", "--format", fmt]
        assert main(argv) == 1  # max_diff is 5.55e-17
        assert capsys.readouterr().out.endswith(end)


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
            # a timedelta64 once escaped as a TypeError, or was read as its count
            for value in (10.5, 1.5, True, "3", np.timedelta64(3, "s"), np.timedelta64(3, "ns")):
                with pytest.raises(UsageError, match=f"--{name}"):
                    ExperimentSpec(mode="mc", **{name: value})
            spec = ExperimentSpec(mode="mc", **{name: np.int64(3)})
            assert type(getattr(spec, name)) is int
            assert parse_spec(spec.to_argv()) == spec

    def test_filters_are_a_read_only_array_compared_by_value(self):
        angles = np.array([-0.0, 45.0])
        spec = ExperimentSpec(mode="classical", filters_deg=angles)
        angles[1] = 46.0  # the spec holds its own copy
        # of a read-only array too, which its owner may make writeable again
        angles.flags.writeable = False
        frozen = ExperimentSpec(mode="classical", filters_deg=angles)
        angles.flags.writeable = True
        angles[1] = 45.0
        assert frozen.filters_deg.tolist() == [0.0, 46.0]
        assert spec.filters_deg.dtype == np.float64
        with pytest.raises(ValueError):
            spec.filters_deg[0] = 1.0
        same = ExperimentSpec(mode="classical", filters_deg=(0.0, 45.0))
        assert same == spec and hash(same) == hash(spec)
        assert spec != ExperimentSpec(mode="classical", filters_deg=(0.0, 45.5))
        assert spec != ExperimentSpec(mode="quantum", filters_deg=(0.0, 45.0))
        # any other type is unequal, as a plain bool, not an array
        assert (spec == spec.filters_deg) is False
        assert (spec != spec.filters_deg) is True

    @pytest.mark.parametrize(
        "field,value,message",
        [("mode", "qubit", "unknown mode 'qubit'"), ("output_format", "json", "unknown format 'json'")],
    )
    def test_unknown_choice_named(self, field, value, message):
        kwargs = {"mode": "compare", field: value}
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(**kwargs)

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
            for value in (np.float64(0.5), np.float32(0.5), 1, np.int64(1), Fraction(1, 2)):
                spec = ExperimentSpec(mode="compare", **{**kwargs, name: value})
                assert type(getattr(spec, name)) is float
                assert parse_spec(spec.to_argv()) == spec

    @pytest.mark.parametrize("slot", sorted(_REAL_SLOTS))
    def test_every_real_slot_follows_one_rule(self, slot):
        name, at_least_zero, build = _REAL_SLOTS[slot]
        # text, bools, Decimal and 0-d arrays once passed Angle, ClassicalBeam
        # and PolarizationKet, which read them with float()
        # numpy registers timedelta64 as an integer type, which read 5 ns as 5
        bad = [True, "0.5", b"1", Decimal("0.5"), np.array(0.5), math.nan, math.inf, -math.inf,
               10**400, np.timedelta64(5, "ns"), 1 + 0j]  # 10**400 is beyond float's range
        if slot != "ExperimentSpec.input_angle_deg":  # there None is unpolarized input
            bad.append(None)
        if at_least_zero:
            bad.append(-1)
        for value in bad:
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a finite real"):
                build(value)
        for value in (1, np.int64(1), np.float32(0.5), Fraction(1, 2)):
            stored = build(value)
            assert type(stored) is float and stored == build(float(value)), value

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
            # read as numbers by numpy: [45., 1.] and 45 deg
            ("--filters", {"filters_deg": [45.0, True]}),
            ("--filters", {"filters_deg": np.array(["45", 90], dtype=object)}),
            ("--filters", {"filters_deg": (a for a in [0.0, True])}),
            # a nested list held [45., 1.], and None was reported as a nan angle
            ("--filters", {"filters_deg": [[45.0, True]]}),
            ("--filters", {"filters_deg": [45.0, None]}),
            # an int beyond float's range escaped as an OverflowError
            ("--filters", {"filters_deg": [45.0, 10**400]}),
            # a bare number was held as a one-filter stack
            ("--filters: filter angles must be a list, not float$", {"filters_deg": 45.0}),
            ("--filters: filter angles must be a list, not ndarray$", {"filters_deg": np.array(45.0)}),
        ]
        for flag, kwargs in cases:
            with pytest.raises(UsageError, match=f"^{flag}"):
                ExperimentSpec(mode="compare", **kwargs)

    def test_bad_filters_are_named_by_type_not_value(self):
        # the message once held the repr of the whole value, every item of it
        with pytest.raises(UsageError) as raised:
            ExperimentSpec(mode="compare", filters_deg=["x"] * 100_000)
        message = str(raised.value)
        assert message.startswith("--filters: ") and message.endswith("not str")
        assert len(message) < 200


# (flag=value, what stderr names): every one is rejected in every mode
_BAD_VALUES = [
    *(("--seed=" + v, "--seed") for v in ("-1", str(2**64))),
    *(("--workers=" + v, "--workers") for v in ("0", "-2")),
    *(("--tolerance=" + v, "--tolerance") for v in ("nan", "inf", "-1", "1e400")),
    # a subnormal intensity once passed, and the classical fold underflowed
    *(("--intensity=" + v, "--intensity") for v in ("0", "nan", "inf", "-1", "1e-400", "5e-324",
                                                     "1e-320")),
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

    @pytest.mark.parametrize(
        "mode,expected",
        [
            ("classical", ["run_classical", "render_trace"]),
            ("quantum", ["run_quantum_exact", "render_trace"]),
            ("mc", ["run_monte_carlo", "render_trace"]),
            ("compare", ["run_classical", "run_quantum_exact", "compare", "render_comparison"]),
        ],
    )
    def test_main_calls_the_module_engines_and_renderer(self, monkeypatch, capsys, mode,
                                                        expected):
        # the benchmark times the engines the same way, through the CLI
        calls = []

        def recorder(name):
            real = getattr(cli, name)

            def record(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return record

        for name in ("run_classical", "run_quantum_exact", "compare", "run_monte_carlo",
                     "render_trace", "render_comparison"):
            monkeypatch.setattr(cli, name, recorder(name))
        assert main(["--filters", "0,45,90", "--mode", mode, "--photons", "100"]) == 0
        assert calls == expected
        assert "\n# final_fraction=" in capsys.readouterr().out


def _num(x):
    return format(x, ".12g")


def _random_walk(n, seed=5):
    steps = np.random.default_rng(seed).normal(0.0, 3.0, n)
    return FilterStack.from_degrees(np.cumsum(steps).tolist())


BLOCK = engines._BLOCK

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _near_ties(draw):
    # a 12-digit mantissa and then a 5: a rounding tie at 12 digits, at any
    # exponent, subnormal ones too; the test adds the values up to 3 ulps
    # either side
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
# exponent digit from 1e100, and values whose rounding carries across;
# where the scale changes: powers of ten, the ends of the subnormal range,
# and the largest float
_LAYOUT_EDGES = [
    1e-5, 1e-4, 1e11, 1e12, 99999999999.95, 0.000099999999999995, 999999999999.5,
    9.99999999999995e-5, 9.999999999995e99, 1e100, 1e-100, 1e-99, -0.0, 0.0,
    1e22, 1e23, 1e-307, 1e-308, 1e-309, 1e-320, 1e-322, 1e-323, 5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
]

# any subnormal, by its bits
_SUBNORMALS = st.integers(1, 2**52 - 1).map(lambda bits: float(np.int64(bits).view(np.float64)))


def _float_cells(values):
    # the writer's float cells for `values`, as text: each cell's bytes
    # with the NULs of its slot dropped, as the writer drops them
    cells = _cells.float_cells(np.array(values, dtype=np.float64))
    return [bytes(c).replace(b"\0", b"").decode() for c in cells]


def _every_mode_and_its_reference(degrees, input_deg):
    """Each mode's output in TSV and then text, rendered from its result,
    beside the lines it must be, built one cell at a time from the columns
    (1000 photons, seed 7, for `mc`); and the Monte Carlo counts."""
    n = len(degrees)
    stack = FilterStack.from_degrees(degrees)
    axes = [_num(a) for a in np.degrees(stack.radians).tolist()]
    beam = ClassicalBeam.linear(angle_from_degrees(input_deg), 1.0)
    photons = PhotonInput.pure_ket(angle_from_degrees(input_deg))
    classical = run_classical(beam, stack)
    quantum = run_quantum_exact(photons, stack)
    report = compare(classical, quantum, 1e-9)
    mc = run_monte_carlo(MonteCarloConfig(photon_count=1000, seed=7, input=photons, stack=stack))
    intensity = [_num(x) for x in classical.classical_intensity_after.tolist()]
    stage_prob = [_num(x) for x in quantum.stage_pass_probability.tolist()]
    cumulative = [_num(x) for x in quantum.cumulative_probability.tolist()]
    counts = mc.per_stage_survivor_counts
    before = (1000, *counts[:-1])
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
    verdict, max_diff = "pass" if report.passed else "fail", _num(report.max_difference)
    est, err = _num(mc.estimate), _num(mc.standard_error)
    lo, hi = (_num(x) for x in mc.confidence_interval_95)
    plane = _num(input_deg)
    return counts, [
        (_rendered(render_trace, classical, "tsv"), [TSV_HEADER.rstrip("\n"),
         *tsv(intensity, dash, dash), f"# final_fraction={final}"]),
        (_rendered(render_trace, quantum, "tsv"), [TSV_HEADER.rstrip("\n"),
         *tsv(dash, stage_prob, cumulative), f"# final_fraction={quantum_final}"]),
        (_rendered(render_comparison, classical, quantum, report, "tsv"), [TSV_HEADER.rstrip("\n"),
         *tsv(intensity, stage_prob, cumulative), f"# final_fraction={final}",
         f"# compare={verdict} max_diff={max_diff} tolerance=1e-09"]),
        (_rendered(render_trace, mc, "tsv"), [TSV_HEADER.rstrip("\n"),
         *tsv(dash, mc_stage, mc_cumulative), f"# final_fraction={est}",
         f"# estimate={est} stderr={err} ci95={lo},{hi} seed=7"]),
        (_rendered(render_trace, classical, "text"), [f"input: linear at {plane} deg, intensity 1",
         *text([f"intensity {c}" for c in intensity]),
         f"transmitted fraction: {final}"]),
        (_rendered(render_trace, quantum, "text"), [f"input: photons polarized at {plane} deg",
         *text([f"pass prob {c}" for c in stage_prob], [f"cumulative {c}" for c in cumulative]),
         f"transmitted fraction: {quantum_final}"]),
        (_rendered(render_comparison, classical, quantum, report, "text"),
         [f"input: linear at {plane} deg, intensity 1",
          *text([f"intensity {c}" for c in intensity],
                [f"cumulative prob {c}" for c in cumulative]),
          f"classical fraction {final} vs quantum probability {quantum_final}: "
          f"{verdict} (max diff {max_diff}, tolerance 1e-09)"]),
        (_rendered(render_trace, mc, "text"),
         [f"input: photons polarized at {plane} deg, 1000 photons, seed 7",
          *text([f"{c} of {p} photons passed" for c, p in zip(counts, before)]),
          f"transmitted fraction: {est} (stderr {err}, 95% CI [{lo}, {hi}])"]),
    ]


class TestBlockBoundaries:
    """Every row at and around the writer's block edges, against a reference
    built one cell at a time."""

    # a last block one row short of full, full, and of one row, after one or more
    @pytest.mark.parametrize("n", [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK + 1])
    def test_rows_match_cell_by_cell_reference(self, capsys, n):
        degrees = np.cumsum(np.random.default_rng(n).normal(0.0, 1.0, n))
        degrees[-2] = degrees[-3] + 90.0  # a crossed pair stops every photon
        counts, cases = _every_mode_and_its_reference(degrees.tolist(), 33.3)
        assert counts[-3] > 0 and counts[-2] == 0  # the last MC stage_prob is `-`
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

    @pytest.mark.parametrize("case,n", [
        ("cut", BLOCK + 1), ("cut", 2 * BLOCK + 1), ("subnormal-carry", BLOCK - 1),
        ("subnormal-carry", BLOCK), ("subnormal-carry", BLOCK + 1),
        ("subnormal-carry", 2 * BLOCK + 1)])
    def test_every_mode_across_the_first_edge(self, case, n):
        # a trace keeps its first block and the render folds every later one
        # again from the stack, with the carry and the cut: filters BLOCK - 1
        # and BLOCK crossed, so the quantum columns are 0 from BLOCK on; or
        # equal steps from the input plane, each passing cos^2(step), whose
        # products are subnormal, ~1e-312, by the end of the first block and
        # carried into the second
        if case == "cut":
            degrees = np.cumsum(np.random.default_rng(9).normal(0.0, 0.5, n))
            degrees[BLOCK] = degrees[BLOCK - 1] + 90.0
            input_deg = 33.3
        else:
            step = math.degrees(math.acos(math.exp(math.log(1e-312) / (2 * BLOCK))))
            degrees, input_deg = step * np.arange(1, n + 1), 0.0
        for out, expected in _every_mode_and_its_reference(degrees.tolist(), input_deg)[1]:
            assert out == "\n".join(expected) + "\n"

    @given(
        x=_ANY_FLOAT,
        mixed=st.lists(_ANY_FLOAT | _near_ties() | _SUBNORMALS, max_size=40),
    )
    def test_printf_matches_format(self, x, mixed):
        assert "%.12g" % x == format(x, ".12g")
        assert _float_cells([x]) == [format(x, ".12g")]
        values = _with_neighbours([x, *mixed, *_LAYOUT_EDGES])
        assert _float_cells(values) == [format(v, ".12g") for v in values]

    def test_exponent_tables_are_exact(self):
        # for every binary exponent k of a float, subnormals included: the
        # binade's decimal exponent, the threshold of the next power of ten
        # on the frexp fraction, and the scale to 12 digits, each rounded once
        e_of = _cells._E_AT.take(np.arange(-2146, 2050), mode="wrap") + _cells._E_MIN
        for k in range(-1073, 1025):
            e = len(str(2 ** (k - 1))) - 1 if k >= 1 else -len(str(2 ** (1 - k)))
            assert _cells._PHI.take(k, mode="wrap") == float(Fraction(10) ** (e + 1) / Fraction(2) ** k)
            for up in (0, 1):
                j = 2 * k + up
                assert e_of[j + 2146] == e + up, k
                scale = Fraction(2) ** k * Fraction(10) ** (11 - e - up)
                assert _cells._SCALE_TO_12.take(j, mode="wrap") == float(scale), k

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
    def test_peak_is_one_block(self, fmt):
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
        # the output (~70-105 bytes a row) is never held whole, and no
        # whole-stack column is added (the axes are turned into degrees a
        # block at a time): the peak is one block's slot buffer and row
        # bytes, and the working arrays of one column's cells. A text row
        # alone is ~104 bytes here, held as bytes and then as text, so its
        # bound is higher.
        assert peak < (200 if fmt == "tsv" else 240) * BLOCK, peak

    def test_mc_peak_is_one_block(self):
        # the photons that reached each stage, the `-` mask and both fractions
        # are made a block of rows at a time too; made for the whole stack,
        # they held ~25 bytes a stage, a 1.55 MB peak here
        n = 50_000
        stack = FilterStack.from_degrees(np.linspace(0.0, 90.0, n + 1)[1:])
        photons = PhotonInput.pure_ket(angle_from_degrees(0.0))
        report = run_monte_carlo(MonteCarloConfig(photon_count=1000, seed=3, input=photons,
                                                  stack=stack))
        for fmt in ("tsv", "text"):
            sink = _CountingSink()
            tracemalloc.start()
            try:
                render_trace(report, fmt, sink)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sink.lines == n + (3 if fmt == "tsv" else 2)
            assert peak < 200 * BLOCK, (fmt, peak)

    def test_whole_run_peak_is_bounded_by_the_stack(self, tmp_path, monkeypatch):
        # main streams its output, so the peak scales with the stack, not
        # with the ~80 bytes a filter of output. The stack file is read a
        # piece at a time into the one array of degrees the spec holds (the
        # parse's bound is tested more tightly above). main lets the spec go
        # and makes the run's radians from its degrees in their own memory,
        # so the hand-off from the parse to the first engine call adds no
        # column (measured: ~1 KB over what the parse left). A trace keeps
        # one block of its column, so from the first engine call a compare
        # holds the stack's radians and a few blocks (measured: 256 block
        # rows, of which the render block is ~200). A first run imports and
        # caches a few things (~0.2 columns here, whatever the stack's
        # length), so a small file runs before the measured one.
        n = 100_000
        degrees = np.cumsum(np.random.default_rng(5).normal(0.0, 0.2, n))
        path, small = tmp_path / "walk.txt", tmp_path / "small.txt"
        path.write_text("".join(f"{a!r}\n" for a in degrees.tolist()))
        small.write_text("0\n45\n")
        parse_spec, run_classical, peaks = cli.parse_spec, cli.run_classical, {}

        def parse_then_record_peak(argv):
            spec = parse_spec(argv)
            peaks["parsed"], peaks["parse"] = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            return spec

        def reset_peak_then_run(*args):
            # the spec has been let go by now, and its degrees are the radians
            peaks["handoff"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return run_classical(*args)

        monkeypatch.setattr(cli, "parse_spec", parse_then_record_peak)
        monkeypatch.setattr(cli, "run_classical", reset_peak_then_run)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["--stack-file", str(small), "--mode", "compare"]) == 0
            tracemalloc.start()
            try:
                code = main(["--stack-file", str(path), "--mode", "compare"])
                _, run_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peaks["parse"] < 2 * 8 * n + cli._PARSE_CHARS, peaks
        assert peaks["handoff"] < peaks["parsed"] + 8 * BLOCK, peaks
        assert run_peak < 8 * n + 300 * BLOCK, run_peak


class TestRunExperiment:
    """The library path: run_experiment makes its stack from a copy of the
    spec's degrees, where main makes it in their own memory."""

    @pytest.mark.parametrize("mode", ["classical", "quantum", "compare", "mc"])
    def test_a_spec_runs_twice_and_is_left_as_it_was(self, tmp_path, mode):
        # angles outside [0, 180), negatives too, across a block edge
        path = tmp_path / "stack.txt"
        degrees = np.cumsum(np.random.default_rng(3).normal(0.0, 40.0, BLOCK + 3)) - 200.0
        path.write_text("".join(f"{a!r}\n" for a in degrees.tolist()))
        argv = ["--stack-file", str(path), "--mode", mode, "--photons", "1000"]
        spec = parse_spec(argv)
        first, second = (_run_spec(spec) for _ in range(2))
        assert first == second
        again = parse_spec(argv)
        assert spec == again and hash(spec) == hash(again)
        assert spec.filters_deg.tolist() == degrees.tolist()
        assert not spec.filters_deg.flags.writeable
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == first

    def test_a_non_finite_angle_is_named_as_before(self, capsys):
        assert main(["--filters", "0,inf", "--mode", "compare"]) == 2
        assert capsys.readouterr() == ("", "polcascade: error: filter angle must be finite, got inf\n")


def _run_spec(spec):
    out = io.StringIO()
    run_experiment(spec, out)
    return out.getvalue()


def _same(a, b):
    # equal field by field, arrays by dtype and elements, whatever the class's __eq__
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(b) is type(a) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(b) is type(a) and len(b) == len(a) and all(map(_same, a, b))
    return a == b


class TestValueObjects:
    def test_every_class_has_slots_and_copies_and_pickles(self):
        # slots: no per-instance __dict__; a copy, a deep copy and a pickle
        # round trip each give an equal object of the same class
        angle = angle_from_degrees(30.0)
        stack = FilterStack.from_degrees([0.0, 45.0, 90.0])
        classical = run_classical(ClassicalBeam.unpolarized(2.0), stack)
        quantum = run_quantum_exact(PhotonInput.unpolarized(), stack)
        config = MonteCarloConfig(photon_count=100, seed=7, input=PhotonInput.pure_ket(angle),
                                  stack=stack)
        objects = [
            angle, stack, ClassicalBeam.linear(angle, 1.0), PolarizationKet(0.6, 0.8),
            PhotonInput.pure_ket(angle), classical, quantum, config, run_monte_carlo(config),
            compare(classical, quantum, 1e-9),
            parse_spec(["--filters", "0,45,90", "--mode", "mc", "--input", "linear:30"]),
            cli._cascade_table(quantum), cli._mc_table(run_monte_carlo(config)),
        ]
        assert len({type(obj) for obj in objects}) == 11
        for obj in objects:
            name = type(obj).__name__
            assert not hasattr(obj, "__dict__"), name
            for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert _same(copied, obj), name
                if name not in ("CascadeTrace", "ComparisonReport", "_Table"):  # by value
                    assert copied == obj and hash(copied) == hash(obj), name

    def test_specs_compare_and_hash_in_place(self):
        # the degrees are read where they are: two equal, distinct specs once
        # compared and hashed by copying their degrees to bytes (24 bytes a
        # filter traced); now the compare's work space is one byte a filter
        # and the hash's is 256 values, under a quarter of a block
        n = 100_000
        degrees = np.cumsum(np.random.default_rng(1).normal(0.0, 3.0, n))
        degrees[-1] = 0.0
        a, b = (ExperimentSpec(mode="compare", filters_deg=degrees) for _ in range(2))
        # the same stack as a's, since an axis at 180 degrees is the axis at
        # 0, but not the same spec: its to_argv differs
        c = ExperimentSpec(mode="compare", filters_deg=np.append(degrees[:-1], 180.0))
        assert FilterStack.from_degrees(c.filters_deg) == FilterStack.from_degrees(a.filters_deg)
        for check, bound in [(lambda: a == b and a != c, 2 * n),
                             (lambda: hash(a) == hash(b), 4096)]:
            tracemalloc.start()
            try:
                assert check()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (peak, bound)
        assert 4096 < 8 * BLOCK
        ten, other_ten = (ExperimentSpec(mode="compare", filters_deg=[x]) for x in (10, 190))
        assert ten != other_ten
        # -0.0 and 0.0 are equal values, so the specs are equal and hash alike
        zero, negative = (ExperimentSpec(mode="compare", filters_deg=[x]) for x in (0.0, -0.0))
        assert zero == negative and hash(zero) == hash(negative)
        halves = [-0.0, 0.0] * 300  # zeros in more than one piece of the hash
        assert hash(ExperimentSpec(mode="mc", filters_deg=halves)) == hash(
            ExperimentSpec(mode="mc", filters_deg=np.zeros(600)))

    def test_copies_are_read_only(self, tmp_path):
        # a copy, a deep copy or an unpickled spec is built again from its
        # fields, so its degrees are a read-only array of its own
        path = tmp_path / "stack.txt"
        path.write_text("0\n-45\n190.5\n")
        specs = [parse_spec(["--stack-file", str(path), "--mode", "compare"]),
                 ExperimentSpec(mode="mc", filters_deg=[0.0, -0.0, 45.0], input_angle_deg=30)]
        for spec in specs:
            for copied in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
                assert copied == spec and hash(copied) == hash(spec)
                assert _same(copied, spec)
                assert not copied.filters_deg.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    copied.filters_deg[0] = 1.0
                assert copied == spec
