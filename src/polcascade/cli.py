"""Command-line front end: parse an experiment, run engines, emit reports.

Angles cross this boundary in degrees and are converted to radians once,
when the filter stack is built. Reports go to stdout (TSV or plain text),
diagnostics to stderr. Exit codes: 0 success (including a passing
compare), 1 compare failure, 2 usage error, 3 internal error, and 141,
quietly, when the reader closes stdout before the output ends.

Each result kind only builds a table (stack, TSV columns and footer, text
heading, cells and summary); one writer lays every table out in either
format as one row of literal text and columns, so the row layouts live in
one place. It makes the output one block of 2048 rows at a time, each
block laid out by `_cells.text_rows`, which gives every number exactly the
bytes of Python's 12-significant-digit `format(x, ".12g")`. The renderers
and :func:`run_experiment` write each block to the text stream they are
given as it is made, and :func:`main` passes stdout, so a run holds one
block of output, never all of it. The stack travels as float64 arrays, from
:func:`parse_stack_text` through :class:`ExperimentSpec` to the engines;
:func:`parse_spec` lets the stack file's text go before the spec is built.
"""

from __future__ import annotations

# first, before argparse loads: compiled from source (no cached bytecode),
# _cells then reuses the heap room that compiling this module has just
# freed, which keeps a CLI run's peak RSS ~0.07 MB lower
from ._cells import num as _num, text_rows

import argparse
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from typing import TextIO

import numpy as np

from .core import Angle, ClassicalBeam, FilterStack, angle_from_degrees
from .core import _ByValue, _angle_array, _integer, _real
from .engines import (
    CascadeTrace,
    ComparisonReport,
    MonteCarloConfig,
    MonteCarloReport,
    PhotonInput,
    _PHOTONS,
    _SEEDS,
    _running_product,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
)

_MODES = ("classical", "quantum", "mc", "compare")
_FORMATS = ("tsv", "text")

# each flag and the ExperimentSpec field it sets, in to_argv's order
_FIELDS = {
    "--filters": "filters_deg",
    "--input": "input_angle_deg",
    "--intensity": "intensity",
    "--mode": "mode",
    "--photons": "photons",
    "--seed": "seed",
    "--tolerance": "tolerance",
    "--format": "output_format",
    "--workers": "workers",
}

_TSV_HEADER = "stage\taxis_deg\tclassical_intensity\tstage_prob\tcumulative_prob"

# rows laid out at a time: bounds the cells and row bytes alive at once
_BLOCK_ROWS = 2048

# stack-file characters split into lines at a time: bounds the line strings alive at once
_PARSE_CHARS = 1 << 16


class UsageError(ValueError):
    """Bad command line or stack file; maps to exit code 2."""


@dataclass(frozen=True, eq=False, slots=True)
class ExperimentSpec(_ByValue):
    """Validated description of one experiment run.

    `filters_deg` takes any sequence of numbers, by the library's rule for
    angles, and holds it as a read-only float64 array; specs compare and
    hash by value.
    """

    mode: str
    filters_deg: np.ndarray = ()
    input_angle_deg: float | None = None  # None: unpolarized
    intensity: float = 1.0
    photons: int = 1_000_000
    seed: int = 42
    tolerance: float = 1e-9
    output_format: str = "tsv"
    workers: int = 1
    # built once, when the spec is made: the run's stack and its input plane
    stack: FilterStack = field(init=False, repr=False)
    input_angle: Angle | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.output_format not in _FORMATS:
            raise UsageError(f"unknown format {self.output_format!r}")
        try:
            filters = _angle_array(self.filters_deg).copy()
        except ValueError as exc:
            raise UsageError(f"--filters: {exc}") from None
        filters.flags.writeable = False
        object.__setattr__(self, "filters_deg", filters)
        # the photon range is checked only where photons are sampled
        photon_range = _PHOTONS if self.mode == "mc" else ()
        try:
            # the library's rules, applied in every mode; numbers are held as
            # Python ints and floats, which to_argv writes with their repr
            if self.input_angle_deg is not None:
                angle = _real(self.input_angle_deg, "--input")
                object.__setattr__(self, "input_angle_deg", angle)
                object.__setattr__(self, "input_angle", angle_from_degrees(angle))
            # stricter than ClassicalBeam: a dark beam has no transmitted fraction
            # to report, and a subnormal one loses digits in the fold
            intensity = _real(self.intensity, "--intensity", sys.float_info.min)
            object.__setattr__(self, "intensity", intensity)
            object.__setattr__(self, "photons", _integer(self.photons, "--photons", *photon_range))
            object.__setattr__(self, "seed", _integer(self.seed, "--seed", *_SEEDS))
            object.__setattr__(self, "workers", _integer(self.workers, "--workers", 1))
            # + 0.0 turns -0.0 into 0.0, so the footer never reads "tolerance=-0"
            object.__setattr__(self, "tolerance", _real(self.tolerance, "--tolerance", 0) + 0.0)
            object.__setattr__(self, "stack", FilterStack.from_degrees(filters))
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def _key(self) -> tuple:
        # -0.0 + 0.0 is 0.0, so stacks that compare equal hash alike
        return (self.mode, (self.filters_deg + 0.0).tobytes(), self.input_angle_deg,
                self.intensity, self.photons, self.seed, self.tolerance, self.output_format,
                self.workers)

    def to_argv(self) -> list[str]:
        """Canonical flag list; parsing it back yields an identical spec.

        Each field is held as a Python int, float or str, whose str is its
        repr, so the round trip is lossless; the `--flag=value` form keeps
        negative angles unambiguous.
        """
        argv = []
        for flag, name in _FIELDS.items():
            value = getattr(self, name)
            if name == "filters_deg":
                if not len(value):
                    continue
                value = ",".join(map(repr, value.tolist()))
            elif name == "input_angle_deg":
                value = "unpolarized" if value is None else f"linear:{value}"
            argv.append(f"{flag}={value}")
        return argv


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process on bad flags; surface the message
    # as an exception instead so callers control the exit
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {token!r}") from None


def _whole_number(token: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {token!r}") from None


def _angle_list(token: str) -> tuple[float, ...]:
    return tuple(map(_number, token.split(",")))


def _input_angle(token: str) -> float | None:
    if token == "unpolarized":
        return None
    if token.startswith("linear:"):
        return _number(token[len("linear:"):])
    raise argparse.ArgumentTypeError(f"expected 'unpolarized' or 'linear:<deg>', got {token!r}")


def _build_parser() -> _Parser:
    # a flag left out is missing from the namespace, so the spec's default applies
    parser = _Parser(
        prog="polcascade",
        description=(
            "Simulate light transmission through a stack of ideal linear "
            "polarizers with classical, exact quantum, and Monte Carlo engines."
        ),
        argument_default=argparse.SUPPRESS,
    )

    def add(flag: str, **options) -> None:
        # --stack-file sets no field (parse_spec reads the file), so it keeps stack_file
        parser.add_argument(flag, dest=_FIELDS.get(flag), **options)

    add("--filters", type=_angle_list, metavar="A,B,C",
        help="comma-separated polarizer axis angles in degrees, in order")
    add("--stack-file", metavar="PATH",
        help="file with one axis angle in degrees per line (# comments allowed); "
        "--filters takes precedence")
    add("--input", type=_input_angle, metavar="KIND",
        help="'unpolarized' or 'linear:<deg>' (default: unpolarized)")
    add("--intensity", type=_number, help="input intensity > 0 (default 1.0)")
    add("--mode", required=True, choices=_MODES,
        help="which engine to run, or 'compare' for classical vs quantum")
    add("--photons", type=_whole_number, help="photon count for mc mode (default 1000000)")
    add("--seed", type=_whole_number, help="Monte Carlo seed, unsigned 64-bit (default 42)")
    add("--tolerance", type=_number, help="compare-mode tolerance (default 1e-9)")
    add("--format", choices=_FORMATS, help="output format (default tsv)")
    add("--workers", type=_whole_number,
        help="worker count for mc mode; results do not depend on it (default 1)")
    return parser


def _code_lines(text: str) -> Iterator[list[str]]:
    # the lines of `text`, each cut at its first `#`, one piece's list at a
    # time; a piece ends just after a "\n", which always ends a line for
    # str.splitlines, so the pieces split into the lines of the whole text.
    # Neither a piece nor its lines is bound to a name here, so each is let
    # go before the next piece is split.
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PARSE_CHARS) + 1 or len(text)
        if text.find("#", start, end) < 0:
            yield text[start:end].splitlines()
        else:
            yield [line.split("#", 1)[0] for line in text[start:end].splitlines()]
        start = end


def parse_stack_text(text: str, source: str = "stack file") -> np.ndarray:
    """Parse stack-file text, one angle in degrees per line, to a float64 array.

    `#` begins a comment and blank lines are ignored. Each angle is read
    with `float()` and must be finite. The text is split into lines one
    piece at a time, so only one piece's line strings are alive at once.
    """
    try:
        # float() strips the same whitespace as str.strip()
        lines = chain.from_iterable(_code_lines(text))
        angles = np.fromiter(map(float, filter(str.strip, lines)), np.float64)
        if np.count_nonzero(np.isfinite(angles)) == len(angles):
            return angles
    except ValueError:
        pass
    # scan again only to name the first line that is not a finite angle
    for lineno, line in enumerate(map(str.strip, chain.from_iterable(_code_lines(text))), start=1):
        try:
            if not line or math.isfinite(float(line)):
                continue
        except ValueError:
            pass
        raise UsageError(f"{source} line {lineno}: not an angle in degrees: {line!r}")
    raise AssertionError("a line failed the first scan but not the second")


def parse_spec(argv: list[str] | None) -> ExperimentSpec:
    """Parse command-line tokens (None: `sys.argv[1:]`) into a validated :class:`ExperimentSpec`.

    Explicit --filters angles override the --stack-file contents.
    """
    args = vars(_build_parser().parse_args(argv))
    stack_file = args.pop("stack_file", None)
    if "filters_deg" not in args and stack_file is not None:
        try:
            with open(stack_file, encoding="utf-8") as fh:
                text = fh.read().removeprefix("\ufeff")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"--stack-file: cannot read {stack_file!r}: {exc}") from None
        args["filters_deg"] = parse_stack_text(text, source=stack_file)
        # the text, ~18 bytes a filter, is let go before the spec copies the angles
        del text
    return ExperimentSpec(**args)


@dataclass(frozen=True, slots=True)
class _Table:
    """One result, one row per filter; :func:`_write` lays it out.

    `tsv_columns` fill the three value columns (`None` is a column of `-`);
    each of `text_cells` is a list of literal text and columns in row order,
    such as ``("intensity ", column)`` or
    ``(counts, " of ", before, " photons passed")``; a column is any that
    :func:`text_rows` takes.
    """

    stack: FilterStack
    tsv_columns: tuple
    tsv_footer: list[str]
    heading: str
    text_cells: list[tuple]
    summary: str


def _write(table: _Table, output_format: str) -> Iterator[str]:
    """Lay a table out as TSV or text; only here are the row layouts known.

    Yields the header, each block of rows and the footer, every one ending
    in a newline. A row is its stage number, its axis and its cells, and
    each block of rows is laid out by :func:`text_rows`, so only one block
    of cells is alive at once. The axes are turned into degrees one block
    at a time too, so no whole-stack column is added.
    """
    if output_format not in _FORMATS:
        raise ValueError(f"unknown format {output_format!r}")

    def stages(lo: int, hi: int) -> np.ndarray:
        return np.arange(lo + 1, hi + 1)

    def axes(lo: int, hi: int) -> np.ndarray:
        return np.degrees(table.stack.radians[lo:hi])

    if output_format == "tsv":
        head, foot = _TSV_HEADER, table.tsv_footer
        row = [stages, "\t", axes]
        for column in table.tsv_columns:
            row += ["\t", "-" if column is None else column]
    else:
        head, foot = table.heading, [table.summary]
        row = ["  stage ", stages, ": axis ", axes, " deg"]
        for cell in table.text_cells:
            row += [", ", *cell]
    row.append("\n")
    yield head + "\n"
    n = len(table.stack)
    for lo in range(0, n, _BLOCK_ROWS):
        yield text_rows(row, lo, min(lo + _BLOCK_ROWS, n))
    for line in foot:
        yield line + "\n"


@dataclass(frozen=True, eq=False, slots=True)
class _RunningProduct:
    """The running product of `factors`, a column :func:`text_rows` makes a
    block of rows at a time.

    It holds the product before each block of `_BLOCK_ROWS` rows, one float
    a block, so a block is made from its own factors and carry, in any
    order, with the bits of one sequential product over the whole column.
    """

    factors: np.ndarray
    carries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # each block's carry is the last product of the block before
        object.__setattr__(self, "carries", np.ones(-(-len(self.factors) // _BLOCK_ROWS)))
        for k in range(1, len(self.carries)):
            self.carries[k] = self((k - 1) * _BLOCK_ROWS, k * _BLOCK_ROWS)[-1]

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        start = lo - lo % _BLOCK_ROWS  # the block that holds row lo
        carry = self.carries[lo // _BLOCK_ROWS]
        return _running_product(self.factors[start:hi], carry, np.empty(hi - start))[lo - start:]


def render_trace(
    result: CascadeTrace | MonteCarloReport, output_format: str, out: TextIO
) -> None:
    """Render one engine result to `out`, block by block as it is made.

    TSV rows carry the per-stage numbers with `-` for cells the engine does
    not produce; Monte Carlo rows show the empirical per-stage fractions.
    """
    table = _mc_table(result) if isinstance(result, MonteCarloReport) else _cascade_table(result)
    out.writelines(_write(table, output_format))


def _cascade_table(trace: CascadeTrace) -> _Table:
    probs = trace.stage_pass_probability
    columns = (trace.classical_intensity_after, probs,
               None if probs is None else _RunningProduct(probs))
    labels = ("intensity ", "pass prob ", "cumulative ")
    final = _num(trace.final_transmitted_fraction)
    return _Table(
        stack=trace.stack,
        tsv_columns=columns,
        tsv_footer=[f"# final_fraction={final}"],
        heading=_describe_input(trace.input_description),
        text_cells=[(label, c) for label, c in zip(labels, columns) if c is not None],
        summary=f"transmitted fraction: {final}",
    )


def _mc_table(report: MonteCarloReport) -> _Table:
    # every column but the counts is made for one block of rows at a time
    n = report.photon_count
    counts = report.per_stage_survivor_counts

    def before(lo: int, hi: int) -> np.ndarray:
        # the photons that reached each stage: n at the first, then the survivors
        return np.append(counts[lo - 1] if lo else n, counts[lo:hi - 1])

    def stage_prob(lo: int, hi: int) -> np.ndarray:
        reached = before(lo, hi)
        return np.divide(counts[lo:hi], reached, out=np.zeros(hi - lo), where=reached != 0)

    estimate, stderr = _num(report.estimate), _num(report.standard_error)
    lo, hi = (_num(x) for x in report.confidence_interval_95)
    return _Table(
        stack=report.config.stack,
        tsv_columns=(None, (stage_prob, lambda lo, hi: before(lo, hi) == 0),
                     lambda lo, hi: counts[lo:hi] / n),
        tsv_footer=[
            f"# final_fraction={estimate}",
            f"# estimate={estimate} stderr={stderr} ci95={lo},{hi} seed={report.seed}",
        ],
        heading=_describe_input(report.config.input) + f", {n} photons, seed {report.seed}",
        text_cells=[(counts, " of ", before, " photons passed")],
        summary=f"transmitted fraction: {estimate} (stderr {stderr}, 95% CI [{lo}, {hi}])",
    )


def render_comparison(
    classical: CascadeTrace,
    quantum: CascadeTrace,
    report: ComparisonReport,
    output_format: str,
    out: TextIO,
) -> None:
    """Render a classical and a quantum trace side by side with the verdict.

    The output goes to `out` as in :func:`render_trace`.
    """
    verdict = "pass" if report.passed else "fail"
    intensity, probs = classical.classical_intensity_after, quantum.stage_pass_probability
    cumulative = _RunningProduct(probs)
    final, quantum_final = (_num(t.final_transmitted_fraction) for t in (classical, quantum))
    max_diff, tolerance = _num(report.max_difference), _num(report.tolerance)
    table = _Table(
        stack=classical.stack,
        tsv_columns=(intensity, probs, cumulative),
        tsv_footer=[
            f"# final_fraction={final}",
            f"# compare={verdict} max_diff={max_diff} tolerance={tolerance}",
        ],
        heading=_describe_input(classical.input_description),
        text_cells=[("intensity ", intensity), ("cumulative prob ", cumulative)],
        summary=f"classical fraction {final} vs quantum probability {quantum_final}: "
        f"{verdict} (max diff {max_diff}, tolerance {tolerance})",
    )
    out.writelines(_write(table, output_format))


def _describe_input(desc: ClassicalBeam | PhotonInput) -> str:
    if isinstance(desc, ClassicalBeam):
        if desc.plane is None:
            return f"input: unpolarized, intensity {_num(desc.intensity)}"
        return (
            f"input: linear at {_num(desc.plane.degrees)} deg, "
            f"intensity {_num(desc.intensity)}"
        )
    if desc.is_unpolarized:
        return "input: unpolarized photons"
    return f"input: photons polarized at {_num(desc.angle.degrees)} deg"


def exit_policy(result) -> int:
    """Process exit code for a completed run: compare failures map to 1."""
    if isinstance(result, ComparisonReport) and not result.passed:
        return 1
    return 0


def run_experiment(
    spec: ExperimentSpec, out: TextIO
) -> CascadeTrace | MonteCarloReport | ComparisonReport:
    """Execute the requested mode, rendering its report to `out`; returns the result."""
    stack, angle = spec.stack, spec.input_angle
    if spec.mode == "compare":
        classical = run_classical(ClassicalBeam(spec.intensity, angle), stack)
        quantum = run_quantum_exact(PhotonInput(angle), stack)
        report = compare(classical, quantum, spec.tolerance)
        render_comparison(classical, quantum, report, spec.output_format, out)
        return report
    if spec.mode == "classical":
        result = run_classical(ClassicalBeam(spec.intensity, angle), stack)
    elif spec.mode == "quantum":
        result = run_quantum_exact(PhotonInput(angle), stack)
    else:
        config = MonteCarloConfig(
            photon_count=spec.photons,
            seed=spec.seed,
            input=PhotonInput(angle),
            stack=stack,
        )
        result = run_monte_carlo(config, workers=spec.workers)
    render_trace(result, spec.output_format, out)
    return result


def _discard_unwritable(out: TextIO) -> None:
    # the interpreter flushes stdout once more at exit, and a second failure
    # there would print another error and exit 120; bytes the stream cannot
    # take go to the null device instead
    try:
        out.flush()
    except Exception:
        try:
            fd = out.fileno()
        except (AttributeError, OSError, ValueError):  # not a file, or closed
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; the report is written to stdout as it is made.

    A failure while writing exits 3 like any other crash, possibly after
    part of the output. A reader that closes the pipe early is not a
    failure: the run stops quietly with 141, the code of a process that
    SIGPIPE ended. Ctrl-C stops it with one line on stderr and 130, the
    code of a process that SIGINT ended.
    """
    out = sys.stdout
    try:
        result = run_experiment(parse_spec(argv), out)
        out.flush()
    except UsageError as exc:
        print(f"polcascade: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _discard_unwritable(out)
        return 141
    except KeyboardInterrupt:
        _discard_unwritable(out)
        print("polcascade: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # exit code 1 already means "compare failed", so a crash gets its own code
        print(f"polcascade: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        _discard_unwritable(out)
        return 3
    return exit_policy(result)


if __name__ == "__main__":
    sys.exit(main())
