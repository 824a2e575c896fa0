"""Command-line front end: parse an experiment, run engines, emit reports.

Angles cross this boundary in degrees and are converted to radians once,
when the filter stack is built. Reports go to stdout (TSV or plain text),
diagnostics to stderr. Exit codes: 0 success (including a passing
compare), 1 compare failure, 2 usage error, 3 internal error, and 141,
quietly, when the reader closes stdout before the output ends.

Each result kind only builds a table (stack, TSV columns and footer, text
heading, cells and summary); one writer lays every table out in either
format, so the row layouts and number formatting live in one place. The
writer makes the output one block of 4096 rows at a time, each block one
byte string: a numpy formatter gives every cell exactly the bytes of
Python's 12-significant-digit `format(x, ".12g")`, and only the cells it
cannot prove exact (near a rounding tie, nan, inf, subnormal or extreme)
go through `format` itself. The renderers and :func:`run_experiment`
write each block to the text stream they are given as it is made, and
:func:`main` passes stdout, so a run holds one block of output, never all
of it. The stack travels as float64 arrays, from :func:`parse_stack_text`
through :class:`ExperimentSpec` to the engines.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import TextIO

import numpy as np

from ._cells import float_cells, int_cells, num as _num
from .core import Angle, ClassicalBeam, FilterStack, _angle_array, angle_from_degrees
from .engines import (
    CascadeTrace,
    ComparisonReport,
    MonteCarloConfig,
    MonteCarloReport,
    PhotonInput,
    _PHOTONS,
    _SEEDS,
    _integer,
    _tolerance,
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

# rows formatted and joined at a time: bounds the cells and row strings alive at once
_BLOCK_ROWS = 4096

# stack-file characters split into lines at a time: bounds the line strings alive at once
_PARSE_CHARS = 1 << 16


class UsageError(ValueError):
    """Bad command line or stack file; maps to exit code 2."""


def _real(value: object) -> float | None:
    """A real number other than a bool as a Python float; None for anything else."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return None


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
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
        # real fields are held as Python floats, which to_argv writes with float repr
        if self.input_angle_deg is not None:
            angle = _real(self.input_angle_deg)
            try:
                object.__setattr__(self, "input_angle", angle_from_degrees(angle))
            except (TypeError, ValueError):
                raise UsageError(f"--input: not a finite angle: {self.input_angle_deg!r}") from None
            object.__setattr__(self, "input_angle_deg", angle)
        # stricter than ClassicalBeam: a dark beam has no transmitted fraction to report
        intensity = _real(self.intensity)
        if intensity is None or not 0.0 < intensity < math.inf:
            raise UsageError(f"--intensity must be a finite real > 0, got {self.intensity!r}")
        object.__setattr__(self, "intensity", intensity)
        try:
            filters = _angle_array(self.filters_deg).copy()
        except (TypeError, ValueError):
            raise UsageError(f"--filters: not angles in degrees: {self.filters_deg!r}") from None
        filters.flags.writeable = False
        object.__setattr__(self, "filters_deg", filters)
        # the photon range is checked only where photons are sampled
        photon_range = _PHOTONS if self.mode == "mc" else ()
        try:
            # the library's rules, applied in every mode; integers kept as Python ints
            object.__setattr__(self, "photons", _integer(self.photons, "--photons", *photon_range))
            object.__setattr__(self, "seed", _integer(self.seed, "--seed", *_SEEDS))
            object.__setattr__(self, "workers", _integer(self.workers, "--workers", 1))
            _tolerance(self.tolerance, "--tolerance")
            object.__setattr__(self, "tolerance", float(self.tolerance))
            object.__setattr__(self, "stack", FilterStack.from_degrees(filters))
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def _scalars(self) -> tuple:
        names = [f.name for f in fields(self) if f.init and f.name != "filters_deg"]
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return self._scalars() == other._scalars() and np.array_equal(
            self.filters_deg, other.filters_deg
        )

    def __hash__(self) -> int:
        # -0.0 + 0.0 is 0.0, so stacks that compare equal hash alike
        return hash((self._scalars(), (self.filters_deg + 0.0).tobytes()))

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


def _pieces(text: str) -> Iterator[str]:
    # cut just after a "\n", which always ends a line for str.splitlines, so
    # the pieces split into the lines of the whole text
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PARSE_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _uncommented_lines(piece: str) -> list[str]:
    return [line.split("#", 1)[0] for line in piece.splitlines()]


def _code_lines(text: str) -> Iterator[str]:
    # the lines of `text`, split one piece at a time; if the text has a `#`,
    # each line is cut at its first one
    split = _uncommented_lines if "#" in text else str.splitlines
    return chain.from_iterable(map(split, _pieces(text)))


def parse_stack_text(text: str, source: str = "stack file") -> np.ndarray:
    """Parse stack-file text, one angle in degrees per line, to a float64 array.

    `#` begins a comment and blank lines are ignored. Each angle is read
    with `float()`. The text is split into lines one piece at a time, so
    only one piece's line strings are alive at once.
    """
    try:
        # float() strips the same whitespace as str.strip()
        return np.fromiter(map(float, filter(str.strip, _code_lines(text))), np.float64)
    except ValueError:
        # scan again only to name the first bad line
        for lineno, line in enumerate(map(str.strip, _code_lines(text)), start=1):
            try:
                if line:
                    float(line)
            except ValueError:
                raise UsageError(
                    f"{source} line {lineno}: not an angle in degrees: {line!r}"
                ) from None
        raise


def parse_spec(argv: list[str]) -> ExperimentSpec:
    """Parse command-line tokens into a validated :class:`ExperimentSpec`.

    Explicit --filters angles override the --stack-file contents.
    """
    args = vars(_build_parser().parse_args(argv))
    stack_file = args.pop("stack_file", None)
    if "filters_deg" not in args and stack_file is not None:
        try:
            with open(stack_file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"--stack-file: cannot read {stack_file!r}: {exc}") from None
        args["filters_deg"] = parse_stack_text(text, source=stack_file)
    return ExperimentSpec(**args)


def _block_cells(columns: list, lo: int, hi: int) -> list[np.ndarray]:
    # rows lo..hi of each column as a uint8 matrix of cells; missing cells read "-"
    out = []
    for column in columns:
        values, missing = column if isinstance(column, tuple) else (column, None)
        if values is _STAGE:
            cells = int_cells(np.arange(lo + 1, hi + 1))
        elif values.dtype.kind == "f":
            cells, lengths = float_cells(values[lo:hi])
            cells = cells[:, : lengths.max()]
        else:
            cells = int_cells(values[lo:hi])
        if missing is not None:
            cells[missing[lo:hi]] = 0
            cells[missing[lo:hi], 0] = ord("-")
        out.append(cells)
    return out


def _join(pieces: list[bytes], cells: list[np.ndarray]) -> str:
    # one row per cell row: pieces[0], cells[0], pieces[1], ..., pieces[-1];
    # the NULs that pad the cells are dropped
    row, spans = bytearray(), []
    for piece, cell in zip(pieces, [*cells, None]):
        row += piece
        if cell is not None:
            spans.append((len(row), cell))
            row += bytes(cell.shape[1])
    out = np.empty((len(cells[0]), len(row)), np.uint8)
    out[:] = np.frombuffer(row, np.uint8)
    for at, cell in spans:
        out[:, at:at + cell.shape[1]] = cell
    return out.tobytes().translate(None, b"\0").decode("ascii")


# the column of stage numbers, 1 to n, in a row layout
_STAGE = object()


@dataclass(frozen=True)
class _Table:
    """One result, one row per filter; :func:`_write` lays it out.

    `tsv_columns` fill the three value columns (`None` is a column of `-`);
    `text_cells` are a template and the columns that fill its `%s` fields
    in order, such as ``("intensity %s", column)``. A column is a 1-D numpy
    array of float64 or non-negative int64, or a (values, missing) pair of
    such arrays whose cells read `-` where `missing` is set.
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
    in a newline. A row is literal text around its cells, the stage number
    first; each block of rows is made as one byte string, so only one
    block of cells is alive at once.
    """
    if output_format not in _FORMATS:
        raise ValueError(f"unknown format {output_format!r}")
    axes = np.degrees(table.stack.radians)
    if output_format == "tsv":
        head, foot = _TSV_HEADER, table.tsv_footer
        items = ["", _STAGE, "\t", axes]
        for column in table.tsv_columns:
            items += ["\t", "-" if column is None else column]
        items.append("\n")
    else:
        head, foot = table.heading, [table.summary]
        items = ["  stage ", _STAGE, ": axis ", axes, " deg"]
        for template, *columns in table.text_cells:
            parts = template.split("%s")
            items.append(", " + parts[0])
            for column, part in zip(columns, parts[1:]):
                items += [column, part]
        items.append("\n")
    # the literal text between the columns
    pieces, columns = [""], []
    for item in items:
        if isinstance(item, str):
            pieces[-1] += item
        else:
            columns.append(item)
            pieces.append("")
    pieces = [p.encode("ascii") for p in pieces]
    yield head + "\n"
    for lo in range(0, len(axes), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(axes))
        yield _join(pieces, _block_cells(columns, lo, hi))
    for line in foot:
        yield line + "\n"


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
    columns = (trace.classical_intensity_after, trace.stage_pass_probability,
               trace.cumulative_probability)
    templates = ("intensity %s", "pass prob %s", "cumulative %s")
    final = _num(trace.final_transmitted_fraction)
    return _Table(
        stack=trace.stack,
        tsv_columns=columns,
        tsv_footer=[f"# final_fraction={final}"],
        heading=_describe_input(trace.input_description),
        text_cells=[(t, c) for t, c in zip(templates, columns) if c is not None],
        summary=f"transmitted fraction: {final}",
    )


def _mc_table(report: MonteCarloReport) -> _Table:
    n = report.photon_count
    counts = report.per_stage_survivor_counts
    before = np.append(n, counts)[:-1]
    missing = before == 0
    stage_prob = (np.divide(counts, before, out=np.zeros(len(counts)), where=~missing), missing)
    estimate, stderr = _num(report.estimate), _num(report.standard_error)
    lo, hi = (_num(x) for x in report.confidence_interval_95)
    return _Table(
        stack=report.config.stack,
        tsv_columns=(None, stage_prob, counts / n),
        tsv_footer=[
            f"# final_fraction={estimate}",
            f"# estimate={estimate} stderr={stderr} ci95={lo},{hi} seed={report.seed}",
        ],
        heading=_describe_input(report.config.input) + f", {n} photons, seed {report.seed}",
        text_cells=[("%s of %s photons passed", counts, before)],
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
    intensity, cumulative = classical.classical_intensity_after, quantum.cumulative_probability
    final, quantum_final = (_num(t.final_transmitted_fraction) for t in (classical, quantum))
    max_diff, tolerance = _num(report.max_difference), _num(report.tolerance)
    table = _Table(
        stack=classical.stack,
        tsv_columns=(intensity, quantum.stage_pass_probability, cumulative),
        tsv_footer=[
            f"# final_fraction={final}",
            f"# compare={verdict} max_diff={max_diff} tolerance={tolerance}",
        ],
        heading=_describe_input(classical.input_description),
        text_cells=[("intensity %s", intensity), ("cumulative prob %s", cumulative)],
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
    SIGPIPE ended.
    """
    if argv is None:
        argv = sys.argv[1:]
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
    except Exception as exc:
        # exit code 1 already means "compare failed", so a crash gets its own code
        print(f"polcascade: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        _discard_unwritable(out)
        return 3
    return exit_policy(result)


if __name__ == "__main__":
    sys.exit(main())
