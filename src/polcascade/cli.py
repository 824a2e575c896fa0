"""Command-line front end: parse an experiment, run engines, emit reports.

Angles cross this boundary in degrees and are converted to radians once,
when the filter stack is built. Reports go to stdout (TSV or plain text),
diagnostics to stderr. Exit codes: 0 success (including a passing
compare), 1 compare failure, 2 usage error, 3 internal error, and 141,
quietly, when the reader closes stdout before the output ends.

Each result kind only builds a table (stack, results, TSV columns and
footer, text heading, cells and summary). One writer lays every table out
in either format, one block of 2048 rows at a time: a row is literal text
and indexes into the block's arrays (its stage numbers, axes in degrees and
results' arrays), laid out by `_cells.text_rows` with every number exactly
the bytes of Python's 12-significant-digit `format(x, ".12g")`. The renderers
and :func:`run_experiment` write each block to the text stream they are
given as it is made, and :func:`main` passes stdout, so a run holds one
block of output, never all of it. The stack travels as one float64 array:
:func:`parse_spec` reads the stack file (a pipe from a copy) a piece at a
time into the degrees the spec keeps with no copy, and :func:`main` lets
the spec go and makes the run's radians from those degrees in their own
memory, so a run holds one whole-stack column; :func:`run_experiment`
makes the radians from a copy and leaves its spec as it was.
"""

from __future__ import annotations

# first, before argparse loads: compiled from source (no cached bytecode),
# _cells then reuses the heap room that compiling this module has just
# freed, which keeps a CLI run's peak RSS ~0.07 MB lower
from ._cells import num as _num, text_rows

import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import TextIO

import numpy as np

from ._flags import _FIELDS, _FORMATS, _MODES, UsageError, _build_parser
from .core import Angle, ClassicalBeam, FilterStack, angle_from_degrees
from .core import _ArrayKey, _ByValue, _Owned, _angle_array, _finite_min, _integer, _real, _rebuilt
from .engines import (
    CascadeTrace,
    ComparisonReport,
    MonteCarloConfig,
    MonteCarloReport,
    PhotonInput,
    _BLOCK,
    _PHOTONS,
    _SEEDS,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
)

_TSV_HEADER = "stage\taxis_deg\tclassical_intensity\tstage_prob\tcumulative_prob"

# stack-file characters split into lines at a time: bounds the line strings alive at once
_PARSE_CHARS = 1 << 15


@dataclass(frozen=True, eq=False, slots=True)
class ExperimentSpec(_ByValue):
    """Validated description of one experiment run.

    `filters_deg` takes any sequence of numbers, by the library's rule for
    angles, and holds it as a read-only float64 array; specs compare and
    hash by value, reading the array in place, and their copies are
    read-only too.
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
    # built once, when the spec is made: the run's input plane
    input_angle: Angle | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.output_format not in _FORMATS:
            raise UsageError(f"unknown format {self.output_format!r}")
        given = self.filters_deg
        try:
            # a caller's value is copied, since its owner may write it
            filters = given[0] if type(given) is _Owned else _angle_array(given).copy()
        except ValueError as exc:
            raise UsageError(f"--filters: {exc}") from None
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
            _finite_min(filters)  # the stack's rule, checked before any stack is built
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        filters.flags.writeable = False
        object.__setattr__(self, "filters_deg", filters)

    def _key(self) -> tuple:
        # the degrees are compared and hashed where they are
        return (self.mode, _ArrayKey(self.filters_deg), self.input_angle_deg, self.intensity,
                self.photons, self.seed, self.tolerance, self.output_format, self.workers)

    __reduce__ = _rebuilt

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


def _code_lines(text: str | TextIO) -> Iterator[list[str]]:
    # the lines of `text`, each cut at its first `#`, one piece's list at a
    # time; a piece ends just after a "\n", which always ends a line for
    # str.splitlines, so the pieces split into the lines of the whole text.
    # A str's pieces and their lines are bound to no name here, so each is
    # let go before the next piece is split. A file's piece is what one
    # read of _PARSE_CHARS characters gives, and the rest of its last line.
    if not isinstance(text, str):
        while piece := text.read(_PARSE_CHARS) + text.readline():
            yield from _code_lines(piece)
        return
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PARSE_CHARS) + 1 or len(text)
        if text.find("#", start, end) < 0:
            yield text[start:end].splitlines()
        else:
            yield [line.split("#", 1)[0] for line in text[start:end].splitlines()]
        start = end


def parse_stack_text(text: str | TextIO, source: str = "stack file") -> np.ndarray:
    """Parse stack-file text, one angle in degrees per line, to a float64 array.

    `text` is a `str` or a text file open for reading, which is read in
    pieces from where it stands, and from there again if a line is bad.
    `#` begins a comment and blank lines are ignored. Each angle is read
    with `float()` and must be finite. The text is split into lines one
    piece at a time, so only one piece's line strings are alive at once.
    """
    start = None if isinstance(text, str) else text.tell()
    try:
        # float() strips the same whitespace as str.strip()
        lines = chain.from_iterable(_code_lines(text))
        angles = np.fromiter(map(float, filter(str.strip, lines)), np.float64)
        if np.count_nonzero(np.isfinite(angles)) == len(angles):
            return angles
    except ValueError:
        pass
    # scan again only to name the first line that is not a finite angle
    if start is not None:
        text.seek(start)
    for lineno, line in enumerate(map(str.strip, chain.from_iterable(_code_lines(text))), start=1):
        try:
            if not line or math.isfinite(float(line)):
                continue
        except ValueError:
            pass
        raise UsageError(f"{source} line {lineno}: not an angle in degrees: {line!r}")
    raise AssertionError("a line failed the first scan but not the second")


def _decode_error(exc: UnicodeDecodeError, offset: int) -> str:
    # the codec's own words for a decode error whose bytes start `offset`
    # bytes into the file: a text file decodes a buffer at a time, and the
    # error counts from the buffer's start
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end - start == 1
             else f"bytes in position {start}-{end - 1}")
    return f"{exc.encoding!r} codec can't decode {where}: {exc.reason}"


def parse_spec(argv: list[str] | None) -> ExperimentSpec:
    """Parse command-line tokens (None: `sys.argv[1:]`) into a validated :class:`ExperimentSpec`.

    Explicit --filters angles override the --stack-file contents.
    """
    args = vars(_build_parser().parse_args(argv))
    stack_file = args.pop("stack_file", None)
    if "filters_deg" not in args and stack_file is not None:
        try:
            fh = open(stack_file, encoding="utf-8")
            if not fh.seekable():
                # a bad line is named by reading the file again: a pipe is copied first
                import shutil, tempfile
                with fh as pipe:
                    fh = tempfile.TemporaryFile("w+", encoding="utf-8")
                    shutil.copyfileobj(pipe.buffer, fh.buffer, 1 << 16)
                fh.seek(0)
            with fh:
                # a byte order mark, which Windows editors write, is skipped
                if fh.read(1) != "\ufeff":
                    fh.seek(0)
                try:
                    # held by the spec as it is, with no second copy
                    args["filters_deg"] = _Owned([parse_stack_text(fh, source=stack_file)])
                except UnicodeDecodeError as exc:
                    # reported below, like any file that cannot be read
                    raise OSError(_decode_error(exc, fh.buffer.tell() - len(exc.object))) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"--stack-file: cannot read {stack_file!r}: {exc}") from None
    return ExperimentSpec(**args)


@dataclass(frozen=True, slots=True)
class _Table:
    """One result, one row per filter; :func:`_write` lays it out.

    Each block of rows has a list of arrays: its stage numbers, its axes in
    degrees, then each of `results`' arrays for it (see :func:`_block_arrays`).
    `tsv_columns` fill the three value columns, each an index into that
    list or literal text (`-` where the result has no such column); each of
    `text_cells` is literal text and indexes in row order, such as
    ``("intensity ", 2)`` or ``(2, " of ", 3, " photons passed")``.
    """

    stack: FilterStack
    results: tuple
    tsv_columns: tuple
    tsv_footer: list[str]
    heading: str
    text_cells: list[tuple]
    summary: str


def _mc_block(report: MonteCarloReport, lo: int) -> list:
    # a block of stages' counts, the photons that reached each (n, then the survivors),
    # the stage fraction of those with its `-` where none did, and the fraction of all
    n, counts = report.photon_count, report.per_stage_survivor_counts
    block = counts[lo:lo + _BLOCK]
    reached = np.append(counts[lo - 1] if lo else n, block[:-1])
    unreached = reached == 0
    fraction = np.divide(block, reached, out=np.zeros(len(block)), where=~unreached)
    return [block, reached, (fraction, unreached), block / n]


def _block_arrays(result: CascadeTrace | MonteCarloReport) -> Iterator:
    # a result's arrays for each block of rows, each made by a call, so no frame here
    # holds one: a trace's column and its running product, or a report's _mc_block
    if isinstance(result, MonteCarloReport):
        return map(_mc_block, repeat(result), range(0, len(result.config.stack), _BLOCK))
    return map(itemgetter(slice(1, None)), result._blocks())


def _write(table: _Table, output_format: str) -> Iterator[str]:
    """Lay a table out as TSV or text; only here are the row layouts known.

    Yields the header, each block of rows and the footer, every one ending
    in a newline. A row is its stage number, its axis and its cells. Each
    block of rows is laid out by :func:`text_rows` from the arrays the row
    shows, which it lets go as it lays them out, so only one block of cells
    is alive at once, and no whole-stack column is added.
    """
    if output_format not in _FORMATS:
        raise ValueError(f"unknown format {output_format!r}")
    if output_format == "tsv":
        head, foot = _TSV_HEADER, table.tsv_footer
        row = [0, "\t", 1]
        for column in table.tsv_columns:
            row += ["\t", column]
    else:
        head, foot = table.heading, [table.summary]
        row = ["  stage ", 0, ": axis ", 1, " deg"]
        for cell in table.text_cells:
            row += [", ", *cell]
    row.append("\n")
    walks = list(map(_block_arrays, table.results))
    yield head + "\n"
    n = len(table.stack)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block = [np.arange(lo + 1, hi + 1), np.degrees(table.stack.radians[lo:hi]),
                 *chain.from_iterable(map(next, walks))]
        items = [item if isinstance(item, str) else block[item] for item in row]
        del block  # text_rows lets each array go once its cells are laid out
        yield text_rows(items, hi - lo)
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
    # the walk's column: the intensities, or the stage probabilities and their product
    classical = isinstance(trace.input_description, ClassicalBeam)
    final = _num(trace.final_transmitted_fraction)
    return _Table(
        stack=trace.stack,
        results=(trace,),
        tsv_columns=(2, "-", "-") if classical else ("-", 2, 3),
        tsv_footer=[f"# final_fraction={final}"],
        heading=_describe_input(trace.input_description),
        text_cells=[("intensity ", 2)] if classical else [("pass prob ", 2), ("cumulative ", 3)],
        summary=f"transmitted fraction: {final}",
    )


def _mc_table(report: MonteCarloReport) -> _Table:
    estimate, stderr = _num(report.estimate), _num(report.standard_error)
    lo, hi = (_num(x) for x in report.confidence_interval_95)
    return _Table(
        stack=report.config.stack,
        results=(report,),
        tsv_columns=("-", 4, 5),
        tsv_footer=[
            f"# final_fraction={estimate}",
            f"# estimate={estimate} stderr={stderr} ci95={lo},{hi} seed={report.seed}",
        ],
        heading=_describe_input(report.config.input)
        + f", {report.photon_count} photons, seed {report.seed}",
        text_cells=[(2, " of ", 3, " photons passed")],
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
    final, quantum_final = (_num(t.final_transmitted_fraction) for t in (classical, quantum))
    max_diff, tolerance = _num(report.max_difference), _num(report.tolerance)
    # the walks' columns: the intensities, the stage probabilities and their product
    table = _Table(
        stack=classical.stack,
        results=(classical, quantum),
        tsv_columns=(2, 4, 5),
        tsv_footer=[
            f"# final_fraction={final}",
            f"# compare={verdict} max_diff={max_diff} tolerance={tolerance}",
        ],
        heading=_describe_input(classical.input_description),
        text_cells=[("intensity ", 2), ("cumulative prob ", 5)],
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
    """Execute the requested mode, rendering its report to `out`; returns the result.

    The run's stack is made from a copy of the spec's degrees, so the spec
    is left as it was.
    """
    return _run(_run_inputs(spec), out)


# what a run takes from its spec; a caller that passes a spec it holds
# nowhere else lets the spec go when this returns
_run_inputs = attrgetter("mode", "filters_deg", "input_angle", "intensity", "photons", "seed",
                         "tolerance", "output_format", "workers")


def _run(
    inputs: tuple, out: TextIO, owned: bool = False
) -> CascadeTrace | MonteCarloReport | ComparisonReport:
    # the engines and renderers are looked up on the module on every call,
    # so a caller can replace them; `owned`: nothing but `inputs` holds the
    # degrees, so the stack's radians are made in their memory
    mode, degrees, angle, intensity, photons, seed, tolerance, output_format, workers = inputs
    stack = FilterStack.from_degrees(_Owned([degrees]) if owned else degrees)
    if mode == "compare":
        classical = run_classical(ClassicalBeam(intensity, angle), stack)
        quantum = run_quantum_exact(PhotonInput(angle), stack)
        report = compare(classical, quantum, tolerance)
        render_comparison(classical, quantum, report, output_format, out)
        return report
    if mode == "classical":
        result = run_classical(ClassicalBeam(intensity, angle), stack)
    elif mode == "quantum":
        result = run_quantum_exact(PhotonInput(angle), stack)
    else:
        config = MonteCarloConfig(photon_count=photons, seed=seed, input=PhotonInput(angle),
                                  stack=stack)
        result = run_monte_carlo(config, workers=workers)
    render_trace(result, output_format, out)
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
        # the spec is let go as soon as its run inputs are out, so only they
        # hold its degrees, whose memory becomes the run's radians: a run holds
        # one whole-stack column. A `del` inside run_experiment would not do it
        # on Python 3.10, where a caller holds its call's arguments until the
        # call returns
        result = _run(_run_inputs(parse_spec(argv)), out, True)
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
