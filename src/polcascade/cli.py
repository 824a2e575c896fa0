"""Command-line front end: parse an experiment, run engines, emit reports.

Angles cross this boundary in degrees and are converted to radians once,
when the filter stack is built. Reports go to stdout (TSV or plain text),
diagnostics to stderr. Exit codes: 0 success (including a passing
compare), 1 compare failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ClassicalBeam, FilterStack, angle_from_degrees
from .engines import (
    CascadeTrace,
    ComparisonReport,
    MonteCarloConfig,
    MonteCarloReport,
    PhotonInput,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
)

_MODES = ("classical", "quantum", "mc", "compare")
_FORMATS = ("tsv", "text")

_TSV_HEADER = "stage\taxis_deg\tclassical_intensity\tstage_prob\tcumulative_prob"


class UsageError(ValueError):
    """Bad command line or stack file; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one experiment run."""

    mode: str
    filters_deg: tuple[float, ...] = ()
    input_kind: str = "unpolarized"  # "unpolarized" | "linear"
    input_angle_deg: float | None = None
    intensity: float = 1.0
    photons: int = 1_000_000
    seed: int = 42
    tolerance: float = 1e-9
    output_format: str = "tsv"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.output_format not in _FORMATS:
            raise UsageError(f"unknown format {self.output_format!r}")
        if self.input_kind not in ("unpolarized", "linear"):
            raise UsageError(f"unknown input kind {self.input_kind!r}")
        if self.input_kind == "linear":
            if self.input_angle_deg is None or not math.isfinite(self.input_angle_deg):
                raise UsageError("linear input needs a finite angle in degrees")
        for a in self.filters_deg:
            if not math.isfinite(a):
                raise UsageError(f"filter angle must be finite, got {a!r}")
        if not math.isfinite(self.intensity) or self.intensity <= 0.0:
            raise UsageError(f"--intensity must be > 0, got {self.intensity!r}")
        if self.mode == "mc" and self.photons < 1:
            raise UsageError(f"--photons must be >= 1, got {self.photons!r}")
        if not 0 <= self.seed < 2**64:
            raise UsageError(f"--seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not math.isfinite(self.tolerance) or self.tolerance < 0.0:
            raise UsageError(f"--tolerance must be >= 0, got {self.tolerance!r}")
        if self.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {self.workers!r}")

    def to_argv(self) -> list[str]:
        """Canonical flag list; parsing it back yields an identical spec.

        Floats are rendered with repr so the round trip is lossless; the
        `--flag=value` form keeps negative angles unambiguous.
        """
        argv = []
        if self.filters_deg:
            argv.append("--filters=" + ",".join(repr(a) for a in self.filters_deg))
        if self.input_kind == "linear":
            argv.append(f"--input=linear:{self.input_angle_deg!r}")
        else:
            argv.append("--input=unpolarized")
        argv.append(f"--intensity={self.intensity!r}")
        argv.append(f"--mode={self.mode}")
        argv.append(f"--photons={self.photons}")
        argv.append(f"--seed={self.seed}")
        argv.append(f"--tolerance={self.tolerance!r}")
        argv.append(f"--format={self.output_format}")
        argv.append(f"--workers={self.workers}")
        return argv

    def stack(self) -> FilterStack:
        return FilterStack.from_degrees(self.filters_deg)


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process on bad flags; surface the message
    # as an exception instead so callers control the exit
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polcascade",
        description=(
            "Simulate light transmission through a stack of ideal linear "
            "polarizers with classical, exact quantum, and Monte Carlo engines."
        ),
    )
    parser.add_argument(
        "--filters",
        metavar="A,B,C",
        help="comma-separated polarizer axis angles in degrees, in order",
    )
    parser.add_argument(
        "--stack-file",
        metavar="PATH",
        help="file with one axis angle in degrees per line (# comments allowed); "
        "--filters takes precedence",
    )
    parser.add_argument(
        "--input",
        default="unpolarized",
        metavar="KIND",
        help="'unpolarized' or 'linear:<deg>' (default: unpolarized)",
    )
    parser.add_argument("--intensity", default="1.0", help="input intensity > 0 (default 1.0)")
    parser.add_argument(
        "--mode",
        required=True,
        choices=_MODES,
        help="which engine to run, or 'compare' for classical vs quantum",
    )
    parser.add_argument("--photons", default="1000000", help="photon count for mc mode (default 1000000)")
    parser.add_argument("--seed", default="42", help="Monte Carlo seed, unsigned 64-bit (default 42)")
    parser.add_argument("--tolerance", default="1e-9", help="compare-mode tolerance (default 1e-9)")
    parser.add_argument("--format", default="tsv", choices=_FORMATS, help="output format (default tsv)")
    parser.add_argument(
        "--workers",
        default="1",
        help="worker count for mc mode; results do not depend on it (default 1)",
    )
    return parser


def _parse_float(token: str, flag: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"{flag}: not a number: {token!r}") from None


def _parse_int(token: str, flag: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise UsageError(f"{flag}: not an integer: {token!r}") from None


def parse_stack_text(text: str, source: str = "stack file") -> tuple[float, ...]:
    """Parse stack-file text: one angle in degrees per line.

    `#` begins a comment and blank lines are ignored.
    """
    angles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            angles.append(float(line))
        except ValueError:
            raise UsageError(
                f"{source} line {lineno}: not an angle in degrees: {line!r}"
            ) from None
    return tuple(angles)


def parse_spec(argv: list[str], stack_file_text: str | None = None) -> ExperimentSpec:
    """Parse command-line tokens into a validated :class:`ExperimentSpec`.

    `stack_file_text` substitutes for reading --stack-file from disk (the
    flag's path is then only a label). Explicit --filters angles override
    stack-file contents.
    """
    ns = _build_parser().parse_args(argv)

    if ns.filters is not None:
        filters = tuple(
            _parse_float(tok, "--filters") for tok in ns.filters.split(",")
        )
    elif stack_file_text is not None:
        filters = parse_stack_text(stack_file_text)
    elif ns.stack_file is not None:
        try:
            with open(ns.stack_file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"--stack-file: cannot read {ns.stack_file!r}: {exc}") from None
        filters = parse_stack_text(text, source=ns.stack_file)
    else:
        filters = ()

    if ns.input == "unpolarized":
        kind, angle = "unpolarized", None
    elif ns.input.startswith("linear:"):
        kind = "linear"
        angle = _parse_float(ns.input[len("linear:"):], "--input")
    else:
        raise UsageError(
            f"--input: expected 'unpolarized' or 'linear:<deg>', got {ns.input!r}"
        )

    return ExperimentSpec(
        mode=ns.mode,
        filters_deg=filters,
        input_kind=kind,
        input_angle_deg=angle,
        intensity=_parse_float(ns.intensity, "--intensity"),
        photons=_parse_int(ns.photons, "--photons"),
        seed=_parse_int(ns.seed, "--seed"),
        tolerance=_parse_float(ns.tolerance, "--tolerance"),
        output_format=ns.format,
        workers=_parse_int(ns.workers, "--workers"),
    )


def _num(x: float) -> str:
    # 12 significant digits, trailing zeros trimmed, locale-independent
    return format(float(x), ".12g")


def _cells(column, n: int) -> list[str]:
    # one formatted cell per stage; `-` where the engine has no value
    if column is None:
        return ["-"] * n
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return ["-" if x is None else _num(x) for x in column]


def _stage_cells(stack: FilterStack, *columns) -> list[tuple[str, ...]]:
    """Rows of (stage, axis_deg, *column cells), one per filter."""
    n = len(stack)
    return list(
        zip(
            [str(i) for i in range(1, n + 1)],
            _cells(np.degrees(stack.radians), n),
            *(_cells(c, n) for c in columns),
        )
    )


def _tsv(rows: list[tuple[str, ...]], footer: list[str]) -> str:
    return "\n".join([_TSV_HEADER, *("\t".join(r) for r in rows), *footer]) + "\n"


def render_trace(result: CascadeTrace | MonteCarloReport, output_format: str = "tsv") -> str:
    """Render one engine result deterministically.

    TSV rows carry the per-stage numbers with `-` for cells the engine does
    not produce; Monte Carlo rows show the empirical per-stage fractions.
    """
    if output_format not in _FORMATS:
        raise ValueError(f"unknown format {output_format!r}")
    if isinstance(result, MonteCarloReport):
        return _render_mc(result, output_format)
    return _render_cascade(result, output_format)


def _render_cascade(trace: CascadeTrace, output_format: str) -> str:
    columns = {
        "intensity": trace.classical_intensity_after,
        "pass prob": trace.stage_pass_probability,
        "cumulative": trace.cumulative_probability,
    }
    final = _num(trace.final_transmitted_fraction)
    if output_format == "tsv":
        return _tsv(_stage_cells(trace.stack, *columns.values()), [f"# final_fraction={final}"])
    present = {label: c for label, c in columns.items() if c is not None}
    lines = [_describe_input(trace.input_description)]
    for stage, axis, *cells in _stage_cells(trace.stack, *present.values()):
        values = [f"{label} {v}" for label, v in zip(present, cells)]
        lines.append(", ".join([f"  stage {stage}: axis {axis} deg", *values]))
    lines.append(f"transmitted fraction: {final}")
    return "\n".join(lines) + "\n"


def _render_mc(report: MonteCarloReport, output_format: str) -> str:
    n = report.photon_count
    counts = report.per_stage_survivor_counts
    before = (n, *counts[:-1])
    lo, hi = report.confidence_interval_95
    if output_format == "tsv":
        stage_frac = [c / p if p > 0 else None for c, p in zip(counts, before)]
        rows = _stage_cells(report.config.stack, None, stage_frac, [c / n for c in counts])
        return _tsv(
            rows,
            [
                f"# final_fraction={_num(report.estimate)}",
                f"# estimate={_num(report.estimate)} stderr={_num(report.standard_error)} "
                f"ci95={_num(lo)},{_num(hi)} seed={report.seed}",
            ],
        )
    lines = [
        _describe_input(report.config.input) + f", {n} photons, seed {report.seed}"
    ]
    for (stage, axis), c, p in zip(_stage_cells(report.config.stack), counts, before):
        lines.append(f"  stage {stage}: axis {axis} deg, {c} of {p} photons passed")
    lines.append(
        f"transmitted fraction: {_num(report.estimate)} "
        f"(stderr {_num(report.standard_error)}, "
        f"95% CI [{_num(lo)}, {_num(hi)}])"
    )
    return "\n".join(lines) + "\n"


def render_comparison(
    classical: CascadeTrace,
    quantum: CascadeTrace,
    report: ComparisonReport,
    output_format: str = "tsv",
) -> str:
    """Render a classical and a quantum trace side by side with the verdict."""
    verdict = "pass" if report.passed else "fail"
    if output_format == "tsv":
        rows = _stage_cells(
            classical.stack,
            classical.classical_intensity_after,
            quantum.stage_pass_probability,
            quantum.cumulative_probability,
        )
        return _tsv(
            rows,
            [
                f"# final_fraction={_num(classical.final_transmitted_fraction)}",
                f"# compare={verdict} max_diff={_num(report.max_difference)} "
                f"tolerance={_num(report.tolerance)}",
            ],
        )
    rows = _stage_cells(
        classical.stack, classical.classical_intensity_after, quantum.cumulative_probability
    )
    lines = [_describe_input(classical.input_description)]
    for stage, axis, intensity, cumulative in rows:
        lines.append(
            f"  stage {stage}: axis {axis} deg, "
            f"intensity {intensity}, cumulative prob {cumulative}"
        )
    lines.append(
        f"classical fraction {_num(classical.final_transmitted_fraction)} vs "
        f"quantum probability {_num(quantum.final_transmitted_fraction)}: "
        f"{verdict} (max diff {_num(report.max_difference)}, "
        f"tolerance {_num(report.tolerance)})"
    )
    return "\n".join(lines) + "\n"


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


def _classical_beam(spec: ExperimentSpec) -> ClassicalBeam:
    if spec.input_kind == "unpolarized":
        return ClassicalBeam.unpolarized(spec.intensity)
    return ClassicalBeam.linear(angle_from_degrees(spec.input_angle_deg), spec.intensity)


def _photon_input(spec: ExperimentSpec) -> PhotonInput:
    if spec.input_kind == "unpolarized":
        return PhotonInput.unpolarized()
    return PhotonInput.pure_ket(angle_from_degrees(spec.input_angle_deg))


def run_experiment(spec: ExperimentSpec) -> tuple[str, object]:
    """Execute the requested mode; returns (rendered output, result object)."""
    stack = spec.stack()
    if spec.mode == "classical":
        trace = run_classical(_classical_beam(spec), stack)
        return render_trace(trace, spec.output_format), trace
    if spec.mode == "quantum":
        trace = run_quantum_exact(_photon_input(spec), stack)
        return render_trace(trace, spec.output_format), trace
    if spec.mode == "mc":
        config = MonteCarloConfig(
            photon_count=spec.photons,
            seed=spec.seed,
            input=_photon_input(spec),
            stack=stack,
        )
        report = run_monte_carlo(config, workers=spec.workers)
        return render_trace(report, spec.output_format), report
    classical = run_classical(_classical_beam(spec), stack)
    quantum = run_quantum_exact(_photon_input(spec), stack)
    report = compare(classical, quantum, spec.tolerance)
    return render_comparison(classical, quantum, report, spec.output_format), report


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        output, result = run_experiment(parse_spec(argv))
    except UsageError as exc:
        print(f"polcascade: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return exit_policy(result)


if __name__ == "__main__":
    sys.exit(main())
