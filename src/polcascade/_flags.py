"""The command line's grammar: each flag, its type and the spec field it sets.

:func:`_build_parser` turns argv into the keyword arguments of
:class:`polcascade.cli.ExperimentSpec`; a bad token is a :class:`UsageError`.
"""

from __future__ import annotations

import argparse

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


class UsageError(ValueError):
    """Bad command line or stack file; maps to exit code 2."""


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
