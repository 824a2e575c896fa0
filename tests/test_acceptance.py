"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print. Runtime limits are measured around the parse-and-run call, not
interpreter startup.
"""

import io
import math
import time

import numpy as np

from polcascade.cli import main, parse_spec, render_trace, run_experiment
from polcascade.core import ClassicalBeam, FilterStack, angle_from_degrees
from polcascade.engines import (
    MonteCarloConfig,
    PhotonInput,
    compare,
    run_classical,
    run_monte_carlo,
    run_quantum_exact,
    staircase_transmission,
)


def check(num, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    print(line)
    assert ok, line


def timed_run(argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    result = run_experiment(parse_spec(argv), out)
    return out.getvalue(), result, time.perf_counter() - t0


def test_criterion_1_perpendicular_pair():
    _, trace, elapsed = timed_run(
        ["--filters", "0,90", "--input", "unpolarized", "--mode", "classical"]
    )
    intensities = [s.classical_intensity_after for s in trace.stages]
    ok = (
        abs(intensities[0] - 0.5) <= 1e-15
        and abs(intensities[1] - 0.0) <= 1e-15
        and elapsed < 0.010
    )
    check(1, f"perpendicular pair blocks everything ({elapsed * 1e3:.2f} ms)", ok)


def test_criterion_2_three_filter_classical():
    _, trace, elapsed = timed_run(
        ["--filters", "0,45,90", "--input", "unpolarized", "--mode", "classical"]
    )
    ok = abs(trace.final_transmitted_fraction - 0.125) <= 1e-12 and elapsed < 0.010
    check(2, f"intermediate diagonal filter passes 1/8 ({elapsed * 1e3:.2f} ms)", ok)


def test_criterion_3_quantum_product_rule():
    trace = run_quantum_exact(
        PhotonInput.pure_ket(angle_from_degrees(0)), FilterStack.from_degrees([45, 90])
    )
    probs = [s.stage_pass_probability for s in trace.stages]
    ok = (
        abs(probs[0] - 0.5) <= 1e-12
        and abs(probs[1] - 0.5) <= 1e-12
        and abs(trace.final_transmitted_fraction - 0.25) <= 1e-12
    )
    check(3, "sequential projections multiply to 1/4", ok)


def test_criterion_4_quantum_classical_equivalence(capsys):
    t0 = time.perf_counter()
    code = main(["--filters", "0,45,90", "--mode", "compare", "--tolerance", "1e-12"])
    cli_ok = code == 0 and "# compare=pass" in capsys.readouterr().out

    rng = np.random.default_rng(20240815)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        stack = FilterStack.from_degrees(rng.uniform(0.0, 180.0, size=n))
        theta = angle_from_degrees(float(rng.uniform(0.0, 180.0)))
        for classical_in, quantum_in in (
            (ClassicalBeam.unpolarized(1.0), PhotonInput.unpolarized()),
            (ClassicalBeam.linear(theta, 1.0), PhotonInput.pure_ket(theta)),
        ):
            report = compare(
                run_classical(classical_in, stack),
                run_quantum_exact(quantum_in, stack),
                1e-9,
            )
            worst = max(worst, report.max_difference)
    elapsed = time.perf_counter() - t0
    ok = cli_ok and worst <= 1e-9 and elapsed < 5.0
    with capsys.disabled():
        check(
            4,
            f"intensity fractions match probabilities on 1000 random stacks, "
            f"worst diff {worst:.3g} ({elapsed:.2f} s)",
            ok,
        )


def test_criterion_5_monte_carlo_convergence():
    t0 = time.perf_counter()
    n = 1_000_000
    config = MonteCarloConfig(
        photon_count=n,
        seed=42,
        input=PhotonInput.unpolarized(),
        stack=FilterStack.from_degrees([0, 45, 90]),
    )
    report = run_monte_carlo(config)
    four_sigma = 4 * math.sqrt(0.125 * 0.875 / n)
    assert four_sigma <= 0.00133
    converged = abs(report.estimate - 0.125) <= four_sigma

    perpendicular = run_monte_carlo(
        MonteCarloConfig(
            photon_count=n,
            seed=42,
            input=PhotonInput.pure_ket(angle_from_degrees(0)),
            stack=FilterStack.from_degrees([0, 90]),
        )
    )
    elapsed = time.perf_counter() - t0
    ok = converged and perpendicular.transmitted_count == 0 and elapsed < 5.0
    check(
        5,
        f"10^6-photon estimate {report.estimate} within 4 sigma of 1/8 and "
        f"perpendicular pair transmits 0 ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_6_worker_count_determinism():
    config = MonteCarloConfig(
        photon_count=400_000,
        seed=42,
        input=PhotonInput.unpolarized(),
        stack=FilterStack.from_degrees([0, 45, 90]),
    )
    tsv_one, tsv_six = io.StringIO(), io.StringIO()
    render_trace(run_monte_carlo(config, workers=1), "tsv", tsv_one)
    render_trace(run_monte_carlo(config, workers=6), "tsv", tsv_six)
    check(6, "mc TSV output is byte-identical across worker counts",
          tsv_one.getvalue() == tsv_six.getvalue())


def test_criterion_7_staircase_generalization():
    start, end = angle_from_degrees(0), angle_from_degrees(90)
    counts = [2**k for k in range(11)]  # 1, 2, 4, ..., 1024
    values = []
    ok = True
    for n in counts:
        got = staircase_transmission(n, start, end).final_transmitted_fraction
        closed = (math.cos((math.pi / 2) / n) ** 2) ** n
        ok = ok and abs(got - closed) <= 1e-9
        values.append(got)
    ok = ok and all(b > a for a, b in zip(values, values[1:]))
    ok = ok and values[0] == 0.0
    ok = ok and abs(values[1] - 0.25) <= 1e-12
    check(7, "equally spaced staircase follows (cos^2(90/n))^n and rises with n", ok)
