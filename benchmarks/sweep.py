"""Small-stack sweep: the library called in a loop, one short stack at a time.

Usage: ``python3 sweep.py INPUTS_JSON REPORT_PATH [--trace] [--setup-only]`` with the
tree's ``src`` on PYTHONPATH. Set-up imports polcascade and parses every
stack with ``cli.parse_stack_text``; then each stack runs
``FilterStack.from_degrees`` -> ``run_classical`` -> ``run_quantum_exact``
-> ``compare`` and its latency is taken around those calls. The report
(JSON, plus an ``.npz`` of per-stage results) goes to REPORT_PATH for the
benchmark to check; ``--trace`` adds spans around each public call, and
``--setup-only`` exits once set-up is done.
"""

import sys
import time

T_START = time.monotonic()

import json  # noqa: E402

from spans import Spans, patch_library  # noqa: E402


def main():
    inputs_path, report_path = sys.argv[1], sys.argv[2]
    trace = "--trace" in sys.argv[3:]
    setup_only = "--setup-only" in sys.argv[3:]

    t0 = time.perf_counter()
    import numpy as np

    t1 = time.perf_counter()
    import polcascade as pc
    import polcascade.cli as cli
    import polcascade.core as core

    t2 = time.perf_counter()

    spans = Spans()
    if trace:
        patch_library(spans, cli, core, pc)

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    tolerance = inputs["tolerance"]
    stacks = [
        (cli.parse_stack_text(s["text"]), s["input_deg"]) for s in inputs["stacks"]
    ]
    if setup_only:
        return

    latencies = np.empty(len(stacks), dtype=np.int64)
    results = []
    for i, (angles, input_deg) in enumerate(stacks):
        start = time.perf_counter_ns()
        stack = pc.FilterStack.from_degrees(angles)
        if input_deg is None:
            beam = pc.ClassicalBeam.unpolarized(1.0)
            photons = pc.PhotonInput.unpolarized()
        else:
            plane = pc.angle_from_degrees(input_deg)
            beam = pc.ClassicalBeam.linear(plane, 1.0)
            photons = pc.PhotonInput.pure_ket(plane)
        classical = pc.run_classical(beam, stack)
        quantum = pc.run_quantum_exact(photons, stack)
        report = pc.compare(classical, quantum, tolerance)
        latencies[i] = time.perf_counter_ns() - start
        results.append((classical, quantum, report))

    np.savez(
        report_path + ".npz",
        latency_ns=latencies,
        passed=np.array([r.passed for _, _, r in results]),
        final=np.array([c.final_transmitted_fraction for c, _, _ in results]),
        stage_classical=np.array(
            [s.classical_intensity_after for c, _, _ in results for s in c.stages]
        ),
        stage_quantum=np.array(
            [s.cumulative_probability for _, q, _ in results for s in q.stages]
        ),
    )
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "t_start": T_START,
                "import_numpy_s": t1 - t0,
                "import_polcascade_s": t2 - t1,
                "polcascade_file": pc.__file__,
                "polcascade_version": pc.__version__,
                "numpy_version": np.__version__,
                **spans.record(),
            },
            fh,
        )


if __name__ == "__main__":
    main()
