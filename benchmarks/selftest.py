"""Self-test of the benchmark at tiny sizes; takes about a minute.

Usage: ``python3 benchmarks/selftest.py`` from the root of a checkout.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = run.Sizes(
    long_filters=200,
    sweep_stacks=50,
    sweep_min_filters=2,
    sweep_max_filters=12,
    mc_photons=200_000,
    deep_filters=20,
    deep_photons=5_000,
)

# metrics printed with a unit on the workloads they apply to, beyond the
# ones BENCHMARK.json lists
PRINTED = {
    False: {
        "*": {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "max_rel_err": "1", "error_rate": "1"},
        "long-stack-compare": {"stages_per_s": "1/s"},
        "small-stack-sweep": {"stages_per_s": "1/s", "stack_latency_p50_us": "us",
                              "stack_latency_p99_us": "us"},
        "mc-photons": {"photons_per_s": "1/s"},
        "mc-deep-stack": {"photons_per_s": "1/s"},
    },
    True: {
        "*": {"startup.import_numpy_s": "s", "startup.import_polcascade_s": "s",
              "core.from_degrees_s": "s", "trace.overhead_s": "s", "error_rate": "1",
              "core.calls": "count", "core.stages": "count", "engines.calls": "count",
              "engines.stages": "count"},
        "long-stack-compare": {"cli.parse_spec_s": "s", "cli.render_s": "s",
                               "engines.run_classical_s": "s", "engines.run_quantum_exact_s": "s",
                               "engines.compare_s": "s"},
        "small-stack-sweep": {"engines.run_classical_s": "s", "engines.run_quantum_exact_s": "s",
                              "engines.compare_s": "s"},
        "mc-photons": {"cli.parse_spec_s": "s", "cli.render_s": "s",
                       "engines.run_monte_carlo_s": "s", "engines.run_monte_carlo_rss_mb": "MB"}
        | ({"engines.mc_scaling_eff": "1"} if run.nproc() >= 2 else {}),
        "mc-deep-stack": {"cli.parse_spec_s": "s", "cli.render_s": "s",
                          "engines.run_monte_carlo_s": "s", "engines.run_monte_carlo_rss_mb": "MB"},
    },
}

failures = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def printed_metrics(lines):
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            out[name] = (float(value), unit)
    return out


def check_child_rss() -> None:
    """A small child after a large one, and after run.py's own process grew,
    reads its own peak RSS."""
    ballast = b"x" * (256 << 20)
    with run.Bench(run.ROOT) as bench:
        big = bench.spawn([bench.python, "-c", "b = b'x' * (400 << 20)"])
        small = bench.spawn([bench.python, "-c", "pass"])
    del ballast
    big_mb, small_mb = big["maxrss_kb"] / 1024, small["maxrss_kb"] / 1024
    report("large child reads its peak", big_mb > 400, f"{big_mb:.0f} MB")
    report("small child after large one reads its own peak", small_mb < 50, f"{small_mb:.0f} MB")


def check_workload(name: str, trace: bool) -> None:
    label = f"{name} trace={int(trace)}"
    lines, payload = run.run_workload(name, seed=7, seconds=0, trace=trace, sizes=TINY)
    last = json.loads(json.dumps(payload))
    report(f"{label}: result keys", set(last) == {"correct", "attempted", "failed", "metrics"})
    report(f"{label}: correct", last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
           "; ".join(line for line in lines if line.startswith("failed check")))
    wanted = {m["name"]: m["unit"] for m in (run.PER_LAYER if trace else run.END_TO_END)}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    report(f"{label}: metric names and units", got == wanted, f"{got}")
    finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                 for v in last["metrics"].values())
    report(f"{label}: metric values finite", finite)
    shown = printed_metrics(lines)
    expected = {**PRINTED[trace]["*"], **PRINTED[trace][name], **wanted}
    missing = [m for m, unit in expected.items() if shown.get(m, (None, None))[1] != unit]
    report(f"{label}: every named metric printed with its unit", not missing, f"missing {missing}")
    report(f"{label}: error_rate 0", shown.get("error_rate", (None,))[0] == 0.0)


def check_wrong_reference(name: str) -> None:
    lines, payload = run.run_workload(name, seed=7, seconds=0, trace=False, sizes=TINY, ref_bias=0.5)
    shown = printed_metrics(lines)
    report(f"{name}: wrong reference gives error_rate > 0",
           shown["error_rate"][0] > 0 and not payload["correct"] and payload["failed"] > 0)


def check_spec_file() -> None:
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report("BENCHMARK.json matches run.spec()", on_disk == run.spec())
    too_long = [w["name"] for w in on_disk["workloads"] if len(w["why"]) > 200]
    report("workload reasons fit in 200 characters", not too_long, f"{too_long}")


def check_refusals() -> None:
    try:
        run.Bench(run.ROOT).check_package("/elsewhere/polcascade/__init__.py")
        refused = False
    except run.BenchError:
        refused = True
    report("refuses a polcascade from outside the tree", refused)

    scratch_root = run.ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "mc-photons",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    report("refuses to run without the tree's src", done.returncode != 0 and '"metrics"' not in done.stdout,
           f"exit {done.returncode}")


def main() -> int:
    check_spec_file()
    check_refusals()
    check_child_rss()
    for name in run.WORKLOADS:
        for trace in (False, True):
            check_workload(name, trace)
    for name in run.WORKLOADS:
        check_wrong_reference(name)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
