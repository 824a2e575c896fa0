"""polcascade benchmark: CLI and library workloads, timed end to end and per layer.

Usage (from the root of a checkout; ``--write-spec`` rewrites BENCHMARK.json):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --write-spec

Every run makes its inputs from ``--seed``, then runs the workload as a
closed loop with one client: one child process at a time, each started
only after the previous one exited. Children run the checked-out tree
(``PYTHONPATH=<root>/src``); the run refuses to start if ``polcascade``
would be imported from anywhere else. Each child's output is checked
against the benchmark's own reference, computed here as a cumulative sum
of ``log cos^2`` of the wrapped angle differences, never through the
engines.

``--trace 0`` measures end-to-end metrics with no instrumentation in the
program. ``--trace 1`` alternates untraced children with traced ones that
wrap the public calls the CLI (or the sweep) makes, and reports per-layer
times and counts; a traced child must reproduce the untraced child's output
byte for byte. Human-readable metric lines come first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_SECONDS = 30
# a hung child is killed after this; the longest full-size child takes ~3 s
CHILD_TIMEOUT_S = 120
# at least this many workload children per run, however short --seconds is
MIN_ROUNDS = 3
# set-up-only children per round, for setup_s
SETUP_PER_ROUND = 1
COMPARE_TOLERANCE = 1e-9
MC_STDERRS = 5.0
# sweep stacks keep every wrapped angle step within this many degrees of
# 0, so no stage is near extinction and relative precision stays testable
SWEEP_MAX_STEP_DEG = 80.0
# mc-deep-stack input plane sits within this many degrees of the first filter
DEEP_INPUT_OFFSET_DEG = 10.0

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# Layer metrics exercised by every workload. Per-function spans that only
# some workloads call (parse_spec, render, each engine) are printed too, but
# are not listed here: on the other workloads they would read 0 every run.
PER_LAYER = [
    {"name": "startup.interpreter_s", "unit": "s", "better": "lower"},
    {"name": "startup.import_numpy_s", "unit": "s", "better": "lower"},
    {"name": "startup.import_polcascade_s", "unit": "s", "better": "lower"},
    {"name": "cli.busy_s", "unit": "s", "better": "lower"},
    {"name": "core.from_degrees_s", "unit": "s", "better": "lower"},
    {"name": "engines.busy_s", "unit": "s", "better": "lower"},
    {"name": "cli.calls", "unit": "count", "better": "lower"},
    {"name": "core.stages", "unit": "count", "better": "lower"},
    {"name": "engines.calls", "unit": "count", "better": "lower"},
    {"name": "engines.stages", "unit": "count", "better": "lower"},
]


class BenchError(Exception):
    """The benchmark cannot run here; it exits 2 without a result."""


@dataclass(frozen=True)
class Sizes:
    long_filters: int
    sweep_stacks: int
    sweep_min_filters: int
    sweep_max_filters: int
    mc_photons: int
    deep_filters: int
    deep_photons: int


FULL = Sizes(
    long_filters=100_000,
    sweep_stacks=10_000,
    sweep_min_filters=2,
    sweep_max_filters=12,
    mc_photons=10_000_000,
    deep_filters=1000,
    deep_photons=70_000,
)


# ---------------------------------------------------------------- reference


def _log_cos2(delta_rad: np.ndarray) -> np.ndarray:
    wrapped = (delta_rad + np.pi / 2) % np.pi - np.pi / 2
    return 2.0 * np.log(np.abs(np.cos(wrapped)))


def reference_fractions(angles_deg, input_deg: float | None) -> np.ndarray:
    """Transmitted fraction after each filter, independent of the engines."""
    axes = np.radians(np.asarray(angles_deg, dtype=np.float64))
    if input_deg is None:
        first = np.array([math.log(0.5)])
    else:
        first = _log_cos2(axes[:1] - math.radians(input_deg))
    return np.exp(np.cumsum(np.concatenate([first, _log_cos2(np.diff(axes))])))


def matches_12_digits(printed: float, reference: float) -> bool:
    """True if ``printed`` (a 12-significant-digit value) is within one unit
    of its last digit of ``reference``."""
    if printed == 0.0 or not math.isfinite(printed):
        return printed == reference
    unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 11)
    return abs(printed - reference) <= unit


def max_rel_err(values: np.ndarray, reference: np.ndarray) -> float:
    if values.shape != reference.shape:
        return math.inf
    return float(np.max(np.abs(values - reference) / reference))


# ------------------------------------------------------------------ checks


class Tally:
    """Correctness checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok


def _cell(token: str) -> float:
    return math.nan if token == "-" else float(token)


def parse_tsv(text: str) -> tuple[np.ndarray, dict[str, str]]:
    """Stage rows as an (n, 5) float array ('-' -> nan) and footer key=values."""
    rows, footer = [], {}
    for line in text.splitlines()[1:]:
        if line.startswith("# "):
            for item in line[2:].split(" "):
                key, _, value = item.partition("=")
                footer[key] = value
        else:
            rows.append([_cell(tok) for tok in line.split("\t")])
    return np.array(rows, dtype=np.float64).reshape(-1, 5), footer


def _footer_float(footer: dict[str, str], key: str) -> float:
    try:
        return float(footer[key])
    except (KeyError, ValueError):
        return math.nan


# ------------------------------------------------------------------- bench


class Bench:
    """Scratch directory inside the checkout and the child launcher."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "polcascade" / "__init__.py").is_file():
            raise BenchError(f"no polcascade package under {self.src}")
        self.python = sys.executable
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        self.scratch_root = root / ".bench_tmp"
        self.tmp: Path | None = None
        self.launcher: subprocess.Popen | None = None

    def __enter__(self) -> Bench:
        self.scratch_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=self.scratch_root))
        try:
            self.launcher = subprocess.Popen(
                [self.python, str(HERE / "launcher.py")],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=self.env,
                cwd=self.tmp,
                text=True,
            )
        except BaseException:
            self._remove_scratch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.launcher.stdin.close()
            try:
                self.launcher.wait(timeout=CHILD_TIMEOUT_S + 10)
            except subprocess.TimeoutExpired:
                self.launcher.kill()
                self.launcher.wait()
            self.launcher.stdout.close()
        finally:
            self._remove_scratch()

    def _remove_scratch(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.scratch_root.rmdir()
        except OSError:
            pass  # another run's scratch is still there

    def path(self, name: str) -> Path:
        return self.tmp / name

    def spawn(self, argv: list[str], out: str = "stdout.txt", report: Path | None = None) -> dict:
        """Run one child to completion; returns the launcher's measurements
        plus ``stdout`` (bytes) and, if the child writes a JSON ``report``
        file, its contents (None if it wrote none)."""
        if report is not None:
            report.unlink(missing_ok=True)
        request = {
            "argv": argv,
            "stdout": str(self.path(out)),
            "stderr": str(self.path("stderr.txt")),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchError("child launcher exited")
        reply = json.loads(line)
        reply["stdout"] = self.path(out).read_bytes()
        reply["stderr"] = self.path("stderr.txt").read_bytes()
        if report is not None and report.is_file():
            reply["report"] = json.loads(report.read_text(encoding="utf-8"))
        else:
            reply["report"] = None
        return reply

    def python_argv(self, script: str, *args: str) -> list[str]:
        return [self.python, str(HERE / script), *args]

    def check_package(self, polcascade_file: str) -> None:
        own = (self.src / "polcascade").resolve()
        if Path(polcascade_file).resolve().parent != own:
            raise BenchError(f"polcascade imported from {polcascade_file}, not from {own}")

    def environment(self) -> dict:
        probe = (
            "import json, sys, numpy, polcascade; print(json.dumps({"
            "'polcascade_file': polcascade.__file__, "
            "'polcascade_version': polcascade.__version__, "
            "'numpy_version': numpy.__version__, "
            "'python_version': sys.version.split()[0]}))"
        )
        reply = self.spawn([self.python, "-c", probe])
        if reply["exit_code"] != 0:
            raise BenchError("cannot import polcascade: " + reply["stderr"].decode(errors="replace"))
        env = json.loads(reply["stdout"])
        self.check_package(env["polcascade_file"])
        env["git_commit"] = git_commit(self.root)
        env["nproc"] = nproc()
        return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


# --------------------------------------------------------------- workloads


@dataclass
class Case:
    """One workload's generated inputs, reference and unit of work."""

    sizes: dict
    work: int  # stages or photons per request
    work_unit: str
    setup_argv: list[str]  # a child that only sets up
    child_argv: list[str]
    traced_argv: list[str]
    traced_report: Path
    child_report: Path | None = None  # the sweep's untraced report
    # CLI workloads
    mode: str = ""
    reference: np.ndarray | None = None
    variant_argv: list[str] | None = None  # traced --workers 1 run, mc-photons
    # sweep
    sweep_final: np.ndarray | None = None
    sweep_stages: np.ndarray | None = None


def write_stack_file(bench: Bench, name: str, angles_deg) -> Path:
    path = bench.path(name)
    path.write_text("".join(f"{float(a)!r}\n" for a in angles_deg), encoding="utf-8")
    return path


def random_walk(rng, n: int, step_sd_deg: float) -> np.ndarray:
    start = rng.uniform(0.0, 180.0)
    return start + np.concatenate([[0.0], np.cumsum(rng.normal(0.0, step_sd_deg, n - 1))])


def cli_case(
    bench: Bench, argv: list[str], mode: str, reference, sizes, work, work_unit, variant=None
) -> Case:
    traced = bench.python_argv("traced.py", str(bench.path("trace.json")), "--")
    return Case(
        traced_report=bench.path("trace.json"),
        sizes=sizes,
        work=work,
        work_unit=work_unit,
        setup_argv=[bench.python, "-c", "import polcascade.cli"],
        child_argv=[bench.python, "-m", "polcascade.cli", *argv],
        traced_argv=traced + argv,
        mode=mode,
        reference=reference,
        variant_argv=None if variant is None else traced + variant,
    )


def long_stack_compare(bench: Bench, rng, sizes: Sizes) -> Case:
    n = sizes.long_filters
    # sum of squared steps ~ 1, so the fraction ends near 0.5/e
    angles = random_walk(rng, n, math.degrees(1.0 / math.sqrt(n)))
    path = write_stack_file(bench, "long.txt", angles)
    return cli_case(
        bench,
        ["--stack-file", str(path), "--mode", "compare"],
        "compare",
        reference_fractions(angles, None),
        {"filters": n},
        n,
        "stages",
    )


def mc_photons(bench: Bench, rng, sizes: Sizes) -> Case:
    offset = rng.uniform(0.0, 180.0)
    angles = [offset, offset + 45.0, offset + 90.0]
    seed = int(rng.integers(0, 2**63))
    workers = min(2, nproc())
    argv = [
        "--filters=" + ",".join(repr(a) for a in angles),
        "--mode", "mc", "--input", "unpolarized",
        "--photons", str(sizes.mc_photons), "--seed", str(seed),
    ]
    return cli_case(
        bench,
        argv + ["--workers", str(workers)],
        "mc",
        reference_fractions(angles, None),
        {"filters": 3, "photons": sizes.mc_photons, "workers": workers},
        sizes.mc_photons,
        "photons",
        variant=argv + ["--workers", "1"],
    )


def mc_deep_stack(bench: Bench, rng, sizes: Sizes) -> Case:
    n = sizes.deep_filters
    # sum of squared steps ~ 1.2, so the fraction ends near 0.3
    angles = random_walk(rng, n, math.degrees(math.sqrt(1.2 / n)))
    input_deg = float(angles[0] + rng.uniform(-DEEP_INPUT_OFFSET_DEG, DEEP_INPUT_OFFSET_DEG))
    path = write_stack_file(bench, "deep.txt", angles)
    argv = [
        "--stack-file", str(path), "--mode", "mc", f"--input=linear:{input_deg!r}",
        "--photons", str(sizes.deep_photons), "--seed", str(int(rng.integers(0, 2**63))),
        "--workers", "1",
    ]
    return cli_case(
        bench,
        argv,
        "mc",
        reference_fractions(angles, input_deg),
        {"filters": n, "photons": sizes.deep_photons, "workers": 1},
        sizes.deep_photons,
        "photons",
    )


def small_stack_sweep(bench: Bench, rng, sizes: Sizes) -> Case:
    stacks, finals, stages = [], [], []
    lengths = rng.integers(sizes.sweep_min_filters, sizes.sweep_max_filters + 1, sizes.sweep_stacks)
    for n in lengths:
        steps = rng.uniform(-SWEEP_MAX_STEP_DEG, SWEEP_MAX_STEP_DEG, n)
        if rng.random() < 0.5:
            input_deg = None
            angles = rng.uniform(0.0, 180.0) + np.concatenate([[0.0], np.cumsum(steps[1:])])
        else:
            input_deg = float(rng.uniform(0.0, 180.0))
            angles = input_deg + np.cumsum(steps)
        ref = reference_fractions(angles, input_deg)
        stacks.append({"input_deg": input_deg, "text": "".join(f"{float(a)!r}\n" for a in angles)})
        finals.append(ref[-1])
        stages.append(ref)
    inputs = bench.path("sweep.json")
    inputs.write_text(json.dumps({"tolerance": COMPARE_TOLERANCE, "stacks": stacks}), encoding="utf-8")
    child_report, traced_report = bench.path("sweep.json.out"), bench.path("sweep.json.traced")
    child = bench.python_argv("sweep.py", str(inputs), str(child_report))
    total = int(lengths.sum())
    return Case(
        child_report=child_report,
        traced_report=traced_report,
        sizes={
            "stacks": sizes.sweep_stacks,
            "filters": [sizes.sweep_min_filters, sizes.sweep_max_filters],
            "total_filters": total,
        },
        work=total,
        work_unit="stages",
        setup_argv=child + ["--setup-only"],
        child_argv=child,
        traced_argv=bench.python_argv("sweep.py", str(inputs), str(traced_report), "--trace"),
        sweep_final=np.array(finals),
        sweep_stages=np.concatenate(stages),
    )


WORKLOADS = {
    "long-stack-compare": (
        long_stack_compare,
        "closed loop, 1 client; CLI --mode compare on a 1e5-filter random-walk stack file; "
        "exact engines' per-filter loops, stack parse and 1e5-row render dominate",
    ),
    "small-stack-sweep": (
        small_stack_sweep,
        "closed loop, 1 client; library loop over 1e4 stacks of 2-12 filters, unpolarized and "
        "linear input; per-call cost dominates over per-filter cost",
    ),
    "mc-photons": (
        mc_photons,
        "closed loop, 1 client; CLI --mode mc, 3 filters, 1e7 photons, 2 workers; per-photon "
        "Philox draws and thread fan-out dominate, exact engines idle",
    ),
    "mc-deep-stack": (
        mc_deep_stack,
        "closed loop, 1 client; CLI --mode mc, linear input, 1000-filter stack, 7e4 photons, "
        "1 worker; MC time and memory grow with photons x stages",
    ),
}


# ------------------------------------------------------------- measuring


def check_cli_output(tally: Tally, case: Case, reply: dict, ref_bias: float) -> float:
    """Check one CLI child's exit code and output; returns its max_rel_err."""
    tally.check("exit code 0", reply["exit_code"] == 0)
    try:
        rows, footer = parse_tsv(reply["stdout"].decode("utf-8", errors="replace"))
    except ValueError:  # not the TSV layout; the checks below then fail
        rows, footer = np.empty((0, 5)), {}
    reference = case.reference * (1.0 + ref_bias)
    tally.check("one row per filter", rows.shape[0] == reference.size)
    final = reference[-1]
    if case.mode == "compare":
        tally.check("compare=pass", footer.get("compare") == "pass")
        tally.check(
            "final_fraction to 12 digits",
            matches_12_digits(_footer_float(footer, "final_fraction"), final),
        )
        return max(max_rel_err(rows[:, 2], reference), max_rel_err(rows[:, 4], reference))
    estimate = _footer_float(footer, "estimate")
    stderr = _footer_float(footer, "stderr")
    tally.check("mc estimate within 5 stderr", abs(estimate - final) <= MC_STDERRS * stderr)
    return max_rel_err(rows[:, 4], reference)


def check_sweep_output(
    tally: Tally, case: Case, reply: dict, report_path: Path, ref_bias: float
) -> dict | None:
    """Check one sweep child; returns its result arrays, None if it wrote none.

    Adds ``max_rel_err`` to ``reply["report"]``.
    """
    tally.check("exit code 0", reply["exit_code"] == 0)
    if not tally.check("sweep report written", reply["report"] is not None):
        return None
    with np.load(f"{report_path}.npz") as npz:
        arrays = {k: npz[k] for k in npz.files}
    final_ref = case.sweep_final * (1.0 + ref_bias)
    tally.check("one result per stack", arrays["final"].shape == final_ref.shape)
    for passed, final, ref in zip(arrays["passed"], arrays["final"], final_ref):
        tally.check("sweep compare passed", bool(passed))
        tally.check("sweep final fraction to 12 digits", matches_12_digits(final, ref))
    stage_ref = case.sweep_stages * (1.0 + ref_bias)
    reply["report"]["max_rel_err"] = max(
        max_rel_err(arrays["stage_classical"], stage_ref),
        max_rel_err(arrays["stage_quantum"], stage_ref),
    )
    return arrays


def spread(values) -> str:
    samples = " ".join(f"{v:.4g}" for v in values)
    if len(values) < 2:
        return f"1 sample: {samples}"
    q = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q[0]:.4g}..{q[2]:.4g}; samples {samples}"


@dataclass
class Result:
    tally: Tally
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list[str] = field(default_factory=list)  # extra printed lines

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        if note:
            self.notes.append(f"{name}: {note}")


def rounds(seconds: float):
    """Yield until the measuring window closes, at least MIN_ROUNDS times.

    A round starts only if half of the previous one still fits, so a run
    overshoots its window by half a round on average.
    """
    deadline = time.monotonic() + seconds
    done, last = 0, 0.0
    while done < MIN_ROUNDS or time.monotonic() + last / 2 < deadline:
        start = time.monotonic()
        yield done
        last = time.monotonic() - start
        done += 1


def measure_end_to_end(bench: Bench, case: Case, seconds: float, ref_bias: float) -> Result:
    result = Result(Tally())
    tally = result.tally
    walls, rss, setups, errs, latencies = [], [], [], [], []
    for _ in rounds(seconds):
        for _ in range(SETUP_PER_ROUND):
            reply = bench.spawn(case.setup_argv)
            tally.check("setup child exit code 0", reply["exit_code"] == 0)
            setups.append(reply["wall_s"])
        reply = bench.spawn(case.child_argv, report=case.child_report)
        if case.mode:
            errs.append(check_cli_output(tally, case, reply, ref_bias))
        else:
            arrays = check_sweep_output(tally, case, reply, case.child_report, ref_bias)
            if arrays is not None:
                bench.check_package(reply["report"]["polcascade_file"])
                errs.append(reply["report"]["max_rel_err"])
                latencies.append(arrays["latency_ns"])
        walls.append(reply["wall_s"])
        rss.append(reply["maxrss_kb"] / 1024.0)

    wall, setup = statistics.median(walls), statistics.median(setups)
    result.put("wall_s", wall, "s", spread(walls))
    result.put("setup_s", setup, "s", spread(setups))
    result.put("peak_rss_mb", statistics.median(rss), "MB", spread(rss))
    result.put(
        f"{case.work_unit}_per_s",
        case.work / (wall - setup),
        "1/s",
        f"{case.work} {case.work_unit} per request / (wall_s - setup_s)",
    )
    if latencies:
        pooled = np.concatenate(latencies) / 1000.0
        for q in (50, 99):
            value = float(np.percentile(pooled, q))
            result.put(f"stack_latency_p{q}_us", value, "us", f"{pooled.size} stacks")
    result.put("max_rel_err", max(errs, default=math.inf), "1")
    result.put("error_rate", tally.failed / tally.attempted, "1")
    return result


def layer_sample(reply: dict, report: dict) -> dict:
    """Per-layer numbers of one traced child."""
    spans, busy = report["spans"], report["busy"]
    sample = {
        "startup.interpreter_s": report["t_start"] - reply["t_spawn"],
        "startup.import_numpy_s": report["import_numpy_s"],
        "startup.import_polcascade_s": report["import_polcascade_s"],
        "trace.peak_rss_mb": reply["maxrss_kb"] / 1024.0,
    }
    for layer in ("cli", "core", "engines"):
        sample[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        of_layer = [s for name, s in spans.items() if name.startswith(layer + ".")]
        sample[f"{layer}.calls"] = sum(s["calls"] for s in of_layer)
        sample[f"{layer}.stages"] = sum(s["stages"] for s in of_layer)
    for name, span in spans.items():
        if span["calls"]:
            sample[f"{name}_s"] = span["seconds"]
            sample[f"{name}.calls"] = span["calls"]
            sample[f"{name}.stages"] = span["stages"]
            if span["photons"]:
                sample[f"{name}.photons"] = span["photons"]
    if report.get("mc_rss_growth_kb") is not None:
        sample["engines.run_monte_carlo_rss_mb"] = report["mc_rss_growth_kb"] / 1024.0
    return sample


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def measure_layers(bench: Bench, case: Case, seconds: float, ref_bias: float) -> Result:
    result = Result(Tally())
    tally = result.tally
    untraced, traced, samples, mc_w1 = [], [], [], []
    for _ in rounds(seconds):
        plain = bench.spawn(case.child_argv, report=case.child_report)
        reply = bench.spawn(case.traced_argv, out="traced-stdout.txt", report=case.traced_report)
        report = reply["report"]
        if case.mode:
            check_cli_output(tally, case, plain, ref_bias)
            if not tally.check("trace report written", report is not None):
                continue
            tally.check("traced exit code matches", report["exit_code"] == plain["exit_code"])
            tally.check(
                "traced stdout identical to cli.main",
                report["stdout"].encode("utf-8") == plain["stdout"],
            )
        else:
            plain_arrays = check_sweep_output(tally, case, plain, case.child_report, ref_bias)
            arrays = check_sweep_output(tally, case, reply, case.traced_report, ref_bias)
            if arrays is None:
                continue
            same = plain_arrays is not None and all(
                np.array_equal(arrays[k], plain_arrays[k]) for k in arrays if k != "latency_ns"
            )
            tally.check("traced sweep results identical to untraced", same)
        bench.check_package(report["polcascade_file"])
        untraced.append(plain["wall_s"])
        traced.append(reply["wall_s"])
        samples.append(layer_sample(reply, report))
        if case.variant_argv is not None:
            variant = bench.spawn(
                case.variant_argv, out="traced-stdout.txt", report=case.traced_report
            )["report"]
            if tally.check(
                "mc stdout identical with --workers 1 and 2",
                variant is not None and variant["stdout"].encode("utf-8") == plain["stdout"],
            ):
                mc_w1.append(variant["spans"]["engines.run_monte_carlo"]["seconds"])

    if not samples:
        raise BenchError("no traced child wrote a report")
    names = sorted({k for s in samples for k in s})
    for name in names:
        values = [s.get(name, 0) for s in samples]
        result.put(name, statistics.median(values), _unit(name))
    result.put(
        "trace.overhead_s",
        statistics.median(traced) - statistics.median(untraced),
        "s",
        f"median traced child wall minus median untraced, {len(samples)} each",
    )
    if mc_w1 and case.sizes.get("workers") == 2:
        w2 = statistics.median(s["engines.run_monte_carlo_s"] for s in samples)
        result.put(
            "engines.mc_scaling_eff",
            statistics.median(mc_w1) / (2.0 * w2),
            "1",
            "t(workers=1) / (2 t(workers=2)) of run_monte_carlo",
        )
    result.put("error_rate", tally.failed / tally.attempted, "1")
    return result


# ------------------------------------------------------------------ output


def spec() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL, ref_bias: float = 0.0
) -> tuple[list[str], dict]:
    """Run one workload; returns (human-readable lines, JSON result).

    ``ref_bias`` scales the reference by (1 + ref_bias); the self-test uses
    it to show that a wrong answer is counted as failed.
    """
    make_case, why = WORKLOADS[name]
    with Bench(ROOT) as bench:
        env = bench.environment()
        case = make_case(bench, np.random.default_rng(seed), sizes)
        measure = measure_layers if trace else measure_end_to_end
        result = measure(bench, case, seconds, ref_bias)

    wanted = PER_LAYER if trace else END_TO_END
    lines = [
        "env " + json.dumps(env, sort_keys=True),
        f"workload {name} seed={seed} trace={int(trace)} sizes={json.dumps(case.sizes)}",
        f"why {why}",
    ]
    for metric, (value, unit) in sorted(result.metrics.items()):
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"metric {metric} {shown} {unit}")
    lines += ["note " + n for n in result.notes]
    tally = result.tally
    lines.append(f"checks attempted={tally.attempted} failed={tally.failed}")
    lines += ["failed check: " + f for f in tally.failures]
    payload = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }
    return lines, payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        lines, payload = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
