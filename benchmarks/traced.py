"""Traced CLI run: ``polcascade.cli.main(argv)`` with its public calls timed.

Usage: ``python3 traced.py REPORT_PATH -- CLI_ARGS...`` with the tree's
``src`` on PYTHONPATH. The spans wrap the names ``cli.main`` and
``cli.run_experiment`` look up, so the calls run in the program's own order.
stdout is captured and written into the JSON report next to the spans, so
``run.py`` can check it byte for byte against an untraced CLI child.
"""

import sys
import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from spans import Spans, patch_library, rendered_len, spec_len  # noqa: E402


def main():
    report_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced.py REPORT_PATH -- CLI_ARGS...")
    argv = sys.argv[3:]

    t0 = time.perf_counter()
    import numpy

    t1 = time.perf_counter()
    import polcascade
    import polcascade.cli as cli
    import polcascade.core as core

    t2 = time.perf_counter()

    mc_rss = {}
    run_monte_carlo = cli.run_monte_carlo

    def measured_monte_carlo(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return run_monte_carlo(*args, **kwargs)
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            mc_rss["growth_kb"] = mc_rss.get("growth_kb", 0) + after - before

    cli.run_monte_carlo = measured_monte_carlo

    spans = Spans()
    patch_library(spans, cli, core, cli)
    spans.patch(cli, "parse_spec", "cli.parse_spec", spec_len)
    spans.patch(cli, "render_trace", "cli.render", rendered_len)
    spans.patch(cli, "render_comparison", "cli.render", rendered_len)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    t_end = time.monotonic()

    report = {
        "t_start": T_START,
        "t_end": t_end,
        "import_numpy_s": t1 - t0,
        "import_polcascade_s": t2 - t1,
        "exit_code": code,
        "stdout": out.getvalue(),
        "mc_rss_growth_kb": mc_rss.get("growth_kb"),
        "polcascade_file": polcascade.__file__,
        "polcascade_version": polcascade.__version__,
        "numpy_version": numpy.__version__,
        **spans.record(),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
