"""Spawn benchmark children one at a time and report each one's own cost.

``run.py`` talks to this process over stdin/stdout, one JSON
object per line. A request names the child's argv and the files that take
its stdout and stderr; the reply carries the wall time from spawn to exit,
the exit code, and the child's own peak RSS from ``os.wait4``.

Why a separate process: on Linux a child's ``ru_maxrss`` starts at the
high-water RSS of the address space it was forked from, so a child spawned
by ``run.py`` (which holds numpy and parsed outputs) would inherit that
process's peak. This launcher imports only the standard library and never
grows, so every child starts from the same small floor. ``wait4`` reads one
child's usage; ``RUSAGE_CHILDREN`` would be a high-water mark over every
child reaped so far.

Run: ``python3 launcher.py`` with the children's environment; stdin EOF
stops it.
"""

import json
import os
import subprocess
import sys
import threading
import time


def spawn(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t_spawn = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        # the timer only kills a hung child; the blocking wait4 keeps the
        # measured wall free of polling delay
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "t_spawn": t_spawn,
        "wall_s": wall,
        "exit_code": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        reply = spawn(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
