"""Start benchmark processes from a small parent, one at a time.

A child's ``ru_maxrss`` includes the memory of the process that forked it, and
forking a large process is slow, so jobs are not started from the benchmark
process itself (which holds the oracles' arrays) but from this one.

Protocol: one JSON request per stdin line,
``{"argv", "cwd", "stdout", "stderr", "timeout"}``; one JSON reply per stdout
line, ``{"code", "wall_s", "cpu_s", "rss_mb"}`` where ``code`` is null when the
process was killed (timeout). Children inherit this process's environment.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        # the child is reaped; record its status so Popen does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "code": proc.returncode if proc.returncode >= 0 else None,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
