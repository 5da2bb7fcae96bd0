"""Run one command and write its wall time and resource use to a JSON file.

    python3 perfbench/launch.py <result.json> <log file> <program> [args...]

The benchmark starts every command through this small process instead of
starting it directly. Linux keeps a process's peak resident size across
exec, and a process created by the benchmark would start from the
benchmark's own peak, which includes the reference data it holds. So
``ru_maxrss`` would report the benchmark's size whenever the command
itself used less. A command started from this launcher inherits only
the launcher's peak, a few megabytes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, log_path, *argv = sys.argv[1:]
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=log, stderr=log)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "code": os.waitstatus_to_exitcode(status),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kib": usage.ru_maxrss,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
