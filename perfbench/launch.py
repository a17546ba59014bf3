"""Run one command; record its wall time, exit code and peak RSS as JSON.

    python3 -I -S perfbench/launch.py RESULT.json PROGRAM ARG...

The benchmark starts every CLI command through this small process. A child
made by fork or vfork keeps its parent's RSS high-water mark through exec,
so a command started straight from the benchmark, which holds numpy, scipy
and the generated corpus, would report the benchmark's memory as its own.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _pid, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "seconds": seconds,
            "returncode": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss,
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
