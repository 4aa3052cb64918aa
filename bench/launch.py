"""Start one program, wait for it, and report its time and peak memory.

    python3 -I -S bench/launch.py <report-fd> <program> [args...]

Linux carries a process's memory high-water mark across exec, so a child
spawned straight from the benchmark (which holds numpy and the oracles)
would report the benchmark's footprint as its own.  This launcher is a
bare interpreter: the program is spawned from it, and
``getrusage(RUSAGE_CHILDREN)`` then gives the program's own peak.  Writes
one JSON object to ``report-fd`` once the program has exited.
"""

import json
import os
import resource
import signal
import sys
import time


def main() -> None:
    report_fd = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(report_fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
    _, status = os.waitpid(pid, 0)
    end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "start": start,
        "end": end,
        "code": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
    }
    os.write(report_fd, json.dumps(report).encode())
    os.close(report_fd)


if __name__ == "__main__":
    main()
