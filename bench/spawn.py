"""Run one program in a small process and report its wall time and rusage.

    python3 spawn.py FD PROGRAM [ARG ...]

Linux charges a child's ru_maxrss with the peak resident size of the
process that spawned it (the old memory map's high-water mark is kept at
exec).  The benchmark holds large outputs, so it starts every `qcat`
through this small process, which forks, execs PROGRAM and waits for it.
stdin, stdout and stderr pass through unchanged.  One JSON object
{"wall", "cpu", "maxrss_kb", "status"} is written to file descriptor FD
once PROGRAM has exited; "cpu" and "maxrss_kb" include every process
PROGRAM reaped, such as pool workers.
"""

import json
import os
import sys
import time


def main() -> None:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(fd)
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with os.fdopen(fd, "w") as report:
        json.dump({
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "status": os.waitstatus_to_exitcode(status),
        }, report)


if __name__ == "__main__":
    main()
