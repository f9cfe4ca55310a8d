#!/usr/bin/env python3
"""Run a command and print its peak resident set size in MB.

Usage: scripts/peak_rss.py CMD [ARG...]

The child's stdout and stderr go to /dev/null; the peak is the
``ru_maxrss`` that ``os.wait4`` reports for it (the same measure the
benchmark harness in ``perfbench/`` records as ``peak_rss_mb``). Exits
with the command's own status, so a failing run fails the caller too.
"""

import os
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    pid = os.fork()
    if pid == 0:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        os.execvp(sys.argv[1], sys.argv[1:])
    _, status, usage = os.wait4(pid, 0)
    # Linux reports ru_maxrss in KiB.
    print(f"{usage.ru_maxrss / 1024:.1f}")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
