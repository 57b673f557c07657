#!/usr/bin/env python3
"""Run a command and report its peak resident set size.

    scripts/peak_rss.py [--max-mib N] [--out FILE] -- CMD [ARG...]

Prints one line, "peak_rss_mib <value> wall_s <value>", taken from
wait4() on the child, so it counts only the command itself. The
command's stdout goes to FILE (default: discarded). Exits with the
command's status if it failed, and with 1 if --max-mib is given and
the peak exceeds it.
"""

import argparse
import os
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-mib", type=float)
    ap.add_argument("--out", default=os.devnull)
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")
    with open(args.out, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    peak = usage.ru_maxrss / 1024.0  # Linux reports KiB
    print("peak_rss_mib %.1f wall_s %.2f" % (peak, wall))
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print("command exited with %d" % code, file=sys.stderr)
        return code if code > 0 else 1
    if args.max_mib is not None and peak > args.max_mib:
        print("peak RSS %.1f MiB exceeds the %.1f MiB bound"
              % (peak, args.max_mib), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
