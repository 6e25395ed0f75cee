#!/usr/bin/env python3
"""Run a command and pass only when it exits with the expected status.

Used by ctest to pin a CLI's argument handling: a malformed command line
must end in `usage()` (exit 2), not run with a misread argument. With
`--stdout FILE` the command's stdout must also equal FILE byte for byte,
which pins what a well-formed command line parses to.

Usage: expect_exit.py CODE [--stdout FILE] -- COMMAND [ARG ...]
Exit status: 0 when COMMAND exited with CODE (and, with --stdout, wrote
exactly FILE's bytes), 1 otherwise.
"""
from __future__ import annotations

import subprocess
import sys


def main(argv: list[str]) -> int:
    golden = None
    if len(argv) >= 3 and argv[1] == "--stdout":
        golden = argv[2]
        argv = argv[:1] + argv[3:]
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    expected = int(argv[0])
    command = argv[2:]
    try:
        result = subprocess.run(
            command, timeout=120, check=False,
            stdout=subprocess.PIPE if golden else subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(command)}", file=sys.stderr)
        return 1
    if result.returncode != expected:
        print(f"exit {result.returncode}, expected {expected}: "
              f"{' '.join(command)}", file=sys.stderr)
        return 1
    if golden is not None:
        with open(golden, "rb") as f:
            want = f.read()
        if result.stdout != want:
            print(f"stdout ({len(result.stdout)} bytes) differs from "
                  f"{golden} ({len(want)} bytes): {' '.join(command)}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
