#!/usr/bin/env python3
"""Run a command and pass only when it exits with the expected status.

Used by ctest to pin a CLI's argument handling: a malformed command line
must end in `usage()` (exit 2), not run with a misread argument.

Usage: expect_exit.py CODE -- COMMAND [ARG ...]
Exit status: 0 when COMMAND exited with CODE, 1 otherwise.
"""
from __future__ import annotations

import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    expected = int(argv[0])
    command = argv[2:]
    try:
        result = subprocess.run(command, stdout=subprocess.DEVNULL,
                                timeout=120, check=False)
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(command)}", file=sys.stderr)
        return 1
    if result.returncode != expected:
        print(f"exit {result.returncode}, expected {expected}: "
              f"{' '.join(command)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
