#!/usr/bin/env python3
"""Run a command and pass only when it exits with the expected status.

Used by ctest to pin a CLI's argument handling: a malformed command line
must end in `usage()` (exit 2), not run with a misread argument. With
`--stdout FILE` the command's stdout must also equal FILE byte for byte,
which pins what a well-formed command line parses to. With
`--kill-after SEC` a command still running SEC seconds in is killed with
SIGKILL; as in Python's subprocess, a command killed by signal N exits -N,
so CODE -9 requires that the command was still running (a server holding
after its report), and --stdout then checks what it wrote before that.

Usage: expect_exit.py CODE [--stdout FILE] [--kill-after SEC]
                      -- COMMAND [ARG ...]
Exit status: 0 when COMMAND exited with CODE (and, with --stdout, wrote
exactly FILE's bytes), 1 otherwise.
"""
from __future__ import annotations

import subprocess
import sys


def main(argv: list[str]) -> int:
    options = {"--stdout": None, "--kill-after": None}
    if len(argv) < 1:
        print(__doc__, file=sys.stderr)
        return 1
    expected, rest = argv[0], argv[1:]
    while len(rest) >= 2 and rest[0] in options:
        options[rest[0]] = rest[1]
        rest = rest[2:]
    if len(rest) < 2 or rest[0] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    golden = options["--stdout"]
    kill_after = options["--kill-after"]
    command = rest[1:]
    with subprocess.Popen(
            command,
            stdout=subprocess.PIPE if golden else subprocess.DEVNULL) as proc:
        try:
            out, _ = proc.communicate(
                timeout=float(kill_after) if kill_after else 120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            if kill_after is None:
                print(f"timed out: {' '.join(command)}", file=sys.stderr)
                return 1
    if proc.returncode != int(expected):
        print(f"exit {proc.returncode}, expected {expected}: "
              f"{' '.join(command)}", file=sys.stderr)
        return 1
    if golden is not None:
        with open(golden, "rb") as f:
            want = f.read()
        if out != want:
            print(f"stdout ({len(out)} bytes) differs from "
                  f"{golden} ({len(want)} bytes): {' '.join(command)}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
