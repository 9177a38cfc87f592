"""Cold start of every ``horofano`` command, one fresh process per run.

Each of the six commands runs on two inputs, each time in a fresh
``python -c`` process that starts ``horofano.cli.main`` as the console
script does, with ``--out`` into a temporary directory:

* ``toric[-1,2]@grid201``: the 1-D toric interval [-1, 2] at grid 201, so
  ``continuity`` and ``all`` run the sweep and load the tridiagonal solve;
* ``B3-levi12-box``: the B3 Levi {1, 2} box [21/8, 27/8] x [5/2, 7/2] x
  [11/4, 13/4] (r = 3), where ``continuity`` exits 3 and ``all`` skips the
  sweep.

A round runs the twelve (input, command) pairs once, and each round runs
them in the reverse order of the round before, so a slow stretch of the
host falls on every pair alike.  Before the first round the tool compiles
the bytecode of its checkout's ``src/horofano`` once, so no timed process
compiles a module, and it prints whether ``PYTHONDONTWRITEBYTECODE`` is set:
where it is, a process that finds no bytecode compiles every module it
imports again.

Usage (the default 10 rounds take about a minute):

    python tools/cold_commands.py [--rounds N]

Like ``tools/scan_1d.py``, the tool runs the package in the ``src`` of its
own checkout, so a before/after comparison runs the tool of each tree.  One
line per input and command gives the wall time of the process, min and
median over the rounds in ms, and its exit code, which must be the same in
every round.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
COMMANDS = ("validate", "invariants", "soliton", "ricci-bound", "continuity", "all")
ENTRY = "import sys; from horofano.cli import main; sys.exit(main())"

INPUTS = {
    "toric[-1,2]@grid201": {
        "root_system": {"factors": [], "torus_rank": 1},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [["-1"], ["2"]]}},
        "options": {"grid": 201},
    },
    "B3-levi12-box": {
        "root_system": {"factors": [["B", 3]], "torus_rank": 0},
        "levi_subset": [1, 2],
        "polytope": {"moment": {"vertices": [
            [x, y, z] for x in ("21/8", "27/8") for y in ("5/2", "7/2") for z in ("11/4", "13/4")
        ]}},
    },
}


def cold_run(work: str, name: str, command: str, env: dict) -> tuple[float, int]:
    """Wall seconds and exit code of one fresh process."""
    argv = [sys.executable, "-c", ENTRY, command, "--input", f"{name}.json",
            "--out", f"{name}.{command}.json"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10, help="runs per input and command")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    print("PYTHONDONTWRITEBYTECODE", "set" if os.environ.get("PYTHONDONTWRITEBYTECODE")
          else "unset")
    if not compileall.compile_dir(os.path.join(SRC, "horofano"), quiet=1):
        print("compiling src/horofano failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=SRC)
    pairs = [(name, command) for name in INPUTS for command in COMMANDS]
    times = {pair: [] for pair in pairs}
    codes = {pair: set() for pair in pairs}
    with tempfile.TemporaryDirectory() as work:
        for name, spec in INPUTS.items():
            with open(os.path.join(work, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        for k in range(args.rounds):
            for pair in pairs if k % 2 == 0 else pairs[::-1]:
                seconds, code = cold_run(work, *pair, env)
                times[pair].append(seconds * 1e3)
                codes[pair].add(code)
    for pair in pairs:
        ms = times[pair]
        print(f"{pair[0]} {pair[1]} min {min(ms):.1f} ms median {statistics.median(ms):.1f} ms "
              f"exit {','.join(map(str, sorted(codes[pair])))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
