"""The benchmark corpus through the command line, in one process.

For perfbench seeds 1-4 the corpus runs ``horofano invariants``,
``soliton`` and ``ricci-bound`` on the r = 3 boxes ``boxes(seed, 12)``,
and ``horofano all`` with ``--trace`` on ``intervals(seed, 16)`` and on the
1-D draws of ``mixed(seed, 16, grid=201)``; every run writes its report
with ``--out``.  The generators come from ``perfbench/problems.py``.  The
tool writes no bytecode for any module it imports (``horofano`` included),
so it leaves no ``__pycache__`` in either tree.

Usage (the corpus takes a minute or two):

    python tools/corpus_digest.py

Like ``tools/scan_1d.py``, the tool imports ``horofano`` from the ``src`` of
its own checkout, which it puts first on ``sys.path``.

One line per run has the same fields as a ``tools/scan_1d.py`` scan line:
the problem, the command, the sweep's termination and accepted steps, and
the leading 16 hex digits of the sha256 of the report, the trace CSV,
stdout, stderr and the exit code.  The ``corpus digest`` line is the sha256
of all the lines before it: two trees that print the same digest behave
byte-identically on the corpus.

The wall time of each section, the r = 3 box runs and the 1-D ``all``
runs, summed over the seeds, goes to standard error, outside the digested
lines, so a change to ``src`` reads its in-process before and after from
the corpus run it already makes.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from problems import boxes, intervals, mixed  # noqa: E402
from scan_1d import _digest, run_one  # noqa: E402

SEEDS = (1, 2, 3, 4)
BOX_COMMANDS = ("invariants", "soliton", "ricci-bound")


def corpus_runs():
    """(section, problem, command) for every run."""
    for seed in SEEDS:
        for p in boxes(seed, 12):
            for command in BOX_COMMANDS:
                yield "boxes", p, command
        for p in intervals(seed, 16) + [p for p in mixed(seed, 16, grid=201) if p.dim == 1]:
            yield "intervals", p, "all"


def main_corpus() -> int:
    lines = []
    seconds = dict.fromkeys(("boxes", "intervals"), 0.0)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for section, p, command in corpus_runs():
                start = time.perf_counter()
                line = run_one(p.key, p.spec(), command)
                seconds[section] += time.perf_counter() - start
                lines.append(line)
                print(line, flush=True)
        finally:
            os.chdir(cwd)
    for section, total in seconds.items():
        print(f"{section} section {total:.2f} s", file=sys.stderr, flush=True)
    print("corpus digest", _digest(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
