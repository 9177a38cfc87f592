"""The 1-D scan through the command line, in one process.

The scan is 112 inputs: every toric interval [-a, b] with a, b in
{1/2, 1, ..., 4} and every B1 interval [a, b] with a in {0, 1/4, 1/2, 3/4}
and b in {5/4, 3/2, ..., 4}.  Each input runs ``horofano all`` and
``horofano continuity`` through ``horofano.cli.main`` at default options,
with ``--out`` and ``--trace``.

Usage (from the repository root; a full scan takes a few minutes):

    PYTHONPATH=src python tools/scan_1d.py

One line per input and command gives the input, the command, the sweep's
termination and accepted steps, and the leading 16 hex digits of the
sha256 of the report, the trace CSV, stdout, stderr and the exit code.
The last line is the sha256 of all the lines before it: two trees that
print the same final digest behave byte-identically on the scan.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction as Q

from horofano.cli import main

TORIC = {"factors": [], "torus_rank": 1}
B1 = {"factors": [["B", 1]], "torus_rank": 0}


def scan_inputs():
    """(label, problem JSON) for the 112 inputs, toric first."""
    halves = [Q(k, 2) for k in range(1, 9)]
    for a in halves:
        for b in halves:
            yield f"toric[-{a},{b}]", _spec(TORIC, -a, b)
    for a in (Q(k, 4) for k in range(4)):
        for b in (Q(k, 4) for k in range(5, 17)):
            yield f"B1[{a},{b}]", _spec(B1, a, b)


def _spec(root_system, lo, hi) -> dict:
    return {
        "root_system": root_system,
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [[str(lo)], [str(hi)]]}},
    }


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def run_one(label: str, spec: dict, command: str) -> str:
    """The scan line of one command on one input, run in the current
    directory with relative paths, so the report names no temporary path."""
    with open("input.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh, sort_keys=True)
    for name in ("report.json", "trace.csv"):
        if os.path.exists(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", "input.json",
                     "--out", "report.json", "--trace", "trace.csv"])
    report = _read("report.json")
    sweep = json.loads(report).get("continuity", {}) if report else {}
    parts = (report, _read("trace.csv"), out.getvalue().encode(),
             err.getvalue().encode(), str(code).encode())
    return " ".join([label, command, sweep.get("termination", "-"),
                     str(sweep.get("steps_accepted", "-"))] + [_short(p) for p in parts])


def main_scan() -> int:
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for label, spec in scan_inputs():
                for command in ("all", "continuity"):
                    lines.append(run_one(label, spec, command))
                    print(lines[-1], flush=True)
        finally:
            os.chdir(cwd)
    print("scan digest", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main_scan())
