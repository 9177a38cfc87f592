"""The 1-D scan through the command line, in one process.

The scan is 112 inputs: every toric interval [-a, b] with a, b in
{1/2, 1, ..., 4} and every B1 interval [a, b] with a in {0, 1/4, 1/2, 3/4}
and b in {5/4, 3/2, ..., 4}.  Each input runs ``horofano all`` and
``horofano continuity`` through ``horofano.cli.main`` at default options,
with ``--out`` and ``--trace``.

Usage (a full scan takes a few minutes):

    python tools/scan_1d.py

The tool imports ``horofano`` from the ``src`` of its own checkout, which
it puts first on ``sys.path``, so a before/after run of two trees runs each
tree's package.

One line per input and command gives the input, the command, the sweep's
termination and accepted steps, and the leading 16 hex digits of the
sha256 of the report, the trace CSV, stdout, stderr and the exit code.
The ``scan digest`` line is the sha256 of all the lines before it: two
trees that print the same digest behave byte-identically on the scan.

Then the scan runs the zero-field sweep of every input in the library,
``continuity_sweep(hp, [0.0])`` at default options followed by
``estimate_rm_numeric``, as the perfbench ``diverge-1d`` op does.  One line
per input gives the input, ``zero-field``, the termination, the accepted
states, the estimate, whether the bracket [last accepted t, diverged_at]
contains the exact greatest Ricci lower bound R (``-`` unless the sweep
diverged after an accepted state), and the leading 16 hex digits of the
sha256 of the accepted state tuples.  The ``zero-field digest`` line is the
sha256 of those lines.

Each section's wall time goes to standard error, outside the digested
lines, so a change to the 1-D solver reads its before and after from the
scan it already runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction as Q

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from horofano import (HorofanoError, continuity_sweep, estimate_rm_numeric,  # noqa: E402
                      greatest_ricci_lower_bound)
from horofano.cli import TRACE_COMMANDS, load_problem, main  # noqa: E402

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
    directory with relative paths, so the report names no temporary path;
    ``--trace`` goes only to a command that runs the sweep."""
    with open("input.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh, sort_keys=True)
    for name in ("report.json", "trace.csv"):
        if os.path.exists(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", "input.json", "--out", "report.json"]
                    + (["--trace", "trace.csv"] if command in TRACE_COMMANDS else []))
    report = _read("report.json")
    sweep = json.loads(report).get("continuity", {}) if report else {}
    parts = (report, _read("trace.csv"), out.getvalue().encode(),
             err.getvalue().encode(), str(code).encode())
    return " ".join([label, command, sweep.get("termination", "-"),
                     str(sweep.get("steps_accepted", "-"))] + [_short(p) for p in parts])


def zero_field_one(label: str, spec: dict) -> str:
    """The zero-field line of one input, loaded from ``input.json`` in the
    current directory."""
    with open("input.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh, sort_keys=True)
    hp = load_problem("input.json").hp
    trace = continuity_sweep(hp, [0.0])
    try:
        estimate = repr(estimate_rm_numeric(trace)[0])
    except HorofanoError:
        estimate = "-"
    contains = "-"
    if trace.termination == "divergence" and trace.states:
        exact = greatest_ricci_lower_bound(hp).t_infinity
        contains = "yes" if trace.states[-1].t <= exact <= trace.diverged_at else "no"
    states = repr([dataclasses.astuple(s) for s in trace.states]).encode()
    return " ".join([label, "zero-field", trace.termination, str(len(trace.states)),
                     estimate, contains, _short(states)])


def _section(name: str, lines_of) -> list[str]:
    """The lines ``lines_of(label, spec)`` of every input, printed as they
    come, run in a temporary directory; the section's wall time goes to
    standard error under ``name``."""
    lines = []
    cwd = os.getcwd()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for label, spec in scan_inputs():
                for line in lines_of(label, spec):
                    lines.append(line)
                    print(line, flush=True)
        finally:
            os.chdir(cwd)
    print(f"{name} section {time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main_scan() -> int:
    commands = ("all", "continuity")
    scan = _section("scan", lambda label, spec: [run_one(label, spec, c) for c in commands])
    print("scan digest", _digest(scan))
    zero_field = _section("zero-field", lambda label, spec: [zero_field_one(label, spec)])
    print("zero-field digest", _digest(zero_field))
    return 0


if __name__ == "__main__":
    sys.exit(main_scan())
