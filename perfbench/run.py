"""Seeded end-to-end and per-layer benchmark of the horofano pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload diverge-1d --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-check

One run starts fresh worker processes (``worker.py``): several only time
their set-up, the last one also runs the workload closed-loop from a single
client for ``--seconds``.  Every op is checked against an independent
reference (``oracles.py``): ``correct`` turns false when the program
returns a false exact invariant, soliton field or R estimate (or a traced
run misses a layer); an op that ends without its result (non-zero exit,
exception, stalled sweep) or misses the mass identity counts in ``failed``.
The metric names and units are read from ``BENCHMARK.json``.  The last line of
standard output is the result: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics from a traced
run (``--trace 1``); the line before it holds the details (the drawn
problems, failing draws with their outcomes, the fail ratio, sample counts,
report sha256s).  A traced run runs every op once plain and once traced and
also writes its spans to ``.perfbench-spans/``.  ``baseline.json`` holds the
first baseline (``baseline.py`` writes it).

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # fresh set-ups per run; setup_s is their median
DEADLINE_S = 170.0

from worker import WORKLOADS, child_env  # noqa: E402  (sys.path[0] is this directory)

# self-check draws: enough that the traced half still meets every family
SELF_CHECK_DRAWS = {"cli-cold": 4, "sweep-1d": 2, "diverge-1d": 2, "moments-3d": 6}


class BenchError(RuntimeError):
    pass


def op_ms(samples) -> float:
    """Fastest repeat per problem, arithmetic mean over problems.  An op
    does the same work on every repeat, so its slower repeats measure the
    shared host (one op's time varied by a factor of two within one
    process), not the program."""
    return statistics.fmean(min(s) for s in samples) * 1e3


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, dict]:
    samples = raw["samples"]
    values = {
        "setup_s": statistics.median(setups),
        "op_ms": op_ms(samples),
        # full passes only: a partial last pass would over-weight the first draws
        "problems_per_s": len(samples) * len(raw["pass_s"]) / sum(raw["pass_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    detail = {
        "samples_per_problem": [len(s) for s in samples],
        "problem_ms": [min(s) * 1e3 for s in samples],
        "pass_s": raw["pass_s"],
        "setup_samples_s": setups,
    }
    return values, detail


def declared(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def per_layer(raw: dict, names) -> dict:
    lay = raw["layers"]

    def get(key):
        return float(lay.get(key, 0.0))

    values = {
        "import.horofano_s": get("import.horofano_s"),
        "import.scipy_linalg_s": get("import.scipy_linalg_s"),
        "cli.load_problem_ms": statistics.fmean(raw["load_ms"]),
        "cli.report_bytes": float(raw["report_bytes"]),
        "cli.reports_changed": float(raw["reports_changed"]),
        "polytopes.combinatorics_ms": get("polytopes.layer_ms"),
        "polytopes.combinatorics_calls": sum(
            v for k, v in lay.items() if k.startswith("polytopes.") and k.endswith("_calls")),
        "trace.overhead_ratio": op_ms(raw["traced_samples"]) / op_ms(raw["samples"]),
    }
    thomas = get("kernels.thomas_calls")
    values["continuity.residuals_per_solve"] = (
        get("kernels.residual_1d_calls") / thomas if thomas else 0.0)
    for name in names:
        values.setdefault(name, get(name))
    return values


def check_layers(raw: dict) -> list[str]:
    """Layers the workload must exercise that recorded no span; a layer
    whose wrapped functions no longer exist is reported, not failed."""
    layer_errors = []
    calls = {k.split(".")[0] for k, v in raw["layers"].items() if k.endswith("_calls") and v > 0}
    for layer in raw["expected_layers"]:
        if layer in calls:
            continue
        gone = [m for m in raw["missing"] if m.split(".")[0] == layer]
        msg = f"layer {layer!r} recorded no span"
        if gone:
            print(f"warning: {msg}; not found in the program: {gone}", file=sys.stderr)
        else:
            layer_errors.append(msg)
    return layer_errors


def worker(tmp: Path, workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool, problems: int = 0, deadline: float = DEADLINE_S) -> dict:
    out = tmp / f"raw{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", str(ROOT),
           "--out", str(out), "--problems", str(problems)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=child_env(ROOT), cwd=ROOT,
                              timeout=max(deadline, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish in time")
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{workload}: worker exited with status {proc.returncode}")
    raw = json.loads(out.read_text())
    out.unlink()
    return raw


def prime(tmp: Path) -> None:
    """Compile the package's bytecode once, outside any timing."""
    proc = subprocess.run([sys.executable, "-c", "import horofano.cli"], env=child_env(ROOT), cwd=tmp,
                          stdout=subprocess.DEVNULL, timeout=120)
    if proc.returncode != 0:
        raise BenchError("cannot import horofano from src/")


def one_run(tmp: Path, workload: str, seed: int, seconds: float, trace: int,
            problems: int = 0, setups: int = SETUPS) -> tuple[dict, dict, list[str]]:
    begin = time.monotonic()
    prime(tmp)
    setup_s = [worker(tmp, workload, seed, 0, 0, True, problems)["setup_s"]
               for _ in range(setups - 1)]
    raw = worker(tmp, workload, seed, seconds, trace, False, problems,
                 deadline=DEADLINE_S - (time.monotonic() - begin))
    setup_s.append(raw["setup_s"])
    e2e, detail = end_to_end(raw, setup_s)
    layer_errors = []
    if trace:
        units = declared("per_layer")
        values = per_layer(raw, units)
        layer_errors = check_layers(raw)
        detail["spans_file"] = raw["spans_file"]
    else:
        units, values = declared("end_to_end"), e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail.update(
        workload=workload, seed=seed, problems=raw["problems"],
        fail_ratio=raw["failed"] / raw["attempted"], failures=raw["failures"],
        report_sha256=raw["digests"], reports_compared=raw["reports_compared"],
    )
    result = {
        "correct": raw["wrong"] == 0 and not layer_errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return result, detail, layer_errors


def self_check(tmp: Path) -> int:
    """Smallest run of every workload, plain and traced; prints each metric
    with its unit.  Fails when a reference or a layer check cannot be done."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result, detail, layer_errors = one_run(
                    tmp, workload, 0, 0.0, trace, problems=SELF_CHECK_DRAWS[workload], setups=1)
            except BenchError as exc:
                print(f"self-check: {exc}", file=sys.stderr)
                return 1
            for msg in layer_errors:
                print(f"self-check: {workload}: {msg}", file=sys.stderr)
                status = 1
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"fail_ratio={detail['fail_ratio']:.3f}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            for f in detail["failures"]:
                print(f"  failing draw: {f['problem']} {f['outcome']}: {f['reason']}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "horofano" / "__init__.py").is_file():
        print(f"error: no horofano sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        if args.self_check:
            return self_check(tmp)
        try:
            result, detail, layer_errors = one_run(tmp, args.workload, args.seed, args.seconds,
                                             args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for msg in layer_errors:
            print(f"error: {msg}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
