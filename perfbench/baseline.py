"""Measure every workload over several seeds and write ``baseline.json``.

Run from the repository root (about 40 s per run, eleven runs per workload):

    python3 perfbench/baseline.py

For each workload, sweep-1d included, it records the end-to-end metrics of
seeds 1-10 with their median and quartile spread, one traced run's
per-layer metrics, the failing draws with their outcomes, and the sha256 of
every report (the reference for ``cli.reports_changed`` and for
byte-identity claims).  Why each workload was chosen is its ``why`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


NOTES = {
    "not_gated": {
        "sweep-1d": "In-process `all` on 1-D draws at the default grid, where the soliton-path "
                    "continuity does the work.  Its op time is bimodal by draw (about 0.04 s "
                    "when the sweep converges, 1-2.5 s when it stalls near t = 1) and which "
                    "draws stall is chaotic, so a run of 16 draws cannot give a "
                    "seed-independent median; it stays runnable and is measured here, but "
                    "BENCHMARK.json does not list it.",
        "2-D continuity": "No workload: the 2-D path completes only on point-symmetric Einstein "
                          "polytopes, so seeded draws would time exceptions (ROADMAP item 4).",
        "fail_ratio": "Reported as failed/attempted in every result line and per workload "
                      "here, but not a bounded metric: it is exactly 0 on moments-3d and a "
                      "bound is a share of the parent's median.",
        "op_tail_ms": "Dropped: a run gives each problem 3-5 repeats, so no percentile has ten "
                      "samples beyond it; the tail would be each problem's maximum.",
        "failing inputs": "A listed workload has no failing op, so two sets of runs agree on "
                          "failed = 0.  cli-cold draws B1 intervals off the density wall "
                          "(a > 0): at a = 0 the soliton path ends newton_failure.  "
                          "diverge-1d draws toric intervals only: on B1 draws the zero-field "
                          "sweep ends newton_failure for a = 0 and for [3/4, 4], and breaks "
                          "the mass identity (6e-3 to 2e-2) for a = 1/4.  sweep-1d draws "
                          "the whole 1-D domain, wall included, and its failing draws are "
                          "listed here.",
    },
    "definitions": {
        "op_ms": "Fastest wall time of each problem's op over its repeats, averaged "
                 "arithmetically over the problems.  Every repeat does the same work (the "
                 "same residual_1d and thomas counts), yet one op's time varies by up to a "
                 "factor of two within a run on the shared host; the median of 2-5 repeats "
                 "kept that noise.  A geometric mean moved by a third between seeds when one "
                 "10 ms failure fell among 1 s ops.",
        "problems_per_s": "Problems per second of wall time over the run's full passes over "
                          "its draws; the partial last pass is left out.",
        "correct": "False when a traced run misses a layer, or when the program returns a "
                   "false value: on cli-cold, sweep-1d and moments-3d an exact invariant (V, "
                   "barycenter, R, Einstein test) or the soliton field xi; on diverge-1d the "
                   "volume of the sweep or an R estimate more than 0.05 from the exact R.  "
                   "Ops that end without their result (non-zero exit, exception, no estimate) "
                   "or miss the mass identity count in failed.  The draws are not filtered, "
                   "so failing ops are measured and listed, not avoided.",
        "mass tolerance": "1e-3 at the default grid 2001, scaled by (2001/grid)^2 on the "
                          "201-point grid of the cli-cold 1-D draws.",
    },
}
SEEDS = list(range(1, 11))
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba"),
        "mpmath": version("mpmath"),
        "platform": platform.platform(),
    }


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(detail)["detail"]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    base = {"machine": machine(), "run_seconds": RUN_SECONDS, "notes": NOTES,
            "workloads": {}, "reports": {}}
    for workload in WORKLOADS:
        runs, failing = [], []
        for seed in SEEDS:
            result, detail = bench(workload, seed, 0)
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  file=sys.stderr)
            seen = set()
            for f in detail["failures"]:
                if f["problem"] not in seen:
                    seen.add(f["problem"])
                    failing.append({"seed": seed, **f})
            for key, cmds in detail["report_sha256"].items():
                for cmd, digest in cmds.items():
                    base["reports"].setdefault(cmd, {})[key] = digest
        traced, _ = bench(workload, SEEDS[0], 1)
        base["workloads"][workload] = {
            "seeds": SEEDS,
            "metrics": {
                name: {"unit": m["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
                for name, m in runs[0]["metrics"].items()
            },
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "fail_ratio": summarize([r["failed"] / r["attempted"] for r in runs]),
            "correct": all(r["correct"] for r in runs + [traced]),
            "failing_draws": failing,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    for cmd in base["reports"]:
        base["reports"][cmd] = dict(sorted(base["reports"][cmd].items()))
    OUT.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
