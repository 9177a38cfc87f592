"""One fresh benchmark process: set up a workload, run it closed-loop, check.

Started by ``run.py``; not meant to be run by hand.  The process times its
own set-up (``import horofano``, generating the problems, loading and
validating them), then, unless ``--setup-only``, runs passes over the
problems until the time is spent, checks every op against the references
and writes its raw figures as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import problems as gen  # noqa: E402
from tracing import EXPECTED, Tracer, layer_figures  # noqa: E402

# the console-script entry point of the package, started cold per op
COLD_ENTRY = "import sys; from horofano.cli import main; sys.exit(main())"

# workload -> (generator, problems per run, op); why each workload is there
# is its `why` in BENCHMARK.json.  The counts let a 36 s run make three or
# more full passes, so every problem has repeats to take the fastest of.
WORKLOADS = {
    "cli-cold": (lambda seed, n: gen.mixed(seed, n, grid=201), 16, "cold"),
    "sweep-1d": (gen.intervals, 16, "all"),
    "diverge-1d": (lambda seed, n: gen.intervals(seed, n, non_einstein=True, b1_lower=()),
                   12, "diverge"),
    "moments-3d": (gen.boxes, 12, "moments"),
}


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first, and the default single integration worker."""
    env = {k: v for k, v in os.environ.items() if k != "HOROFANO_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Runner:
    def __init__(self, args, root: Path, workdir: Path):
        self.args = args
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.tracer: Tracer | None = None
        self.cold_spans: list = []
        self.cold_imports: list[float] = []
        self.cold_scipy: list[float] = []

    # -- ops; each returns (outputs to check, report bytes keyed by command) --

    def op_cold(self, i: int):
        inp, out = self.files[i], self.workdir / f"report{i}.json"
        if self.tracer is None:
            cmd = [sys.executable, "-c", COLD_ENTRY]
        else:
            cmd = [sys.executable, str(HERE / "coldtrace.py"), str(self.workdir / "spans.json")]
        cmd += ["all", "--input", str(inp), "--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=self.env, cwd=self.root, timeout=150)
        return {"rc": proc.returncode, "stderr": proc.stderr.decode(errors="replace")[-300:]}, \
            {"all": out}

    def op_all(self, i: int):
        out = self.workdir / f"report{i}.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.cli.main(["all", "--input", str(self.files[i]), "--out", str(out)])
        return {"rc": rc, "stderr": err.getvalue()}, {"all": out}

    def op_moments(self, i: int):
        out1, out2 = self.workdir / f"soliton{i}.json", self.workdir / f"ricci{i}.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.cli.main(["soliton", "--input", str(self.files[i]), "--out", str(out1)])
            if rc == 0:
                rc = self.cli.main(["ricci-bound", "--input", str(self.files[i]), "--out", str(out2)])
        return {"rc": rc, "stderr": err.getvalue()}, {"soliton": out1, "ricci-bound": out2}

    def op_diverge(self, i: int):
        cont = self.continuity
        trace = cont.continuity_sweep(self.hps[i], [0.0], cont.ContinuityOptions())
        vol = trace.volume
        out = {"termination": trace.termination, "states": len(trace.states), "grid": trace.grid,
               "volume": vol}
        out["mass_max_rel_err"] = max((abs(s.mass - vol) / vol for s in trace.states), default=0.0)
        try:
            out["estimate"] = cont.estimate_rm_numeric(trace)[0]
        except self.horofano.HorofanoError as exc:
            out["error"] = str(exc)
        return out, {}

    # -- set-up --

    def setup(self):
        start = time.perf_counter()
        import horofano
        self.import_s = time.perf_counter() - start
        from horofano import cli, continuity, kernels

        self.horofano, self.cli, self.continuity, self.kernels = horofano, cli, continuity, kernels
        generate, count, self.op_name = WORKLOADS[self.args.workload]
        self.problems = generate(self.args.seed, self.args.problems or count)
        self.files = []
        for i, p in enumerate(self.problems):
            path = self.workdir / f"problem{i}.json"
            path.write_bytes(p.file_bytes())
            self.files.append(path)
        self.load_ms = []
        self.hps = []
        for path in self.files:
            t = time.perf_counter()
            loaded = cli.load_problem(str(path))
            self.load_ms.append((time.perf_counter() - t) * 1e3)
            self.hps.append(loaded.hp)
        self.setup_s = time.perf_counter() - start

    def warm(self):
        """Trigger the lazy imports of the kernels before timing; the first
        tridiagonal solve pays for ``scipy.linalg``."""
        import numpy as np

        k = self.kernels
        times = []
        for _ in range(2):
            t = time.perf_counter()
            k.thomas(np.zeros(3), np.full(3, 2.0), np.zeros(3), np.ones(3))
            times.append(time.perf_counter() - t)
        self.scipy_import_s = times[0] - times[1]

    # -- measurement --

    def fresh_problem(self, i: int):
        # the library op gets a freshly loaded problem, untimed: the problem
        # caches its exact volume, and every repeat must do the same work
        if self.op_name == "diverge":
            self.hps[i] = self.cli.load_problem(str(self.files[i])).hp

    def measure(self, seconds: float, count: int, traced: bool = False) -> dict:
        """Closed-loop passes over the first ``count`` draws: one full pass,
        then op by op until ``seconds`` are spent, so the last pass may be
        partial.  With ``traced`` every op runs twice in a row, plain and
        then traced, so machine drift cancels from the tracing overhead."""
        op = getattr(self, "op_" + self.op_name)
        tracer = Tracer() if traced else None
        samples = {False: [[] for _ in range(count)], True: [[] for _ in range(count)]}
        results = []  # (problem index, outputs, reports)
        passes = []  # wall time of each full pass over the draws
        begin = pass_begin = time.perf_counter()
        n = 0
        while n < count or time.perf_counter() - begin < seconds:
            i = n % count
            n += 1
            for with_trace in (False, True) if traced else (False,):
                self.fresh_problem(i)
                if with_trace:
                    tracer.op = len(samples[True][i]) * count + i
                    tracer.install()
                    self.tracer = tracer
                t = time.perf_counter()
                try:
                    outputs, reports = op(i)
                except Exception as exc:  # a raising op is a failed op
                    outputs, reports = {"raised": f"{type(exc).__name__}: {exc}"}, {}
                samples[with_trace][i].append(time.perf_counter() - t)
                results.append((i, outputs, self.collect(reports)))
                if with_trace:
                    tracer.uninstall()
                    self.tracer = None
            if i == count - 1:
                now = time.perf_counter()
                passes.append(now - pass_begin)
                pass_begin = now
        out = {"samples": samples[False], "pass_s": passes, "results": results}
        if traced:
            spans = self.cold_spans if self.op_name == "cold" else tracer.spans
            out["traced_samples"] = samples[True]
            out["missing"] = sorted(tracer.missing)
            out["layers"] = layer_figures(spans, sum(len(s) for s in samples[True]))
            out["spans_file"] = self.write_spans(spans)
        return out

    def write_spans(self, spans: list) -> str:
        """Write the traced run's spans, [name, start, end, parent, op, info],
        under .perfbench-spans/ in the checkout; returns the relative path."""
        rel = Path(".perfbench-spans") / f"{self.args.workload}-seed{self.args.seed}.json"
        (self.root / rel).parent.mkdir(exist_ok=True)
        (self.root / rel).write_text(json.dumps(spans, separators=(",", ":")))
        return str(rel)

    def collect(self, reports: dict) -> dict:
        """Read (and remove) the report files an op wrote; the traced cold
        child also leaves its spans."""
        got = {}
        for command, path in reports.items():
            if path.exists():
                data = path.read_bytes()
                path.unlink()
                got[command] = data
        spans_file = self.workdir / "spans.json"
        if self.tracer is not None and spans_file.exists():
            child = json.loads(spans_file.read_text())
            spans_file.unlink()
            base = len(self.cold_spans)
            op = self.tracer.op
            for name, start, end, parent, _, info in child["spans"]:
                self.cold_spans.append([name, start, end, parent + base if parent >= 0 else -1, op, info])
            self.cold_imports.append(child["import_s"])
            thomas = [end - start for name, start, end, *_ in child["spans"] if name == "kernels.thomas"]
            if len(thomas) > 1:
                self.cold_scipy.append(thomas[0] - statistics.median(thomas[1:]))
            self.tracer.missing.update(child["missing"])
        return got


def check(runner: Runner, results, refs: oracles.References, known: dict) -> dict:
    """Classify every op and digest its reports."""
    statuses, failures, digests, sizes = [], {}, {}, []
    for i, outputs, reports in results:
        p = runner.problems[i]
        status, reason = "ok", ""
        if "raised" in outputs:
            status, reason = "failed", "raised " + outputs["raised"]
        elif runner.op_name == "diverge":
            status, reason = oracles.check_divergence(p, outputs, refs)
            blob = json.dumps(outputs, sort_keys=True).encode()
            digests.setdefault(p.key, {})["diverge"] = hashlib.sha256(blob).hexdigest()
        elif outputs["rc"] != 0:
            status = "failed"
            reason = f"exit {outputs['rc']}: {outputs['stderr'].strip()}"
        for command, data in reports.items():
            sizes.append(len(data))
            digests.setdefault(p.key, {})[command] = hashlib.sha256(data).hexdigest()
            if status == "ok":
                try:
                    status, reason = oracles.check_report(p, json.loads(data), refs)
                except (KeyError, TypeError, ValueError) as exc:
                    status, reason = "wrong", f"{command} report unreadable: {exc!r}"
        if status == "ok" and runner.op_name in ("all", "cold", "moments") and not reports:
            status, reason = "failed", "no report written"
        statuses.append(status)
        if status != "ok":
            failures[(p.key, status, reason)] = failures.get((p.key, status, reason), 0) + 1
    changed = sum(
        1 for key, cmds in digests.items() for cmd, h in cmds.items()
        if known.get(cmd, {}).get(key) not in (None, h)
    )
    compared = sum(1 for key, cmds in digests.items() for cmd in cmds if key in known.get(cmd, {}))
    return {
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "wrong": sum(s == "wrong" for s in statuses),
        "failures": [{"problem": k, "outcome": s, "reason": r, "ops": n}
                     for (k, s, r), n in failures.items()],
        "digests": digests,
        "report_bytes": statistics.mean(sizes) if sizes else 0.0,
        "reports_changed": changed,
        "reports_compared": compared,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--problems", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    root = Path(args.root)
    os.environ.pop("HOROFANO_THREADS", None)
    sys.path.insert(0, str(root / "src"))
    workdir = Path(args.out).parent / f"w{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, root, workdir)
        runner.setup()
        result = {"setup_s": runner.setup_s, "import_s": runner.import_s}
        if not args.setup_only:
            result.update(run(runner, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


def run(runner: Runner, args) -> dict:
    if runner.op_name != "cold":
        runner.warm()
    refs = oracles.References()
    oracles.self_test(runner.problems, refs)
    known = json.loads((HERE / "baseline.json").read_text()).get("reports", {}) \
        if (HERE / "baseline.json").exists() else {}
    out = {"load_ms": runner.load_ms}
    if args.trace:
        # half the draws, each op once plain and once traced, in the same time
        m = runner.measure(args.seconds, max(1, len(runner.problems) // 2), traced=True)
        out["traced_samples"] = m["traced_samples"]
    else:
        m = runner.measure(args.seconds, len(runner.problems))
    verdict = check(runner, m["results"], refs, known)
    usage = resource.RUSAGE_CHILDREN if runner.op_name == "cold" else resource.RUSAGE_SELF
    out.update(
        verdict,
        problems=[p.key for p in runner.problems[:len(m["samples"])]],
        samples=m["samples"],
        pass_s=m["pass_s"],
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
    )
    if args.trace:
        layers = m["layers"]
        if runner.op_name == "cold":
            layers["import.horofano_s"] = statistics.median(runner.cold_imports)
            layers["import.scipy_linalg_s"] = (
                statistics.median(runner.cold_scipy) if runner.cold_scipy else 0.0)
        else:
            layers["import.horofano_s"] = runner.import_s
            layers["import.scipy_linalg_s"] = runner.scipy_import_s
        out["layers"] = layers
        out["missing"] = m["missing"]
        out["spans_file"] = m["spans_file"]
        out["expected_layers"] = EXPECTED[args.workload]
    return out


if __name__ == "__main__":
    raise SystemExit(main())
