"""varpx benchmark: time to a certified solution.

    python3 bench/run.py --workload interval-singular --seed 7 --seconds 60 --trace 0

Runs one workload as a closed loop with one client: each operation is a
fresh worker process (``bench/worker.py``) that imports varpx from the
checkout's ``src``, parses a config generated from ``--seed`` and runs
the workload's command.  Operations follow one another while the
next is expected to end within ``--seconds`` (at least one runs).  Every output is checked;
the last line of standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones plus the tracing overhead.  The JSON line carries the
metrics ``BENCHMARK.json`` declares; the others are printed above it.
See ``bench/README.md``.
"""

import argparse
import copy
import csv
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Why each workload is here: bench/README.md.
WORKLOADS = {
    "interval-positive": {"base": "benchmark.json", "mode": "solve"},
    "interval-singular": {"base": "singular.json", "mode": "solve"},
    "rectangle-positive": {
        "base": "benchmark.json", "mode": "solve", "resolution": 16,
        "domain": {"kind": "rectangle", "ax": 0.0, "bx": 1.0, "ay": 0.0, "by": 1.0}},
    "theta-sweep": {
        "base": "benchmark.json", "mode": "sweep", "resolution": 256, "threads": 2,
        "param": "iteration.theta", "values": [0.5, 0.7, 0.85, 1.0]},
}

SETUP_SAMPLES = 5        # set-up-only spawns per untraced run, besides the ops
RUN_LIMIT_S = 170.0      # every run ends well inside the 180 s it is given
MEMBER_ATOL, MEMBER_RTOL = 1e-8, 1e-6   # as varpx.sysfix membership

E2E_UNITS = {"run_s": "s", "run_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_share": "ratio", "audit_pass_share": "ratio",
             "failed_share": "ratio", "audit_failures": "count"}


def make_config(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    with open(BENCH / "configs" / spec["base"]) as f:
        cfg = json.load(f)
    for key in ("domain", "resolution"):
        if key in spec:
            cfg[key] = copy.deepcopy(spec[key])
    cfg["seed"] = seed
    return cfg


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("VARPX_THREADS", None)
    if threads > 1:
        env["VARPX_THREADS"] = str(threads)
    return env


def environment() -> dict:
    """What a result set needs to be compared with another."""
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "unknown", "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


class Runner:
    """Spawns the worker processes of one run and checks what they wrote."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float,
                 threads: int | None = None):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.threads = threads or self.spec.get("threads", 1)
        self.cfg = make_config(workload, seed)
        self.tol_residual = self.cfg["iteration"]["tol_residual"]
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env(self.threads)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1))
        self.count = 0
        self.problems = []

    def spawn(self, mode: str, trace: bool = False):
        """One worker process; returns (result or None, setup_s, out_dir)."""
        self.count += 1
        tag = f"{self.count:03d}"
        out_dir = self.workdir / f"out{tag}"
        req = {"src": str(SRC), "config": str(self.config_path), "mode": mode,
               "trace": trace, "out_dir": str(out_dir),
               "param": self.spec.get("param"), "values": self.spec.get("values")}
        req_path = self.workdir / f"req{tag}.json"
        res_path = self.workdir / f"res{tag}.json"
        req_path.write_text(json.dumps(req))
        budget = self.deadline - time.monotonic()
        if budget <= 1.0:
            self.problems.append(f"{mode} op {tag}: no time left to run it")
            return None, None, out_dir
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                                   str(req_path), str(res_path)],
                                  env=self.env, cwd=self.workdir, text=True,
                                  capture_output=True, timeout=budget)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} op {tag}: timed out after {budget:.0f} s")
            return None, None, out_dir
        if proc.returncode != 0 or not res_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            self.problems.append(f"{mode} op {tag}: worker exit {proc.returncode}: "
                                 + " | ".join(tail))
            return None, None, out_dir
        res = json.loads(res_path.read_text())
        return res, res["setup_done"] - t_spawn, out_dir

    # -- output checks --------------------------------------------------

    def check(self, res, out_dir) -> dict:
        """Judge one operation.  An operation (one solve, or one sweep row)
        fails if it raised, wrote a stub certificate, did not converge,
        left the invariant set at any iteration, or ended with a coupled
        residual above the configured tolerance."""
        if self.spec["mode"] == "sweep":
            return self._check_sweep(res, out_dir)
        return self._check_solve(res, out_dir)

    def _check_solve(self, res, out_dir) -> dict:
        verdict = {"attempted": 1, "failed": 1, "audits": 0, "audit_fails": 0,
                   "sha": None}
        if res is None:
            return verdict
        path = out_dir / self.cfg["outputs"]["certificate_json"]
        if not path.exists():
            self.problems.append("no certificate written")
            return verdict
        blob = path.read_bytes()
        verdict["sha"] = hashlib.sha256(blob).hexdigest()
        cert = json.loads(blob)
        if "error" in cert:
            self.problems.append(f"stub certificate: {cert['error']}")
            return verdict
        flags = [a["verdict"] == "pass" for a in cert["audits"]]
        flags.append(cert["sandwich"]["verdict"] == "pass")
        flags += [c["ok"] for c in cert["mvt_spot_checks"]]
        verdict["audits"] = len(flags)
        verdict["audit_fails"] = flags.count(False)
        if cert["all_audits_pass"] != all(flags):
            self.problems.append("all_audits_pass disagrees with the verdicts")
        converged = cert["iteration"]["converged"]
        expected_code = 0 if converged and cert["all_audits_pass"] else 2
        if res["exit_code"] != expected_code:
            self.problems.append(f"exit {res['exit_code']}, certificate implies "
                                 f"{expected_code}")
        ok = (converged and cert["membership"]["all_iterations"]
              and cert["residuals"]["max"] <= self.tol_residual)
        field_problems = self._check_fields(out_dir, cert)
        self.problems += field_problems
        verdict["failed"] = int(not ok or bool(field_problems))
        return verdict

    def _check_fields(self, out_dir, cert) -> list:
        """The solution sits in the invariant box, nodewise, and vanishes
        on the boundary, read from fields.csv independently of the
        certificate."""
        path = out_dir / self.cfg["outputs"]["fields_csv"]
        if not path.exists():
            return ["no fields csv written"]
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        out = []
        for i in ("1", "2"):
            u = [float(r["u" + i]) for r in rows]
            under = [float(r["under" + i]) for r in rows]
            if "caps" in cert:
                upper = [cert["caps"]["L"]] * len(rows)
            else:
                upper = [float(r["over" + i]) for r in rows]
            tol = MEMBER_ATOL + MEMBER_RTOL * max(abs(v) for v in upper)
            if not all(lo - tol <= v <= hi + tol for v, lo, hi in zip(u, under, upper)):
                out.append(f"u{i} leaves the barrier box")
            if any(float(r["d"]) == 0.0 and v != 0.0 for r, v in zip(rows, u)):
                out.append(f"u{i} nonzero on the boundary")
        return out

    def _check_sweep(self, res, out_dir) -> dict:
        n = len(self.spec["values"])
        verdict = {"attempted": n, "failed": n, "audits": 0, "audit_fails": 0,
                   "sha": None}
        if res is None:
            return verdict
        path = out_dir / "sweep.csv"
        if path.exists():
            verdict["sha"] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            self.problems.append("no sweep.csv written")
        failed = 0
        for row in res["rows"]:
            ok = (not row["error"] and row["converged"] and row["member"]
                  and row["residual"] is not None
                  and row["residual"] <= self.tol_residual)
            if not ok:
                self.problems.append(f"sweep row {row['value']} failed: {row}")
            failed += not ok
        verdict["failed"] = failed + (n - len(res["rows"]))
        return verdict


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 threads: int | None = None) -> dict:
    """One benchmark run.  Returns the JSON result object plus a
    ``detail`` entry for humans and for ``bench/suite.py``.  ``threads``
    overrides the workload's VARPX_THREADS (the suite's serial sweep
    reference)."""
    start = time.monotonic()
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / "work"))
    try:
        runner = Runner(workload, seed, workdir, start + RUN_LIMIT_S, threads)
        return _measure(runner, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (BENCH / "work").rmdir()
        except OSError:
            pass


def _measure(runner: Runner, seconds: float, trace: bool) -> dict:
    mode = runner.spec["mode"]
    runner.spawn("setup")                 # fills the bytecode and file caches
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            res, setup_s, _ = runner.spawn("setup")
            if res is not None:
                setups.append(setup_s)

    kinds = (False, True) if trace else (False,)
    plain, traced, verdicts = [], [], []
    # The next operation starts only if it is expected to end in time,
    # judged by the longest one so far, so a run lasts about --seconds.
    deadline = min(time.monotonic() + seconds, runner.deadline)
    longest, i = 0.0, 0
    while i < len(kinds) or time.monotonic() + longest <= deadline:
        kind = kinds[i % len(kinds)]
        t_op = time.monotonic()
        res, setup_s, out_dir = runner.spawn(mode, trace=kind)
        longest = max(longest, time.monotonic() - t_op)
        verdicts.append(runner.check(res, out_dir))
        if res is not None:
            (traced if kind else plain).append(res)
            if not kind:
                setups.append(setup_s)
        i += 1

    shas = {v["sha"] for v in verdicts}
    if len(shas) > 1:
        runner.problems.append(f"outputs differ between operations: {sorted(map(str, shas))}")
    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    audits = sum(v["audits"] for v in verdicts)
    audit_fails = sum(v["audit_fails"] for v in verdicts)
    ops = len(verdicts)

    detail = {"workload": runner.workload, "seed": runner.cfg["seed"], "ops": ops,
              "sha256": sorted(map(str, shas)),
              "threads": runner.threads,
              "exit_codes": [r.get("exit_code") for r in plain + traced],
              "env": environment()}
    if mode == "sweep" and plain:
        detail["row_iters"] = [r["iters"] for r in plain[0]["rows"]]

    if trace:
        values = _layer_metrics(runner, plain, traced, detail)
        units = {k: tracer.metric_unit(k) for k in values}
    else:
        values = {
            "run_s": _median([r["run_s"] for r in plain]),
            "run_cpu_s": _median([r["run_cpu_s"] for r in plain]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "ok_share": (attempted - failed) / attempted if attempted else 0.0,
            "audit_pass_share": (audits - audit_fails) / audits if audits else 1.0,
            "failed_share": failed / attempted if attempted else 1.0,
            "audit_failures": audit_fails / ops,
        }
        units = E2E_UNITS
        detail["setup_samples"] = len(setups)
    # The JSON result carries the declared metrics; the rest are printed.
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    declared = [m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]]
    detail["also"] = {k: metrics.pop(k) for k in list(metrics) if k not in declared}
    detail["problems"] = runner.problems
    correct = not runner.problems and failed == 0 and bool(plain)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics, "detail": detail}


def _layer_metrics(runner, plain, traced, detail) -> dict:
    per_op = []
    for res in traced:
        t = res["trace"]
        runner.problems += [f"trace: {p}" for p in t["problems"]]
        per_op.append(tracer.layer_metrics(t["stats"], t["counts"], runner.threads))
    if not per_op:
        runner.problems.append("no traced operation completed")
        return {}
    for other in per_op[1:]:
        moved = [k for k in other if tracer.metric_unit(k) == "count"
                 and other[k] != per_op[0][k]]
        if moved:
            runner.problems.append(f"counts differ between traced operations: {moved}")
    # Counts are equal across traced operations (checked above); times
    # are their medians.
    metrics = {k: per_op[0][k] if tracer.metric_unit(k) == "count"
               else _median([m[k] for m in per_op]) for k in per_op[0]}
    metrics["trace.run_s"] = _median([r["run_s"] for r in traced])
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median(
        [r["run_s"] for r in plain])
    t = traced[0]["trace"]
    detail["hit"] = t["hit"]
    return metrics


def report_lines(result: dict) -> list:
    """Human-readable summary: every metric by name with its unit, the
    ones the JSON line leaves out included."""
    d = result["detail"]
    lines = [f"workload {d['workload']}  seed {d['seed']}  ops {d['ops']}  "
             f"correct {result['correct']}  attempted {result['attempted']}  "
             f"failed {result['failed']}"]
    for k, m in list(result["metrics"].items()) + list(d["also"].items()):
        lines.append(f"  {k:34s} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  exit codes {d['exit_codes']}  certificate sha256 "
                 f"{','.join(s[:12] for s in d['sha256'])}")
    lines.append(f"  env {json.dumps(d['env'])}")
    for p in d["problems"]:
        lines.append(f"  PROBLEM {p}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "varpx" / "cli.py").is_file():
        print(f"error: no varpx sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result):
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
