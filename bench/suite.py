"""All four workloads, untraced and traced, into one result set.

    python3 bench/suite.py --label seed

For every workload: one untraced run (the end-to-end metrics) and two
traced runs (the per-layer metrics), at seed 7 and for BENCHMARK.json's
``run_seconds`` each.  Then the checks that need more than one run:

- the counts of work in the two traced runs are identical;
- every certificate (or sweep.csv) of the workload, traced or not, has
  the same SHA-256;
- every wrapped function is hit on at least one workload, and no traced
  operation reported a negative self time or self times that miss the
  root span;
- every metric ``BENCHMARK.json`` declares is measured, with its unit,
  and every declared per-layer metric reads above 0 on every workload
  ``BENCHMARK.json`` names;
- the tracer loses no span or count when four threads hammer it.

theta-sweep then runs three times each with VARPX_THREADS=2 and 1,
alternating, to compare its thread pool with serial rows.  Prints every
metric by name with its unit and writes
``bench/results/BENCH_<label>.json``, which records the environment.
Exits 1 when any check fails.
"""

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402

SEED = 7
SECONDS = run.DECLARED["run_seconds"]
SWEEP_PAIRS = 3


def _stress_tracer(threads=4, calls=2000) -> list:
    """Spans and counters stay exact when more threads than cores call
    traced functions under a very short switch interval."""
    tr = tracer.Tracer()

    def count(t, out):
        t.counts["stress.hooks"] += 1

    leaf = tr._wrap("stress.leaf", lambda i: i, count, None)
    outer = tr._wrap("stress.outer", lambda: [leaf(i) for i in range(calls)],
                     None, None)
    workers = [threading.Thread(target=tr.root, args=("stress.root", outer))
               for _ in range(threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    problems = tr.selfcheck()
    if any(w.is_alive() for w in workers):
        problems.append("stress threads still running after 60 s")
    n = threads * calls
    if tr.stats["stress.leaf"][0] != n or tr.counts["stress.hooks"] != n:
        problems.append(f"lost updates: {tr.stats['stress.leaf'][0]} spans and "
                        f"{tr.counts['stress.hooks']} hooks of {n}")
    return problems


def _strip(result):
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics", "detail")}


def _counts(result):
    every = {**result["metrics"], **result["detail"]["also"]}
    return {k: m["value"] for k, m in every.items() if m["unit"] == "count"}


def _declared_problems(workload, key, result) -> list:
    """Every metric BENCHMARK.json declares under ``key`` is in the
    result with the declared unit.  A declared per-layer metric must
    read above 0 on every workload BENCHMARK.json names: a metric that
    reads 0 or below there (a layer the workload never reaches, a signed
    difference) is printed but not declared."""
    problems = []
    gated = workload in {w["name"] for w in run.DECLARED["workloads"]}
    for m in run.DECLARED[key]:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{workload}: declared {key} metric {m['name']} [{m['unit']}] "
                            f"measured as {got}")
        elif key == "per_layer" and gated and not got["value"] > 0:
            problems.append(f"{workload}: declared per-layer metric {m['name']} "
                            f"reads {got['value']}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = run.environment()
    print(f"env {json.dumps(env)}")
    failures = [f"tracer stress: {p}" for p in _stress_tracer()]
    out = {"label": args.label, "seed": SEED, "seconds": SECONDS,
           "env_at_start": env, "workloads": {}}
    hit = set()

    for name in run.WORKLOADS:
        plain = run.run_workload(name, SEED, SECONDS, trace=False)
        traced = [run.run_workload(name, SEED, SECONDS, trace=True) for _ in range(2)]
        for line in run.report_lines(plain) + run.report_lines(traced[0]):
            print(line)
        entry = {"untraced": _strip(plain), "traced": [_strip(t) for t in traced]}
        for res in [plain] + traced:
            if not res["correct"]:
                failures.append(f"{name}: run not correct: {res['detail']['problems']}")
        moved = {k: (v, _counts(traced[1]).get(k))
                 for k, v in _counts(traced[0]).items() if _counts(traced[1]).get(k) != v}
        entry["counts_repeat"] = not moved
        if moved:
            failures.append(f"{name}: counts differ between traced runs: {moved}")
        shas = {s for res in [plain] + traced for s in res["detail"]["sha256"]}
        entry["outputs_identical"] = len(shas) == 1
        if len(shas) != 1:
            failures.append(f"{name}: outputs differ across runs: {sorted(shas)}")
        for t in traced:
            hit.update(t["detail"].get("hit", []))
        for key, res in (("end_to_end", plain), ("per_layer", traced[0])):
            failures += _declared_problems(name, key, res)
        out["workloads"][name] = entry

    # The thread pool against serial rows, alternated so that drift in
    # machine speed falls on both sides.
    sweep = {"2": [], "1": []}
    for _ in range(SWEEP_PAIRS):
        for threads in (2, 1):
            res = run.run_workload("theta-sweep", SEED, 1, trace=False,
                                   threads=threads)
            if not res["correct"]:
                failures.append(f"theta-sweep at {threads} threads: not correct: "
                                f"{res['detail']['problems']}")
            sweep[str(threads)].append({k: res["metrics"][k]["value"]
                                        for k in ("run_s", "run_cpu_s")})
    out["theta_sweep_threads"] = sweep
    for threads, runs in sweep.items():
        print(f"theta-sweep VARPX_THREADS={threads}: run_s "
              f"{[round(r['run_s'], 2) for r in runs]} s, run_cpu_s "
              f"{[round(r['run_cpu_s'], 2) for r in runs]} s")

    never_hit = sorted(set(tracer.TARGET_NAMES) - hit)
    if never_hit:
        failures.append(f"wrapped but never hit: {never_hit}")
    out["selftest"] = {"wrapped": list(tracer.TARGET_NAMES), "never_hit": never_hit,
                       "failures": failures}

    path = run.BENCH / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    for f in failures:
        print(f"FAIL {f}")
    print("suite:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
