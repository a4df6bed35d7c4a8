"""One benchmark operation in a fresh process.

    python3 bench/worker.py <request.json> <result.json>

The request names the generated config, the output directory, the mode
(``setup``, ``solve`` or ``sweep``) and whether to trace.  The worker
imports varpx from the checkout's ``src``, parses the config (set-up),
runs the workload's command, and writes timings, peak memory, the
command's outputs and, when traced, the raw spans and counts to the
result file.  The parent judges correctness; the worker only reports.
"""

import json
import os
import resource
import sys
import time


def main(request_path, result_path):
    with open(request_path) as f:
        req = json.load(f)
    sys.path.insert(0, req["src"])
    tracer = None
    if req["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracemod
        import varpx  # noqa: F401  (binds every module the tracer patches)
        tracer = tracemod.Tracer()
        tracer.install()
    from varpx import cli

    with open(req["config"]) as f:
        text = f.read()
    if tracer is not None:
        config = tracer.root("bench.setup", cli.parse_config, text)
    else:
        config = cli.parse_config(text)
    out = {"setup_done": time.monotonic()}

    if req["mode"] != "setup":
        if req["mode"] == "solve":
            fn, args = cli.run, (config, req["out_dir"])
        else:
            fn, args = cli.sweep, (json.loads(text), req["param"], req["values"],
                                   req["out_dir"])
        t0, c0 = time.perf_counter(), time.process_time()
        value = tracer.root("bench.run", fn, *args) if tracer else fn(*args)
        out["run_s"] = time.perf_counter() - t0
        out["run_cpu_s"] = time.process_time() - c0
        out["exit_code" if req["mode"] == "solve" else "rows"] = value

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {
            "problems": tracer.selfcheck(),
            "hit": tracer.hit(),
            "stats": tracer.stats,
            "counts": dict(tracer.counts),
        }
    with open(result_path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
