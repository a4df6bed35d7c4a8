"""The benchmark's layer trace wraps varpx functions by name; a renamed
or removed target stops every traced bench worker.  This reads
bench/tracer.py without installing it (and without writing bytecode
next to it) and resolves each target the way the tracer does."""

import importlib
import json
import os
import types

from conftest import REPO_ROOT


def _load_tracer():
    path = os.path.join(REPO_ROOT, "bench", "tracer.py")
    mod = types.ModuleType("varpx_bench_tracer")
    mod.__file__ = path
    with open(path) as f:
        exec(compile(f.read(), path, "exec"), mod.__dict__)
    return mod


def test_every_trace_target_resolves():
    tracer = _load_tracer()
    missing = []
    for module, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"varpx.{module}")
        name = attr
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(owner).get(cls_name)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{name}")
    assert tracer.TARGETS and missing == []


def test_traced_run_counts_audit_solves(tmp_path):
    # p1 == p2 in singular.json: the second component reuses the first
    # one's scale family, whose solves both audits read.  The bench suite
    # fails on a target no workload reaches; a singular run and a one-row
    # positive sweep together reach every target.
    from varpx import cli
    from varpx.verify import DEFAULT_SCALES

    with open(os.path.join(REPO_ROOT, "configs", "singular.json")) as f:
        config = cli.parse_config(f.read(), mesh_n=32)
    with open(os.path.join(REPO_ROOT, "configs", "benchmark.json")) as f:
        raw = json.load(f)
    module = _load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        tracer.root("solve", cli.run, config, out_dir=str(tmp_path))
        audit_solves = tracer.counts["verify.audit_solves"]
        norms = tracer.stats["expspace.luxemburg_norm_from_samples"][0]
        modular_evals = tracer.stats["expspace._modular_quad"][0]
        refined_iters = tracer.counts["sysfix.outer_iters.refined"]
        tracer.root("sweep", cli.sweep, raw, "iteration.theta", [0.7],
                    out_dir=str(tmp_path), mesh_n=32)
    finally:
        tracer.uninstall()
    assert tracer.selfcheck() == []
    distinct = {p.values.tobytes() for p in config.problem.p}
    assert len(distinct) == 1
    # the lam = 1 audit solve is the torsion the calibration already made
    assert audit_solves == (len(DEFAULT_SCALES) - 1) * len(distinct)
    # p = 3 is constant: the power bounds meet at the root, so each
    # Luxemburg norm costs three modular evaluations at most
    assert 0 < modular_evals <= 3 * norms
    # the refined rerun keeps its own span, so cli.refined.s cannot read 0
    assert tracer.stats["cli.run_pipeline.refined"][0] == 1
    assert refined_iters > 0
    assert sorted(set(module.TARGET_NAMES) - set(tracer.hit())) == []
