"""Configuration ingestion, run orchestration, artifact emission.

A run is batch only: parse and validate the JSON config (hypothesis
failures are rejected up front with the violated inequality named),
calibrate barriers, iterate to a fixed point, audit, and emit the fields
CSV, the iteration trace JSON, and the certificate JSON.

Exit codes are mapped in ``main`` alone; ``run``, ``audit`` and ``sweep``
raise.  Before the config is accepted (reading it, the sweep's JSON,
parameter path, values and mesh size, ``parse_config``) any exception
exits 1 with one line, creating nothing; after it, 2 with the traceback
and an error stub at each stub path the command owns that can be
written.  Else 0 when converged with all audits passed (a sweep: every
row), or 2.  Sweep rows run in value order.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, fields

import numpy as np

from . import barriers as bmod
from . import forms, grid, plaplace, sysfix, verify
from .barriers import ProblemSpec, Regime
from .errors import ConfigError, EnvelopeError, MixedSignError
from .expspace import ExponentField, per_exponent
from .grid import DomainSpec
from .plaplace import SolverOptions
from .sysfix import IterationOptions

_DEFAULT_OUTPUTS = {
    "fields_csv": "fields.csv",
    "certificate_json": "certificate.json",
    "trace_json": "trace.json",
}

MIN_RESOLUTION = 16

_REQUIRED = object()
_REAL = (int, float)


def _checked(v, path, types):
    """``v`` if it is of ``types`` and no bool; a real (``_REAL``) must
    also convert to a finite float."""
    real = types == _REAL
    if isinstance(v, bool) or not isinstance(v, types):
        want = "a number" if real else types.__name__
        raise ConfigError(path, f"expected {want}, got {type(v).__name__}")
    if real:
        try:
            bad = not math.isfinite(v) and repr(v)
        except OverflowError:
            bad = "an int beyond the float range"
        if bad:
            raise ConfigError(path, f"expected a finite number, got {bad}")
    return v


def _get(d, key, path, types=None, default=_REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return d[key] if types is None else _checked(d[key], f"{path}.{key}", types)


@dataclass
class RunConfig:
    domain: DomainSpec
    resolution: int
    problem: ProblemSpec
    solver: SolverOptions
    iteration: IterationOptions
    outputs: dict
    seed: int
    raw: dict


def _known_keys(obj, path, names):
    """Reject the first key of the config object at ``path`` that is not
    one of ``names``."""
    for name in obj:
        if name not in names:
            raise ConfigError(f"{path}.{name}", "unknown key")


def _options(cls, section, path):
    """``cls`` from the config object ``section`` at ``path``: every entry names
    a field of ``cls``, holds a number of its type and passes its checks."""
    types = {f.name: int if type(f.default) is int else _REAL for f in fields(cls)}
    _known_keys(section, path, types)
    for name in section:
        _get(section, name, path, types[name])
        try:
            cls(**{name: section[name]})
        except ValueError as exc:
            raise ConfigError(f"{path}.{name}", str(exc))
    return cls(**section)


def _parse_domain(obj):
    kind = _get(obj, "kind", "$.domain", str)
    bounds = {"interval": ("a", "b"), "rectangle": ("ax", "bx", "ay", "by")}.get(kind)
    if bounds is None:
        raise ConfigError("$.domain.kind", f"unknown domain kind {kind!r}")
    _known_keys(obj, "$.domain", ("kind", *bounds))
    return getattr(DomainSpec, kind)(*(_get(obj, k, "$.domain", _REAL) for k in bounds))


_EXPONENTS = ("p", "alpha", "beta", "gamma", "gamma_bar")
_TOP_KEYS = ("domain", "resolution", *_EXPONENTS, "m", "M", "f", "N_dim", "seed",
             "solver", "iteration", "outputs")


def _exponent_pair(mesh, obj, path):
    if not isinstance(obj, list) or len(obj) != 2:
        raise ConfigError(path, "expected a two-element list of expressions")
    out = []
    for i, e in enumerate(obj):
        expr = forms.spatial_only(forms.parse_expr(e, f"{path}[{i}]"), f"{path}[{i}]")
        vals = forms.evaluate_spatial(expr, mesh.nodes)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{path}[{i}]", "exponent is not finite at every mesh node")
        out.append(ExponentField(mesh, vals))
    return tuple(out)


def _number_pair(raw, key):
    """The two numbers of the config list ``key``, as floats."""
    pair = _get(raw, key, "$", list)
    if len(pair) != 2:
        raise ConfigError(f"$.{key}", "expected a two-element list of numbers")
    return tuple(float(_checked(v, f"$.{key}[{i}]", _REAL)) for i, v in enumerate(pair))


def _materialize(raw: dict, mesh) -> ProblemSpec:
    """The configured problem on ``mesh``: the five exponent pairs, the
    envelope constants m and M, the nonlinearities f and N_dim."""
    ex = {k: _exponent_pair(mesh, _get(raw, k, "$", list), f"$.{k}")
          for k in _EXPONENTS}
    mM = {k: _number_pair(raw, k) for k in ("m", "M")}
    fobj = _get(raw, "f", "$", list)
    if not isinstance(fobj, list) or len(fobj) != 2:
        raise ConfigError("$.f", "expected a two-element list of expressions")
    f = tuple(forms.parse_expr(e, f"$.f[{i}]") for i, e in enumerate(fobj))
    p1, p2 = ex.pop("p")
    try:
        return ProblemSpec(mesh=mesh, p1=p1, p2=p2, **ex, **mM, f=f,
                           N_dim=int(_get(raw, "N_dim", "$", int, default=2)))
    except (ValueError, TypeError) as exc:
        raise ConfigError("$", str(exc))


def _resolution(n) -> int:
    """``n`` as a mesh resolution, which must be at least MIN_RESOLUTION."""
    if int(n) < MIN_RESOLUTION:
        raise ConfigError("$.resolution", f"must be >= {MIN_RESOLUTION}")
    return int(n)


def parse_config(text: str, mesh_n: int | None = None) -> RunConfig:
    """Parse, materialize fields on the mesh, and validate eagerly.

    Hypothesis failures (``problem.hypotheses``) are raised as ConfigError
    naming the violated inequality with both sides evaluated."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("$", "top level must be an object")
    _known_keys(raw, "$", _TOP_KEYS)

    domain = _parse_domain(_get(raw, "domain", "$", dict))
    resolution = _resolution(mesh_n if mesh_n is not None else
                             _get(raw, "resolution", "$", int))
    mesh = grid.build_mesh(domain, resolution)
    problem = _materialize(raw, mesh)

    seed = int(_get(raw, "seed", "$", int, default=0))
    try:
        problem.envelope_check(np.random.default_rng(seed))
    except (ValueError, TypeError, EnvelopeError) as exc:
        raise ConfigError("$.f" if isinstance(exc, EnvelopeError) else "$",
                          str(exc))

    try:
        report = problem.hypotheses
    except MixedSignError as exc:
        raise ConfigError(f"$.{exc.key}", str(exc))
    if not report.passed:
        c = report.failed_checks()[0]
        raise ConfigError(
            "$.hypotheses",
            f"violated {c.name}: lhs={c.lhs:.6g} vs rhs={c.rhs:.6g}")

    solver = _options(SolverOptions, _get(raw, "solver", "$", dict, default={}),
                      "$.solver")
    iteration = dict(_get(raw, "iteration", "$", dict, default={}))
    # the frozen bench configs pin this retired key to 0; drop it with benchmark v2
    if _get(iteration, "anderson_depth", "$.iteration", int, default=0) != 0:
        raise ConfigError("$.iteration.anderson_depth", "retired key; only 0 is accepted")
    iteration.pop("anderson_depth", None)
    iteration = _options(IterationOptions, iteration, "$.iteration")
    outputs = _get(raw, "outputs", "$", dict, default={})
    _known_keys(outputs, "$.outputs", _DEFAULT_OUTPUTS)
    for key in outputs:
        _get(outputs, key, "$.outputs", str)
    outputs = {**_DEFAULT_OUTPUTS, **outputs}
    return RunConfig(domain=domain, resolution=resolution, problem=problem,
                     solver=solver, iteration=iteration, outputs=outputs,
                     seed=seed, raw=raw)


@dataclass
class PipelineResult:
    problem: ProblemSpec
    calibration: bmod.CalibrationResult
    solution: tuple
    report: sysfix.IterationReport


def run_pipeline(config: RunConfig, mesh_n: int | None = None,
                 coarse: PipelineResult | None = None) -> PipelineResult:
    """Calibrate and iterate; no audits, no artifacts.

    With ``coarse``, a run on a coarser mesh, the iteration starts at its
    solution interpolated to this mesh and clamped into this run's
    barrier box (nested iteration); otherwise at the lower barrier.
    Membership is judged on every raw map output either way, and in the
    singular regime the caps are read off this run's own clamped
    iterates, the interpolated start included."""
    problem = config.problem
    if mesh_n is not None and mesh_n != config.resolution:
        problem = _materialize(config.raw, grid.build_mesh(config.domain, mesh_n))
    mesh = problem.mesh
    init = None if coarse is None else tuple(
        grid.GridFunction(mesh, coarse.problem.mesh.interpolate(z.values, mesh.nodes))
        for z in coarse.solution)

    cal = bmod.calibrate_barriers(problem, config.solver)
    if problem.hypotheses.regime is Regime.POSITIVE_SUM:
        solution, report = sysfix.fixed_point_iterate(
            problem, cal.pair, init=init, opts=config.iteration,
            solver_opts=config.solver)
    else:
        # check each found cap against the pair it ran with, escalating C at
        # that cap until it holds; the check only tightens as L grows, so this
        # ends once the cap stops growing or the C search passes 2^20
        while True:
            cres = sysfix.calibrate_caps(problem, cal.pair, opts=config.iteration,
                                         solver_opts=config.solver, init=init)
            if bmod.check_barriers_singular_regime(problem, cal.pair, cres.L).ok:
                break
            cal = bmod.calibrate_barriers(problem, config.solver, L=cres.L)
        solution, report = cres.solution, cres.report
    return PipelineResult(problem=problem, calibration=cal,
                          solution=solution, report=report)


def _write_fields_csv(path, pipeline: PipelineResult):
    mesh = pipeline.problem.mesh
    cols = {
        "u1": pipeline.solution[0].values,
        "u2": pipeline.solution[1].values,
        "d": mesh.distance,
        "under1": pipeline.calibration.pair.under[0].values,
        "over1": pipeline.calibration.pair.over[0].values,
        "under2": pipeline.calibration.pair.under[1].values,
        "over2": pipeline.calibration.pair.over[1].values,
    }
    grid.export_csv(path, mesh, cols)


def run(config: RunConfig, out_dir: str = ".") -> int:
    """Full pipeline with audits and artifacts; returns the verdict status
    (0 converged and all audits pass, else 2) and raises on failure."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {k: os.path.join(out_dir, v) for k, v in config.outputs.items()}
    pipeline = run_pipeline(config)
    refined = run_pipeline(config, mesh_n=2 * pipeline.problem.mesh.n, coarse=pipeline)
    cert = verify.solution_certificate(
        pipeline.problem, pipeline.solution, pipeline.calibration.pair,
        pipeline.report, refined=refined.solution, refined_report=refined.report,
        rng=np.random.default_rng(config.seed))
    _write_fields_csv(paths["fields_csv"], pipeline)
    with open(paths["trace_json"], "w") as f:
        f.write(verify.certificate_to_json(pipeline.report.as_dict()))
    with open(paths["certificate_json"], "w") as f:
        f.write(verify.certificate_to_json(cert))
    ok = pipeline.report.converged and cert["all_audits_pass"]
    return 0 if ok else 2


def _path_parent(d, dotted):
    """The config object that holds the last key of the dotted path."""
    for k in dotted.split("."):
        if not isinstance(d, dict) or k not in d:
            raise ConfigError(dotted, "path does not address an existing key")
        parent, d = d, d[k]
    return parent


def _sweep_row(raw, param, value, mesh_n):
    cfg_dict = copy.deepcopy(raw)
    _path_parent(cfg_dict, param)[param.split(".")[-1]] = value
    row = {"value": value, "converged": False, "iters": None,
           "c0": None, "c1": None, "residual": None, "member": None,
           "error": ""}
    try:
        cfg = parse_config(json.dumps(cfg_dict), mesh_n=mesh_n)
        pv = run_pipeline(cfg)
        sandwich = verify.sandwich_audit(pv.solution)
        row.update(converged=pv.report.converged, iters=pv.report.iters,
                   c0=sandwich["c0"], c1=sandwich["c1"],
                   member=all(pv.report.membership_trace),
                   residual=pv.report.residuals[-1])
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep(raw_config: dict, param: str, values: list,
          out_dir: str = ".", mesh_n: int | None = None) -> list:
    """Run the pipeline once per parameter value; partial failures are
    recorded per row and the sweep continues."""
    os.makedirs(out_dir, exist_ok=True)
    rows = [_sweep_row(raw_config, param, v, mesh_n) for v in values]
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w") as f:
        f.write("value,converged,iters,c0,c1,residual,member,error\n")
        for r in rows:
            f.write(",".join("" if r[k] is None else
                             (repr(r[k]) if isinstance(r[k], float) else str(r[k]))
                             for k in ("value", "converged", "iters", "c0", "c1",
                                       "residual", "member", "error")) + "\n")
    return rows


_AUDIT_NAMES = ("gradient", "linfty", "mvt")


def audit(config: RunConfig, only: str | None = None, out_dir: str = ".") -> int:
    """Standalone estimate audits on the configured exponents with unit
    data, in the certificate's order; 'mvt' then runs the mean-value
    sampling on each exponent, from one generator seeded by the config."""
    if only is not None and only not in _AUDIT_NAMES:
        raise ConfigError("--only", f"unknown audit {only!r}; pick from {_AUDIT_NAMES}")
    names = _AUDIT_NAMES if only is None else (only,)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "audit.json")
    ps = config.problem.p
    # every audit reads the unit-data solve of each exponent: solve it once
    torsions = per_exponent(ps, lambda p: plaplace.torsion(p, config.solver))
    kinds = tuple(name for name in names if name != "mvt")
    out = [a.as_dict() for a in verify.estimate_audits(ps, kinds, torsions)]
    if "mvt" in names:
        out += verify.mvt_sampling(ps, np.random.default_rng(config.seed), torsions)
    payload = verify.certificate_to_json({"audits": out})
    with open(path, "w") as f:
        f.write(payload)
    sys.stdout.write(payload)
    return 0 if all(a["verdict"] == "pass" for a in out) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="varpx",
                                     description="variable-exponent system solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--mesh-n", type=int, default=None,
                       help="override the mesh resolution")
        p.add_argument("--out-dir", default=".", help="artifact directory")

    common(sub.add_parser("solve", help="run the full pipeline"))
    ps = sub.add_parser("sweep", help="re-run the pipeline over a parameter range")
    common(ps)
    ps.add_argument("--param", required=True, help="dotted path into the config")
    ps.add_argument("--values", required=True,
                    help="comma-separated JSON scalars")
    pa = sub.add_parser("audit", help="standalone estimate audits")
    common(pa)
    pa.add_argument("--only", default=None, choices=_AUDIT_NAMES)

    args = parser.parse_args(argv)
    try:  # until the config is accepted, any failure is exit 1
        with open(args.config) as f:
            text = f.read()
        if args.command == "sweep":
            raw = json.loads(text)
            _path_parent(raw, args.param)
            if args.mesh_n is not None:
                _resolution(args.mesh_n)
            if not args.values:
                raise ConfigError("--values", "expected at least one value")
            values = [json.loads(v) for v in args.values.split(",")]
            stubs = []
        else:
            config = parse_config(text, mesh_n=args.mesh_n)
            stubs = ([config.outputs["certificate_json"], config.outputs["trace_json"]]
                     if args.command == "solve" else ["audit.json"])
    except Exception as exc:
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1

    try:  # the config was accepted, so any failure is exit 2
        if args.command == "sweep":
            rows = sweep(raw, args.param, values, out_dir=args.out_dir,
                         mesh_n=args.mesh_n)
            for r in rows:
                print(r)
            return 2 if any(r["error"] or not r["converged"] for r in rows) else 0
        if args.command == "solve":
            return run(config, out_dir=args.out_dir)
        return audit(config, only=args.only, out_dir=args.out_dir)
    except Exception as exc:
        traceback.print_exc()
        stub = verify.certificate_to_json({"error": str(exc), "schema_version": 1})
        for name in stubs:
            with contextlib.suppress(OSError), \
                    open(os.path.join(args.out_dir, name), "w") as f:
                f.write(stub)
        return 2


if __name__ == "__main__":
    sys.exit(main())
