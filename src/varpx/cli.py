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
row), or 2.  Sweep rows run in value order.  Once the config is
accepted, the command runs with numpy's OpenBLAS on one thread, and
``main`` restores the thread count before it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
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
from .expspace import ExponentField, per_distinct
from .grid import DomainSpec
from .plaplace import SolverOptions
from .sysfix import IterationOptions, SystemState

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
    values = [_get(obj, k, "$.domain", _REAL) for k in bounds]
    try:
        return getattr(DomainSpec, kind)(*values)
    except ValueError as exc:  # a degenerate domain
        raise ConfigError("$.domain", str(exc))


_EXPONENTS = ("p", "alpha", "beta", "gamma", "gamma_bar")
_TOP_KEYS = ("domain", "resolution", *_EXPONENTS, "m", "M", "f", "N_dim", "seed",
             "solver", "iteration", "outputs")


def _pair(raw, key, what):
    """(path, entry) for both entries of the config list ``key``, which
    must hold two ``what``."""
    pair = _get(raw, key, "$", list)
    if len(pair) != 2:
        raise ConfigError(f"$.{key}", f"expected a two-element list of {what}")
    return [(f"$.{key}[{i}]", v) for i, v in enumerate(pair)]


def _exponent_pair(mesh, raw, key):
    out = []
    for path, e in _pair(raw, key, "expressions"):
        vals = forms.evaluate_spatial(
            forms.parse_expr(e, path, forms.SPATIAL[:mesh.dim]), mesh.nodes)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(path, "exponent is not finite at every mesh node")
        out.append(ExponentField(mesh, vals))
    return tuple(out)


def _materialize(raw: dict, mesh) -> ProblemSpec:
    """The configured problem on ``mesh``: the five exponent pairs, the
    envelope constants m and M and the nonlinearities f.  The key N_dim
    is accepted only at ``mesh.N``, the one N the problem is posed in."""
    ex = {k: _exponent_pair(mesh, raw, k) for k in _EXPONENTS}
    mM = {k: tuple(float(_checked(v, path, _REAL)) for path, v in _pair(raw, k, "numbers"))
          for k in ("m", "M")}
    names = forms.SPATIAL[:mesh.dim] + forms.STATE
    f = tuple(forms.parse_expr(e, path, names) for path, e in _pair(raw, "f", "expressions"))
    # the frozen bench configs carry "N_dim": 2; drop the key with benchmark v2
    if _get(raw, "N_dim", "$", int, default=mesh.N) != mesh.N:
        raise ConfigError("$.N_dim", f"only the mesh's N={mesh.N} is accepted")
    try:
        return ProblemSpec(mesh=mesh, **ex, **mM, f=f)
    except (ValueError, TypeError) as exc:
        raise ConfigError("$", str(exc))


def _resolution(n, path) -> int:
    """``n`` as a mesh resolution, which must be at least MIN_RESOLUTION;
    an error names ``path``, where the value came from."""
    if int(n) < MIN_RESOLUTION:
        raise ConfigError(path, f"must be >= {MIN_RESOLUTION}")
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
    resolution = _resolution(_get(raw, "resolution", "$", int), "$.resolution")
    if mesh_n is not None:  # the mesh is built at the override
        resolution = _resolution(mesh_n, "--mesh-n")
    mesh = grid.build_mesh(domain, resolution)
    problem = _materialize(raw, mesh)

    seed = _get(raw, "seed", "$", int, default=0)
    if seed < 0:
        raise ConfigError("$.seed", "must be >= 0")
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
    return RunConfig(resolution=resolution, problem=problem, solver=solver,
                     iteration=iteration, outputs={**_DEFAULT_OUTPUTS, **outputs},
                     seed=seed, raw=raw)


def run_pipeline(config: RunConfig, mesh_n: int | None = None,
                 coarse: SystemState | None = None) -> tuple:
    """Calibrate and iterate; no audits, no artifacts.  Returns the
    iteration's final SystemState, which carries the problem and the
    barrier pair it ran with, and its IterationReport.

    With ``coarse``, the final state of a run on a coarser mesh, the
    iteration starts at its fields interpolated to this mesh and clamped
    into this run's barrier box (nested iteration); otherwise at the
    lower barrier.  Membership is judged on every raw map output either
    way, and in the singular regime the caps are read off this run's own
    clamped iterates, the interpolated start included."""
    problem = config.problem
    if mesh_n is not None and mesh_n != config.resolution:
        problem = _materialize(config.raw, grid.build_mesh(problem.mesh.domain, mesh_n))
    mesh = problem.mesh
    init = None if coarse is None else tuple(
        grid.GridFunction(mesh, grid.interpolate(mesh.domain, z.values, mesh.nodes))
        for z in coarse.z)

    cal = bmod.calibrate_barriers(problem, config.solver)
    if problem.hypotheses.regime is Regime.POSITIVE_SUM:
        return sysfix.fixed_point_iterate(problem, cal.pair, init=init,
                                          opts=config.iteration,
                                          solver_opts=config.solver)
    # check each found cap against the pair it ran with, escalating C at
    # that cap until it holds; the check only tightens as L grows, so this
    # ends once the cap stops growing or the C search passes 2^20
    while True:
        cres = sysfix.calibrate_caps(problem, cal.pair, opts=config.iteration,
                                     solver_opts=config.solver, init=init)
        if bmod.check_barriers_singular_regime(problem, cal.pair, cres.L).ok:
            return cres.solution, cres.report
        cal = bmod.calibrate_barriers(problem, config.solver, L=cres.L)


def _write_fields_csv(path, state: SystemState):
    (u1, u2), pair = state.z, state.pair
    grid.export_csv(path, state.spec.mesh, {
        "u1": u1.values, "u2": u2.values, "d": state.spec.mesh.distance,
        "under1": pair.under[0].values, "over1": pair.over[0].values,
        "under2": pair.under[1].values, "over2": pair.over[1].values,
    })


def artifact_paths(outputs: dict, out_dir: str = ".") -> dict:
    """Each output's path joined with ``out_dir`` and normalized; two
    outputs that name one file are a config error."""
    paths, named = {}, {}
    for key, path in outputs.items():
        paths[key] = full = os.path.normpath(os.path.join(out_dir, path))
        other = named.setdefault(full, key)
        if other != key:
            raise ConfigError("$.outputs", f"{other} and {key} name one file {full!r}")
    return paths


def run(config: RunConfig, out_dir: str = ".") -> int:
    """Full pipeline with audits and artifacts; returns the verdict status
    (0 converged and all audits pass, else 2) and raises on failure."""
    paths = artifact_paths(config.outputs, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    state, report = run_pipeline(config)
    refined = run_pipeline(config, mesh_n=2 * state.spec.mesh.n, coarse=state)
    cert = verify.solution_certificate(state, report, refined=refined,
                                       rng=np.random.default_rng(config.seed))
    _write_fields_csv(paths["fields_csv"], state)
    with open(paths["trace_json"], "w") as f:
        f.write(verify.certificate_to_json(report.as_dict()))
    with open(paths["certificate_json"], "w") as f:
        f.write(verify.certificate_to_json(cert))
    ok = report.converged and cert["all_audits_pass"]
    return 0 if ok else 2


def _path_parent(d, dotted):
    """The config object that holds the last key of the dotted path."""
    for k in dotted.split("."):
        if not isinstance(d, dict) or k not in d:
            raise ConfigError(dotted, "path does not address an existing key")
        parent, d = d, d[k]
    return parent


# a sweep row's keys, in the order of sweep.csv's columns
_SWEEP_COLUMNS = ("value", "converged", "iters", "c0", "c1", "residual", "member", "error")


def _sweep_row(raw, param, value, mesh_n):
    cfg_dict = copy.deepcopy(raw)
    _path_parent(cfg_dict, param)[param.split(".")[-1]] = value
    row = dict.fromkeys(_SWEEP_COLUMNS)
    row.update(value=value, converged=False, error="")
    try:
        cfg = parse_config(json.dumps(cfg_dict), mesh_n=mesh_n)
        state, report = run_pipeline(cfg)
        sandwich = verify.sandwich_audit(state.z)
        row.update(converged=report.converged, iters=report.iters,
                   c0=sandwich["c0"], c1=sandwich["c1"],
                   member=all(report.membership_trace),
                   residual=report.residuals[-1])
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
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, _SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
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
    torsions = per_distinct(lambda p: plaplace.torsion(p, config.solver), ps)
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
                if args.param == "resolution":
                    raise ConfigError("--mesh-n", "cannot be combined with "
                                      "--param resolution, which sets the mesh")
                _resolution(args.mesh_n, "--mesh-n")
            if not args.values:
                raise ConfigError("--values", "expected at least one value")
            values = [json.loads(v) for v in args.values.split(",")]
            stubs = []
        else:
            config = parse_config(text, mesh_n=args.mesh_n)
            paths = artifact_paths(config.outputs, args.out_dir)
            stubs = ([paths["certificate_json"], paths["trace_json"]]
                     if args.command == "solve"
                     else [os.path.join(args.out_dir, "audit.json")])
    except Exception as exc:
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1

    try:  # the config was accepted, so any failure is exit 2
        with plaplace.one_blas_thread():
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
        stub = verify.certificate_to_json({"error": str(exc),
                                           "schema_version": verify.SCHEMA_VERSION})
        for path in stubs:
            with contextlib.suppress(OSError), open(path, "w") as f:
                f.write(stub)
        return 2


if __name__ == "__main__":
    sys.exit(main())
