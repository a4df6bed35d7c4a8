"""Outside-in layer trace of varpx.

The package has no tracing of its own, so this module wraps its public
functions from outside: every ``varpx`` module namespace that binds a
traced function gets a timing wrapper, the originals are restored by
``Tracer.uninstall``, and nothing in the package itself changes.

A span is one call of a traced function.  Spans nest per thread; a
span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of one thread sum to the duration
of that thread's root spans.  Counters are read off return values
(Newton steps, outer iterations, ...) at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter

LAYERS = ("grid", "expspace", "plaplace", "barriers", "sysfix", "verify", "cli")

# Spans inside which a scalar solve counts as an audit solve.
_AUDIT_SPANS = ("verify.gradient_estimate_audit", "verify.linfty_estimate_audit")


def _solve_hook(tracer, res):
    c = tracer.counts
    c["plaplace.newton_steps"] += res.newton_iters
    c["plaplace.accepted_steps"] += len(res.energies) - 1
    c["plaplace.solve.unconverged"] += not res.converged
    if any(tracer.within(name) for name in _AUDIT_SPANS):
        c["verify.audit_solves"] += 1


def _iterate_hook(tracer, out):
    key = ("sysfix.outer_iters.refined" if tracer.within("cli.run_pipeline.refined")
           else "sysfix.outer_iters")
    tracer.counts[key] += out[1].iters


def _calibrate_hook(tracer, res):
    tracer.counts["barriers.calibrate.c_steps"] += len(res.trajectory)


def _caps_hook(tracer, res):
    tracer.counts["sysfix.caps.pilot_iters"] += res.pilot_iters


def _pipeline_name(args, kwargs):
    """``cli.run`` reruns the pipeline at twice the resolution for the
    sandwich stability audit; that call gets its own span name."""
    config = args[0] if args else kwargs["config"]
    mesh_n = kwargs.get("mesh_n", args[1] if len(args) > 1 else None)
    refined = mesh_n is not None and mesh_n != config.resolution
    return "cli.run_pipeline.refined" if refined else "cli.run_pipeline"


# (module, attribute, result hook, span namer).  "Class.attr" names a
# static method.  The private names are the ones the layer table needs
# and no public function exposes: the Luxemburg modular evaluation and
# the sweep row.
TARGETS = (
    ("grid", "build_mesh", None, None),
    ("grid", "gradient", None, None),
    ("grid", "boundary_strip", None, None),
    ("grid", "export_csv", None, None),
    ("expspace", "luxemburg_norm_from_samples", None, None),
    ("expspace", "_modular_quad", None, None),
    ("plaplace", "solve_dirichlet", _solve_hook, None),
    ("plaplace", "weak_residual", None, None),
    ("plaplace", "apply_operator", None, None),
    ("plaplace", "torsion", None, None),
    ("plaplace", "torsion_delta", None, None),
    ("barriers", "validate_hypotheses", None, None),
    ("barriers", "resolve_delta", None, None),
    ("barriers", "build_barriers", None, None),
    ("barriers", "calibrate_barriers", _calibrate_hook, None),
    ("barriers", "check_barriers_positive_regime", None, None),
    ("barriers", "check_barriers_singular_regime", None, None),
    ("barriers", "frozen_rhs_quad", None, None),
    ("sysfix", "SystemState.build", None, None),
    ("sysfix", "apply_map", None, None),
    ("sysfix", "membership_check", None, None),
    ("sysfix", "coupled_residual", None, None),
    ("sysfix", "fixed_point_iterate", _iterate_hook, None),
    ("sysfix", "calibrate_caps", _caps_hook, None),
    ("verify", "solution_certificate", None, None),
    ("verify", "gradient_estimate_audit", None, None),
    ("verify", "linfty_estimate_audit", None, None),
    ("verify", "sandwich_audit", None, None),
    ("verify", "mvt_spot_checks", None, None),
    ("verify", "certificate_to_json", None, None),
    ("cli", "parse_config", None, None),
    ("cli", "run_pipeline", None, _pipeline_name),
    ("cli", "run", None, None),
    ("cli", "sweep", None, None),
    ("cli", "_sweep_row", None, None),
)


TARGET_NAMES = tuple(f"{module}.{attr}" for module, attr, _, _ in TARGETS)


class Tracer:
    """Span and counter store for one process.  Install once, run the
    workload inside ``root`` spans, uninstall, then read ``stats``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats = {}          # span name -> [calls, inclusive s, self s]
        self.counts = Counter()
        self.root_s = 0.0        # summed duration of every thread's root spans
        self._patches = []       # (owner, attribute, original)

    # -- spans --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name):
        frame = [name, 0.0, time.perf_counter()]
        self._stack().append(frame)
        return frame

    def _pop(self, frame):
        dur = time.perf_counter() - frame[2]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += dur
        with self._lock:
            st = self.stats.setdefault(frame[0], [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if not stack:
                self.root_s += dur

    def within(self, name) -> bool:
        """True when the calling thread is inside a span called ``name``."""
        return any(f[0] == name for f in self._stack())

    def root(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span that no traced function encloses."""
        if self._stack():
            raise RuntimeError(f"root span {name!r} opened inside another span")
        frame = self._push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop(frame)

    def _wrap(self, name, fn, hook, namer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(namer(args, kwargs) if namer else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if hook is not None:
                with tracer._lock:        # sweep rows run on several threads
                    hook(tracer, out)
            return out

        traced._bench_traced = True
        return traced

    # -- patching -----------------------------------------------------

    def install(self):
        """Wrap every target in every varpx namespace that binds it.
        A target the package lacks is an error: a renamed function must
        not read as a layer that does no work."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, hook, namer in TARGETS:
            name = f"{module}.{attr}"
            mod = importlib.import_module(f"varpx.{module}")
            owner = mod
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(mod, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                raise RuntimeError(f"trace target varpx.{name} not found")
            if owner is not mod:          # a method: patch the class itself
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                new = self._wrap(name, fn, hook, namer)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr,
                        staticmethod(new) if isinstance(raw, staticmethod) else new)
            else:
                wrapped = self._wrap(name, raw, hook, namer)
                for ns in _varpx_modules():
                    for key, val in list(vars(ns).items()):
                        if val is raw:
                            self._patches.append((ns, key, raw))
                            setattr(ns, key, wrapped)

    def uninstall(self):
        """Put every original back; raise if any wrapper survives."""
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []
        left = [f"{ns.__name__}.{key}" for ns in _varpx_modules()
                for key, val in vars(ns).items() if _is_traced(val)]
        left += [f"{ns.__name__}.{cls.__name__}.{key}" for ns in _varpx_modules()
                 for cls in vars(ns).values() if isinstance(cls, type)
                 for key, val in vars(cls).items() if _is_traced(val)]
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left}")

    # -- results ------------------------------------------------------

    def selfcheck(self) -> list:
        """Problems with the span bookkeeping: a negative self time, or
        self times that do not add up to the root spans."""
        problems = [f"{n}: self time {s[2]:.3g} s < 0"
                    for n, s in self.stats.items() if s[2] < -1e-9]
        total_self = sum(s[2] for s in self.stats.values())
        if abs(total_self - self.root_s) > 1e-6 * max(1.0, self.root_s):
            problems.append(f"self times sum to {total_self:.9g} s, "
                            f"root spans to {self.root_s:.9g} s")
        return problems

    def hit(self) -> list:
        """Wrapped function names called at least once."""
        return sorted(n for n in TARGET_NAMES
                      if any(s == n or s.startswith(n + ".") for s in self.stats))


def _varpx_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "varpx" or n.startswith("varpx."))]


def _is_traced(val):
    if isinstance(val, staticmethod):
        val = val.__func__
    return getattr(val, "_bench_traced", False) is True


def layer_metrics(st: dict, counts: dict, threads: int) -> dict:
    """Per-layer metrics of one traced operation from a tracer's ``stats``
    and ``counts``, by the names of the benchmark's ``per_layer`` list.
    Metrics of a layer the workload does not reach read 0."""
    c = Counter(counts)

    def calls(n):
        return st.get(n, (0, 0.0, 0.0))[0]

    def incl(n):
        return st.get(n, (0, 0.0, 0.0))[1]

    def self_s(n):
        return st.get(n, (0, 0.0, 0.0))[2]

    solves = calls("plaplace.solve_dirichlet")
    steps = c["plaplace.newton_steps"]
    sweep_s = incl("cli.sweep")
    out = {
        "plaplace.solve.calls": solves,
        "plaplace.newton_steps": steps,
        "plaplace.newton_steps_per_solve": steps / solves if solves else 0.0,
        "plaplace.solve.s": self_s("plaplace.solve_dirichlet"),
        "plaplace.accepted_step_ratio":
            c["plaplace.accepted_steps"] / steps if steps else 0.0,
        "plaplace.solve.unconverged": c["plaplace.solve.unconverged"],
        "plaplace.weak_residual.calls": calls("plaplace.weak_residual"),
        "plaplace.weak_residual.s": incl("plaplace.weak_residual"),
        "plaplace.apply_operator.calls": calls("plaplace.apply_operator"),
        "expspace.luxemburg.calls": calls("expspace.luxemburg_norm_from_samples"),
        "expspace.luxemburg.s": incl("expspace.luxemburg_norm_from_samples"),
        "expspace.modular_evals": calls("expspace._modular_quad"),
        "barriers.resolve_delta.s": incl("barriers.resolve_delta"),
        "barriers.calibrate.s": incl("barriers.calibrate_barriers"),
        "barriers.calibrate.calls": calls("barriers.calibrate_barriers"),
        "barriers.calibrate.c_steps": c["barriers.calibrate.c_steps"],
        "barriers.frozen_rhs.calls": calls("barriers.frozen_rhs_quad"),
        "barriers.frozen_rhs.s": incl("barriers.frozen_rhs_quad"),
        "sysfix.outer_iters": c["sysfix.outer_iters"],
        "sysfix.outer_iters.refined": c["sysfix.outer_iters.refined"],
        "sysfix.iterate.s": incl("sysfix.fixed_point_iterate"),
        "sysfix.state_build.calls": calls("sysfix.SystemState.build"),
        "sysfix.caps.s": incl("sysfix.calibrate_caps"),
        "sysfix.caps.pilot_iters": c["sysfix.caps.pilot_iters"],
        "verify.certificate.s": incl("verify.solution_certificate"),
        "verify.audit_solves": c["verify.audit_solves"],
        "verify.sandwich.s": incl("verify.sandwich_audit"),
        "verify.mvt.s": incl("verify.mvt_spot_checks"),
        "cli.pipeline.s": incl("cli.run_pipeline"),
        "cli.refined.s": incl("cli.run_pipeline.refined"),
        "cli.artifacts.s": incl("grid.export_csv") + incl("verify.certificate_to_json"),
        "cli.sweep.parallel_eff":
            incl("cli._sweep_row") / (sweep_s * threads) if sweep_s else 0.0,
        "grid.build_mesh.s": incl("grid.build_mesh"),
        "grid.build_mesh.calls": calls("grid.build_mesh"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(s[2] for n, s in st.items()
                                           if n.split(".", 1)[0] == layer)
    return out


def metric_unit(name: str) -> str:
    """Unit of a layer metric.  Metrics in ``count`` are counts of work
    and must repeat exactly from one traced run to the next."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_eff")):
        return "ratio"
    if name.endswith("_per_solve"):
        return "steps/solve"
    return "count"

