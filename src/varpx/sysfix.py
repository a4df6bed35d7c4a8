"""Decoupled solves and the damped fixed-point iteration.

Freezing the state (z1, z2) decouples the system: each component then
solves an independent scalar Dirichlet problem whose data is the
nonlinearity evaluated at the frozen state.  Iterating that map with
damping, starting from the lower barrier and clamping back into the
barrier box after each step, realizes the existence argument as a
computation: convergence is certified by a small step norm AND a small
weak residual of the coupled system at the final iterate, with set
membership recorded at every step.

The underlying existence proof is non-constructive, so non-convergence
of this particular iteration is a reported outcome, never an assertion
failure of the theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import barriers as bmod
from . import expspace, grid, plaplace
from .barriers import BarrierPair, ProblemSpec, Regime
from .errors import SolveError
from .grid import GridFunction, Mesh
from .plaplace import SolverOptions

_MEMBER_ATOL = 1e-8
_MEMBER_RTOL = 1e-6


@dataclass
class IterationOptions:
    theta: float = 0.7
    tol_step: float = 1e-8
    tol_residual: float = 1e-6
    max_iters: int = 500
    anderson_depth: int = 0

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("damping theta must lie in (0, 1]")
        if self.anderson_depth < 0:
            raise ValueError("anderson_depth must be >= 0")


@dataclass
class SystemState:
    """Frozen state: the two fields, and what the map and the membership
    test read from them.  The gradients, their norms and the frozen data
    are computed on first read, so a state computes each at most once
    and never one that nothing reads."""

    z: tuple                  # (GridFunction, GridFunction)
    mesh: Mesh = field(repr=False)
    p: tuple = field(repr=False)          # (ExponentField, ExponentField)
    _frozen: tuple | None = field(default=None, repr=False)  # (pair, data)

    @staticmethod
    def build(mesh: Mesh, spec: ProblemSpec, z1: GridFunction,
              z2: GridFunction) -> "SystemState":
        grid.check_same_mesh(mesh, z1, z2)
        return SystemState(z=(z1, z2), mesh=mesh, p=spec.p)

    @cached_property
    def grad_z(self) -> tuple:
        return tuple(grid.gradient(self.mesh, zi) for zi in self.z)

    @cached_property
    def grad_inf_norm(self) -> tuple:
        return tuple(g.inf_norm for g in self.grad_z)

    @cached_property
    def grad_lux_norm(self) -> tuple:
        mesh = self.mesh
        return tuple(expspace.luxemburg_norm_from_samples(
            g.magnitudes[mesh.qcells], pi.at_quad(), mesh.qweights,
            mesh.domain.measure) for g, pi in zip(self.grad_z, self.p))


@dataclass
class IterationReport:
    """Trace of one damped fixed-point run.  Membership flags refer to
    the raw map output of each iteration (the invariance evidence);
    clamped iterates sit inside the value box by construction, so
    recording them would be vacuous."""

    iters: int
    step_norms: list          # per iteration: (step_1, step_2)
    residuals: list           # per iteration: max coupled weak residual
    membership_trace: list    # combined membership per iteration
    box_trace: list           # nodewise-sandwich part only
    grad_cap_trace: list      # gradient-cap part only
    converged: bool
    damping_used: float
    iterates: list = field(default_factory=list, repr=False)
    # per iteration: the cap-free membership inputs of the raw map output,
    # which calibrate_caps judges again once it has picked the caps
    extremes: list = field(default_factory=list, repr=False)

    def as_dict(self):
        return {
            "iters": self.iters,
            "converged": self.converged,
            "damping_used": self.damping_used,
            "step_norms": [list(s) for s in self.step_norms],
            "residuals": list(self.residuals),
            "membership_trace": list(self.membership_trace),
            "box_trace": list(self.box_trace),
            "grad_cap_trace": list(self.grad_cap_trace),
        }


def freeze_rhs(spec: ProblemSpec, state: SystemState, pair: BarrierPair):
    """Data for the decoupled solves: nonlinearities at the clamped
    state, sampled at interior quadrature points only.  The state keeps
    it, so the residual test of an iterate and the map application that
    follows share one evaluation."""
    if state._frozen is None or state._frozen[0] is not pair:
        state._frozen = (pair, bmod.frozen_rhs_quad(
            spec.mesh, spec, state.z[0], state.z[1], pair))
    return state._frozen[1]


def apply_map(mesh: Mesh, spec: ProblemSpec, state: SystemState,
              pair: BarrierPair, opts: SolverOptions | None = None):
    """One application of the frozen-state map: two independent scalar
    solves.  Component order is irrelevant because the frozen data
    decouples them."""
    h1, h2 = freeze_rhs(spec, state, pair)
    results = []
    for i, hq in ((0, h1), (1, h2)):
        res = plaplace.solve_dirichlet(mesh, spec.p[i], hq, opts)
        if not res.converged:
            raise SolveError(
                f"component {i+1} solve stalled at residual {res.residual:.3e}")
        results.append(res)
    return (results[0].u, results[1].u), (results[0], results[1])


def membership_check(state: SystemState, pair: BarrierPair, regime: Regime,
                     L: float | None = None, L_tilde: float | None = None):
    """(member, worst_violation, parts) for the invariant set of the regime.

    positive_sum: under <= z <= over nodewise and |grad z|_inf <= C R.
    negative_sum: under <= z <= L nodewise and Luxemburg gradient norm
    <= L_tilde.  Violations are measured beyond a mixed tolerance.
    ``parts`` holds the box and gradient verdicts and the cap-free
    ``extremes`` they were judged from.
    """
    if regime is Regime.NEGATIVE_SUM and (L is None or L_tilde is None):
        raise ValueError("negative-sum membership needs L and L_tilde")
    extremes = []
    for i in (0, 1):
        zi = state.z[i].values
        low_v = float((pair.under[i].values - zi).max())
        if regime is Regime.POSITIVE_SUM:
            extremes.append((low_v, float((zi - pair.over[i].values).max()),
                             state.grad_inf_norm[i]))
        else:
            extremes.append((low_v, float(zi.max()), state.grad_lux_norm[i]))
    member, worst, parts = _judge(extremes, pair, regime, L, L_tilde)
    parts["extremes"] = extremes
    return member, worst, parts


def _judge(extremes, pair: BarrierPair, regime: Regime, L, L_tilde):
    """Membership verdict from per-component (depth below ``under``,
    excess over ``over`` or the maximum, gradient norm)."""
    box, grad = [], []
    for i, (low_v, up, g) in enumerate(extremes):
        if regime is Regime.POSITIVE_SUM:
            up_v, g_v = up, g - pair.C * pair.R
            scale = float(np.abs(pair.over[i].values).max())
        else:
            # max(z) - L rounds exactly as max(z - L) does
            up_v, g_v, scale = up - L, g - L_tilde, L
        tol = _MEMBER_ATOL + _MEMBER_RTOL * scale
        box.append(max(low_v, up_v) - tol)
        grad.append(g_v - tol)
    worst = max(*box, *grad)
    return worst <= 0.0, max(worst, 0.0), {"box_ok": max(box) <= 0.0,
                                           "grad_ok": max(grad) <= 0.0}


def coupled_residual(mesh: Mesh, spec: ProblemSpec, z1: GridFunction,
                     z2: GridFunction, pair: BarrierPair,
                     state: SystemState | None = None):
    """Weak residual of each component equation with the nonlinearity
    evaluated at the pair itself (zero exactly at a discrete fixed point).
    A ``state`` of (z1, z2) passed in keeps the frozen data for the caller."""
    state = state or SystemState.build(mesh, spec, z1, z2)
    return _state_residual(spec, state, pair)


def _state_residual(spec: ProblemSpec, state: SystemState, pair: BarrierPair):
    h1, h2 = freeze_rhs(spec, state, pair)
    return (plaplace.weak_residual(state.mesh, spec.p1, state.z[0], h1),
            plaplace.weak_residual(state.mesh, spec.p2, state.z[1], h2))


def _anderson_step(x_hist, g_hist, depth):
    """Type-II Anderson mixing on the residuals g - x; falls back to the
    newest damped target when the least-squares system is degenerate."""
    f_hist = [g - x for x, g in zip(x_hist, g_hist)]
    m = min(depth, len(x_hist) - 1)
    if m < 1:
        return g_hist[-1]
    F = np.column_stack([f_hist[-1] - f_hist[-2 - j] for j in range(m)])
    G = np.column_stack([g_hist[-1] - g_hist[-2 - j] for j in range(m)])
    try:
        coef, *_ = np.linalg.lstsq(F, f_hist[-1], rcond=1e-10)
    except np.linalg.LinAlgError:
        return g_hist[-1]
    if not np.all(np.isfinite(coef)):
        return g_hist[-1]
    return g_hist[-1] - G @ coef


def fixed_point_iterate(mesh: Mesh, spec: ProblemSpec, pair: BarrierPair,
                        init: SystemState | None = None,
                        opts: IterationOptions | None = None,
                        solver_opts: SolverOptions | None = None,
                        regime: Regime | None = None,
                        L: float | None = None,
                        L_tilde: float | None = None,
                        store_iterates: bool = False):
    """Damped iteration z <- (1-theta) z + theta T(z), clamped back into
    the invariant box nodewise after every step (clamping preserves the
    zero trace; gradient-cap violations are only flagged, never edited).

    Stops when the step norm <= tol_step AND the coupled weak residual
    <= tol_residual.  Returns ((z1, z2), IterationReport).
    """
    opts = opts or IterationOptions()
    if regime is None:
        regime = bmod.validate_hypotheses(spec).regime
    if regime is Regime.NEGATIVE_SUM and (L is None or L_tilde is None):
        raise ValueError("negative-sum iteration needs calibrated caps L, L_tilde")

    if init is None:
        z1 = pair.under[0].copy()
        z2 = pair.under[1].copy()
    else:
        z1, z2 = init.z[0].copy(), init.z[1].copy()
    state = SystemState.build(mesh, spec, z1, z2)

    nn = mesh.n_nodes
    x_hist, g_hist = [], []
    steps, residuals, member_trace, box_trace, grad_trace = [], [], [], [], []
    iterates, extremes = [], []
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        (u1, u2), _ = apply_map(mesh, spec, state, pair, solver_opts)
        out_state = SystemState.build(mesh, spec, u1, u2)
        member, _, parts = membership_check(out_state, pair, regime, L, L_tilde)
        x = np.concatenate([z1.values, z2.values])
        g = (1.0 - opts.theta) * x + opts.theta * np.concatenate([u1.values, u2.values])
        if opts.anderson_depth > 0:
            x_hist.append(x)
            g_hist.append(g)
            x_new = _anderson_step(x_hist, g_hist, opts.anderson_depth)
            keep = opts.anderson_depth + 1
            x_hist, g_hist = x_hist[-keep:], g_hist[-keep:]
        else:
            x_new = g
        v1, v2 = x_new[:nn].copy(), x_new[nn:].copy()
        for i, v in ((0, v1), (1, v2)):
            np.maximum(v, pair.under[i].values, out=v)
            if regime is Regime.POSITIVE_SUM:
                np.minimum(v, pair.over[i].values, out=v)
            else:
                np.minimum(v, L, out=v)
        s1 = float(np.abs(v1 - z1.values).max())
        s2 = float(np.abs(v2 - z2.values).max())
        z1 = GridFunction(mesh, v1, zero_trace=True)
        z2 = GridFunction(mesh, v2, zero_trace=True)
        state = SystemState.build(mesh, spec, z1, z2)

        r1, r2 = _state_residual(spec, state, pair)
        steps.append((s1, s2))
        residuals.append(max(r1, r2))
        member_trace.append(bool(member))
        box_trace.append(bool(parts["box_ok"]))
        grad_trace.append(bool(parts["grad_ok"]))
        extremes.append(parts["extremes"])
        if store_iterates:
            iterates.append((v1.copy(), v2.copy()))
        if max(s1, s2) <= opts.tol_step and residuals[-1] <= opts.tol_residual:
            # stationary and consistent; success additionally requires the
            # final map output to sit inside the invariant set
            converged = bool(member)
            break

    report = IterationReport(iters=it, step_norms=steps, residuals=residuals,
                             membership_trace=member_trace, box_trace=box_trace,
                             grad_cap_trace=grad_trace, converged=converged,
                             damping_used=opts.theta, iterates=iterates,
                             extremes=extremes)
    return (z1, z2), report


@dataclass
class CapsResult:
    """Caps of the singular regime and the run they were read from.  The
    clamp at L never binds on that run, so the run is the iteration's
    solution under these caps."""

    L: float
    L_tilde: float
    max_sup: float
    max_grad_lux: float
    solution: tuple
    report: IterationReport

    @property
    def pilot_iters(self) -> int:
        return self.report.iters


def calibrate_caps(mesh: Mesh, spec: ProblemSpec, pair: BarrierPair,
                   opts: IterationOptions | None = None,
                   solver_opts: SolverOptions | None = None) -> CapsResult:
    """Doubling search for the sup-norm cap L and the Luxemburg gradient
    cap L_tilde of the singular regime, by one run of the iteration.

    The run starts at the lower barrier with the upper clamp disabled.
    Each cap is the smallest power of two with 5 percent headroom above
    the largest sup norm or gradient norm of the run's clamped iterates,
    initial state included (and L > 1 always).  The run's membership is
    then judged against those caps.  The caps exist for 'large enough'
    constants only; this search finds concrete ones.
    """
    big = float(np.finfo(float).max) ** 0.25
    solution, report = fixed_point_iterate(
        mesh, spec, pair, opts=opts, solver_opts=solver_opts,
        regime=Regime.NEGATIVE_SUM, L=big, L_tilde=big, store_iterates=True)
    iterates = [(pair.under[0].values, pair.under[1].values), *report.iterates]
    report.iterates = []      # kept for the cap rule only
    max_sup = max(float(np.abs(v).max()) for vs in iterates for v in vs)
    max_lux = max(max(SystemState.build(
        mesh, spec, GridFunction(mesh, v1), GridFunction(mesh, v2)).grad_lux_norm)
        for v1, v2 in iterates)
    L = 2.0
    while L < 1.05 * max_sup:
        L *= 2.0
    Lt = 1.0
    while Lt < 1.05 * max_lux:
        Lt *= 2.0

    verdicts = [_judge(e, pair, Regime.NEGATIVE_SUM, L, Lt) for e in report.extremes]
    report.membership_trace = [bool(v[0]) for v in verdicts]
    report.box_trace = [bool(v[2]["box_ok"]) for v in verdicts]
    report.grad_cap_trace = [bool(v[2]["grad_ok"]) for v in verdicts]
    # under the disabled caps every map output is a member, so the run
    # converged iff its stop test fired; the caps decide the rest
    report.converged = report.converged and report.membership_trace[-1]
    return CapsResult(L=L, L_tilde=Lt, max_sup=max_sup, max_grad_lux=max_lux,
                      solution=solution, report=report)
