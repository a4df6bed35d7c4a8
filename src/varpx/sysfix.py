"""Decoupled solves and the damped fixed-point iteration.

Freezing the state (z1, z2) decouples the system: each component then
solves an independent scalar Dirichlet problem whose data is the
nonlinearity evaluated at the frozen state, and whose Newton solve
starts at the frozen state itself.  When the two problems coincide bit
for bit (same exponent, data and start, as in a symmetric system), the
map solves it once, and the residual and the Luxemburg gradient norms
are likewise evaluated once for both components, all through
``expspace.per_distinct``, the package's one way to share equal work.

Iterating that map with damping, starting from the lower barrier (or
from a given state clamped into the barrier box, such as a coarse
solution prolongated to a finer mesh) and clamping back into the box
after each step, realizes the existence argument as a computation:
convergence is certified by a small step norm AND a small weak residual
of the coupled system at the final iterate, with set membership
recorded at every step.

A state means nothing apart from its problem and the barrier pair whose
invariant set it is tested against, so a ``SystemState`` carries both:
the map, the coupled residual and the membership extremes take the
state alone, and its frozen data and residuals are evaluated once
however many of them read it.  The state the loop stops at is the run's
solution, so what reads it afterwards (the certificate) reuses both.

The underlying existence proof is non-constructive, so non-convergence
of this particular iteration is a reported outcome, never an assertion
failure of the theory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import barriers as bmod
from . import expspace, grid, plaplace
from .barriers import BarrierPair, ProblemSpec, Regime
from .grid import GridFunction
from .plaplace import SolverOptions

@dataclass
class IterationOptions:
    theta: float = 0.7
    tol_step: float = 1e-8
    tol_residual: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("damping theta must lie in (0, 1]")
        if not (self.tol_step > 0 and self.tol_residual > 0 and self.max_iters >= 1):
            raise ValueError("need tolerances > 0, max_iters >= 1")


@dataclass
class SystemState:
    """Frozen state of one problem, tested against the invariant set of
    one barrier pair: the two fields, and what the map, the residual and
    the membership test read from them.  The Luxemburg gradient norms,
    the frozen data and the residuals are computed on first read, so a
    state computes each at most once and never one that nothing reads;
    the gradient norms they share are the fields' own ``grad_norm``."""

    z: tuple                  # (GridFunction, GridFunction)
    spec: ProblemSpec = field(repr=False)
    pair: BarrierPair = field(repr=False)

    @staticmethod
    def build(spec: ProblemSpec, pair: BarrierPair, z1: GridFunction,
              z2: GridFunction) -> "SystemState":
        grid.check_same_mesh(spec.mesh, z1, z2)
        return SystemState(z=(z1, z2), spec=spec, pair=pair)

    @cached_property
    def grad_lux_norm(self) -> tuple:
        mesh = self.spec.mesh
        return tuple(expspace.per_distinct(
            lambda p, z: expspace.luxemburg_norm_from_samples(
                z.grad_norm.repeat(mesh.q_per_cell), p.at_quad, mesh.qweights),
            self.spec.p, self.z))

    @cached_property
    def frozen(self) -> tuple:
        """Data for the decoupled solves: nonlinearities at the clamped
        state, sampled at interior quadrature points only.  The residual
        test of an iterate and the map application that follows share
        this one evaluation."""
        return bmod.frozen_rhs_quad(self.spec, self.pair, self.z)

    @cached_property
    def residuals(self) -> tuple:
        """Per-component ``coupled_residual`` of the state; the function
        is looked up by its module name on first read, so a wrapper bound
        to that name applies."""
        return coupled_residual(self)

    def extremes(self) -> list:
        """Cap-free membership inputs per component: (depth below
        ``under``, excess over ``over`` or the maximum, gradient norm of
        the spec's regime)."""
        positive = self.spec.hypotheses.regime is Regime.POSITIVE_SUM
        out = []
        for i in (0, 1):
            zi = self.z[i].values
            low_v = float((self.pair.under[i].values - zi).max())
            if positive:
                out.append((low_v, float((zi - self.pair.over[i].values).max()),
                            float(self.z[i].grad_norm.max())))
            else:
                out.append((low_v, float(zi.max()), self.grad_lux_norm[i]))
        return out


@dataclass
class IterationReport:
    """Trace of one damped fixed-point run.  Membership flags refer to
    the raw map output of each iteration (the invariance evidence);
    clamped iterates sit inside the value box by construction, so
    recording them would be vacuous.  ``caps`` holds (L, L_tilde) when
    the run was a negative-sum cap search, else None, as membership reads it."""

    iters: int
    step_norms: list          # per iteration: (step_1, step_2)
    residuals: list           # per iteration: max coupled weak residual
    box_trace: list           # nodewise-sandwich part of membership
    grad_cap_trace: list      # gradient-cap part of membership
    converged: bool
    damping_used: float
    caps: tuple | None = None

    @property
    def membership_trace(self) -> list:
        """Combined membership per iteration: both parts held."""
        return [b and g for b, g in zip(self.box_trace, self.grad_cap_trace)]

    def as_dict(self):
        out = asdict(self)
        del out["caps"]
        return {**out, "membership_trace": self.membership_trace}


def apply_map(state: SystemState, opts: SolverOptions | None = None) -> tuple:
    """One application of the frozen-state map: a scalar solve per
    component, giving the pair (u1, u2).  Component order is irrelevant
    as the frozen data decouples them.  Component i's Newton starts at
    the frozen state's own ``z[i]``, which is exact at a fixed point.
    Two components whose exponent, data and start agree bit for bit pose
    one problem: it is solved once, and both read the same field."""
    solves = expspace.per_distinct(
        lambda p, h, z: plaplace.solve_dirichlet(p, h, opts, start=z),
        state.spec.p, state.frozen, state.z)
    return tuple(res.checked(f"component {i+1} solve") for i, res in enumerate(solves))


def membership_check(extremes: list, pair: BarrierPair, caps: tuple | None = None):
    """(box_ok, grad_ok) for the invariant set of a run with ``caps``:
    the nodewise box and the gradient cap each hold, and a state is a
    member when both do.

    None (positive sum): under <= z <= over nodewise and |grad z|_inf <= C R.
    (L, L_tilde) (negative sum): under <= z <= L nodewise and Luxemburg
    gradient norm <= L_tilde.  Violations count beyond ``barriers.slack`` of
    the bound's scale.  ``extremes`` are a state's ``extremes()``, so a run
    can judge its iterates once its caps are known.
    """
    box, grad = [], []
    for i, (low_v, up, g) in enumerate(extremes):
        if caps is None:
            up_v, g_v = up, g - pair.C * pair.R
            scale = float(np.abs(pair.over[i].values).max())
        else:
            # max(z) - L rounds exactly as max(z - L) does
            up_v, g_v, scale = up - caps[0], g - caps[1], caps[0]
        tol = bmod.slack(scale)
        box.append(max(low_v, up_v) - tol)
        grad.append(g_v - tol)
    return max(box) <= 0.0, max(grad) <= 0.0


def coupled_residual(state: SystemState):
    """Weak residual of each component equation with the nonlinearity
    evaluated at the state itself (zero exactly at a discrete fixed
    point); components that agree bit for bit share one evaluation."""
    return tuple(expspace.per_distinct(plaplace.weak_residual,
                                       state.spec.p, state.z, state.frozen))


def fixed_point_iterate(spec: ProblemSpec, pair: BarrierPair,
                        init: tuple | None = None,
                        opts: IterationOptions | None = None,
                        solver_opts: SolverOptions | None = None):
    """Damped iteration z_i <- (1-theta) z_i + theta u_i for each component,
    where (u1, u2) = T(z) is the frozen-state map, clamped back into the
    invariant box nodewise after every step (clamping preserves the zero
    trace; gradient-cap violations are only flagged, never edited).
    The run starts at the fields ``init`` = (z1, z2) clamped into the
    box, else at the lower barrier; each map application starts its
    Newton solves at the current iterate.

    In the negative-sum regime of ``spec.hypotheses`` the run is also the
    cap search: there is no upper clamp, and the caps (L, L_tilde) are the
    smallest powers of two with 5 percent headroom above the largest sup
    norm and Luxemburg gradient norm of the clamped iterates, initial
    state included whether it is the lower barrier or ``init`` (and
    L > 1 always).  The caps exist for 'large enough' constants only;
    this run finds concrete ones, and since L clears every clamped
    iterate, a clamp at L would never have bound.  Each iteration's
    membership is judged once the run ends, against the caps in that
    regime.

    Stops when the step norm <= tol_step AND the coupled weak residual
    <= tol_residual; and, unconverged, as soon as a clamped iterate
    equals its predecessor bit for bit while the residual test fails:
    the map is deterministic, so every later iteration would repeat it.
    Returns (SystemState, IterationReport): the state of the last
    iterate, whose frozen data and residuals the stop test has already
    evaluated.
    """
    opts = opts or IterationOptions()
    singular = spec.hypotheses.regime is Regime.NEGATIVE_SUM

    state = SystemState.build(spec, pair, *_clamp(
        pair, [zi.values for zi in init or pair.under], singular))
    # negative-sum: (sup norm, Luxemburg gradient norm) per clamped iterate
    norms = [_cap_norms(state)] if singular else []

    steps, residuals, extremes = [], [], []
    stopped = False
    for it in range(1, opts.max_iters + 1):
        u = apply_map(state, solver_opts)
        extremes.append(SystemState.build(spec, pair, *u).extremes())
        damped = _clamp(pair, [(1.0 - opts.theta) * zi.values + opts.theta * ui.values
                               for zi, ui in zip(state.z, u)], singular)
        steps.append(tuple(float(np.abs(di.values - zi.values).max())
                           for di, zi in zip(damped, state.z)))
        stationary = all(di.values.tobytes() == zi.values.tobytes()
                         for di, zi in zip(damped, state.z))
        del u  # free the map output's fields before the next map's solves
        state = SystemState.build(spec, pair, *damped)
        if singular:
            norms.append(_cap_norms(state))

        residuals.append(max(state.residuals))
        if max(steps[-1]) <= opts.tol_step and residuals[-1] <= opts.tol_residual:
            stopped = True
            break
        if stationary:
            break

    caps = (_power_of_two_above(max(n[0] for n in norms), bmod.MIN_CAP),
            _power_of_two_above(max(n[1] for n in norms), 1.0)) if singular else None
    verdicts = [membership_check(e, pair, caps) for e in extremes]
    report = IterationReport(
        iters=it, step_norms=steps, residuals=residuals,
        box_trace=[bool(box) for box, _ in verdicts],
        grad_cap_trace=[bool(grad) for _, grad in verdicts],
        # stationary and consistent; success additionally requires the
        # final map output to sit inside the invariant set
        converged=stopped and all(verdicts[-1]),
        damping_used=opts.theta, caps=caps)
    return state, report


def _clamp(pair: BarrierPair, values, singular: bool) -> tuple:
    """Zero-trace fields of the nodal ``values``, one array per component,
    clamped into the barrier box: at ``under`` from below, and at ``over``
    from above unless the regime is singular, which has no upper clamp."""
    out = []
    for i, v in enumerate(values):
        v = np.maximum(v, pair.under[i].values)
        if not singular:
            v = np.minimum(v, pair.over[i].values)
        out.append(GridFunction(pair.under[i].mesh, v, zero_trace=True))
    return tuple(out)


def _cap_norms(state: SystemState):
    return (max(float(np.abs(z.values).max()) for z in state.z),
            max(state.grad_lux_norm))


def _power_of_two_above(norm: float, start: float) -> float:
    """Smallest start * 2^k with 5 percent headroom above ``norm``."""
    cap = start
    while cap < 1.05 * norm:
        cap *= 2.0
    return cap


@dataclass
class CapsResult:
    """Caps of the singular regime and the run they were read from, whose
    last state is the iteration's solution under these caps."""

    solution: SystemState
    report: IterationReport

    @property
    def L(self) -> float:
        return self.report.caps[0]

    @property
    def L_tilde(self) -> float:
        return self.report.caps[1]

    @property
    def pilot_iters(self) -> int:
        return self.report.iters


def calibrate_caps(spec: ProblemSpec, pair: BarrierPair,
                   opts: IterationOptions | None = None,
                   solver_opts: SolverOptions | None = None,
                   init: tuple | None = None) -> CapsResult:
    """Sup-norm cap L and Luxemburg gradient cap L_tilde of the singular
    regime, read off one run of ``fixed_point_iterate`` from ``init``
    (default: the lower barrier); the caps cover every clamped iterate of
    that run, its start included.  A positive-sum spec has no caps, so it
    raises ValueError."""
    if spec.hypotheses.regime is not Regime.NEGATIVE_SUM:
        raise ValueError("caps exist in the negative-sum regime only")
    return CapsResult(*fixed_point_iterate(spec, pair, init=init, opts=opts,
                                           solver_opts=solver_opts))
