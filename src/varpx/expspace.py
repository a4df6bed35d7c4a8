"""Variable-exponent Lebesgue machinery.

The modular of a field u with exponent p is the quadrature value of
int |u(x)|^p(x) dx.  The Luxemburg norm is the unique tau > 0 with
modular(u/tau) = 1: tau -> modular(u/tau) is continuous and strictly
decreasing for u != 0, so the root is safe to bracket and the norm
inherits homogeneity and the triangle inequality even though the
modular itself is not homogeneous.  One modular evaluation at
tau = max|u| and the power bounds below bracket the root; the bracket
is exact up to rounding when p is constant, and a few bracketed secant
steps close it otherwise.

Between modular and norm the two-sided power bounds hold:

    norm^pmin <= modular(u) <= norm^pmax   when norm > 1,
    norm^pmax <= modular(u) <= norm^pmin   when norm <= 1,

and both are checked here to quadrature tolerance whenever requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid
from .errors import BisectionError, BoundViolationError, NonFiniteFieldError
from .grid import GridFunction, Mesh

# The Luxemburg root search stops at this relative bracket width; all
# downstream norm tolerances are dominated by quadrature, not by root
# finding.  The power-bound bracket is first widened by _WIDEN on each
# side, so a constant exponent closes it with no secant step.
_REL_WIDTH = 1e-13
_WIDEN = _REL_WIDTH / 4
_MAX_STEPS = 100

# Tolerance for the certified power bounds (quadrature noise floor).
_BOUND_RTOL = 1e-6
_BOUND_ATOL = 1e-12


@dataclass(frozen=True)
class ExponentField:
    """Per-node exponent with cached extremes.

    Exponents used as a p(x) must satisfy p_minus > 1; derived exponents
    (products and differences of exponents) may be negative but must be
    finite at every node.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_nodes,):
            raise grid.MeshCompatibilityError(
                f"expected {self.mesh.n_nodes} exponent values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteFieldError("exponent field has non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_pmin", float(vals.min()))
        object.__setattr__(self, "_pmax", float(vals.max()))

    @property
    def p_minus(self) -> float:
        return self._pmin

    @property
    def p_plus(self) -> float:
        return self._pmax

    @staticmethod
    def constant(mesh: Mesh, c: float) -> "ExponentField":
        return ExponentField(mesh, np.full(mesh.n_nodes, float(c)))

    @staticmethod
    def from_callable(mesh: Mesh, fn) -> "ExponentField":
        if mesh.dim == 1:
            vals = fn(mesh.nodes[:, 0])
        else:
            vals = fn(mesh.nodes[:, 0], mesh.nodes[:, 1])
        return ExponentField(mesh, np.broadcast_to(vals, (mesh.n_nodes,)).copy())

    def at_quad(self) -> np.ndarray:
        return grid.at_quad(self.mesh, self.values)


def per_exponent(ps, run, *more) -> list:
    """run(p, *rest) for each exponent p of ``ps`` and the matching entries
    of ``more``; an exponent equal to an earlier one's reuses its result."""
    done = {}
    for args in zip(ps, *more):
        key = args[0].values.tobytes()
        if key not in done:
            done[key] = run(*args)
    return [done[p.values.tobytes()] for p in ps]


@dataclass
class ModularReport:
    """Modular, norm, and the certified two-sided power bounds."""

    modular: float
    norm: float
    side: str  # "norm_gt_one" | "norm_le_one"
    lower_bound: float
    upper_bound: float


def _modular_quad(absvals: np.ndarray, exps: np.ndarray, weights: np.ndarray) -> float:
    with np.errstate(over="ignore", divide="ignore"):
        return float(weights @ np.power(absvals, exps))


def _lux_quad(absvals: np.ndarray, exps: np.ndarray, weights: np.ndarray) -> float:
    """Luxemburg norm from quadrature-point samples: the midpoint of a
    bracket [lo, hi] with modular(u/lo) > 1 >= modular(u/hi), both sides
    evaluated, once hi - lo <= _REL_WIDTH * hi.

    Requires min(exps) > 0.  f(x) = log modular(u/e^x) is convex and
    decreasing with slope in [-pmax, -pmin].  At t0 = max|u| the modular
    lies in (0, |Omega|], so it neither overflows nor vanishes, and the
    power bounds put the root between t0 * modular(u/t0)^(1/pmax) and
    t0 * modular(u/t0)^(1/pmin).  An end that rounding puts on the wrong
    side is widened further.  Illinois steps (regula falsi on f against
    log tau, halving the value of a side kept twice) close the rest.
    """
    t0 = float(absvals.max(initial=0.0))
    if not 0.0 < t0 < np.inf:  # zero field, or samples that overflowed
        return t0
    pmin, pmax = float(exps.min()), float(exps.max())
    if pmin <= 0.0:
        raise BisectionError("exponent must be positive for the Luxemburg norm")

    def logrho(tau):
        with np.errstate(divide="ignore"):
            return float(np.log(_modular_quad(absvals / tau, exps, weights)))

    f0 = logrho(t0)
    a, b = sorted((t0 * np.exp(f0 / pmax), t0 * np.exp(f0 / pmin)))
    w = _WIDEN
    lo, hi = a / (1.0 + w), b * (1.0 + w)
    flo, fhi = logrho(lo), logrho(hi)
    while not flo > 0.0 >= fhi:
        w *= 100.0
        if w > 1.0:
            raise BisectionError("power-bound bracket failed its check")
        if flo <= 0.0:
            hi, fhi, lo = lo, flo, a / (1.0 + w)
            flo = logrho(lo)
        else:
            lo, flo, hi = hi, fhi, b * (1.0 + w)
            fhi = logrho(hi)
    kept = 0  # +1 after a step that moved lo, -1 after one that moved hi
    for _ in range(_MAX_STEPS):
        if hi - lo <= _REL_WIDTH * hi:
            return 0.5 * (lo + hi)
        if np.isfinite(flo - fhi):
            xl, xh = np.log(lo), np.log(hi)
            tau = float(np.exp(xh - fhi * (xh - xl) / (fhi - flo)))
        else:  # a side's modular overflowed or underflowed
            tau = 0.5 * (lo + hi)
        margin = 0.25 * _REL_WIDTH * hi
        tau = min(max(tau, lo + margin), hi - margin)
        f = logrho(tau)
        if f > 0.0:
            lo, flo = tau, f
            if kept > 0:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = tau, f
            if kept < 0:
                flo *= 0.5
            kept = -1
    raise BisectionError("Luxemburg bracket did not close")


def luxemburg_norm_from_samples(values, exps, weights) -> float:
    """Luxemburg norm straight from quadrature-point samples, for data
    that never exists nodally (cellwise gradient magnitudes, powered
    integrands).  Same bracket contract as the nodal entry point."""
    return _lux_quad(np.abs(np.asarray(values, dtype=float)),
                     np.asarray(exps, dtype=float),
                     np.asarray(weights, dtype=float))


def modular(u: GridFunction, p: ExponentField) -> float:
    """Quadrature approximation of int |u|^p(x) dx."""
    mesh = u.mesh
    grid.check_same_mesh(mesh, p)
    uq = np.abs(grid.at_quad(mesh, u.values))
    val = _modular_quad(uq, p.at_quad(), mesh.qweights)
    if not np.isfinite(val):
        raise NonFiniteFieldError("modular overflowed; field values too extreme")
    return val


def luxemburg_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm: the infimal tau > 0 with modular(u/tau) <= 1.

    For constant p this reduces to the classical Lp norm; for u = 0 it
    returns 0.
    """
    mesh = u.mesh
    grid.check_same_mesh(mesh, p)
    if p.p_minus <= 1.0:
        raise ValueError(f"norm requires p_minus > 1, got {p.p_minus}")
    uq = np.abs(grid.at_quad(mesh, u.values))
    return _lux_quad(uq, p.at_quad(), mesh.qweights)


def modular_norm_bounds(u: GridFunction, p: ExponentField) -> ModularReport:
    """Compute modular and norm and certify the two-sided power bounds
    between them, branching on whether the norm exceeds one."""
    rho = modular(u, p)
    nrm = luxemburg_norm(u, p)
    if nrm > 1.0:
        side = "norm_gt_one"
        lo, hi = nrm ** p.p_minus, nrm ** p.p_plus
    else:
        side = "norm_le_one"
        lo, hi = nrm ** p.p_plus, nrm ** p.p_minus
    slack = _BOUND_ATOL + _BOUND_RTOL * max(abs(lo), abs(hi), abs(rho))
    if not (lo - slack <= rho <= hi + slack):
        raise BoundViolationError(
            f"power bounds violated: {lo} <= {rho} <= {hi} failed at tol {slack}")
    return ModularReport(modular=rho, norm=nrm, side=side,
                         lower_bound=lo, upper_bound=hi)


def power_norm_identity(u: GridFunction, m: ExponentField, k: ExponentField):
    """Norm of |u|^m(x) in the exponent-k(x)/m(x) space.

    The value equals norm_k(u) raised to m(x0) for some interior point
    x0, hence it lies in the closed interval between norm^m_minus and
    norm^m_plus.  Returns (value, lo, hi) and certifies membership; the
    realizing point itself is not produced.
    """
    mesh = u.mesh
    grid.check_same_mesh(mesh, m, k)
    if m.p_minus <= 0.0:
        raise ValueError("m must be strictly positive")
    if k.p_minus <= 0.0:
        raise ValueError("k must be strictly positive")
    uq = np.abs(grid.at_quad(mesh, u.values))
    mq, kq = m.at_quad(), k.at_quad()
    if not np.isfinite(_modular_quad(uq, kq, mesh.qweights)):
        raise NonFiniteFieldError("infinite modular: u is not in the k(x) space")
    w = mesh.qweights
    with np.errstate(over="ignore"):
        powered = np.power(uq, mq)
    value = _lux_quad(powered, kq / mq, w)
    base = _lux_quad(uq, kq, w)
    b_lo, b_hi = base ** m.p_minus, base ** m.p_plus
    lo, hi = min(b_lo, b_hi), max(b_lo, b_hi)
    slack = _BOUND_ATOL + _BOUND_RTOL * max(1.0, hi)
    if not (lo - slack <= value <= hi + slack):
        raise BoundViolationError(
            f"power-norm identity violated: {value} outside [{lo}, {hi}]")
    return value, lo, hi


# -- boundary-singular modulars ------------------------------------------

# A decaying geometric tail is declared convergent below this increment
# ratio; at ratio 1 the layer sums diverge (exponent -1 exactly).
_TAIL_RATIO_MAX = 0.985
_STABLE_ATOL = 1e-9
# Deepest boundary grading of the distance-power quadrature.
_GRADING_LEVELS = 20


def _gauss_batch(a, b):
    """Gauss-3 points and weights on a batch of subintervals."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = (mid[:, None] + half[:, None] * grid._G3_T[None, :]).ravel()
    wts = (half[:, None] * grid._G3_W[None, :]).ravel()
    return pts, wts


def _graded_rule_1d(a: float, b: float, n: int, levels: int):
    """Composite Gauss-3 with geometric grading (ratio 1/2) of the two
    boundary cells; the innermost remainder is kept with its own rule.
    Converges for distance powers d^e with e > -1."""
    h = (b - a) / n
    pts = []
    wts = []
    if n > 2:
        lo = a + h + h * np.arange(n - 2)
        p, w = _gauss_batch(lo, lo + h)
        pts.append(p)
        wts.append(w)
    # left boundary cell [a, a+h]: layers [a + h/2^{k+1}, a + h/2^k]
    k = np.arange(levels)
    left_hi = a + h / 2.0 ** k
    left_lo = a + h / 2.0 ** (k + 1)
    p, w = _gauss_batch(np.append(left_lo, a), np.append(left_hi, a + h / 2.0 ** levels))
    pts.append(p)
    wts.append(w)
    right_lo = b - h / 2.0 ** k
    right_hi = b - h / 2.0 ** (k + 1)
    p, w = _gauss_batch(np.append(right_lo, b - h / 2.0 ** levels), np.append(right_hi, b))
    pts.append(p)
    wts.append(w)
    return np.concatenate(pts), np.concatenate(wts)


def _distance_power_value(e: ExponentField, levels: int) -> float:
    """int d(x)^e(x) dx by the graded rule of ``levels`` layers per
    boundary cell, a tensor product of the axis rules on rectangles."""
    mesh = e.mesh
    dom = mesh.domain
    rules = [_graded_rule_1d(lo, hi, mesh.n, levels)
             for lo, hi in zip(dom.bounds[::2], dom.bounds[1::2])]
    if mesh.dim == 1:
        pts, wts = rules[0]
    else:
        (px, wx), (py, wy) = rules
        X, Y = np.meshgrid(px, py)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        wts = np.outer(wy, wx).ravel()
    with np.errstate(over="ignore", divide="ignore"):
        vals = np.power(dom.distance(pts), mesh.interpolate(e.values, pts))
    return float(wts @ vals)


def distance_power_modular(e: ExponentField):
    """int d(x)^e(x) dx over the domain of the mesh of ``e``, with
    boundary-graded quadrature.

    Runs the grading depth from 1 to ``_GRADING_LEVELS`` and inspects
    the increment sequence.  A geometrically decaying tail (ratio below
    one) means the singular boundary layers sum to a finite value and
    the reported value includes the extrapolated tail; a flat or growing
    tail reports ``finite=False`` (divergence is an answer here, never
    an error).  Agreement with the analytic criterion min e > -1 near
    the boundary holds away from the threshold itself.
    """
    seq = np.array([_distance_power_value(e, L)
                    for L in range(1, _GRADING_LEVELS + 1)])
    incs = np.diff(seq)
    v = float(seq[-1])
    last = incs[-1]
    if abs(last) <= _STABLE_ATOL * (1.0 + abs(v)):
        return v, True
    prev = incs[-2]
    if abs(prev) <= _STABLE_ATOL * (1.0 + abs(v)):
        return v, True
    r = abs(last) / abs(prev)
    if r >= _TAIL_RATIO_MAX or not np.isfinite(v):
        return v, False
    # geometric tail extrapolation sharpens slowly converging cases
    return v + last * r / (1.0 - r), True
