"""Variable-exponent Lebesgue machinery.

The modular of a field u with exponent p is the quadrature value of
int |u(x)|^p(x) dx.  The Luxemburg norm is the unique tau > 0 with
modular(u/tau) = 1, found by bisection: tau -> modular(u/tau) is
continuous and strictly decreasing for u != 0, so the root is safe to
bracket and the norm inherits homogeneity and the triangle inequality
even though the modular itself is not homogeneous.

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

# Bisection terminates at this relative bracket width; all downstream
# norm tolerances are dominated by quadrature, not by root finding.
_REL_WIDTH = 1e-13
_MAX_EXPAND = 300
_MAX_BISECT = 500

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


def _lux_quad(absvals: np.ndarray, exps: np.ndarray, weights: np.ndarray,
              measure: float) -> float:
    """Bisection for the Luxemburg norm from quadrature-point samples.

    Requires min(exps) > 0.  Bracket start follows the safe choice
    [machine epsilon, max|u| * |Omega|^(1/pmin) + 1]; the upper end is
    doubled until the scaled modular drops below one.
    """
    vmax = float(absvals.max(initial=0.0))
    if vmax == 0.0:
        return 0.0
    pmin = float(exps.min())
    if pmin <= 0.0:
        raise BisectionError("exponent must be positive for norm bisection")

    def rho(tau):
        return _modular_quad(absvals / tau, exps, weights)

    hi = vmax * measure ** (1.0 / pmin) + 1.0
    k = 0
    while rho(hi) > 1.0:
        hi *= 2.0
        k += 1
        if k > _MAX_EXPAND:
            raise BisectionError("upper bracket expansion did not terminate")
    lo = np.finfo(float).eps
    if rho(lo) <= 1.0:
        return lo
    k = 0
    while hi - lo > _REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        k += 1
        if k > _MAX_BISECT:
            raise BisectionError("bisection failed to converge")
    return 0.5 * (lo + hi)


def luxemburg_norm_from_samples(values, exps, weights, measure: float) -> float:
    """Luxemburg norm straight from quadrature-point samples, for data
    that never exists nodally (cellwise gradient magnitudes, powered
    integrands).  Same bisection contract as the nodal entry point."""
    return _lux_quad(np.abs(np.asarray(values, dtype=float)),
                     np.asarray(exps, dtype=float),
                     np.asarray(weights, dtype=float), measure)


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
    return _lux_quad(uq, p.at_quad(), mesh.qweights, mesh.domain.measure)


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
    meas = mesh.domain.measure
    with np.errstate(over="ignore"):
        powered = np.power(uq, mq)
    value = _lux_quad(powered, kq / mq, w, meas)
    base = _lux_quad(uq, kq, w, meas)
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


def _distance_power_value(e: ExponentField, mesh: Mesh, levels: int) -> float:
    dom = mesh.domain
    if mesh.dim == 1:
        a, b = dom.bounds
        pts, wts = _graded_rule_1d(a, b, mesh.n, levels)
        d = dom.distance(pts)
        ev = mesh.interpolate(e.values, pts)
        with np.errstate(over="ignore", divide="ignore"):
            vals = np.power(d, ev)
        return float(wts @ vals)
    ax, bx, ay, by = dom.bounds
    px, wx = _graded_rule_1d(ax, bx, mesh.n, levels)
    py, wy = _graded_rule_1d(ay, by, mesh.n, levels)
    X, Y = np.meshgrid(px, py)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    d = dom.distance(pts)
    ev = mesh.interpolate(e.values, pts)
    with np.errstate(over="ignore", divide="ignore"):
        vals = np.power(d, ev)
    W = np.outer(wy, wx).ravel()
    return float(W @ vals)


def distance_power_modular(e: ExponentField, mesh: Mesh):
    """int d(x)^e(x) dx with boundary-graded quadrature.

    Runs the grading depth from 1 to ``_GRADING_LEVELS`` and inspects
    the increment sequence.  A geometrically decaying tail (ratio below
    one) means the singular boundary layers sum to a finite value and
    the reported value includes the extrapolated tail; a flat or growing
    tail reports ``finite=False`` (divergence is an answer here, never
    an error).  Agreement with the analytic criterion min e > -1 near
    the boundary holds away from the threshold itself.
    """
    seq = np.array([_distance_power_value(e, mesh, L)
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
