"""Variable-exponent Lebesgue machinery.

The modular of a field u with exponent p is the quadrature value of
int |u(x)|^p(x) dx.  The Luxemburg norm is the unique tau > 0 with
modular(u/tau) = 1: tau -> modular(u/tau) is continuous and strictly
decreasing for u != 0, so the root is safe to bracket and the norm
inherits homogeneity and the triangle inequality even though the
modular itself is not homogeneous.

Between modular and norm the two-sided power bounds hold:

    norm^pmin <= modular(u) <= norm^pmax   when norm > 1,
    norm^pmax <= modular(u) <= norm^pmin   when norm <= 1.

They serve here only as the bracket of the Luxemburg root search: one
modular evaluation at tau = max|u| and the bounds bracket the root.  The
bracket is exact up to rounding when p is constant, and a few bracketed
secant steps close it otherwise.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import grid
from .errors import BisectionError, NonFiniteFieldError
from .grid import GridFunction

# The Luxemburg root search stops at this relative bracket width; all
# downstream norm tolerances are dominated by quadrature, not by root
# finding.  The power-bound bracket is first widened by _WIDEN on each
# side, so a constant exponent closes it with no secant step.
_REL_WIDTH = 1e-13
_WIDEN = _REL_WIDTH / 4
_MAX_STEPS = 100


class ExponentField(GridFunction):
    """Nodal exponent: a ``GridFunction`` that adds only what an exponent
    needs, its extremes and its values at the quadrature points, each
    computed once.

    Exponents used as a p(x) must satisfy p_minus > 1; derived exponents
    (products and differences of exponents) may be negative but must be
    finite at every node.
    """

    @cached_property
    def p_minus(self) -> float:
        return float(self.values.min())

    @cached_property
    def p_plus(self) -> float:
        return float(self.values.max())

    def at_quad(self) -> np.ndarray:
        """The exponent at the quadrature points (read-only), evaluated once."""
        return self._quad_values

    @cached_property
    def _quad_values(self) -> np.ndarray:
        out = grid.at_quad(self.mesh, self.values)
        out.setflags(write=False)
        return out


def per_exponent(ps, run, *more) -> list:
    """run(p, *rest) for each exponent p of ``ps`` and the matching entries
    of ``more``; an exponent equal to an earlier one's reuses its result."""
    done = {}
    for args in zip(ps, *more):
        key = args[0].values.tobytes()
        if key not in done:
            done[key] = run(*args)
    return [done[p.values.tobytes()] for p in ps]


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
    uq = np.abs(grid.as_quad_values(p.mesh, u))
    val = _modular_quad(uq, p.at_quad(), p.mesh.qweights)
    if not np.isfinite(val):
        raise NonFiniteFieldError("modular overflowed; field values too extreme")
    return val


def luxemburg_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm: the infimal tau > 0 with modular(u/tau) <= 1.

    For constant p this reduces to the classical Lp norm; for u = 0 it
    returns 0.
    """
    if p.p_minus <= 1.0:
        raise ValueError(f"norm requires p_minus > 1, got {p.p_minus}")
    uq = np.abs(grid.as_quad_values(p.mesh, u))
    return _lux_quad(uq, p.at_quad(), p.mesh.qweights)
