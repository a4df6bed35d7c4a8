"""Growth hypotheses and sub/supersolution barriers.

The coupled system's nonlinearities are pinned between a product lower
envelope m * s1^alpha s2^beta and an upper envelope that adds gradient
powers.  Validation (``spec.hypotheses``) classifies signed extremes,
checks the admissibility inequalities, and assigns the solve regime:

    POSITIVE_SUM  - every component has signed-extreme sum > 0; barriers
                    sandwich iterates between scaled torsion fields.
    NEGATIVE_SUM  - some component sum is <= 0 (the strongly singular
                    case); extra smallness caps on the exponents apply
                    and iterates are capped above by a sup-norm bound.

Barriers are under = xi_delta / C and over = C * xi built from the
torsion fields; the calibration search doubles C until the weak-form
comparison inequalities hold at every interior hat function.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import grid, plaplace
from .errors import (CalibrationError, EnvelopeError, MixedSignError,
                     OrderingError)
from .expspace import ExponentField, per_distinct
from .forms import Expr, evaluate_spatial
from .grid import GridFunction, Mesh
from .plaplace import SolverOptions

# Weak inequalities and set membership hold up to ``slack`` (quadrature noise).
_INEQ_ATOL = 1e-8
_INEQ_RTOL = 1e-6

# The barrier scale search stops at C = 2^_C_MAX_EXP.
_C_MAX_EXP = 20

# The smallest sup-norm cap L: the calibration's provisional cap, the cap search's floor.
MIN_CAP = 2.0

# The growth envelope is sampled at this many random states, with this slack.
_ENVELOPE_SAMPLES = 200
_ENVELOPE_RTOL = 1e-9


class Regime(str, enum.Enum):
    POSITIVE_SUM = "positive_sum"
    NEGATIVE_SUM = "negative_sum"


def sign_class(f: ExponentField) -> str:
    """'nonneg' if f >= 0 everywhere, 'negative' if f <= 0 with f < 0
    somewhere; a genuine sign change is rejected because the signed
    extreme and the comparison case tables presume a fixed sign."""
    if f.p_minus >= 0.0:
        return "nonneg"
    if f.p_plus <= 0.0:
        return "negative"
    raise MixedSignError(
        f"exponent changes sign on the domain (range [{f.p_minus}, {f.p_plus}])")


def signed_extreme(f: ExponentField) -> float:
    """inf for nonnegative exponents, sup for nonpositive ones."""
    return f.p_minus if sign_class(f) == "nonneg" else f.p_plus


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of the coupled system on a fixed mesh.  Two
    nonlinearities that are equal trees are held as one object, so what
    ``per_distinct`` maps over ``f`` runs once for both."""

    mesh: Mesh
    p: tuple                # (ExponentField, ExponentField), one per component
    alpha: tuple
    beta: tuple
    gamma: tuple
    gamma_bar: tuple
    m: tuple                # positive lower-envelope constants
    M: tuple                # upper-envelope constants
    f: tuple                # (Expr, Expr) nonlinearities

    def __post_init__(self):
        for i in (0, 1):
            if not self.m[i] > 0:
                raise ValueError("lower envelope constants m must be positive")
            if self.m[i] > self.M[i]:
                raise ValueError("need m <= M")
        fields = [*self.p, *self.alpha, *self.beta, *self.gamma, *self.gamma_bar]
        grid.check_same_mesh(self.mesh, *fields)
        for i, fe in enumerate(self.f):
            if not isinstance(fe, Expr):
                raise TypeError(f"f[{i}] must be a parsed expression")
        if self.f[0] == self.f[1]:
            object.__setattr__(self, "f", (self.f[0],) * 2)

    @cached_property
    def hypotheses(self) -> HypothesisReport:
        """``validate_hypotheses(self)``, evaluated once: the spec is frozen."""
        return validate_hypotheses(self)

    def p_prime_values(self, i: int) -> np.ndarray:
        pv = self.p[i].values
        return pv / (pv - 1.0)

    def envelope_check(self, rng: np.random.Generator):
        """Sample the two-sided growth envelope at random points and
        states; raises EnvelopeError on any escape."""
        nodes = rng.integers(0, self.mesh.n_nodes, size=_ENVELOPE_SAMPLES)
        x = self.mesh.nodes[nodes]
        s1 = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=_ENVELOPE_SAMPLES))
        s2 = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=_ENVELOPE_SAMPLES))
        xi1 = np.abs(rng.normal(0.0, 3.0, size=_ENVELOPE_SAMPLES))
        xi2 = np.abs(rng.normal(0.0, 3.0, size=_ENVELOPE_SAMPLES))
        for i in (0, 1):
            a = self.alpha[i].values[nodes]
            bqq = self.beta[i].values[nodes]
            g = self.gamma[i].values[nodes]
            gb = self.gamma_bar[i].values[nodes]
            prod = s1 ** a * s2 ** bqq
            fv = evaluate_spatial(self.f[i], x, s1=s1, s2=s2, xi1=xi1, xi2=xi2)
            if not np.all(np.isfinite(fv)):
                raise EnvelopeError(f"f[{i}] is non-finite at a sampled state")
            lower = self.m[i] * prod
            upper = self.M[i] * (prod + xi1 ** g + xi2 ** gb)
            slack = _ENVELOPE_RTOL * (1.0 + np.abs(upper))
            bad = (fv < lower - slack) | (fv > upper + slack)
            if np.any(bad):
                j = int(np.flatnonzero(bad)[0])
                raise EnvelopeError(
                    f"f[{i}] escapes envelope at sample {j}: "
                    f"{lower[j]:.6g} <= {fv[j]:.6g} <= {upper[j]:.6g} fails")


@dataclass
class Check:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass
class HypothesisReport:
    regime: Regime
    checks: list
    deviations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {**asdict(self), "regime": self.regime.value, "passed": self.passed}


def validate_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Classify signed extremes, check every admissibility inequality,
    and assign the regime; readers take ``spec.hypotheses``, its cached
    report.  Pure.  A mixed-sign singular exponent raises, naming its ``key``."""
    signed = {}         # (name, i) -> signed extreme; each exponent classified once
    for i in (0, 1):
        for name in ("alpha", "beta"):
            try:
                signed[name, i] = signed_extreme(getattr(spec, name)[i])
            except MixedSignError as exc:
                exc.key = f"{name}[{i}]"
                raise
    N = spec.mesh.N
    checks = []
    deviations = []
    sums = []
    for i in (0, 1):
        p = spec.p[i]
        pm = p.p_minus
        checks.append(Check(f"p{i+1}_lower", pm, 1.0, pm > 1.0))
        if p.p_plus >= N:
            deviations.append(f"p{i+1}_plus={p.p_plus} >= N={N}; recorded, not enforced")
        a_mp, b_mp = signed["alpha", i], signed["beta", i]
        sums.append(a_mp + b_mp)
        checks.append(Check(
            f"singular_budget_{i+1}", abs(a_mp) + abs(b_mp), pm - 1.0,
            abs(a_mp) + abs(b_mp) < pm - 1.0))
        gmin = min(spec.gamma[i].p_minus, spec.gamma_bar[i].p_minus)
        gmax = max(spec.gamma[i].p_plus, spec.gamma_bar[i].p_plus)
        checks.append(Check(f"gradient_power_nonneg_{i+1}", gmin, 0.0, gmin >= 0.0))
        checks.append(Check(f"gradient_power_growth_{i+1}", gmax, pm - 1.0,
                            gmax < pm - 1.0))

    regime = Regime.POSITIVE_SUM if min(sums) > 0.0 else Regime.NEGATIVE_SUM

    for i in (0, 1):
        if sums[i] >= 0.0:
            continue
        # strongly singular component: smallness caps
        a_mp, b_mp = signed["alpha", i], signed["beta", i]
        ppl = spec.p_prime_values(i)
        cap = 1.0 / (N * float(ppl.max()))
        checks.append(Check(f"singular_smallness_{i+1}",
                            abs(a_mp) + abs(b_mp), cap,
                            abs(a_mp) + abs(b_mp) <= cap))
        g_margin = float((spec.p[0].values / (N * ppl) - spec.gamma[i].values).min())
        gb_margin = float((spec.p[1].values / (N * ppl)
                           - spec.gamma_bar[i].values).min())
        checks.append(Check(f"gradient_cap_{i+1}", -g_margin, 0.0, g_margin >= 0.0))
        checks.append(Check(f"gradient_cap_bar_{i+1}", -gb_margin, 0.0,
                            gb_margin >= 0.0))
        e_min = float(((spec.alpha[i].values + spec.beta[i].values) * ppl).min())
        checks.append(Check(f"distance_power_integrability_{i+1}",
                            e_min, -1.0, e_min > -1.0))

    return HypothesisReport(regime=regime, checks=checks, deviations=deviations)


@dataclass
class BarrierPair:
    """Ordered barriers built from torsion fields: under = xi_delta / C,
    over = C * xi, with the measured regularity scale R.  ``torsion`` keeps
    the checked solves of the torsion fields xi, which the certificate's
    audits reuse with their options.  Its fields carry their values alone
    until a later reader derives from them."""

    under: tuple            # (GridFunction, GridFunction)
    over: tuple
    C: float
    delta: float
    R: float
    torsion: tuple          # ScalarSolveResult of xi_1, of xi_2


def _regularity_scale(torsions: tuple) -> float:
    """R of the barriers built from ``torsions``: at least 1 and the
    discrete C1-style size (max nodal value plus max cell gradient) of
    each torsion and strip field, whose gradients are taken on a
    value-only copy, so the field keeps none."""
    solves, xid = torsions
    return max(1.0, *(float(np.abs(u.values).max()) + float(u.values_only().grad_norm.max())
                      for u in (*(res.u for res in solves), *xid)))


def build_barriers(spec: ProblemSpec, C: float, delta: float,
                   torsions: tuple, R: float | None = None) -> BarrierPair:
    """Construct the barrier pair at scale C > 1 and strip width delta
    from ``torsions``, the torsion solves xi and strip fields xi_delta
    that ``resolve_delta`` made at that delta, with the regularity scale
    ``R`` of ``torsions`` (measured here if not given).  Raises
    OrderingError if under > over anywhere (C too small)."""
    if not C > 1.0:
        raise ValueError("barrier scale C must exceed 1")
    mesh = spec.mesh
    solves, xid = torsions
    xi = tuple(res.u for res in solves)
    under = tuple(GridFunction(mesh, x.values / C, zero_trace=True) for x in xid)
    over = tuple(GridFunction(mesh, C * x.values, zero_trace=True) for x in xi)
    for i in (0, 1):
        gap = over[i].values - under[i].values
        if np.any(gap < 0.0):
            raise OrderingError(
                f"under exceeds over for component {i+1}; escalate C")
    if R is None:
        R = _regularity_scale(torsions)
    return BarrierPair(under=under, over=over, C=float(C), delta=float(delta), R=R,
                       torsion=tuple(solves))


@dataclass
class InequalityReport:
    ok: bool
    worst_margin: float     # most negative tested margin (>= 0 is clean)
    margins: dict           # name -> min margin over interior tests


def _power_quad(base: GridFunction, expo: ExponentField) -> np.ndarray:
    """base(x)^expo(x) at quadrature points; base must be positive there.
    Only the C search reads ``expo`` here, so it is interpolated, not cached."""
    vals = grid.at_quad(base.mesh, base.values)
    ev = grid.at_quad(expo.mesh, expo.values)
    with np.errstate(over="ignore", divide="ignore"):
        out = np.power(vals, ev)
    if not np.isfinite(out).all():
        raise OrderingError("barrier power is non-finite at a quadrature point")
    return out


# Sign-case table: the end of the barrier box (0 = floor, 1 = top) at
# which s**e is smallest, by the sign class of e.  Its largest value
# sits at the other end.
_SMALLEST_AT = {"nonneg": 0, "negative": 1}


def _product_bound(spec, i, ends, upper=False):
    """s1^alpha_i s2^beta_i at quadrature points, bounded over the box
    ends[0][j] <= s_j <= ends[1][j] from below (from above if ``upper``).

    A scalar top is the sup-norm cap L > 1 of the singular regime, for
    lower bounds only: its factors enter as the scalar extreme
    L ** (sum of their exponents' p_minus)."""
    mesh = spec.mesh
    cap, expo, factors = 1.0, 0.0, []
    for j, e in enumerate((spec.alpha[i], spec.beta[i])):
        k = _SMALLEST_AT[sign_class(e)]
        end = ends[1 - k if upper else k][j]
        if isinstance(end, GridFunction):
            factors.append(_power_quad(end, e))
        else:
            cap, expo = end, expo + e.p_minus
    out = np.full_like(mesh.qweights, cap ** expo)
    for f in factors:
        out = out * f
    return out


def slack(scale):
    """How far a weak inequality or membership bound of ``scale`` may fail."""
    return _INEQ_ATOL + _INEQ_RTOL * scale


def _weak_inequality(mesh, small, large) -> float:
    """Smallest margin of large >= small over the interior hats, slacked
    by ``slack(max(|small|, |large|))``."""
    ii = mesh.interior_nodes
    s, g = small[ii], large[ii]
    tol = slack(np.maximum(np.abs(s), np.abs(g)))
    return float((g - s + tol).min())


def _comparison(spec: ProblemSpec, pair: BarrierPair, top) -> InequalityReport:
    """Weak-form comparison inequalities over the box from ``pair.under``
    to ``top``, which is ``pair.over`` or the singular regime's (L, L).

    Subsolution side: the operator applied to ``under`` tested against
    every nonnegative interior hat must not exceed m_i times the
    case-selected product over the box.  Supersolution side, only when
    the top is ``over``: the operator on ``over`` must dominate 2 M_i
    (R C)^gamma_max plus M_i times the majorized product.  P1 fields have
    no pointwise second derivatives, so both hold in the tested sense.
    The operator reads value-only copies of the pair's fields, so the
    pair keeps nothing it derived.
    """
    mesh = spec.mesh
    margins = {}
    box = (pair.under, top)
    for i in (0, 1):
        lhs = plaplace.apply_operator(spec.p[i], pair.under[i].values_only())
        rhs = grid.as_quad(mesh, spec.m[i] * _product_bound(spec, i, box)).load
        margins[f"subsolution_{i+1}"] = _weak_inequality(mesh, lhs, rhs)
        if top is not pair.over:
            continue
        gmax = max(spec.gamma[i].p_plus, spec.gamma_bar[i].p_plus)
        bulk = 2.0 * spec.M[i] * (pair.R * pair.C) ** gmax
        rhs2 = grid.as_quad(
            mesh, bulk + spec.M[i] * _product_bound(spec, i, box, upper=True)).load
        lhs2 = plaplace.apply_operator(spec.p[i], pair.over[i].values_only())
        margins[f"supersolution_{i+1}"] = _weak_inequality(mesh, rhs2, lhs2)
    worst = min(margins.values())
    return InequalityReport(ok=worst >= 0.0, worst_margin=worst, margins=margins)


def check_barriers_positive_regime(spec: ProblemSpec,
                                   pair: BarrierPair) -> InequalityReport:
    """Both sides of the positive-sum comparison, over ``under``..``over``."""
    return _comparison(spec, pair, pair.over)


def check_barriers_singular_regime(spec: ProblemSpec, pair: BarrierPair,
                                   L: float) -> InequalityReport:
    """Subsolution inequalities for the strongly singular regime, where
    iterates are capped above by the constant L > 1: the lower envelope
    is minorized with L replacing any component raised to a negative
    exponent."""
    if not L > 1.0:
        raise ValueError("sup-norm cap L must exceed 1")
    return _comparison(spec, pair, (L, L))


@dataclass
class CalibrationResult:
    pair: BarrierPair
    trajectory: list        # (C, worst_margin) along the doubling search
    resolved: tuple         # (delta, xi, xi_delta) of ``resolve_delta``, values only


def resolve_delta(spec: ProblemSpec, opts: SolverOptions | None = None):
    """Strip width search: start at 0.1 * max distance and halve until
    the strip-loaded torsion fields stay positive at every interior node;
    a failing width at or below 1.5 times the largest axis spacing raises
    CalibrationError.  For n < 30 the unit interval's or square's start
    lies below that floor, so the strip may hold no interior node.
    Returns (delta, xi, xi_delta): the torsion solves (``plaplace.torsion``)
    and the strip fields; equal exponents share their solves."""
    mesh = spec.mesh
    delta = 0.1 * mesh.max_distance
    floor = 1.5 * mesh.longest_side / mesh.n
    xi = tuple(per_distinct(lambda p: plaplace.torsion(p, opts), spec.p))
    while True:
        xid = tuple(per_distinct(lambda p, ref: plaplace.torsion_delta(
            p, delta, ref.u, opts), spec.p, xi))
        if all(np.all(x.values[mesh.interior_nodes] > 0.0) for x in xid):
            return delta, xi, xid
        if delta <= floor:
            raise CalibrationError(
                f"strip field not positive even at delta={delta}; "
                "resolution too coarse for this exponent pair")
        delta = max(delta / 2.0, floor)


def calibrate_barriers(spec: ProblemSpec, opts: SolverOptions | None = None,
                       L: float = MIN_CAP, resolved: tuple | None = None
                       ) -> CalibrationResult:
    """Doubling search C in {2, 4, ..., 2^_C_MAX_EXP} with delta halved
    from 0.1 * max distance on positivity failure (floor 1.5 axis
    spacings).  Returns the first success; exhaustion raises
    CalibrationError, which cannot distinguish 'C must be larger' from
    'discretization too coarse' and says so.  The singular regime is
    checked at the sup-norm cap ``L``; before any cap search, the smallest.
    ``resolved``, the ``resolved`` of an earlier calibration of ``spec``
    with ``opts``, spares the strip width search, whose fields do not
    depend on ``L``.
    """
    report = spec.hypotheses
    if not report.passed:
        bad = ", ".join(f"{c.name} (lhs={c.lhs:.6g}, rhs={c.rhs:.6g})"
                        for c in report.failed_checks())
        raise CalibrationError(f"hypotheses rejected before search: {bad}")
    positive = report.regime is Regime.POSITIVE_SUM

    resolved = resolved or resolve_delta(spec, opts)
    delta, *torsions = resolved
    R = _regularity_scale(torsions)
    trajectory = []
    for C in [2.0 ** k for k in range(1, _C_MAX_EXP + 1)]:
        try:
            pair = build_barriers(spec, C, delta, torsions, R)
        except OrderingError:
            trajectory.append((C, -np.inf))
            continue
        if positive:
            rep = check_barriers_positive_regime(spec, pair)
        else:
            rep = check_barriers_singular_regime(spec, pair, L)
        trajectory.append((C, rep.worst_margin))
        if rep.ok:
            return CalibrationResult(pair=pair, trajectory=trajectory, resolved=resolved)
    raise CalibrationError(
        f"no C <= 2^{_C_MAX_EXP} satisfied the comparison inequalities; "
        "either C must be larger or the discretization is too coarse "
        "(indistinguishable at this resolution)")


def frozen_rhs_quad(spec: ProblemSpec, pair: BarrierPair, z: tuple):
    """Quadrature-point data f_i(x, z1^, z2^, |grad z1|, |grad z2|) of the
    fields ``z``, with their own ``grad_norm``, under the singular floor
    clamp z^ = max(z, under).  Interior quadrature points keep negative
    powers finite because the floor is positive there.  A spec that holds
    one tree for both nonlinearities evaluates it once."""
    mesh = spec.mesh
    s1, s2 = (grid.at_quad(mesh, np.maximum(zi.values, low.values))
              for zi, low in zip(z, pair.under))
    m1, m2 = (zi.grad_norm.repeat(mesh.q_per_cell) for zi in z)

    def data(fe):
        hv = evaluate_spatial(fe, mesh.qpoints, s1=s1, s2=s2, xi1=m1, xi2=m2)
        if not np.isfinite(hv).all():
            raise EnvelopeError(f"frozen right-hand side f[{spec.f.index(fe)}] "
                                "is non-finite at a quadrature point")
        return grid.QuadField(mesh, hv)

    return tuple(per_distinct(data, spec.f))
