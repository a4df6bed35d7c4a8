import dataclasses

import numpy as np
import pytest

from varpx import (DomainSpec, ExponentField, Regime, build_barriers,
                   build_mesh, calibrate_barriers, grid, plaplace,
                   check_barriers_positive_regime,
                   check_barriers_singular_regime, validate_hypotheses)
from varpx import barriers
from varpx.barriers import (ProblemSpec, resolve_delta, sign_class,
                           signed_extreme)
from varpx.errors import CalibrationError, EnvelopeError, MixedSignError, OrderingError
from varpx.forms import parse_expr

from conftest import (benchmark_spec, envelope_spec, singular_spec, torsion_pairs,
                      trivial_spec)


def mesh1d(n=64):
    return build_mesh(DomainSpec.interval(0.0, 1.0), n)


# -- sign classification and hypothesis checks -----------------------------

def test_sign_class():
    m = mesh1d(16)
    assert sign_class(ExponentField.constant(m, 0.3)) == "nonneg"
    assert sign_class(ExponentField.constant(m, 0.0)) == "nonneg"
    assert sign_class(ExponentField.constant(m, -0.2)) == "negative"
    with pytest.raises(MixedSignError):
        sign_class(ExponentField.from_callable(m, lambda x: x - 0.5))


def test_signed_extreme_uses_the_right_end():
    m = mesh1d(16)
    f = ExponentField.from_callable(m, lambda x: 0.2 + 0.1 * x)
    assert signed_extreme(f) == pytest.approx(0.2)
    g = ExponentField.from_callable(m, lambda x: -0.3 + 0.1 * x)
    assert signed_extreme(g) == pytest.approx(-0.2)


def test_hypotheses_positive_regime_arithmetic():
    # p_minus = 2, alpha = -0.2, beta = 0.3, gamma = 0.4:
    # budget |−0.2|+|0.3| = 0.5 < 1, signed sum 0.1 > 0
    m = mesh1d(16)
    cf = lambda c: ExponentField.constant(m, c)
    f = parse_expr({"mul": [{"pow": {"base": "s1", "exp": -0.2}},
                            {"pow": {"base": "s2", "exp": 0.3}}]})
    spec = ProblemSpec(mesh=m, p=(cf(2.0), cf(2.0)),
                       alpha=(cf(-0.2), cf(-0.2)), beta=(cf(0.3), cf(0.3)),
                       gamma=(cf(0.4), cf(0.4)), gamma_bar=(cf(0.4), cf(0.4)),
                       m=(1.0, 1.0), M=(1.0, 1.0), f=(f, f))
    rep = validate_hypotheses(spec)
    assert rep.regime is Regime.POSITIVE_SUM
    assert rep.passed
    budget = next(c for c in rep.checks if c.name == "singular_budget_1")
    assert budget.lhs == pytest.approx(0.5) and budget.rhs == pytest.approx(1.0)


def test_hypotheses_smallness_cap_failure():
    # N=2, p' = 2 (p=2): alpha=-0.3, beta=-0.25 needs 0.55 <= 1/4: fail
    m = mesh1d(16)
    spec = envelope_spec(m, alpha=-0.3, beta=-0.25, p=2.0)
    rep = validate_hypotheses(spec)
    assert rep.regime is Regime.NEGATIVE_SUM
    cap = next(c for c in rep.checks if c.name == "singular_smallness_1")
    assert cap.lhs == pytest.approx(0.55)
    assert cap.rhs == pytest.approx(0.25)
    assert not cap.passed and not rep.passed


def test_hypotheses_smallness_cap_pass():
    # N=2, p=3 (p'=1.5): alpha=-0.05, beta=-0.06, gamma=0.9 <= p/(N p')=1
    m = mesh1d(16)
    cf = lambda c: ExponentField.constant(m, c)
    f = parse_expr({"mul": [{"pow": {"base": "s1", "exp": -0.05}},
                            {"pow": {"base": "s2", "exp": -0.06}}]})
    spec = ProblemSpec(mesh=m, p=(cf(3.0), cf(3.0)),
                       alpha=(cf(-0.05), cf(-0.05)), beta=(cf(-0.06), cf(-0.06)),
                       gamma=(cf(0.9), cf(0.9)), gamma_bar=(cf(0.9), cf(0.9)),
                       m=(1.0, 1.0), M=(1.0, 1.0), f=(f, f))
    rep = validate_hypotheses(spec)
    assert rep.regime is Regime.NEGATIVE_SUM
    assert rep.passed
    cap = next(c for c in rep.checks if c.name == "singular_smallness_1")
    assert cap.lhs == pytest.approx(0.11)
    assert cap.rhs == pytest.approx(1.0 / 3.0)


def test_hypotheses_gamma_boundary_rejected():
    m = mesh1d(16)
    spec = envelope_spec(m, alpha=0.1, beta=0.1, p=2.0)
    bad = ProblemSpec(mesh=m, p=spec.p, alpha=spec.alpha, beta=spec.beta,
                      gamma=(ExponentField.constant(m, 1.0),) * 2,
                      gamma_bar=(ExponentField.constant(m, 1.0),) * 2,
                      m=spec.m, M=spec.M, f=spec.f)
    rep = validate_hypotheses(bad)
    assert not rep.passed
    assert any(c.name.startswith("gradient_power_growth") and not c.passed
               for c in rep.checks)


def test_hypotheses_deterministic():
    m = mesh1d(32)
    spec = benchmark_spec(m)
    r1 = validate_hypotheses(spec).as_dict()
    r2 = validate_hypotheses(spec).as_dict()
    assert r1 == r2


def test_envelope_check_catches_escape():
    m = mesh1d(16)
    cf = lambda c: ExponentField.constant(m, c)
    bad_f = parse_expr({"mul": [5.0, {"pow": {"base": "s1", "exp": 0.1}}]})
    spec = ProblemSpec(mesh=m, p=(cf(2.0), cf(2.0)),
                       alpha=(cf(0.1), cf(0.1)), beta=(cf(0.0), cf(0.0)),
                       gamma=(cf(0.0), cf(0.0)), gamma_bar=(cf(0.0), cf(0.0)),
                       m=(1.0, 1.0), M=(1.0, 1.0), f=(bad_f, bad_f))
    with pytest.raises(EnvelopeError):
        spec.envelope_check(np.random.default_rng(0))


# -- barrier construction ---------------------------------------------------

def test_build_barriers_scalings():
    m = mesh1d(128)
    spec = trivial_spec(m)
    xi, xid = torsion_pairs(m, spec, 0.1)
    pair = build_barriers(spec, C=2.0, delta=0.1, torsions=(xi, xid))
    np.testing.assert_allclose(pair.under[0].values, xid[0].values / 2, atol=1e-12)
    np.testing.assert_allclose(pair.over[0].values, 2 * xi[0].u.values, atol=1e-12)
    assert np.all(pair.under[0].values <= pair.over[0].values)
    for i in (0, 1):
        assert np.all(pair.under[i].values[m.boundary_nodes] == 0)
        assert np.all(pair.over[i].values[m.boundary_nodes] == 0)
    assert grid.distance_ratio(*pair.under)[0] > 0
    assert pair.R >= 1.0


def test_ordering_margin_grows_with_C():
    m = mesh1d(128)
    spec = trivial_spec(m)
    margins = []
    torsions = torsion_pairs(m, spec, 0.1)
    for C in (2.0, 4.0, 8.0):
        pair = build_barriers(spec, C=C, delta=0.1, torsions=torsions)
        gap = min(np.min(pair.over[i].values[m.interior_nodes]
                         - pair.under[i].values[m.interior_nodes])
                  for i in (0, 1))
        margins.append(gap)
    assert margins[0] < margins[1] < margins[2]


def test_build_barriers_requires_C_above_one():
    m = mesh1d(64)
    spec = trivial_spec(m)
    with pytest.raises(ValueError):
        build_barriers(spec, C=1.0, delta=0.1, torsions=torsion_pairs(m, spec, 0.1))


@pytest.mark.parametrize("call, exc, message", [
    (lambda spec, pair: check_barriers_singular_regime(spec, pair, 1.0), ValueError,
     "sup-norm cap L must exceed 1"),
    (lambda spec, pair: dataclasses.replace(spec, f=(1.0, spec.f[1])), TypeError,
     r"f\[0\] must be a parsed expression"),
], ids=["cap-at-one", "unparsed-f"])
def test_malformed_spec_or_cap_rejected(call, exc, message):
    m = mesh1d(64)
    spec = trivial_spec(m)
    pair = build_barriers(spec, C=2.0, delta=0.1, torsions=torsion_pairs(m, spec, 0.1))
    with pytest.raises(exc, match=message):
        call(spec, pair)


# -- inequality checks and calibration --------------------------------------

def test_calibration_positive_regime_cooperative():
    m = build_mesh(DomainSpec.interval(0, 1), 256)
    spec = envelope_spec(m, alpha=0.3, beta=0.3, p=2.0)
    cal = calibrate_barriers(spec)
    assert spec.hypotheses.regime is Regime.POSITIVE_SUM
    assert cal.pair.C <= 2 ** 20
    rep = check_barriers_positive_regime(spec, cal.pair)
    assert rep.ok and rep.worst_margin >= 0.0
    # recorded regression value for this spec at this resolution; the
    # cooperative product envelope vanishes like d^0.6 at the boundary,
    # so the doubling search runs further than for the mixed-sign specs
    assert cal.pair.C == 512.0
    margins = [w for _, w in cal.trajectory]
    assert margins == sorted(margins)


def test_calibration_records_an_ordering_failure_and_moves_on(monkeypatch):
    m = build_mesh(DomainSpec.interval(0, 1), 64)
    spec = envelope_spec(m, alpha=0.3, beta=0.3, p=2.0)
    plain = calibrate_barriers(spec)
    orig = barriers.build_barriers

    def unordered_at_2(spec, C, *args):
        if C == 2.0:
            raise OrderingError("barriers not ordered")
        return orig(spec, C, *args)

    monkeypatch.setattr(barriers, "build_barriers", unordered_at_2)
    cal = calibrate_barriers(spec)
    assert cal.trajectory[0] == (2.0, -np.inf)
    assert cal.trajectory[1:] == plain.trajectory[1:]
    assert cal.pair.C == plain.pair.C > 2.0


def test_small_C_violates():
    m = build_mesh(DomainSpec.interval(0, 1), 256)
    spec = envelope_spec(m, alpha=0.3, beta=0.3, p=2.0)
    pair = build_barriers(spec, C=1.01, delta=0.05,
                          torsions=torsion_pairs(m, spec, 0.05))
    rep = check_barriers_positive_regime(spec, pair)
    assert not rep.ok


@pytest.mark.parametrize("n", range(16, 65, 4))
def test_resolve_delta_on_the_unit_square(n):
    # the search starts at 0.05; a floor of two cell diagonals lay above
    # that start at n=40 and n=48 and ended the search after one try;
    # every n from 16 to 64 in steps of 4 must find a positive delta
    m = build_mesh(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), n)
    delta, _, xid = resolve_delta(benchmark_spec(m))
    assert 0.0 < delta <= 0.05
    for x in xid:
        assert np.all(x.values[m.interior_nodes] > 0.0)


def test_vanishing_lower_envelope_fails_outside_strip():
    # as m -> 0 the subsolution requirement degenerates to -Lap(under) <= 0,
    # which can only hold where the strip data is negative; this is why
    # the contract demands m > 0
    m = build_mesh(DomainSpec.interval(0, 1), 128)
    spec = envelope_spec(m, alpha=0.3, beta=0.3, m=1e-12, M=1e-12, p=2.0)
    pair = build_barriers(spec, C=2.0, delta=0.05,
                          torsions=torsion_pairs(m, spec, 0.05))
    rep = check_barriers_positive_regime(spec, pair)
    assert not rep.ok
    assert rep.margins["subsolution_1"] < 0.0


def test_larger_m_accepts_smaller_C():
    m = build_mesh(DomainSpec.interval(0, 1), 256)
    big = envelope_spec(m, alpha=0.3, beta=0.3, m=4.0, M=4.0, p=2.0)
    small = envelope_spec(m, alpha=0.3, beta=0.3, m=0.25, M=0.25, p=2.0)
    c_big = calibrate_barriers(big).pair.C
    c_small = calibrate_barriers(small).pair.C
    assert c_big <= c_small


def test_exhausted_scale_search_names_its_bound():
    # a lower envelope of 1e-12 needs a barrier scale far beyond 2^20
    m = mesh1d(32)
    spec = envelope_spec(m, alpha=0.3, beta=0.3, m=1e-12, M=1e-12, p=2.0)
    with pytest.raises(CalibrationError, match=r"2\^20"):
        calibrate_barriers(spec)


def test_infeasible_spec_rejected_before_search():
    m = mesh1d(64)
    spec = envelope_spec(m, alpha=-0.3, beta=-0.25, p=2.0)  # fails smallness
    with pytest.raises(CalibrationError):
        calibrate_barriers(spec)


def test_singular_regime_check_and_monotone_L_margin():
    m = build_mesh(DomainSpec.interval(0, 1), 256)
    spec = singular_spec(m)
    cal = calibrate_barriers(spec, L=2.0)
    rep2 = check_barriers_singular_regime(spec, cal.pair, 2.0)
    assert rep2.ok
    # both exponents negative: the right side shrinks as L grows, so a
    # larger cap can only tighten the margin
    rep8 = check_barriers_singular_regime(spec, cal.pair, 8.0)
    assert rep8.worst_margin <= rep2.worst_margin + 1e-12


def test_calibrated_pair_holds_values_only_and_one_shared_torsion_solve():
    # the accepted pair's fields are fresh, so the arrays the checks and
    # the Newton solves derived from them are not kept; equal exponents
    # keep one torsion solve, which the certificate's audits share
    spec = singular_spec(mesh1d(64))
    pair = calibrate_barriers(spec, L=2.0).pair
    assert pair.torsion[0] is pair.torsion[1]
    for u in (*pair.under, *pair.over, pair.torsion[0].u):
        assert u.zero_trace and set(vars(u)) == {"mesh", "values", "zero_trace"}


def test_supersolution_margin_monotone_in_C():
    m = build_mesh(DomainSpec.interval(0, 1), 256)
    spec = benchmark_spec(m)
    cal = calibrate_barriers(spec)
    sup = []
    torsions = torsion_pairs(m, spec, cal.pair.delta)
    for C in (cal.pair.C, 2 * cal.pair.C, 4 * cal.pair.C):
        pair = build_barriers(spec, C=C, delta=cal.pair.delta, torsions=torsions)
        rep = check_barriers_positive_regime(spec, pair)
        sup.append(min(rep.margins["supersolution_1"],
                       rep.margins["supersolution_2"]))
    assert sup[0] <= sup[1] <= sup[2]


def test_barrier_constants_stable_under_refinement():
    deltas = {}
    c0s = {}
    for n in (256, 512):
        m = build_mesh(DomainSpec.interval(0, 1), n)
        spec = trivial_spec(m)
        pair = build_barriers(spec, C=2.0, delta=0.05,
                              torsions=torsion_pairs(m, spec, 0.05))
        c0s[n] = grid.distance_ratio(*pair.under)[0]
        deltas[n] = pair.delta
    assert abs(c0s[512] - c0s[256]) / c0s[256] <= 0.2


def test_benchmark_calibration_regression():
    m = build_mesh(DomainSpec.interval(0, 1), 256)
    spec = benchmark_spec(m)
    cal = calibrate_barriers(spec)
    assert spec.hypotheses.regime is Regime.POSITIVE_SUM
    assert cal.pair.C == 4.0
    assert cal.pair.delta == pytest.approx(0.05)
    assert grid.distance_ratio(*cal.pair.under)[0] > 0


def test_calibration_measures_no_distance_ratio(monkeypatch):
    # only the certificate reads the pair's c0/c1, so the C search over
    # its candidate pairs measures none of them
    from conftest import count_calls
    ratios = count_calls(monkeypatch, grid, "distance_ratio")
    cal = calibrate_barriers(benchmark_spec(mesh1d(64)))
    assert len(cal.trajectory) >= 2 and ratios == []


# Barrier products per sign case of (alpha, beta), written out: pq(base, e)
# is base^e at the quadrature points, u/o the under/over barriers, L the
# singular-regime cap entering through the scalar extremes.
_SIGN_CASE_PRODUCTS = {
    (0.3, 0.2): {
        "lower": lambda pq, u, o, a, b, L: pq(u[0], a) * pq(u[1], b),
        "upper": lambda pq, u, o, a, b, L: pq(o[0], a) * pq(o[1], b),
        "singular": lambda pq, u, o, a, b, L: pq(u[0], a) * pq(u[1], b)},
    (-0.1, 0.3): {
        "lower": lambda pq, u, o, a, b, L: pq(o[0], a) * pq(u[1], b),
        "upper": lambda pq, u, o, a, b, L: pq(u[0], a) * pq(o[1], b),
        "singular": lambda pq, u, o, a, b, L: L ** a.p_minus * pq(u[1], b)},
    (0.3, -0.1): {
        "lower": lambda pq, u, o, a, b, L: pq(u[0], a) * pq(o[1], b),
        "upper": lambda pq, u, o, a, b, L: pq(o[0], a) * pq(u[1], b),
        "singular": lambda pq, u, o, a, b, L: L ** b.p_minus * pq(u[0], a)},
    (-0.05, -0.06): {
        "lower": lambda pq, u, o, a, b, L: pq(o[0], a) * pq(o[1], b),
        "upper": lambda pq, u, o, a, b, L: pq(u[0], a) * pq(u[1], b),
        "singular": lambda pq, u, o, a, b, L:
            np.full(len(u[0].mesh.qweights), L ** (a.p_minus + b.p_minus))},
}


@pytest.mark.parametrize("regime", ["positive", "singular"])
@pytest.mark.parametrize("case", list(_SIGN_CASE_PRODUCTS))
def test_sign_case_products_and_margins(case, regime):
    m = mesh1d(64)
    a0, b0 = case
    cf = lambda c: ExponentField.constant(m, c)
    alpha = ExponentField.from_callable(m, lambda x: a0 * (1.0 + 0.3 * x))
    f = parse_expr({"mul": [{"pow": {"base": "s1", "exp": a0}},
                            {"pow": {"base": "s2", "exp": b0}}]})
    spec = ProblemSpec(mesh=m, p=(cf(2.5), cf(2.5)), alpha=(alpha, alpha),
                       beta=(cf(b0), cf(b0)), gamma=(cf(0.0), cf(0.0)),
                       gamma_bar=(cf(0.0), cf(0.0)), m=(1.3, 1.3), M=(1.5, 1.5),
                       f=(f, f))
    delta, xi, xid = resolve_delta(spec)
    pair = build_barriers(spec, 4.0, delta, torsions=(xi, xid))
    L = 4.0

    def pq(base, e):
        return grid.at_quad(m, base.values) ** e.at_quad

    def product(side):
        return _SIGN_CASE_PRODUCTS[case][side](pq, pair.under, pair.over,
                                               alpha, spec.beta[0], L)

    def margin(small, large):
        ii = m.interior_nodes
        tol = (barriers._INEQ_ATOL + barriers._INEQ_RTOL
               * np.maximum(np.abs(small[ii]), np.abs(large[ii])))
        return float((large[ii] - small[ii] + tol).min())

    sub = plaplace.apply_operator(spec.p[0], pair.under[0])
    if regime == "singular":
        lower = product("singular")
        np.testing.assert_array_equal(
            barriers._product_bound(spec, 0, (pair.under, (L, L))), lower)
        rep = check_barriers_singular_regime(spec, pair, L)
        if min(case) >= 0.0:
            # the lower product reads only the floor, so no cap moves the
            # subsolution margins off the positive regime's
            pos = check_barriers_positive_regime(spec, pair).margins
            for cap in (1.0 + 1e-9, L, 1e6):
                got = check_barriers_singular_regime(spec, pair, cap).margins
                assert list(got) == ["subsolution_1", "subsolution_2"]
                for name in got:
                    assert np.float64(got[name]).tobytes() == np.float64(pos[name]).tobytes()
    else:
        lower, upper = product("lower"), product("upper")
        box = (pair.under, pair.over)
        np.testing.assert_array_equal(barriers._product_bound(spec, 0, box), lower)
        np.testing.assert_array_equal(
            barriers._product_bound(spec, 0, box, upper=True), upper)
        rep = check_barriers_positive_regime(spec, pair)
        assert list(rep.margins) == ["subsolution_1", "supersolution_1",
                                     "subsolution_2", "supersolution_2"]
        gmax = max(spec.gamma[0].p_plus, spec.gamma_bar[0].p_plus)
        bulk = 2.0 * spec.M[0] * (pair.R * pair.C) ** gmax
        sup = plaplace.apply_operator(spec.p[0], pair.over[0])
        rhs2 = grid.as_quad(m, bulk + spec.M[0] * upper).load
        assert rep.margins["supersolution_1"] == margin(rhs2, sup)
    rhs = grid.as_quad(m, spec.m[0] * lower).load
    assert rep.margins["subsolution_1"] == margin(sub, rhs)
    assert rep.worst_margin == min(rep.margins.values())
