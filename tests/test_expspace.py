import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

from varpx import (DomainSpec, ExponentField, GridFunction, build_mesh, expspace,
                   distance_power_modular, grid, luxemburg_norm, modular,
                   modular_norm_bounds, power_norm_identity)
from varpx.errors import BisectionError, NonFiniteFieldError


def mesh1d(n=256):
    return build_mesh(DomainSpec.interval(0.0, 1.0), n)


def test_modular_zero_and_one():
    m = mesh1d()
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    assert modular(GridFunction.constant(m, 0.0), p) == 0.0
    assert modular(GridFunction.constant(m, 1.0), p) == pytest.approx(1.0, abs=1e-12)


def test_modular_closed_form_and_quad_oracle():
    # int_0^1 4 * 2^x dx = 4/ln 2, cross-checked by adaptive quadrature
    m = mesh1d()
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    got = modular(GridFunction.constant(m, 2.0), p)
    assert got == pytest.approx(4.0 / np.log(2.0), rel=1e-10)
    oracle, _ = scipy.integrate.quad(lambda x: 2.0 ** (2 + x), 0, 1)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_luxemburg_constant_exponent_reduction():
    m = mesh1d()
    u = GridFunction.constant(m, 2.0)
    p = ExponentField.constant(m, 2.0)
    assert luxemburg_norm(u, p) == pytest.approx(2.0, rel=1e-10)


def test_luxemburg_unit_field():
    m = mesh1d()
    u = GridFunction.constant(m, 1.0)
    for pc in (1.5, 2.0, 3.7):
        p = ExponentField.constant(m, pc)
        assert luxemburg_norm(u, p) == pytest.approx(1.0, rel=1e-10)
    pvar = ExponentField.from_callable(m, lambda x: 2 + x)
    assert luxemburg_norm(u, pvar) == pytest.approx(1.0, rel=1e-10)


def test_luxemburg_variable_exponent_bisection_oracle():
    # u = 1+x with p = 2+x: root of int ((1+x)/tau)^(2+x) dx = 1 found
    # independently with adaptive quadrature + brentq
    m = mesh1d(512)
    u = GridFunction.from_callable(m, lambda x: 1 + x)
    p = ExponentField.from_callable(m, lambda x: 2 + x)

    def rho(tau):
        val, _ = scipy.integrate.quad(lambda x: ((1 + x) / tau) ** (2 + x), 0, 1)
        return val - 1.0

    oracle = scipy.optimize.brentq(rho, 1e-3, 10.0, xtol=1e-13)
    assert luxemburg_norm(u, p) == pytest.approx(oracle, rel=1e-8)


def test_luxemburg_requires_pminus_gt_one():
    m = mesh1d(16)
    u = GridFunction.constant(m, 1.0)
    with pytest.raises(ValueError):
        luxemburg_norm(u, ExponentField.constant(m, 1.0))


def test_unit_modular_property_random():
    m = mesh1d(64)
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = GridFunction(m, rng.normal(size=m.n_nodes)
                         * 10.0 ** rng.uniform(-2, 2))
        p = ExponentField.constant(m, rng.uniform(1.1, 4.0))
        nrm = luxemburg_norm(u, p)
        if nrm == 0.0:
            continue
        scaled = GridFunction(m, u.values / nrm)
        assert modular(scaled, p) == pytest.approx(1.0, abs=1e-8)


def test_norm_homogeneity():
    m = mesh1d(64)
    rng = np.random.default_rng(4)
    u = GridFunction(m, rng.normal(size=m.n_nodes))
    p = ExponentField.from_callable(m, lambda x: 1.5 + np.sin(3 * x) ** 2)
    base = luxemburg_norm(u, p)
    for lam in (0.1, 2.0, 100.0):
        got = luxemburg_norm(GridFunction(m, lam * u.values), p)
        assert got == pytest.approx(lam * base, rel=1e-10)


def test_triangle_inequality():
    m = mesh1d(64)
    rng = np.random.default_rng(5)
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    for _ in range(100):
        u = rng.normal(size=m.n_nodes) * 10.0 ** rng.uniform(-1, 1)
        v = rng.normal(size=m.n_nodes) * 10.0 ** rng.uniform(-1, 1)
        ls = luxemburg_norm(GridFunction(m, u + v), p)
        rs = (luxemburg_norm(GridFunction(m, u), p)
              + luxemburg_norm(GridFunction(m, v), p))
        assert ls <= rs + 1e-12 * max(1.0, rs)


@pytest.mark.parametrize("s", [1e-20, 1e-200])
def test_luxemburg_norm_of_a_tiny_constant(s):
    # a bracket anchored at max|u| keeps homogeneity below machine epsilon
    m = mesh1d(64)
    nrm = luxemburg_norm(GridFunction.constant(m, s), ExponentField.constant(m, 2.0))
    assert nrm == pytest.approx(s, rel=1e-12, abs=0.0)


def test_luxemburg_rejects_a_nonpositive_exponent():
    m = mesh1d(16)
    uq = np.ones(m.qweights.shape)
    with pytest.raises(BisectionError):
        expspace._lux_quad(uq, np.zeros(uq.shape), m.qweights)


# -- the Luxemburg root search against the bisection it replaced ----------

def _bisection_norm(absvals, exps, weights, measure):
    """Safe bisection over [machine eps, max|u| * measure^(1/pmin) + 1],
    doubling the upper end until the scaled modular drops below one.
    Valid while the norm is above machine epsilon."""
    rho = lambda tau: expspace._modular_quad(absvals / tau, exps, weights)
    hi = float(absvals.max()) * measure ** (1.0 / float(exps.min())) + 1.0
    while rho(hi) > 1.0:
        hi *= 2.0
    lo = np.finfo(float).eps
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mesh(dim, n):
    dom = DomainSpec.interval(0.0, 1.5) if dim == 1 else DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0)
    return build_mesh(dom, n)


def _smooth_exponent(mesh, base, amp, freq):
    """base + amp * sin^2 of a linear phase: smooth, in [base, base + amp]."""
    x = mesh.nodes[:, 0] + (mesh.nodes[:, 1] if mesh.dim == 2 else 0.0)
    return ExponentField(mesh, base + amp * np.sin(freq * x) ** 2)


def _samples(mesh, rng, log_scale, zero_share):
    """|u| at the quadrature points of a random nodal field scaled by
    10^log_scale, with a share of its nodes set exactly to zero."""
    u = rng.normal(size=mesh.n_nodes) * 10.0 ** log_scale
    u[rng.random(mesh.n_nodes) < zero_share] = 0.0
    u[rng.integers(mesh.n_nodes)] = 10.0 ** log_scale
    return np.abs(grid.at_quad(mesh, u))


def _exponent_samples(mesh, kind, rng, uq):
    """(samples, exponents at the quadrature points) for a constant, a
    smooth variable, or a derived exponent k/m; the derived kind powers
    the samples by m as ``power_norm_identity`` does."""
    if kind == "constant":
        return uq, ExponentField.constant(mesh, rng.uniform(1.01, 4.0)).at_quad()
    k = _smooth_exponent(mesh, rng.uniform(1.01, 3.0), rng.uniform(0.0, 1.0),
                         rng.uniform(0.5, 6.0))
    if kind == "variable":
        return uq, k.at_quad()
    mq = _smooth_exponent(mesh, rng.uniform(0.3, 1.5), rng.uniform(0.0, 1.0),
                          rng.uniform(0.5, 6.0)).at_quad()
    powered = np.power(uq / uq.max(), mq) * uq.max()
    return powered, k.at_quad() / mq


_NORM_CASES = dict(dim=st.sampled_from([1, 2]), n=st.integers(2, 16),
                   kind=st.sampled_from(["constant", "variable", "derived"]),
                   log_scale=st.floats(-8.0, 8.0), zero_share=st.sampled_from([0.0, 0.3]),
                   seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(**_NORM_CASES)
def test_luxemburg_matches_the_bisection_reference(dim, n, kind, log_scale,
                                                   zero_share, seed):
    mesh = _mesh(dim, n)
    rng = np.random.default_rng(seed)
    vals, exps = _exponent_samples(mesh, kind, rng, _samples(mesh, rng, log_scale, zero_share))
    ref = _bisection_norm(vals, exps, mesh.qweights, mesh.domain.measure)
    assume(ref > np.finfo(float).eps)  # the reference's own lower end
    assert expspace._lux_quad(vals, exps, mesh.qweights) == pytest.approx(ref, rel=2e-13, abs=0.0)


# -- Luxemburg norm properties for variable exponents ----------------------

_PROPERTY_CASES = dict(dim=st.sampled_from([1, 2]), n=st.integers(2, 16),
                       base=st.floats(1.01, 3.0), amp=st.floats(0.0, 1.0),
                       freq=st.floats(0.5, 6.0), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(**_PROPERTY_CASES, log_lam=st.floats(-20.0, 20.0), negative=st.booleans())
def test_luxemburg_homogeneity_property(dim, n, base, amp, freq, seed, log_lam, negative):
    mesh = _mesh(dim, n)
    p = _smooth_exponent(mesh, base, amp, freq)
    u = np.random.default_rng(seed).normal(size=mesh.n_nodes)
    lam = (-1.0 if negative else 1.0) * 10.0 ** log_lam
    got = luxemburg_norm(GridFunction(mesh, lam * u), p)
    assert got == pytest.approx(abs(lam) * luxemburg_norm(GridFunction(mesh, u), p),
                                rel=1e-12, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(**_PROPERTY_CASES, log_ratio=st.floats(-3.0, 3.0))
def test_luxemburg_triangle_inequality_property(dim, n, base, amp, freq, seed, log_ratio):
    mesh = _mesh(dim, n)
    p = _smooth_exponent(mesh, base, amp, freq)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=mesh.n_nodes)
    v = rng.normal(size=mesh.n_nodes) * 10.0 ** log_ratio
    ls = luxemburg_norm(GridFunction(mesh, u + v), p)
    rs = luxemburg_norm(GridFunction(mesh, u), p) + luxemburg_norm(GridFunction(mesh, v), p)
    assert ls <= rs * (1.0 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(**_PROPERTY_CASES, log_scale=st.floats(-4.0, 4.0))
def test_modular_norm_power_bounds_property(dim, n, base, amp, freq, seed, log_scale):
    mesh = _mesh(dim, n)
    p = _smooth_exponent(mesh, base, amp, freq)
    u = np.random.default_rng(seed).normal(size=mesh.n_nodes) * 10.0 ** log_scale
    modular_norm_bounds(GridFunction(mesh, u), p)  # raises BoundViolationError


# -- how many modular evaluations one norm costs ---------------------------

def _modular_evals(monkeypatch, vals, exps, weights):
    """Number of ``_modular_quad`` calls one Luxemburg norm makes."""
    calls = []
    orig = expspace._modular_quad

    def counted(*args):
        calls.append(1)
        return orig(*args)

    with monkeypatch.context() as patch:
        patch.setattr(expspace, "_modular_quad", counted)
        expspace._lux_quad(vals, exps, weights)
    return len(calls)


def test_constant_exponent_norm_takes_three_modular_evaluations(monkeypatch):
    # the power bounds meet at the root, so checking both widened ends
    # already closes the bracket, at any data scale
    rng = np.random.default_rng(11)
    for i in range(200):
        mesh = _mesh(1 + i % 2, int(rng.integers(2, 17)))
        uq = _samples(mesh, rng, rng.uniform(-30.0, 30.0), 0.3 * (i % 3 == 0))
        exps = ExponentField.constant(mesh, rng.uniform(0.25, 4.0)).at_quad()
        assert _modular_evals(monkeypatch, uq, exps, mesh.qweights) <= 3


# Measured maximum of the evaluations per norm over the cases below.
_VARIABLE_EVALS_MAX = 11


def test_variable_exponent_norm_evaluation_count(monkeypatch):
    rng = np.random.default_rng(12)
    worst = 0
    for i in range(300):
        mesh = _mesh(1 + i % 2, int(rng.integers(2, 17)))
        uq = _samples(mesh, rng, rng.uniform(-8.0, 8.0), 0.3 * (i % 3 == 0))
        vals, exps = _exponent_samples(mesh, ("variable", "derived")[i % 2], rng, uq)
        worst = max(worst, _modular_evals(monkeypatch, vals, exps, mesh.qweights))
    assert worst <= _VARIABLE_EVALS_MAX


def test_modular_norm_bounds_equality_case():
    m = mesh1d()
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    rep = modular_norm_bounds(GridFunction.constant(m, 1.0), p)
    assert rep.norm == pytest.approx(1.0, abs=1e-10)
    assert rep.lower_bound == pytest.approx(rep.upper_bound, abs=1e-8)


def test_modular_norm_bounds_both_sides():
    m = mesh1d()
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    u = GridFunction.constant(m, 2.0)
    rep = modular_norm_bounds(u, p)
    assert rep.side == "norm_gt_one"
    assert rep.norm ** 2 <= rep.modular <= rep.norm ** 3
    # rescale to norm 1/2: bounds flip
    nrm = luxemburg_norm(u, p)
    small = GridFunction(m, u.values / (2 * nrm))
    rep2 = modular_norm_bounds(small, p)
    assert rep2.side == "norm_le_one"
    assert rep2.lower_bound == pytest.approx(0.5 ** 3, rel=1e-9)
    assert rep2.upper_bound == pytest.approx(0.5 ** 2, rel=1e-9)


def test_power_bounds_random_family():
    m = mesh1d(48)
    rng = np.random.default_rng(6)
    for _ in range(300):
        u = GridFunction(m, rng.normal(size=m.n_nodes)
                         * 10.0 ** rng.uniform(-2, 2))
        a = rng.uniform(1.1, 3.0)
        b = rng.uniform(0.0, 1.0)
        p = ExponentField.from_callable(m, lambda x: a + b * x)
        modular_norm_bounds(u, p)  # raises on violation


def test_power_norm_identity_unit_exponent():
    m = mesh1d()
    u = GridFunction.from_callable(m, lambda x: 1 + x ** 2)
    k = ExponentField.from_callable(m, lambda x: 2 + x)
    one = ExponentField.constant(m, 1.0)
    value, lo, hi = power_norm_identity(u, one, k)
    assert lo == pytest.approx(hi, rel=1e-12)
    assert value == pytest.approx(luxemburg_norm(u, k), rel=1e-10)


def test_power_norm_identity_constant_exponents():
    m = mesh1d()
    u = GridFunction.from_callable(m, lambda x: 1 + x)
    k = ExponentField.constant(m, 3.0)
    mm = ExponentField.constant(m, 1.5)
    value, _, _ = power_norm_identity(u, mm, k)
    assert value == pytest.approx(luxemburg_norm(u, k) ** 1.5, rel=1e-9)


def test_power_norm_identity_closed_form_case():
    # u = 2, k = 2+x, m = 1+x/2: k/m = 2 so the value is the L2 norm of
    # 2^(1+x/2), i.e. sqrt(4/ln 2); the base norm is exactly 2
    m = mesh1d(512)
    u = GridFunction.constant(m, 2.0)
    k = ExponentField.from_callable(m, lambda x: 2 + x)
    mm = ExponentField.from_callable(m, lambda x: 1 + x / 2)
    value, lo, hi = power_norm_identity(u, mm, k)
    assert value == pytest.approx(np.sqrt(4.0 / np.log(2.0)), rel=1e-9)
    assert lo == pytest.approx(2.0, rel=1e-9)
    assert hi == pytest.approx(2.0 ** 1.5, rel=1e-9)
    assert lo <= value <= hi


def test_power_norm_identity_random_triples():
    m = mesh1d(48)
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = GridFunction(m, rng.normal(size=m.n_nodes)
                         * 10.0 ** rng.uniform(-1, 1))
        k = ExponentField.constant(m, rng.uniform(1.2, 3.5))
        mm = ExponentField.from_callable(
            m, lambda x, a=rng.uniform(0.3, 2.0), b=rng.uniform(0, 0.5): a + b * x)
        power_norm_identity(u, mm, k)  # raises on bracket violation


def test_distance_power_trivial_and_closed_forms():
    m = mesh1d(256)
    v, fin = distance_power_modular(ExponentField.constant(m, 0.0), m)
    assert fin and v == pytest.approx(1.0, abs=1e-10)
    v, fin = distance_power_modular(ExponentField.constant(m, -0.5), m)
    assert fin and v == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-3)
    v, fin = distance_power_modular(ExponentField.constant(m, 1.0), m)
    assert fin and v == pytest.approx(0.25, abs=1e-10)


def test_distance_power_divergence():
    m = mesh1d(256)
    _, fin = distance_power_modular(ExponentField.constant(m, -1.2), m)
    assert not fin
    v, fin = distance_power_modular(ExponentField.constant(m, -0.9), m)
    # int min(x,1-x)^(-0.9) = 2 * 0.5^0.1 / 0.1
    assert fin and v == pytest.approx(2.0 * 0.5 ** 0.1 / 0.1, rel=0.02)


def test_distance_power_2d():
    m = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 16)
    v, fin = distance_power_modular(ExponentField.constant(m, 0.0), m)
    assert fin and v == pytest.approx(1.0, rel=1e-9)
    v, fin = distance_power_modular(ExponentField.constant(m, -0.5), m)
    assert fin and v > 0
    _, fin = distance_power_modular(ExponentField.constant(m, -1.2), m)
    assert not fin


def test_exponent_field_rejects_nonfinite():
    m = mesh1d(16)
    vals = np.ones(m.n_nodes)
    vals[3] = np.inf
    with pytest.raises(NonFiniteFieldError):
        ExponentField(m, vals)
