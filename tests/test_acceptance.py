"""Acceptance suite.

Each test realizes one acceptance criterion at its stated tolerance and
prints a single PASS line when it completes (pytest -s shows them).
Criteria with analytic oracles compute them in place; measured constants
asserted here are frozen regression values from calibration runs of this
code base, noted as such.
"""

import json
import time

import numpy as np
import pytest

from varpx import (DomainSpec, ExponentField, GridFunction, ScaleFamily,
                   SystemState, apply_map, build_mesh, calibrate_barriers,
                   calibrate_caps, fixed_point_iterate, gradient_estimate_audit,
                   luxemburg_norm, membership_check, modular, solve_dirichlet,
                   torsion, validate_hypotheses)
from varpx.cli import parse_config, run
from varpx.grid import QuadField
from varpx.grid import distance_ratio
from varpx.verify import (mvt_ratio, mvt_tolerance, random_lipschitz_field,
                          random_sign_constant_test)

from conftest import (assert_power_bounds, benchmark_spec, config_path, envelope_spec,
                      point_tables, power_norm_bracket, singular_spec)


def _report(k, name, detail=""):
    print(f"ACCEPTANCE {k} {name}: PASS {detail}")


def test_acceptance_01_analytic_torsion_reproduction():
    t0 = time.time()
    exact = {
        2.0: lambda x: x * (1 - x) / 2,
        3.0: lambda x: (2 / 3) * (0.5 ** 1.5 - np.abs(x - 0.5) ** 1.5),
    }
    errs = {2.0: [], 3.0: []}
    for n in (128, 256, 512, 1024):
        m = build_mesh(DomainSpec.interval(0, 1), n)
        for pc in (2.0, 3.0):
            u = torsion(ExponentField.constant(m, pc)).u.values
            errs[pc].append(np.abs(u - exact[pc](m.nodes[:, 0])).max())
    for pc in (2.0, 3.0):
        assert errs[pc][-1] <= 1e-4, f"p={pc}: n=1024 error {errs[pc][-1]}"
        seq = np.maximum(np.array(errs[pc]), 1e-14)
        if seq.max() > 1e-12:  # p=2 is nodally exact; order is meaningful for p=3
            orders = np.log2(seq[:-1] / seq[1:])
            assert np.all(orders >= 1.0), f"p={pc}: orders {orders}"
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    _report(1, "analytic torsion reproduction",
            f"(p3 err@1024={errs[3.0][-1]:.2e}, {elapsed:.1f}s)")


def test_acceptance_02_luxemburg_norm_suite():
    t0 = time.time()
    m = build_mesh(DomainSpec.interval(0, 1), 96)
    rng = np.random.default_rng(2024)
    # constant-exponent reduction at 1e-10 relative
    for _ in range(50):
        u = GridFunction(m, rng.normal(size=m.n_nodes) * 10 ** rng.uniform(-2, 2))
        pc = rng.uniform(1.2, 4.0)
        p = ExponentField.constant(m, pc)
        _, qbasis, qconn = point_tables(m)
        classical = (m.qweights @ np.abs(
            np.einsum("qk,qk->q", qbasis, u.values[qconn])) ** pc
        ) ** (1 / pc)
        assert luxemburg_norm(u, p) == pytest.approx(classical, rel=1e-10)
    # unit-modular and the two-sided power bounds on 1000 random pairs
    branch_counts = {True: 0, False: 0}  # keyed by norm > 1
    for i in range(1000):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = GridFunction(m, rng.normal(size=m.n_nodes) * scale)
        a, b = rng.uniform(1.1, 3.0), rng.uniform(0.0, 1.0)
        p = ExponentField.from_callable(m, lambda x: a + b * x)
        nrm = luxemburg_norm(u, p)
        if nrm > 0:
            assert modular(GridFunction(m, u.values / nrm), p) == pytest.approx(
                1.0, abs=1e-8)
        assert_power_bounds(u, p)
        branch_counts[nrm > 1.0] += 1
    assert min(branch_counts.values()) > 100  # both branches exercised
    # homogeneity at 1e-10 and triangle inequality at 1e-12
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    for _ in range(50):
        u = rng.normal(size=m.n_nodes)
        v = rng.normal(size=m.n_nodes)
        nu = luxemburg_norm(GridFunction(m, u), p)
        for lam in (0.1, 2.0, 100.0):
            assert luxemburg_norm(GridFunction(m, lam * u), p) == pytest.approx(
                lam * nu, rel=1e-10)
        ls = luxemburg_norm(GridFunction(m, u + v), p)
        rs = nu + luxemburg_norm(GridFunction(m, v), p)
        assert ls <= rs + 1e-12 * max(1.0, rs)
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    _report(2, "luxemburg norm suite", f"({elapsed:.1f}s)")


def test_acceptance_03_power_norm_bracket():
    m = build_mesh(DomainSpec.interval(0, 1), 64)
    rng = np.random.default_rng(3)
    for _ in range(500):
        u = GridFunction(m, rng.normal(size=m.n_nodes) * 10 ** rng.uniform(-1, 1))
        k = ExponentField.constant(m, rng.uniform(1.2, 3.5))
        a, b = rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.5)
        mm = ExponentField.from_callable(m, lambda x: a + b * x)
        power_norm_bracket(u, mm, k)
    _report(3, "power-norm bracket on 500 random triples")


def test_acceptance_04_distance_power_finiteness():
    # p = 2, alpha_1 = e/2, beta_1 = 0: the singular term's distance power
    # is (alpha_1 + beta_1) p' = e, integrable near the boundary iff e > -1
    m = build_mesh(DomainSpec.interval(0, 1), 16)
    for e, want in {-1.2: False, -0.9: True, -0.5: True}.items():
        checks = {c.name: c for c in validate_hypotheses(envelope_spec(m, e / 2, 0.0)).checks}
        check = checks["distance_power_integrability_1"]
        assert (check.lhs, check.rhs, check.passed) == (e, -1.0, want)
    # a component with a positive exponent sum is not singular
    names = [c.name for c in validate_hypotheses(envelope_spec(m, 0.25, 0.0)).checks]
    assert not any(n.startswith("distance_power_integrability") for n in names)
    _report(4, "boundary-singular integrability classification")


def test_acceptance_05_mean_value_property():
    n = 512
    m = build_mesh(DomainSpec.interval(0, 1), n)
    rng = np.random.default_rng(55)
    d_m03 = QuadField(m, m.domain.distance(m.qpoints[:, 0]) ** -0.3)
    bases = []
    for p in (ExponentField.constant(m, 2.0),
              ExponentField.from_callable(m, lambda x: 2 + x)):
        for h in (GridFunction.constant(m, 1.0), d_m03):
            bases.append((p, h))
    lo, hi = 0.7, 1.9
    for p, h in bases:
        res = solve_dirichlet(p, h)
        assert res.converged
        tol = mvt_tolerance(m, res.residual)
        for _ in range(200):
            f = random_lipschitz_field(m, rng, lo, hi)
            phi = random_sign_constant_test(m, rng)
            gam = mvt_ratio(p, res.u, h, f, phi)
            assert lo - tol <= gam <= hi + tol
    # closed-form spot value
    m2 = build_mesh(DomainSpec.interval(0, 1), 1024)
    p2 = ExponentField.constant(m2, 2.0)
    h1 = GridFunction.constant(m2, 1.0)
    res = solve_dirichlet(p2, h1)
    f = GridFunction.from_callable(m2, lambda x: 1 + x)
    gam = mvt_ratio(p2, res.u, h1, f, res.u)
    assert abs(gam - 1.5) <= 1e-3
    _report(5, "mean value property", f"(closed-form {gam:.6f})")


def test_acceptance_06_gradient_estimate():
    m = build_mesh(DomainSpec.interval(0, 1), 512)
    for pc in (2.0, 3.0):
        p = ExponentField.constant(m, pc)
        a = gradient_estimate_audit(ScaleFamily(p, torsion(p)))
        assert a.verdict == "pass"
        assert a.spread < 0.10, f"constant p={pc}: spread {a.spread}"
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    a = gradient_estimate_audit(ScaleFamily(p, torsion(p)))
    assert a.verdict == "pass"
    ratios = [r for _, r in a.scale_family]
    assert ratios[-1] <= ratios[-2] * 1.05  # no monotone growth at the top
    _report(6, "gradient estimate scaling",
            f"(variable-p candidate {a.measured_ratio:.4f})")


def test_acceptance_07_positive_regime_pipeline():
    t0 = time.time()
    m = build_mesh(DomainSpec.interval(0, 1), 512)
    spec = benchmark_spec(m)
    cal = calibrate_barriers(spec)
    state, rep = fixed_point_iterate(spec, cal.pair)
    sol = state.z
    assert rep.converged and rep.iters <= 500
    assert rep.residuals[-1] <= 1e-6
    assert all(rep.membership_trace)
    c0, _ = distance_ratio(sol[0])
    c0 = min(c0, distance_ratio(sol[1])[0])
    assert c0 > 0
    # refinement stability of the sandwich constant
    m2 = build_mesh(DomainSpec.interval(0, 1), 1024)
    spec2 = benchmark_spec(m2)
    cal2 = calibrate_barriers(spec2)
    state2, rep2 = fixed_point_iterate(spec2, cal2.pair)
    sol2 = state2.z
    assert rep2.converged
    c0f = min(distance_ratio(sol2[0])[0], distance_ratio(sol2[1])[0])
    assert abs(c0f - c0) / c0 <= 0.2
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _report(7, "positive-regime pipeline",
            f"(iters={rep.iters}, c0={c0:.4f}->{c0f:.4f}, {elapsed:.1f}s)")


def test_acceptance_08_singular_regime_pipeline():
    m = build_mesh(DomainSpec.interval(0, 1), 256)
    spec = singular_spec(m)
    cal = calibrate_barriers(spec)
    caps = calibrate_caps(spec, cal.pair)
    assert caps.L > 1.0
    rep = caps.report
    assert rep.converged
    assert all(rep.membership_trace), "cap membership must hold at every iterate"
    assert rep.residuals[-1] <= 1e-6
    _report(8, "singular-regime pipeline",
            f"(L={caps.L}, L~={caps.L_tilde}, iters={rep.iters})")


def test_acceptance_09_invariance_sampling():
    m = build_mesh(DomainSpec.interval(0, 1), 512)
    spec = benchmark_spec(m)
    cal = calibrate_barriers(spec)
    pair = cal.pair
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(200):
        lam = rng.uniform(0.0, 1.0)
        z = []
        for i in (0, 1):
            mix = lam * pair.under[i].values + (1 - lam) * pair.over[i].values
            noise = rng.normal(0.0, 0.05, size=m.n_nodes) * m.distance
            v = np.clip(mix + noise, pair.under[i].values, pair.over[i].values)
            v[m.boundary_nodes] = 0.0
            z.append(GridFunction(m, v, zero_trace=True))
        st = SystemState.build(spec, pair, z[0], z[1])
        u1, u2 = apply_map(st)
        out = SystemState.build(spec, pair, u1, u2)
        member = all(membership_check(out.extremes(), pair))
        violations += int(not member)
    assert violations == 0
    _report(9, "invariance of the barrier box under the frozen map",
            "(200 samples, zero violations)")


def test_acceptance_10_certificate_determinism(tmp_path):
    with open(config_path("benchmark.json")) as f:
        text = f.read()
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    code1 = run(parse_config(text), out_dir=str(d1))
    code2 = run(parse_config(text), out_dir=str(d2))
    assert code1 == 0 and code2 == 0
    b1 = (d1 / "certificate.json").read_bytes()
    b2 = (d2 / "certificate.json").read_bytes()
    assert b1 == b2
    _report(10, "byte-identical certificates", f"({len(b1)} bytes)")
