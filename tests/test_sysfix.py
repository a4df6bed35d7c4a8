import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varpx import (DomainSpec, GridFunction, IterationOptions, Regime,
                   SystemState, apply_map, build_barriers, build_mesh,
                   calibrate_barriers, calibrate_caps, coupled_residual,
                   fixed_point_iterate, membership_check, torsion)
from varpx.barriers import resolve_delta, slack
from varpx.cli import parse_config
from varpx.plaplace import solve_dirichlet

from conftest import (benchmark_spec, config_path, count_calls, envelope_spec,
                      singular_spec, trivial_spec)


def setup_positive(n=128, spec_fn=benchmark_spec):
    m = build_mesh(DomainSpec.interval(0.0, 1.0), n)
    spec = spec_fn(m)
    cal = calibrate_barriers(spec)
    return m, spec, cal


def setup_singular(n=64):
    return setup_positive(n, singular_spec)


def test_constant_map_fixed_point_two_iterations():
    m = build_mesh(DomainSpec.interval(0, 1), 64)
    spec = trivial_spec(m)
    cal = calibrate_barriers(spec)
    state, rep = fixed_point_iterate(spec, cal.pair,
                                     opts=IterationOptions(theta=1.0))
    sol = state.z
    assert rep.converged and rep.iters <= 2
    xi = torsion(spec.p[0]).u
    np.testing.assert_allclose(sol[0].values, xi.values, atol=1e-10)
    np.testing.assert_allclose(sol[1].values, xi.values, atol=1e-10)


def test_constant_map_is_idempotent():
    m = build_mesh(DomainSpec.interval(0, 1), 64)
    spec = trivial_spec(m)
    cal = calibrate_barriers(spec)
    st = SystemState.build(spec, cal.pair, cal.pair.under[0], cal.pair.under[1])
    u1, u2 = apply_map(st)
    st2 = SystemState.build(spec, cal.pair, u1, u2)
    v1, v2 = apply_map(st2)
    np.testing.assert_allclose(u1.values, v1.values, atol=1e-11)
    np.testing.assert_allclose(u2.values, v2.values, atol=1e-11)


def test_symmetric_spec_gives_equal_components():
    m, spec, cal = setup_positive(128, lambda mm: envelope_spec(mm, 0.2, 0.2))
    state, rep = fixed_point_iterate(spec, cal.pair)
    assert rep.converged
    np.testing.assert_allclose(state.z[0].values, state.z[1].values, atol=1e-10)


def test_decoupling_matches_componentwise_solves():
    m, spec, cal = setup_positive(128)
    st = SystemState.build(spec, cal.pair, cal.pair.under[0], cal.pair.under[1])
    u1, u2 = apply_map(st)
    h1, h2 = st.frozen
    d1 = solve_dirichlet(spec.p[0], h1, start=st.z[0]).u.values
    d2 = solve_dirichlet(spec.p[1], h2, start=st.z[1]).u.values
    # bit-level: the map is literally two independent solves
    assert np.array_equal(u1.values, d1)
    assert np.array_equal(u2.values, d2)


def test_symmetric_map_solves_once(monkeypatch):
    # the singular spec's components pose one problem bit for bit at every
    # iterate: each map solves it once and both components read the field
    from varpx import plaplace, sysfix
    m, spec, cal = setup_singular()
    mapped = _record_map(monkeypatch, sysfix)
    solves = count_calls(monkeypatch, plaplace, "solve_dirichlet")
    _, rep = fixed_point_iterate(spec, cal.pair)
    assert rep.iters > 1 and len(solves) == len(mapped) == rep.iters
    assert all(u1 is u2 for _, (u1, u2) in mapped)
    st = SystemState.build(spec, cal.pair, cal.pair.under[0], cal.pair.under[1])
    u1, u2 = apply_map(st)
    h1, h2 = st.frozen
    d1 = solve_dirichlet(spec.p[0], h1, start=st.z[0]).u.values
    d2 = solve_dirichlet(spec.p[1], h2, start=st.z[1]).u.values
    assert np.array_equal(u1.values, d1) and np.array_equal(u2.values, d2)


def test_components_one_ulp_apart_are_solved_apart(monkeypatch):
    from varpx import expspace, plaplace
    m, spec, cal = setup_singular()
    z1 = cal.pair.under[0]
    v = z1.values.copy()
    k = m.interior_nodes[len(m.interior_nodes) // 3]
    v[k] = np.nextafter(v[k], np.inf)
    z2 = GridFunction(m, v, zero_trace=True)
    solves = count_calls(monkeypatch, plaplace, "solve_dirichlet")
    residuals = count_calls(monkeypatch, plaplace, "weak_residual")
    norms = count_calls(monkeypatch, expspace, "luxemburg_norm_from_samples")
    st = SystemState.build(spec, cal.pair, z1, z2)
    u1, u2 = apply_map(st)
    coupled_residual(st), st.grad_lux_norm
    assert (len(solves), len(residuals), len(norms)) == (2, 2, 2)
    assert u1 is not u2


def test_asymmetric_spec_counts_stay_per_component(monkeypatch):
    from varpx import barriers, plaplace
    m, spec, cal = setup_positive(64)
    assert spec.f[0] is not spec.f[1]
    solves = count_calls(monkeypatch, plaplace, "solve_dirichlet")
    residuals = count_calls(monkeypatch, plaplace, "weak_residual")
    f_evals = count_calls(monkeypatch, barriers, "evaluate_spatial")
    _, rep = fixed_point_iterate(spec, cal.pair)
    assert rep.iters > 1
    assert (len(solves), len(residuals)) == (2 * rep.iters, 2 * rep.iters)
    assert len(f_evals) == 2 * (rep.iters + 1)


def test_shared_nonlinearity_evaluated_once(monkeypatch):
    import copy
    from varpx import barriers
    m, spec, cal = setup_singular()
    # two equal trees parsed apart: the spec holds them as one object
    spec = dataclasses.replace(spec, f=(spec.f[0], copy.deepcopy(spec.f[0])))
    assert spec.f[0] is spec.f[1]
    f_evals = count_calls(monkeypatch, barriers, "evaluate_spatial")
    st = SystemState.build(spec, cal.pair, cal.pair.under[0], cal.pair.over[1])
    h1, h2 = st.frozen
    assert len(f_evals) == 1 and h1 is h2


def test_freeze_rhs_finite_and_positive():
    m, spec, cal = setup_positive(128)
    st = SystemState.build(spec, cal.pair, cal.pair.under[0], cal.pair.under[1])
    h1, h2 = st.frozen
    assert np.all(np.isfinite(h1.values)) and np.all(np.isfinite(h2.values))
    assert np.all(h1.values > 0) and np.all(h2.values > 0)


def test_freeze_rhs_clamp_lifts_to_floor():
    # gradient-free spec: the clamp only touches the value channel, so a
    # below-floor state freezes to exactly the floor's data (the clamped
    # values are floored while gradients pass through unmodified, which
    # here do not enter f)
    m, spec, cal = setup_positive(128, lambda mm: envelope_spec(mm, 0.3, -0.1))
    pair = cal.pair
    below = GridFunction(m, pair.under[0].values * 0.5, zero_trace=True)
    st = SystemState.build(spec, pair, below, pair.under[1])
    g_below, _ = st.frozen
    st_floor = SystemState.build(spec, pair, pair.under[0], pair.under[1])
    g_floor, _ = st_floor.frozen
    np.testing.assert_allclose(g_below.values, g_floor.values, atol=1e-14)
    lifted = GridFunction(m, pair.under[0].values * 1.5, zero_trace=True)
    st2 = SystemState.build(spec, pair, lifted, pair.under[1])
    g_lift, _ = st2.frozen
    assert not np.allclose(g_lift.values, g_floor.values)


def test_barrier_input_maps_into_box():
    m, spec, cal = setup_positive(256)
    pair = cal.pair
    st = SystemState.build(spec, pair, pair.under[0], pair.under[1])
    u1, u2 = apply_map(st)
    tol = 1e-8
    for i, u in ((0, u1), (1, u2)):
        assert np.all(u.values >= pair.under[i].values - tol)
        assert np.all(u.values <= pair.over[i].values + tol)


def test_membership_check_boundary_cases():
    m, spec, cal = setup_positive(128)
    pair = cal.pair
    st = SystemState.build(spec, pair, pair.under[0], pair.under[1])
    assert membership_check(st.extremes(), pair) == (True, True)
    big = GridFunction(m, 2.0 * pair.over[0].values, zero_trace=True)
    st2 = SystemState.build(spec, pair, big, pair.under[1])
    assert not membership_check(st2.extremes(), pair)[0]
    # an excess over ``over`` counts only beyond the mixed slack
    tol = slack(float(np.abs(pair.over[0].values).max()))
    for excess, ok in ((0.5 * tol, True), (2.0 * tol, False)):
        ext = st.extremes()
        ext[0] = (ext[0][0], excess, ext[0][2])
        assert membership_check(ext, pair)[0] is ok


def test_benchmark_iteration_converges():
    m, spec, cal = setup_positive(256)
    state, rep = fixed_point_iterate(spec, cal.pair)
    assert rep.converged
    assert rep.residuals[-1] <= 1e-6
    assert all(rep.membership_trace)
    assert all(rep.grad_cap_trace)
    r1, r2 = coupled_residual(SystemState.build(spec, cal.pair, *state.z))
    assert max(r1, r2) <= 1e-6
    # the returned state is the last iterate: its residuals are the stop test's
    assert state.residuals == (r1, r2) and max(r1, r2) == rep.residuals[-1]


def test_barrier_scale_decides_membership():
    # benchmark.json at n=128: at C=1.05 the map output escapes the box
    # and the iteration cannot settle; at C=2.0 every iterate is a member
    with open(config_path("benchmark.json")) as f:
        cfg = parse_config(f.read(), mesh_n=128)
    spec = cfg.problem
    opts = dataclasses.replace(cfg.iteration, max_iters=80)
    delta, xi, xid = resolve_delta(spec, cfg.solver)
    reports = {}
    for C in (1.05, 2.0):
        pair = build_barriers(spec, C, delta, (xi, xid))
        _, reports[C] = fixed_point_iterate(spec, pair, opts=opts,
                                            solver_opts=cfg.solver)
    assert False in reports[1.05].membership_trace and not reports[1.05].converged
    assert all(reports[2.0].membership_trace) and reports[2.0].converged


def test_monotone_iteration_from_subsolution(monkeypatch):
    # cooperative spec with pure lower-envelope data: damped iterates
    # started at the subsolution are nodewise nondecreasing
    from varpx import sysfix
    m, spec, cal = setup_positive(128, lambda mm: envelope_spec(mm, 0.3, 0.3))
    mapped = _record_map(monkeypatch, sysfix)
    state, rep = fixed_point_iterate(spec, cal.pair)
    assert rep.converged and len(mapped) == rep.iters
    iterates = [z[0].values for z, _ in mapped] + [state.z[0].values]
    assert np.array_equal(iterates[0], cal.pair.under[0].values)
    for prev, v1 in zip(iterates, iterates[1:]):
        assert np.all(v1 >= prev - 1e-12)


def test_invariance_random_members():
    m, spec, cal = setup_positive(256)
    pair = cal.pair
    rng = np.random.default_rng(10)
    tol = 1e-7
    for _ in range(30):
        lam = rng.uniform(0.0, 1.0)
        z = []
        for i in (0, 1):
            mix = (lam * pair.under[i].values + (1 - lam) * pair.over[i].values)
            noise = rng.normal(0.0, 0.05, size=m.n_nodes) * m.distance
            v = np.clip(mix + noise, pair.under[i].values, pair.over[i].values)
            v[m.boundary_nodes] = 0.0
            z.append(GridFunction(m, v, zero_trace=True))
        st = SystemState.build(spec, pair, z[0], z[1])
        u1, u2 = apply_map(st)
        out = SystemState.build(spec, pair, u1, u2)
        box_ok, grad_ok = membership_check(out.extremes(), pair)
        assert box_ok and grad_ok, "image left the invariant set"


@pytest.fixture(scope="module")
def calibrated():
    """(mesh, spec, calibration) of the positive and the singular spec on
    an interval and on a square."""
    meshes = {1: build_mesh(DomainSpec.interval(0.0, 1.0), 32),
              2: build_mesh(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 12)}
    return {(dim, fn.__name__): (m, fn(m), calibrate_barriers(fn(m)))
            for dim, m in meshes.items() for fn in (benchmark_spec, singular_spec)}


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]),
       name=st.sampled_from(["benchmark_spec", "singular_spec"]),
       theta=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_clamped_step_stays_in_box_property(calibrated, dim, name, theta, seed):
    """One clamped damped step from a random state inside the barrier box
    lands in [under, over] nodewise, and so does the raw map output up to
    the membership slack; the singular regime clamps below only."""
    m, spec, cal = calibrated[dim, name]
    pair = cal.pair
    rng = np.random.default_rng(seed)
    z = [GridFunction(m, lo.values + rng.random(m.n_nodes) * (hi.values - lo.values),
                      zero_trace=True) for lo, hi in zip(pair.under, pair.over)]
    state, rep = fixed_point_iterate(
        spec, pair, init=tuple(z),
        opts=IterationOptions(theta=theta, max_iters=1))
    v1, v2 = state.z
    assert rep.iters == 1
    for i, v in ((0, v1), (1, v2)):
        assert np.all(v.values >= pair.under[i].values)
    if spec.hypotheses.regime is Regime.POSITIVE_SUM:
        assert all(np.all(v.values <= pair.over[i].values) for i, v in enumerate((v1, v2)))
        # the raw map output sits in the box too, up to the membership slack
        assert rep.box_trace == [True]


def test_singular_regime_full_loop():
    m, spec, cal = setup_singular(128)
    caps = calibrate_caps(spec, cal.pair)
    assert caps.L > 1.0 and caps.L_tilde > 0.0
    sol, rep = caps.solution.z, caps.report
    assert rep.converged
    assert all(rep.membership_trace)
    assert np.all(sol[0].values[m.interior_nodes] > 0)


def test_calibrate_caps_rejects_a_positive_sum_spec():
    # the caps belong to the negative-sum regime, and the spec decides its
    # regime: the benchmark spec has no caps to search for
    m, spec, cal = setup_positive(64)
    assert spec.hypotheses.regime is Regime.POSITIVE_SUM
    with pytest.raises(ValueError, match="negative-sum"):
        calibrate_caps(spec, cal.pair)


def test_negative_sum_membership_needs_caps():
    m, spec, cal = setup_singular()
    st = SystemState.build(spec, cal.pair, cal.pair.under[0], cal.pair.under[1])
    assert membership_check(st.extremes(), cal.pair, (4.0, 4.0)) == (True, True)


def test_trace_report_roundtrip():
    m, spec, cal = setup_positive(128)
    _, rep = fixed_point_iterate(spec, cal.pair)
    d = rep.as_dict()
    assert d["iters"] == rep.iters
    assert len(d["step_norms"]) == rep.iters
    assert len(d["residuals"]) == rep.iters
    assert d["converged"] is True


def _record_map(monkeypatch, sysfix):
    """(input fields, output fields) of every map application."""
    mapped = []
    orig = sysfix.apply_map

    def recorded(state, *args, **kwargs):
        out = orig(state, *args, **kwargs)
        mapped.append((state.z, out))
        return out

    monkeypatch.setattr(sysfix, "apply_map", recorded)
    return mapped


def test_pipeline_maps_once_per_cap_search(monkeypatch):
    from varpx import cli, sysfix
    from conftest import config_path
    with open(config_path("singular.json")) as f:
        cfg = cli.parse_config(f.read(), mesh_n=64)
    searches = []
    orig_caps = sysfix.calibrate_caps

    def recorded(*args, **kwargs):
        searches.append(orig_caps(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(sysfix, "calibrate_caps", recorded)
    maps = count_calls(monkeypatch, sysfix, "apply_map")
    state, report = cli.run_pipeline(cfg)
    assert report is searches[-1].report and state is searches[-1].solution
    assert len(maps) == sum(s.report.iters for s in searches)


def test_positive_regime_iteration_runs_no_luxemburg_bisection(monkeypatch):
    from varpx import expspace
    m, spec, cal = setup_positive(64)
    bisections = count_calls(monkeypatch, expspace, "luxemburg_norm_from_samples")
    _, rep = fixed_point_iterate(spec, cal.pair)
    assert rep.converged and bisections == []


@pytest.mark.parametrize("singular", [False, True])
def test_frozen_data_evaluated_once_per_iterate(monkeypatch, singular):
    from varpx import barriers, sysfix
    m, spec, cal = setup_singular() if singular else setup_positive(64)
    evals = count_calls(monkeypatch, barriers, "frozen_rhs_quad")
    state, rep = fixed_point_iterate(spec, cal.pair)
    assert rep.iters > 1
    assert len(evals) == rep.iters + 1
    # the final state carries what its stop test evaluated
    residuals = count_calls(monkeypatch, sysfix, "coupled_residual")
    state.frozen, state.residuals
    assert len(evals) == rep.iters + 1 and residuals == []


@pytest.mark.parametrize("singular", [False, True])
def test_state_takes_each_gradient_norm_once(monkeypatch, singular):
    # the frozen data, the membership extremes and the Luxemburg gradient
    # norms all read the fields' own grad_norm, which each field computes once
    from varpx import grid
    m, spec, cal = setup_singular() if singular else setup_positive(64)
    calls = count_calls(monkeypatch, grid, "gradient")
    z = [GridFunction(m, u.values, zero_trace=True) for u in cal.pair.over]
    state = SystemState.build(spec, cal.pair, *z)
    state.frozen, state.extremes(), state.grad_lux_norm, state.extremes()
    assert len(calls) == 2
    assert all(zi.grad_norm is zi.grad_norm for zi in z)


def test_singular_iterate_computes_each_field_gradient_once(monkeypatch):
    # outside the scalar solves, cell gradients are taken once per field:
    # everything that reads a clamped iterate shares the ones it carries
    import sys
    from varpx import grid, plaplace
    m, spec, cal = setup_singular()
    orig = grid.cell_gradients
    in_solve = []

    def recorded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not plaplace.solve_dirichlet.__code__:
            frame = frame.f_back
        in_solve.append(frame is not None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(grid, "cell_gradients", recorded)
    _, rep = fixed_point_iterate(spec, cal.pair)
    outside = [c for c in in_solve if not c]
    # two fields each: the start, then per iteration the clamped iterate
    # (cap norms, frozen data, residual, the next map's Newton start); a
    # map output carries the gradients its solve took at it (membership)
    assert rep.iters > 1
    assert len(outside) == 2 * (1 + rep.iters)


def test_cap_search_reads_caps_off_one_run(monkeypatch):
    from varpx import expspace, sysfix
    m, spec, cal = setup_singular(128)
    mapped = _record_map(monkeypatch, sysfix)
    bisections = count_calls(monkeypatch, expspace, "luxemburg_norm_from_samples")
    caps = calibrate_caps(spec, cal.pair)
    rep = caps.report
    # the initial state, then per iteration the raw map output (membership)
    # and the clamped iterate (the cap rule); the components agree bit for
    # bit, so each state takes one norm for both
    assert len(bisections) == 2 * rep.iters + 1
    assert rep.caps == (caps.L, caps.L_tilde) and "caps" not in rep.as_dict()
    assert caps.pilot_iters == rep.iters == len(mapped) and rep.converged
    clamped = [z for z, _ in mapped] + [caps.solution.z]
    sup = max(float(np.abs(z.values).max()) for zs in clamped for z in zs)
    assert caps.L >= 1.05 * sup and (caps.L == 2.0 or caps.L < 2.1 * sup)
    lux = max(max(SystemState.build(spec, cal.pair, *zs).grad_lux_norm)
              for zs in clamped)
    assert caps.L_tilde >= 1.05 * lux and (caps.L_tilde == 1.0 or caps.L_tilde < 2.1 * lux)
    for (u1, u2), member in zip((out for _, out in mapped), rep.membership_trace):
        st = SystemState.build(spec, cal.pair, u1, u2)
        assert all(membership_check(st.extremes(), cal.pair,
                                    (caps.L, caps.L_tilde))) == member
