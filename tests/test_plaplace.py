import dataclasses
import re
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from varpx import (DomainSpec, ExponentField, GridFunction, SolverOptions,
                   build_barriers, build_mesh, grid, plaplace, solve_dirichlet,
                   sysfix, torsion, torsion_delta, verify, weak_residual)
from varpx.errors import DeltaTooLargeError, MeshCompatibilityError, SolveError
from varpx.verify import random_lipschitz_field

from conftest import count_calls, point_tables


def mesh1d(n):
    return build_mesh(DomainSpec.interval(0.0, 1.0), n)


def const_p_torsion_exact(x, p):
    """-(|u'|^(p-2) u')' = 1 on (0,1), zero trace:
    u = (p-1)/p * [(1/2)^(p/(p-1)) - |x-1/2|^(p/(p-1))]."""
    q = p / (p - 1.0)
    return (p - 1.0) / p * (0.5 ** q - np.abs(x - 0.5) ** q)


def strip_torsion_exact(x, delta):
    """p=2 with data -1 on {d < delta}, +1 elsewhere; symmetric piecewise
    quadratic obtained by integrating the ODE twice."""
    x = np.asarray(x, dtype=float)
    xm = np.minimum(x, 1.0 - x)
    u_near = xm ** 2 / 2 + (0.5 - 2 * delta) * xm
    u_delta = delta ** 2 / 2 + (0.5 - 2 * delta) * delta
    u_far = u_delta + 0.5 * (xm - delta) - (xm ** 2 - delta ** 2) / 2
    return np.where(xm <= delta, u_near, u_far)


def test_linear_poisson_exact():
    m = mesh1d(64)
    res = solve_dirichlet(ExponentField.constant(m, 2.0),
                          GridFunction.constant(m, 1.0))
    x = m.nodes[:, 0]
    assert res.converged
    np.testing.assert_allclose(res.u.values, x * (1 - x) / 2, atol=1e-12)
    assert np.abs(res.u.values).max() == pytest.approx(0.125, abs=1e-12)


def test_p3_torsion_closed_form():
    m = mesh1d(512)
    res = solve_dirichlet(ExponentField.constant(m, 3.0),
                          GridFunction.constant(m, 1.0))
    exact = const_p_torsion_exact(m.nodes[:, 0], 3.0)
    assert res.converged
    assert np.abs(res.u.values - exact).max() < 2e-5
    assert np.abs(res.u.values).max() == pytest.approx((2 / 3) * 0.5 ** 1.5,
                                                       abs=1e-4)


def test_zero_data_gives_zero():
    m = mesh1d(32)
    res = solve_dirichlet(ExponentField.constant(m, 2.0),
                          GridFunction.constant(m, 0.0))
    np.testing.assert_allclose(res.u.values, 0.0, atol=1e-14)


def test_torsion_positive_interior():
    m = mesh1d(128)
    for pc in (2.0, 3.0, 1.6):
        xi = torsion(ExponentField.constant(m, pc)).u
        assert np.all(xi.values[m.interior_nodes] > 0)
        assert np.all(xi.values[m.boundary_nodes] == 0)


def test_variable_exponent_solve_converges():
    m = mesh1d(256)
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    res = solve_dirichlet(p, GridFunction.constant(m, 1.0))
    assert res.converged and res.residual < 1e-8
    assert np.all(res.u.values[m.interior_nodes] > 0)


def test_torsion_delta_matches_piecewise_oracle():
    # the nodal +-1 data ramps across one cell at the strip edge, so the
    # discrete solution differs from the sharp-jump oracle at O(h) scale
    # with an alignment-dependent constant
    delta = 0.1
    errs = {}
    for n in (128, 1024):
        m = mesh1d(n)
        p = ExponentField.constant(m, 2.0)
        xd = torsion_delta(p, delta, xi=torsion(p).u)
        errs[n] = np.abs(xd.values - strip_torsion_exact(m.nodes[:, 0], delta)).max()
        assert errs[n] < 0.1 * m.h
    assert errs[1024] < errs[128]


def test_torsion_delta_below_torsion_and_positive():
    m = mesh1d(256)
    p = ExponentField.constant(m, 2.0)
    xi = torsion(p).u
    xd = torsion_delta(p, 0.05, xi=xi)
    assert np.all(xd.values <= xi.values + 1e-10)
    ii = m.interior_nodes
    c0 = (xd.values[ii] / m.distance[ii]).min()
    assert c0 > 0


def test_torsion_delta_rejects_large_delta():
    m = mesh1d(128)
    p = ExponentField.constant(m, 2.0)
    with pytest.raises(DeltaTooLargeError):
        torsion_delta(p, 0.4, xi=torsion(p).u)


def test_torsion_delta_converges_to_torsion():
    m = mesh1d(512)
    p = ExponentField.constant(m, 2.0)
    xi = torsion(p).u
    gaps = []
    for delta in (0.2, 0.1, 0.05):
        xd = torsion_delta(p, delta, xi=xi)
        gaps.append(np.abs(xd.values - xi.values).max())
    assert gaps[0] > gaps[1] > gaps[2]


def test_weak_residual_contract():
    m = mesh1d(64)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    assert weak_residual(p, res.u, h) < 1e-12
    # u = 0 against h = 1: max_j int(hat_j) / (int|h| + 1) = h_cell / 2
    zero = GridFunction.constant(m, 0.0)
    assert weak_residual(p, zero, h) == pytest.approx(m.h / 2.0, rel=1e-12)
    # perturbing the solution strictly increases the residual
    pert = res.u.values.copy()
    pert[m.n_nodes // 2] += 0.1
    assert weak_residual(p, GridFunction(m, pert), h) > 1e-3


def test_weak_residual_rejects_a_field_on_another_mesh():
    # same node count, other domain: the values alone would fit
    m = mesh1d(32)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, 1.0)
    u = solve_dirichlet(p, h).u
    foreign = GridFunction(build_mesh(DomainSpec.interval(0.0, 2.0), 32), u.values,
                           zero_trace=True)
    with pytest.raises(MeshCompatibilityError):
        weak_residual(p, foreign, h)


def test_energy_decreases_along_newton():
    m = mesh1d(128)
    p = ExponentField.from_callable(m, lambda x: 2.5 + 0.4 * np.sin(4 * x))
    res = solve_dirichlet(p, GridFunction.constant(m, 3.0))
    diffs = np.diff(res.energies)
    assert np.all(diffs <= 1e-13 * (1 + np.abs(res.energies[0])))


def test_weak_comparison_principle():
    m = mesh1d(128)
    rng = np.random.default_rng(8)
    for pfun in (lambda x: 2 + 0 * x, lambda x: 2 + x, lambda x: 3 + 0 * x):
        p = ExponentField.from_callable(m, pfun)
        for _ in range(3):
            h1 = random_lipschitz_field(m, rng, 0.0, 1.0)
            h2 = GridFunction(m, h1.values + rng.uniform(0.0, 1.0))
            u1 = solve_dirichlet(p, h1).u.values
            u2 = solve_dirichlet(p, h2).u.values
            assert np.all(u1 <= u2 + 1e-9)


def test_constant_p_scaling_homogeneity():
    m = mesh1d(128)
    p = ExponentField.constant(m, 3.0)
    h = GridFunction.constant(m, 1.0)
    base = solve_dirichlet(p, h).u.values
    for lam in (0.1, 2.0, 100.0):
        got = solve_dirichlet(p, GridFunction.constant(m, lam)).u.values
        np.testing.assert_allclose(got, lam ** 0.5 * base, rtol=1e-6, atol=1e-12)


def test_positivity_random_nonnegative_data():
    m = mesh1d(64)
    rng = np.random.default_rng(9)
    p = ExponentField.from_callable(m, lambda x: 2 + x / 2)
    for _ in range(5):
        h = random_lipschitz_field(m, rng, 0.0, 2.0)
        u = solve_dirichlet(p, h).u.values
        assert np.all(u[m.interior_nodes] > 0)


def test_mesh_convergence_order():
    errs = {2.0: [], 3.0: []}
    for n in (128, 256, 512):
        m = mesh1d(n)
        for pc in (2.0, 3.0):
            u = torsion(ExponentField.constant(m, pc)).u.values
            exact = const_p_torsion_exact(m.nodes[:, 0], pc)
            errs[pc].append(np.abs(u - exact).max())
    # p=2 is nodally exact; p=3 must refine at order >= 1
    assert max(errs[2.0]) < 1e-10
    orders = np.log2(np.array(errs[3.0][:-1]) / np.array(errs[3.0][1:]))
    assert np.all(orders >= 1.0)


@pytest.mark.parametrize("pc", [
    2.0, 1.7, 2.5, 4.0,
    pytest.param(1.5, marks=pytest.mark.xfail(
        raises=SolveError, reason="the torsion solve stalls at p = 1.5 (ROADMAP item 7)")),
], ids=lambda pc: f"p{pc}")
def test_constant_p_torsion_converges_to_the_exact_solution(pc):
    # relative max nodal error against the closed form; P1 is nodally
    # exact at p = 2, and otherwise refines at min(2, 1 + 1/(p-1)), the
    # regularity of u at its ridge x = 1/2
    errs = []
    for n in (64, 128, 256, 512):
        m = mesh1d(n)
        exact = const_p_torsion_exact(m.nodes[:, 0], pc)
        u = torsion(ExponentField.constant(m, pc)).u.values
        errs.append(np.abs(u - exact).max() / np.abs(exact).max())
    if pc == 2.0:
        assert max(errs) <= 1e-12
        return
    assert np.all(np.diff(errs) < 0)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - min(2.0, 1.0 + 1.0 / (pc - 1.0))) <= 0.1), orders


def test_square_torsion_series_oracle():
    m = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 32)
    xi = torsion(ExponentField.constant(m, 2.0)).u

    def series(x, y, terms=41):
        s = 0.0
        for k in range(1, terms, 2):
            s += (4 / (k ** 3 * np.pi ** 3) * np.sin(k * np.pi * x)
                  * (1 - np.cosh(k * np.pi * (y - 0.5)) / np.cosh(k * np.pi / 2)))
        return s

    c = np.argmin(np.abs(m.nodes[:, 0] - 0.5) + np.abs(m.nodes[:, 1] - 0.5))
    assert xi.values[c] == pytest.approx(series(0.5, 0.5), abs=1e-3)
    assert np.all(xi.values[m.interior_nodes] > 0)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(eps_reg=0.0)


def test_quad_valued_singular_rhs():
    m = mesh1d(256)
    p = ExponentField.constant(m, 2.0)
    from varpx.grid import QuadField
    hq = QuadField(m, m.domain.distance(m.qpoints[:, 0]) ** -0.3)
    res = solve_dirichlet(p, hq)
    assert res.converged
    assert np.all(res.u.values[m.interior_nodes] > 0)


def test_newton_iters_zero_when_poisson_start_is_exact():
    m = mesh1d(64)
    res = solve_dirichlet(ExponentField.constant(m, 2.0),
                          GridFunction.constant(m, 1.0))
    assert res.converged
    assert res.newton_iters == 0
    assert len(res.energies) == 1


def test_start_at_converged_output_takes_no_newton_step():
    m = mesh1d(512)
    p, h = ExponentField.constant(m, 3.0), GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    assert res.converged and res.newton_iters > 0
    again = solve_dirichlet(p, h, start=res.u)
    assert again.converged and again.newton_iters == 0
    assert np.array_equal(again.u.values, res.u.values)


def test_start_on_another_mesh_rejected():
    m = mesh1d(32)
    with pytest.raises(MeshCompatibilityError):
        solve_dirichlet(ExponentField.constant(m, 2.0), GridFunction.constant(m, 1.0),
                        start=GridFunction.constant(mesh1d(32), 0.0))


def test_start_without_zero_trace_rejected():
    # every Newton iterate is a zero-trace field, the start included
    m = mesh1d(32)
    with pytest.raises(ValueError, match="zero-trace"):
        solve_dirichlet(ExponentField.constant(m, 2.0), GridFunction.constant(m, 1.0),
                        start=GridFunction(m, m.distance.copy()))


def test_newton_iters_counts_solved_systems():
    m = mesh1d(512)
    opts = SolverOptions()
    res = solve_dirichlet(ExponentField.constant(m, 3.0),
                          GridFunction.constant(m, 1.0), opts)
    assert res.converged
    assert 0 < res.newton_iters <= opts.max_newton // 4
    # every step taken was accepted by the line search
    assert res.newton_iters == len(res.energies) - 1


def test_max_newton_caps_steps():
    m = mesh1d(128)
    res = solve_dirichlet(ExponentField.constant(m, 3.0),
                          GridFunction.constant(m, 1.0),
                          SolverOptions(max_newton=2))
    assert res.newton_iters == 2
    assert not res.converged


def test_one_linearization_per_newton_step(monkeypatch):
    # each step's residual and Hessian come from one _linearize call;
    # only the reported residual applies the unregularized operator
    applied = count_calls(monkeypatch, plaplace, "apply_operator")
    linearized = count_calls(monkeypatch, plaplace, "_linearize")
    m = mesh1d(128)
    opts = SolverOptions()
    res = solve_dirichlet(ExponentField.constant(m, 3.0),
                          GridFunction.constant(m, 1.0), opts)
    # every step accepted and fewer than max_newton: the forcing test stopped it
    assert res.converged and res.newton_iters < opts.max_newton
    assert len(res.energies) == res.newton_iters + 1
    assert (len(applied), len(linearized)) == (1, res.newton_iters + 1)


def test_each_iterate_gradient_taken_once(monkeypatch):
    # a solve takes the cell gradients of each iterate it evaluates once:
    # the start and every trial of the line search, whose accepted one
    # feeds the next linearization; the reported residual and the result
    # reuse the last.  A zero-trace start brings its own.
    m = mesh1d(128)
    p = ExponentField.constant(m, 3.0)
    one = GridFunction.constant(m, 1.0)
    taken = count_calls(monkeypatch, grid, "cell_gradients")
    res = solve_dirichlet(p, one)
    # every step accepted at the full step, so no trial was rejected
    assert res.converged and len(res.energies) == res.newton_iters + 1
    assert len(taken) == len(res.energies)
    res.u.grad
    weak_residual(p, res.u, one)
    assert len(taken) == len(res.energies)

    start = GridFunction(m, 1.01 * res.u.values, zero_trace=True)
    start.grad
    taken.clear()
    warm = solve_dirichlet(p, one, start=start)
    assert warm.newton_iters >= 1 and len(warm.energies) == warm.newton_iters + 1
    assert len(taken) == warm.newton_iters


def test_exponent_quadrature_values_evaluated_once(monkeypatch):
    m = build_mesh(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 8)
    p = ExponentField.from_callable(m, lambda x, y: 2.0 + x * y)
    evaluated = []
    real = grid.at_quad
    monkeypatch.setattr(grid, "at_quad", lambda mesh, vals: (
        evaluated.append(vals is p.values) or real(mesh, vals)))
    pq = p.at_quad()
    one = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, one)
    weak_residual(p, res.u, one)
    assert p.at_quad() is pq and not pq.flags.writeable
    assert evaluated.count(True) == 1


def test_large_exponent_torsion_stalls_without_overflow_warnings():
    # at p = 12 a trial step's energy overflows; it is rejected like a
    # failed Armijo test, so the solve stalls at the floor p = 8 stalls at
    p = ExponentField.constant(mesh1d(512), 12.0)
    with pytest.raises(SolveError, match=r"^torsion solve stalled at residual 9\.766e-04$"):
        torsion(p)


def test_non_finite_start_energy_raises_solve_error():
    # |grad u|^2 ~ 1e60 is finite, its power p/2 = 6 is not
    m = mesh1d(16)
    start = GridFunction(m, np.where(m.distance > 0, 1e29, 0.0), zero_trace=True)
    with pytest.raises(SolveError, match="energy of the Newton start is non-finite"):
        solve_dirichlet(ExponentField.constant(m, 12.0), GridFunction.constant(m, 1.0),
                        start=start)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_hessian_raises_solve_error(monkeypatch, bad):
    # the banded factorization skips its own finiteness checks; a
    # non-finite Hessian must still end the solve with SolveError
    linearize = plaplace._linearize
    monkeypatch.setattr(plaplace, "_linearize", lambda mesh, lay, *args: (
        linearize(mesh, lay, *args)[0], lambda band: np.full(lay.size, bad)))
    m = mesh1d(64)
    with pytest.raises(plaplace.SolveError):
        solve_dirichlet(ExponentField.constant(m, 3.0),
                        GridFunction.constant(m, 1.0))


@pytest.mark.parametrize("site, name", [
    ("torsion", "torsion solve"),
    ("strip", "strip solve"),
    ("map", "component 1 solve"),
    ("audit", "audit solve at scale 0.01"),
    ("mvt", "mean-value sampling solve"),
], ids=["torsion", "strip", "map", "audit", "mvt"])
def test_unconverged_solve_raises_naming_its_site(monkeypatch, site, name):
    # every caller that needs a converged scalar solve checks it through
    # ScalarSolveResult.checked, whose SolveError names the caller
    from conftest import torsion_pairs, trivial_spec
    m = mesh1d(32)
    spec = trivial_spec(m)
    p = spec.p[0]
    xi = torsion(p)
    pair = build_barriers(spec, 2.0, 0.1, torsion_pairs(m, spec, 0.1))
    one = GridFunction.constant(m, 1.0)
    calls = {
        "torsion": lambda: torsion(p),
        "strip": lambda: torsion_delta(p, 0.1, xi.u),
        "map": lambda: sysfix.apply_map(sysfix.SystemState.build(spec, pair, *pair.under)),
        "audit": lambda: verify.ScaleFamily(p, xi).solves,
        "mvt": lambda: verify.mvt_sampling(spec.p, np.random.default_rng(0),
                                           [plaplace.solve_dirichlet(q, one) for q in spec.p]),
    }
    solve = plaplace.solve_dirichlet
    monkeypatch.setattr(plaplace, "solve_dirichlet", lambda *args, **kwargs:
                        dataclasses.replace(solve(*args, **kwargs), converged=False))
    with pytest.raises(SolveError, match=rf"^{re.escape(name)} stalled at residual "):
        calls[site]()


# Plain per-quadrature-point COO assembly: the reference the cached
# per-mesh layout must reproduce.

def _coo_scatter(mesh, local):
    conn = point_tables(mesh)[2]
    k = conn.shape[1]
    rows = np.repeat(conn, k, axis=1).ravel()
    cols = np.tile(conn, (1, k)).ravel()
    H = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    ii = mesh.interior_nodes
    return H[ii][:, ii].toarray()


def _reference_hessian(mesh, p, u, eps):
    pq = p.at_quad()
    qcells = point_tables(mesh)[0]
    gq = grid.cell_gradients(mesh, u)[qcells]
    base = (gq ** 2).sum(axis=1) + eps * eps
    aa = np.power(base, (pq - 2.0) / 2.0)
    bb = (pq - 2.0) * np.power(base, (pq - 4.0) / 2.0)
    gb = mesh.grad_basis[qcells]
    gdot = np.einsum("qd,qkd->qk", gq, gb)
    dots = np.einsum("qkd,qld->qkl", gb, gb)
    local = (aa[:, None, None] * dots
             + bb[:, None, None] * gdot[:, :, None] * gdot[:, None, :])
    return _coo_scatter(mesh, local * mesh.qweights[:, None, None])


def _reference_operator(mesh, p, u, eps):
    pq = p.at_quad()
    qcells, _, qconn = point_tables(mesh)
    gq = grid.cell_gradients(mesh, u)[qcells]
    g2 = (gq ** 2).sum(axis=1)
    coeff = np.power(g2 + eps * eps, (pq - 2.0) / 2.0)
    gb = mesh.grad_basis[qcells]
    contrib = np.einsum("qd,qkd->qk", coeff[:, None] * gq, gb)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, qconn, contrib * mesh.qweights[:, None])
    return out


def _layout_matrix(lay, data):
    """Dense symmetric matrix from the upper band ab[bw + i - j, j]."""
    ab = lay.band(data)
    H = np.zeros((lay.m, lay.m))
    for d in range(lay.bw + 1):  # d = j - i, the superdiagonal
        # the first d entries of row bw - d lie outside the matrix
        assert not ab[lay.bw - d, :d].any()
        if d < lay.m:
            H += np.diag(ab[lay.bw - d, d:], d)
            if d:
                H += np.diag(ab[lay.bw - d, d:], -d)
    return H


_CASE_IDS = ["1d_p_above_2", "1d_p_below_2", "2d", "2d_p_below_2"]


def _variable_cases():
    rng = np.random.default_rng(3)
    m1 = mesh1d(40)
    x = m1.nodes[:, 0]
    u1 = np.sin(np.pi * x) + 0.05 * rng.normal(size=m1.n_nodes)
    u1[m1.boundary_nodes] = 0.0
    m2 = build_mesh(DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 7)
    x, y = m2.nodes[:, 0], m2.nodes[:, 1]
    u2 = x * (1 - x) * y * (2 - y) + 0.02 * rng.normal(size=m2.n_nodes)
    u2[m2.boundary_nodes] = 0.0
    return [
        (m1, ExponentField.from_callable(m1, lambda x: 2.5 + 0.4 * np.sin(4 * x)), u1),
        (m1, ExponentField.from_callable(m1, lambda x: 1.6 + 0.5 * x), u1),
        (m2, ExponentField.from_callable(m2, lambda x, y: 2.2 + 0.5 * x + 0.3 * y), u2),
        (m2, ExponentField.from_callable(m2, lambda x, y: 1.4 + 0.3 * x + 0.1 * y), u2),
    ]


def _linearized(mesh, p, u, eps):
    """(operator values, Hessian band data) of the regularized problem at
    the zero-trace field of the nodal values ``u``."""
    lay = plaplace._layout(mesh)
    uf = GridFunction(mesh, u, zero_trace=True)
    pw = plaplace._Powers(p, lay.q_per_cell)
    values, hessian = plaplace._linearize(mesh, lay, pw, uf,
                                          plaplace._regularized(lay, uf, eps))
    return values, hessian(np.empty(lay.size))


@pytest.mark.parametrize("case", range(len(_CASE_IDS)), ids=_CASE_IDS)
def test_layout_hessian_matches_coo_reference(case):
    mesh, p, u = _variable_cases()[case]
    eps = 1e-3
    lay = plaplace._layout(mesh)
    data = _linearized(mesh, p, u, eps)[1]
    got = _layout_matrix(lay, data)
    ref = _reference_hessian(mesh, p, u, eps)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    rhs = np.linspace(-1.0, 1.0, lay.m)
    np.testing.assert_allclose(lay.factor(data)(rhs), np.linalg.solve(ref, rhs),
                               rtol=1e-9, atol=1e-12)


def _random_domain(dim, width, aspect, tall):
    """An interval, or a rectangle that is not a square."""
    if dim == 1:
        return DomainSpec.interval(-width, width * aspect)
    other = width * aspect
    return (DomainSpec.rectangle(0.0, width, 0.0, other) if tall
            else DomainSpec.rectangle(0.0, other, 0.0, width))


_MESHES = dict(dim=st.sampled_from([1, 2]), n=st.integers(2, 12),
               width=st.floats(0.2, 3.0), aspect=st.floats(1.1, 4.0),
               tall=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(**_MESHES)
def test_layout_band_property(dim, n, width, aspect, tall, seed):
    """On random meshes, variable exponents and zero-trace fields the
    banded layout holds the COO reference Hessian and its factor solves
    that matrix."""
    mesh = build_mesh(_random_domain(dim, width, aspect, tall), n)
    rng = np.random.default_rng(seed)
    p = ExponentField(mesh, rng.uniform(1.3, 3.5, mesh.n_nodes))
    u = rng.normal(size=mesh.n_nodes)
    u[mesh.boundary_nodes] = 0.0
    eps = 1e-3
    lay = plaplace._layout(mesh)
    assert lay.bw == (n if dim == 2 else 1)
    data = _linearized(mesh, p, u, eps)[1]
    H = _layout_matrix(lay, data)
    ref = _reference_hessian(mesh, p, u, eps)
    np.testing.assert_allclose(H, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    rhs = rng.normal(size=lay.m)
    x = lay.factor(data)(rhs)
    backward = np.abs(ref @ x - rhs).max()
    assert backward <= 1e-10 * (np.abs(ref).sum(axis=1).max() * np.abs(x).max()
                                + np.abs(rhs).max())


def _dense_band_reference(mesh, A, B, gdot):
    """The band data the flat kernels replace: full (cell, k, l) element
    matrices A dots + B gdot gdot^T, scattered into the row-major band
    ab[bw + i - j, j] with one bincount, as a (bw + 1, m) array."""
    lay = plaplace._layout(mesh)
    nc, k = mesh.cells.shape
    pos = np.full(mesh.n_nodes, -1)
    pos[mesh.interior_nodes] = np.arange(lay.m)
    rows = np.broadcast_to(pos[mesh.cells][:, :, None], (nc, k, k)).ravel()
    cols = np.broadcast_to(pos[mesh.cells][:, None, :], (nc, k, k)).ravel()
    keep = (rows >= 0) & (rows <= cols)
    dots = np.einsum("ckd,cld->ckl", mesh.grad_basis, mesh.grad_basis)
    local = (A[:, None, None] * dots
             + B[:, None, None] * gdot[:, :, None] * gdot[:, None, :])
    slot = (lay.bw + rows[keep] - cols[keep]) * lay.m + cols[keep]
    return np.bincount(slot, weights=local.ravel()[keep],
                       minlength=lay.size).reshape(lay.bw + 1, lay.m)


@settings(max_examples=60, deadline=None)
@given(**_MESHES)
def test_kernels_equal_their_references_bitwise(dim, n, width, aspect, tall, seed):
    """On random meshes, fields and exponents every flat per-mesh kernel
    equals with == the einsum, reshape-sum or full-element-matrix
    computation it replaced: cell gradients, quadrature interpolation,
    load vectors, basis projections, per-cell sums, and the Hessian band
    data, which sits in LAPACK's column-major band order."""
    mesh = build_mesh(_random_domain(dim, width, aspect, tall), n)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=mesh.n_nodes)
    u[mesh.boundary_nodes] = 0.0
    p = ExponentField(mesh, rng.uniform(1.3, 3.5, mesh.n_nodes))
    lay = plaplace._layout(mesh)
    q = lay.q_per_cell

    uf = GridFunction(mesh, u, zero_trace=True)
    g = grid.cell_gradients(mesh, u)
    assert np.array_equal(g, np.einsum("ckd,ck->cd", mesh.grad_basis, u[mesh.cells]))
    assert np.array_equal(uf.grad, g)
    _, qbasis, qconn = point_tables(mesh)
    assert np.array_equal(grid.at_quad(mesh, u), np.einsum("qk,qk->q", qbasis, u[qconn]))
    hq = rng.normal(size=mesh.qweights.size)
    assert np.array_equal(grid._load(mesh, hq), np.bincount(
        qconn.ravel(), weights=((mesh.qweights * hq)[:, None] * qbasis).ravel(),
        minlength=mesh.n_nodes))
    gdot = np.einsum("cd,ckd->ck", g, mesh.grad_basis)
    assert np.array_equal(uf.projections, gdot)
    w = rng.uniform(0.0, 2.0, mesh.qweights.size)
    assert np.array_equal(lay.cell_sum(w), w.reshape(-1, q).sum(axis=1))

    eps = 1e-3
    pq = p.at_quad()
    g2 = np.repeat((g ** 2).sum(axis=1), q)
    base = g2 + eps * eps
    assert np.array_equal(plaplace._regularized(lay, uf, eps).ravel(), base)
    pw = plaplace._Powers(p, q)
    b = rng.normal(size=mesh.n_nodes)
    dens = np.power(base, pq / 2.0) / pq
    assert (plaplace._energy(mesh, pw, b, uf, base.reshape(-1, q))
            == float(mesh.qweights @ dens) - float(b @ u))
    aa = np.power(base, (pq - 2.0) / 2.0)
    A = (mesh.qweights * aa).reshape(-1, q).sum(axis=1)
    B = (mesh.qweights * ((pq - 2.0) * aa / base)).reshape(-1, q).sum(axis=1)
    values, data = _linearized(mesh, p, u, eps)
    k = mesh.cells.shape[1]

    def flux(w):
        return np.bincount(mesh.cells.ravel(), weights=np.repeat(w, k) * gdot.ravel(),
                           minlength=mesh.n_nodes)

    assert np.array_equal(values, flux(A))
    with np.errstate(divide="ignore"):
        coeff = np.where(g2 > 0.0, np.power(g2, (pq - 2.0) / 2.0), 0.0)
    assert np.array_equal(plaplace.apply_operator(p, GridFunction(mesh, u)),
                          flux((mesh.qweights * coeff).reshape(-1, q).sum(axis=1)))
    ab = lay.band(data)
    assert ab.flags.f_contiguous and np.shares_memory(ab, data)
    assert np.array_equal(ab, _dense_band_reference(mesh, A, B, gdot))


@settings(max_examples=40, deadline=None)
@given(**_MESHES, log_scale=st.floats(-2.0, 2.0))
def test_weak_comparison_property(dim, n, width, aspect, tall, seed, log_scale):
    """Nodal data h1 <= h2 give solutions u1 <= u2, up to a slack of the
    solver tolerance, for variable exponents in [1.3, 3.5] and data of
    either sign scaled from 1e-2 to 1e2."""
    mesh = build_mesh(_random_domain(dim, width, aspect, tall),
                      4 * n if dim == 1 else n)
    rng = np.random.default_rng(seed)
    p = ExponentField(mesh, rng.uniform(1.3, 3.5, mesh.n_nodes))
    scale = 10.0 ** log_scale
    h1 = scale * rng.normal(size=mesh.n_nodes)
    bump = rng.exponential(size=mesh.n_nodes) * (rng.random(mesh.n_nodes) < rng.random())
    opts = SolverOptions()
    r1, r2 = (solve_dirichlet(p, GridFunction(mesh, h), opts)
              for h in (h1, h1 + scale * bump))
    assume(r1.converged and r2.converged)
    u1, u2 = r1.u.values, r2.u.values
    slack = opts.tol_residual * (1.0 + np.abs(u1).max() + np.abs(u2).max())
    assert np.all(u1 <= u2 + slack)


@settings(max_examples=40, deadline=None)
@given(**_MESHES, log_scale=st.floats(-2.0, 2.0), log_start=st.floats(-2.0, 2.0),
       negative=st.booleans())
def test_start_independence_property(dim, n, width, aspect, tall, seed, log_scale,
                                     log_start, negative):
    """Newton started at a random zero-trace field reaches the solution of
    the Poisson start within the solver tolerance, for variable exponents
    in [1.3, 3.5] and sign-constant data scaled from 1e-2 to 1e2."""
    mesh = build_mesh(_random_domain(dim, width, aspect, tall),
                      4 * n if dim == 1 else n)
    rng = np.random.default_rng(seed)
    p = ExponentField(mesh, rng.uniform(1.3, 3.5, mesh.n_nodes))
    h = GridFunction(mesh, (-1.0 if negative else 1.0) * 10.0 ** log_scale
                     * rng.exponential(size=mesh.n_nodes))
    s = 10.0 ** log_start * rng.normal(size=mesh.n_nodes)
    s[mesh.boundary_nodes] = 0.0
    opts = SolverOptions()
    ref = solve_dirichlet(p, h, opts)
    warm = solve_dirichlet(p, h, opts, start=GridFunction(mesh, s, zero_trace=True))
    assume(ref.converged and warm.converged)
    u = ref.u.values
    assert np.abs(warm.u.values - u).max() <= opts.tol_residual * (1.0 + np.abs(u).max())


@pytest.mark.parametrize("case", range(len(_CASE_IDS)), ids=_CASE_IDS)
def test_apply_operator_matches_coo_reference(case):
    mesh, p, u = _variable_cases()[case]
    for eps in (0.0, 1e-3):
        got = (_linearized(mesh, p, u, eps)[0]
               if eps else plaplace.apply_operator(p, GridFunction(mesh, u)))
        ref = _reference_operator(mesh, p, u, eps)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-13 * np.abs(ref).max())


def test_layout_poisson_factor_matches_sparse_solve():
    for mesh in (mesh1d(33), build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 9)):
        p = ExponentField.constant(mesh, 2.0)
        ref = _reference_hessian(mesh, p, np.zeros(mesh.n_nodes), 1.0)
        b = grid.as_quad(mesh, np.ones_like(mesh.qweights)).load[mesh.interior_nodes]
        np.testing.assert_allclose(plaplace._layout(mesh).poisson(b),
                                   spla.spsolve(sp.csc_matrix(ref), b),
                                   rtol=1e-12, atol=1e-15)


def _random_band_system(lay, rng, spd=True):
    """Layout data of a random symmetric band matrix, diagonally dominant
    (so SPD) or with one negative diagonal entry, and a right-hand side."""
    A = rng.normal(size=(lay.m, lay.m))
    A = np.triu(np.tril(A + A.T, lay.bw), -lay.bw)
    A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.1, 1.0, lay.m))
    if not spd:
        k = rng.integers(lay.m)
        A[k, k] = -A[k, k]
    ab = np.zeros((lay.bw + 1, lay.m))
    for d in range(min(lay.bw, lay.m - 1) + 1):
        ab[lay.bw - d, d:] = np.diag(A, d)
    data = np.empty(lay.size)
    lay.band(data)[:] = ab
    return data, rng.normal(size=lay.m)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(2, 40),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_band_cholesky_matches_scipy_bitwise(dim, n, log_scale, seed):
    """The binding's factor-and-solve equals SciPy's ``cholesky_banded``
    plus ``cho_solve_banded`` bit for bit on random SPD band matrices in
    the 1D (bw = 1) and 2D (bw = n) layouts; on a matrix that is not
    positive definite both the binding and the fallback raise SolveError."""
    mesh = (mesh1d(4 * n) if dim == 1
            else build_mesh(DomainSpec.rectangle(0, 1, 0, 1), min(n, 16)))
    lay = plaplace._layout(mesh)
    rng = np.random.default_rng(seed)
    data, rhs = _random_band_system(lay, rng)
    data *= 10.0 ** log_scale
    cf = sla.cholesky_banded(lay.band(data), check_finite=False)
    oracle = sla.cho_solve_banded((cf, False), rhs, check_finite=False)
    assert np.array_equal(lay.factor(data)(rhs), oracle)
    bad, _ = _random_band_system(lay, rng, spd=False)
    ab = lay.band(bad)
    for factor in (plaplace._band_cholesky, plaplace._band_cholesky_fallback):
        with pytest.raises(SolveError, match="could not be factorized"):
            factor(ab.copy(order="F"))


@pytest.mark.parametrize("missing", ["library", "symbol"])
def test_factor_falls_back_to_scipy(monkeypatch, missing):
    """Without numpy's OpenBLAS, or without one of its two routines, the
    factorization runs through SciPy and gives the binding's numbers."""
    systems = []
    for mesh in (mesh1d(40), build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 9)):
        lay = plaplace._layout(mesh)
        data, rhs = _random_band_system(lay, np.random.default_rng(mesh.dim))
        # factor works in place, so the binding gets a copy of the data
        systems.append((lay, data, rhs, lay.factor(data.copy())(rhs)))

    def cdll(path):
        if missing == "library":
            raise OSError(f"{path}: cannot open shared object file")
        return types.SimpleNamespace(scipy_dpbtrs_64_=None)

    with monkeypatch.context() as mp:
        mp.setattr(plaplace.ctypes, "CDLL", cdll)
        found = plaplace._find_pbtrf_pbtrs()
    assert found is None
    monkeypatch.setattr(plaplace, "_PBTRF_PBTRS", found)
    calls = []

    def spy(name):
        real = getattr(sla, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("cholesky_banded", "cho_solve_banded"):
        monkeypatch.setattr(sla, name, spy(name))
    for lay, data, rhs, expected in systems:
        assert np.array_equal(lay.factor(data)(rhs), expected)
    assert calls == ["cholesky_banded", "cho_solve_banded"] * len(systems)
    lay = systems[0][0]
    bad, _ = _random_band_system(lay, np.random.default_rng(5), spd=False)
    with pytest.raises(SolveError, match="could not be factorized"):
        lay.factor(bad)
