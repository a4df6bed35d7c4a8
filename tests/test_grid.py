import numpy as np
import pytest

from varpx import (DomainSpec, GridFunction, boundary_strip, build_mesh,
                   export_csv, gradient)
from varpx.grid import QuadField, at_quad, interpolate, load_vector

from conftest import point_tables


def test_interval_mesh_basic():
    m = build_mesh(DomainSpec.interval(0.0, 1.0), 4)
    assert m.n_nodes == 5
    np.testing.assert_allclose(m.nodes[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(m.distance, [0, 0.25, 0.5, 0.25, 0])
    assert set(m.boundary_nodes) == {0, 4}


def test_interval_mesh_scaled():
    m = build_mesh(DomainSpec.interval(0.0, 2.0), 8)
    assert m.h == pytest.approx(0.25)
    center = np.argmin(np.abs(m.nodes[:, 0] - 1.0))
    assert m.distance[center] == pytest.approx(1.0)


def test_rectangle_mesh_counts():
    m = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 2)
    assert m.n_nodes == 9
    assert len(m.cells) == 8


def test_rectangle_boundary_marked_from_grid_indices():
    # a shifted or tiny square has the unit square's boundary nodes; a
    # coordinate tolerance marks all 289 nodes of the first, 120 of the second
    unit = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 16).boundary_nodes
    assert len(unit) == 64
    for bounds in ((1e6, 1e6 + 1, 0, 1), (0, 1e-7, 0, 1e-7)):
        np.testing.assert_array_equal(
            build_mesh(DomainSpec.rectangle(*bounds), 16).boundary_nodes, unit)


def test_no_all_boundary_triangles():
    for n in (2, 3, 8, 17):
        m = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), n)
        onb = np.zeros(m.n_nodes, dtype=bool)
        onb[m.boundary_nodes] = True
        assert not np.any(onb[m.cells].all(axis=1))


def _loop_triangles(n, onb):
    """Quad-by-quad split: the main diagonal unless one of its triangles
    has all three vertices on the boundary."""
    tris = []
    for iy in range(n):
        for ix in range(n):
            v00, v10 = iy * (n + 1) + ix, iy * (n + 1) + ix + 1
            v01, v11 = v00 + n + 1, v10 + n + 1
            main = [(v00, v10, v11), (v00, v11, v01)]
            if any(all(onb[v] for v in t) for t in main):
                tris.extend([(v00, v10, v01), (v10, v11, v01)])
            else:
                tris.extend(main)
    return np.array(tris)


def test_triangle_split_matches_loop_reference():
    for bounds in ((0, 1, 0, 1), (0, 3, 0, 1), (-1, 0.5, 2, 4.5)):
        for n in (2, 3, 4, 7, 16):
            m = build_mesh(DomainSpec.rectangle(*bounds), n)
            onb = np.zeros(m.n_nodes, dtype=bool)
            onb[m.boundary_nodes] = True
            np.testing.assert_array_equal(m.cells, _loop_triangles(n, onb))


def test_quadrature_points_strictly_interior_to_cells():
    # zero-trace fields must stay positive at quadrature points, so no
    # quadrature point may sit on a cell face or the boundary
    for dom, n in [(DomainSpec.interval(0, 1), 4),
                   (DomainSpec.rectangle(0, 1, 0, 1), 4)]:
        m = build_mesh(dom, n)
        assert m.qbasis.min() > 0.0


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError):
        DomainSpec.interval(1.0, 1.0)
    with pytest.raises(ValueError):
        DomainSpec.rectangle(0, 1, 2, 2)


def test_boundary_strip_interval():
    m = build_mesh(DomainSpec.interval(0, 1), 4)
    strip = set(boundary_strip(m, 0.3))
    assert strip == {0, 1, 3, 4}
    tiny = set(boundary_strip(m, 1e-12))
    assert tiny == set(m.boundary_nodes)
    with pytest.raises(ValueError):
        boundary_strip(m, 0.7)
    with pytest.raises(ValueError):
        boundary_strip(m, 0.0)


def test_boundary_strip_rectangle_first_ring():
    m = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 4)
    strip = set(boundary_strip(m, 0.26))
    # 5x5 grid: everything except the center node sits within 0.26
    center = np.argmin(np.abs(m.nodes[:, 0] - 0.5) + np.abs(m.nodes[:, 1] - 0.5))
    assert len(strip) == 24 and center not in strip


def test_strip_monotone_in_delta():
    m = build_mesh(DomainSpec.interval(0, 1), 32)
    s1 = set(boundary_strip(m, 0.1))
    s2 = set(boundary_strip(m, 0.3))
    assert s1 <= s2


def test_distance_is_1lipschitz():
    rng = np.random.default_rng(0)
    for dom, n in [(DomainSpec.interval(0, 2), 16),
                   (DomainSpec.rectangle(0, 1, 0, 1), 8)]:
        m = build_mesh(dom, n)
        i = rng.integers(0, m.n_nodes, size=200)
        j = rng.integers(0, m.n_nodes, size=200)
        dd = np.abs(m.distance[i] - m.distance[j])
        xx = np.linalg.norm(m.nodes[i] - m.nodes[j], axis=1)
        assert np.all(dd <= xx + 1e-12)


def test_gradient_affine_exact_1d():
    m = build_mesh(DomainSpec.interval(0, 1), 16)
    u = GridFunction(m, 3.0 * m.nodes[:, 0] - 1.0)
    assert u.grad.shape == (len(m.cells), 1)
    np.testing.assert_allclose(u.grad[:, 0], 3.0, atol=1e-14)
    np.testing.assert_allclose(gradient(u), 3.0, atol=1e-14)


def test_gradient_affine_exact_2d():
    m = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 4)
    u = GridFunction(m, 2.0 * m.nodes[:, 0] - 3.0 * m.nodes[:, 1])
    assert u.grad.shape == (len(m.cells), 2)
    np.testing.assert_allclose(u.grad[:, 0], 2.0, atol=1e-13)
    np.testing.assert_allclose(u.grad[:, 1], -3.0, atol=1e-13)
    np.testing.assert_allclose(gradient(u), np.sqrt(13.0), atol=1e-13)


def test_field_values_are_read_only_copies():
    # a field's cell gradients (and a QuadField's load vector) are computed
    # once, so the values they derive from can never change in place
    m = build_mesh(DomainSpec.rectangle(0, 1, 0, 1), 4)
    given = m.nodes[:, 0] * m.nodes[:, 1]
    u = GridFunction(m, given)
    grad, norm = u.grad, u.grad_norm
    with pytest.raises(ValueError, match="read-only"):
        u.values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grad[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        norm[0] = 1.0
    given[0] = 1.0
    assert u.values[0] == 0.0 and u.grad is grad and u.grad_norm is norm
    np.testing.assert_array_equal(norm, gradient(u))
    h = QuadField(m, np.ones(m.qweights.size))
    with pytest.raises(ValueError, match="read-only"):
        h.values[0] = 2.0
    assert load_vector(m, h) is load_vector(m, h)


def test_gradient_quadratic_midpoint_values():
    m = build_mesh(DomainSpec.interval(0, 1), 1024)
    x = m.nodes[:, 0]
    u = GridFunction(m, x * (1 - x) / 2)
    mid = 0.5 * (x[:-1] + x[1:])
    # cell slope of the interpolant equals the derivative at the midpoint
    np.testing.assert_allclose(u.grad[:, 0], (1 - 2 * mid) / 2, atol=1e-12)
    np.testing.assert_allclose(gradient(u), np.abs(1 - 2 * mid) / 2, atol=1e-12)


@pytest.mark.parametrize("bounds, n, f, degree, exact", [
    ((0, 1), 1024, lambda x, y: np.ones_like(x), 0, 1.0),
    ((0, 1), 1024, lambda x, y: x ** 2, 2, 1.0 / 3.0),
    ((0, 1, 0, 1), 6, lambda x, y: 2 * x + y, 1, 1.5),
    ((0, 1, 0, 1), 6, lambda x, y: x ** 2 + x * y, 2, 7.0 / 12.0),
], ids=["1d-constant", "1d-quadratic", "2d-affine", "2d-quadratic"])
def test_quadrature_exactness(bounds, n, f, degree, exact):
    # Gauss-3 is exact for quintics on intervals and the interior 3-point
    # rule for quadratics on triangles; the P1 interpolant of affine nodal
    # data is the data, so at_quad carries that exactness to nodal fields
    dom = DomainSpec.interval(*bounds) if len(bounds) == 2 else DomainSpec.rectangle(*bounds)
    m = build_mesh(dom, n)
    assert m.qweights @ f(m.qpoints[:, 0], m.qpoints[:, -1]) == pytest.approx(exact, abs=1e-13)
    if degree <= 1:
        nodal = f(m.nodes[:, 0], m.nodes[:, -1])
        assert m.qweights @ at_quad(m, nodal) == pytest.approx(exact, abs=1e-13)


def test_load_vector_against_hat_integrals():
    m = build_mesh(DomainSpec.interval(0, 1), 10)
    b = load_vector(m, GridFunction.constant(m, 1.0))
    # interior hat integral is h, boundary half-hats h/2
    np.testing.assert_allclose(b[m.interior_nodes], 0.1, atol=1e-14)
    np.testing.assert_allclose(b[m.boundary_nodes], 0.05, atol=1e-14)


def test_load_vector_matches_add_at_reference():
    for m in (build_mesh(DomainSpec.interval(0.0, 1.0), 17),
              build_mesh(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 5)):
        hq = np.cos(3.0 * m.qpoints.sum(axis=1))
        _, qbasis, qconn = point_tables(m)
        ref = np.zeros(m.n_nodes)
        np.add.at(ref, qconn, (m.qweights * hq)[:, None] * qbasis)
        np.testing.assert_allclose(load_vector(m, hq), ref, rtol=1e-14, atol=1e-16)


def test_at_quad_reproduces_affine():
    m = build_mesh(DomainSpec.interval(0, 1), 8)
    vals = 2.0 * m.nodes[:, 0] + 1.0
    np.testing.assert_allclose(at_quad(m, vals), 2.0 * m.qpoints[:, 0] + 1.0,
                               atol=1e-14)


def test_csv_export_roundtrip(tmp_path):
    m = build_mesh(DomainSpec.interval(0, 1), 4)
    path = tmp_path / "f.csv"
    export_csv(path, m, {"u": m.nodes[:, 0] ** 2, "d": m.distance})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,u,d"
    assert len(lines) == 1 + m.n_nodes
    row = [float(v) for v in lines[2].split(",")]
    assert row == [0.25, 0.0625, 0.25]


def test_interpolate_reproduces_bilinear_on_rectangle():
    m = build_mesh(DomainSpec.rectangle(-1.0, 2.0, 0.5, 1.25), 7)
    a, b, c, d = 0.3, -1.7, 2.2, 0.9

    def f(x, y):
        return a + b * x + c * y + d * x * y

    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-1.0, 2.0, 200), rng.uniform(0.5, 1.25, 200)])
    got = interpolate(m.domain, f(m.nodes[:, 0], m.nodes[:, 1]), pts)
    np.testing.assert_allclose(got, f(pts[:, 0], pts[:, 1]), rtol=0, atol=1e-13)


@pytest.mark.parametrize("domain", [DomainSpec.interval(-1.0, 2.0),
                                    DomainSpec.rectangle(-1.0, 2.0, 0.5, 1.25)],
                         ids=["interval", "rectangle"])
def test_interpolate_reads_a_table_coarser_than_the_mesh(domain):
    # a table of 5 values per direction, at the nodes of the n = 4 mesh,
    # interpolated to the nodes of the n = 12 mesh reproduces an affine field
    coarse, fine = build_mesh(domain, 4), build_mesh(domain, 12)

    def f(pts):
        return 0.3 - 1.7 * pts[:, 0] + 2.2 * pts[:, -1]

    got = interpolate(domain, f(coarse.nodes), fine.nodes)
    np.testing.assert_allclose(got, f(fine.nodes), rtol=0, atol=1e-13)
