"""Structured P1 meshes on intervals and rectangles.

Geometric substrate for everything else: node/cell arrays, exact
distance-to-boundary fields, per-cell P1 gradients, and fixed quadrature
(3-point Gauss per interval cell, the interior 3-point rule ``_TRI_BARY``
per triangle) exposed as flat arrays so assembly can be fully vectorized.

A field owns what is derived from its read-only values and computes it
once, on first read: a ``GridFunction`` its cell gradients ``grad`` and
their norms ``grad_norm``, a ``QuadField`` its load vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshCompatibilityError, NonFiniteFieldError

# 3-point Gauss rule on [-1, 1]; exact for quintics on intervals.
_G3_T = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_G3_W = np.array([5.0, 8.0, 5.0]) / 9.0

# Interior 3-point rule on the reference triangle; exact for quadratics.
# All points are strictly inside the element, so interpolants of
# zero-trace fields stay positive there (boundary-singular powers need
# this; the edge-midpoint variant would sample on the boundary).
_TRI_BARY = np.array([[4, 1, 1], [1, 4, 1], [1, 1, 4]]) / 6.0


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned domain: ``interval(a, b)`` or ``rectangle(ax, bx, ay, by)``."""

    kind: str
    bounds: tuple

    @staticmethod
    def interval(a: float, b: float) -> "DomainSpec":
        if not b > a:
            raise ValueError(f"degenerate interval ({a}, {b})")
        return DomainSpec("interval", (float(a), float(b)))

    @staticmethod
    def rectangle(ax: float, bx: float, ay: float, by: float) -> "DomainSpec":
        if not (bx > ax and by > ay):
            raise ValueError(f"degenerate rectangle ({ax},{bx})x({ay},{by})")
        return DomainSpec("rectangle", (float(ax), float(bx), float(ay), float(by)))

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Exact euclidean distance to the boundary for points inside."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "interval":
            a, b = self.bounds
            x = pts[..., 0] if pts.ndim > 1 else pts
            return np.minimum(x - a, b - x)
        ax, bx, ay, by = self.bounds
        x, y = pts[..., 0], pts[..., 1]
        return np.minimum.reduce([x - ax, bx - x, y - ay, by - y])


class Mesh:
    """Uniform P1 mesh: hat functions on interval cells or on triangles
    obtained by splitting tensor quads along one diagonal.

    Immutable after construction.  Precomputes cell gradients of the P1
    basis, quadrature points/weights with their owning cell (points are
    stored cell by cell, the same number per cell), the nodes of each
    quadrature point's cell, and the basis values at quadrature points.
    """

    def __init__(self, domain: DomainSpec, n: int):
        if n < 2:
            raise ValueError("need at least 2 cells per direction")
        self.domain = domain
        self.n = int(n)
        self.dim = domain.dim
        if self.dim == 1:
            self._build_1d()
        else:
            self._build_2d()
        self.h = float(self.cell_diameters.max())
        self.distance = domain.distance(self.nodes)
        # a mask, not np.setdiff1d: its np.unique imports numpy.ma on first
        # use, a cost every process would pay during set-up
        interior = np.ones(self.nodes.shape[0], dtype=bool)
        interior[self.boundary_nodes] = False
        self.interior_nodes = np.flatnonzero(interior)
        self.qconn = self.cells[self.qcells]
        for arr in (self.nodes, self.cells, self.qweights, self.qbasis,
                    self.qconn, self.grad_basis, self.distance):
            arr.setflags(write=False)

    def _build_1d(self):
        a, b = self.domain.bounds
        n = self.n
        x = np.linspace(a, b, n + 1)
        self.nodes = x.reshape(-1, 1)
        self.cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        self.boundary_nodes = np.array([0, n])
        h = (b - a) / n
        self.cell_diameters = np.full(n, h)
        # gradients of the two hats on each cell
        gb = np.empty((n, 2, 1))
        gb[:, 0, 0] = -1.0 / h
        gb[:, 1, 0] = 1.0 / h
        self.grad_basis = gb
        # 3-point Gauss per cell
        left = x[:-1]
        qx = (left[:, None] + (0.5 * h) * (1.0 + _G3_T)[None, :]).ravel()
        self.qpoints = qx.reshape(-1, 1)
        self.qweights = np.tile(_G3_W * 0.5 * h, n)
        self.qcells = np.repeat(np.arange(n), 3)
        lam_r = np.tile((1.0 + _G3_T) / 2.0, n)
        self.qbasis = np.column_stack([1.0 - lam_r, lam_r])

    def _build_2d(self):
        ax, bx, ay, by = self.domain.bounds
        n = self.n
        xs = np.linspace(ax, bx, n + 1)
        ys = np.linspace(ay, by, n + 1)
        X, Y = np.meshgrid(xs, ys)  # Y varies along axis 0
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])
        self.xs, self.ys = xs, ys

        # from the grid indices, so no coordinate tolerance can misplace
        # a node of a far-shifted or tiny rectangle
        iy, ix = np.divmod(np.arange((n + 1) ** 2), n + 1)
        onb = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
        self.boundary_nodes = np.flatnonzero(onb)

        # Split each quad along a diagonal that never creates a triangle
        # with all three vertices on the boundary: zero-trace fields must
        # stay positive at interior quadrature points, and an all-boundary
        # triangle would interpolate to zero throughout.  Quads run
        # row-major, two triangles each.
        iy, ix = np.divmod(np.arange(n * n), n)
        v00 = iy * (n + 1) + ix
        v10, v01 = v00 + 1, v00 + n + 1
        v11 = v01 + 1
        main = np.stack([np.column_stack([v00, v10, v11]),
                         np.column_stack([v00, v11, v01])], axis=1)
        other = np.stack([np.column_stack([v00, v10, v01]),
                          np.column_stack([v10, v11, v01])], axis=1)
        flip = onb[main].all(axis=2).any(axis=1)
        self.cells = np.where(flip[:, None, None], other, main).reshape(-1, 3)

        p0 = self.nodes[self.cells[:, 0]]
        p1 = self.nodes[self.cells[:, 1]]
        p2 = self.nodes[self.cells[:, 2]]
        e1, e2 = p1 - p0, p2 - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        area = 0.5 * np.abs(det)
        self.cell_diameters = np.maximum.reduce([
            np.hypot(*(p1 - p0).T), np.hypot(*(p2 - p1).T), np.hypot(*(p0 - p2).T)
        ])
        # grad(lambda_1), grad(lambda_2) from the inverse edge matrix
        gb = np.empty((len(self.cells), 3, 2))
        gb[:, 1, 0] = e2[:, 1] / det
        gb[:, 1, 1] = -e2[:, 0] / det
        gb[:, 2, 0] = -e1[:, 1] / det
        gb[:, 2, 1] = e1[:, 0] / det
        gb[:, 0, :] = -gb[:, 1, :] - gb[:, 2, :]
        self.grad_basis = gb

        nc = len(self.cells)
        verts = self.nodes[self.cells]  # (nc, 3, 2)
        qp = np.einsum("qk,ckd->cqd", _TRI_BARY, verts).reshape(-1, 2)
        self.qpoints = qp
        self.qweights = np.repeat(area / 3.0, 3)
        self.qcells = np.repeat(np.arange(nc), 3)
        self.qbasis = np.tile(_TRI_BARY, (nc, 1))

    # -- queries ---------------------------------------------------------

    @cached_property
    def columns(self) -> tuple:
        """``cells`` as (k, n_cells) and ``grad_basis`` as (k, dim, n_cells),
        read-only and C-ordered, so that each vertex's column the cell
        kernels read is contiguous; built on first use."""
        out = (np.ascontiguousarray(self.cells.T, dtype=np.int32),
               np.ascontiguousarray(self.grad_basis.transpose(1, 2, 0)))
        for arr in out:
            arr.setflags(write=False)
        return out

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.distance.max())

    def interpolate(self, nodal_values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the nodal interpolant at arbitrary points inside the
        domain (linear on intervals, bilinear on the tensor grid)."""
        vals = np.asarray(nodal_values, dtype=float)
        pts = np.asarray(points, dtype=float)
        if self.dim == 1:
            x = pts[..., 0] if pts.ndim > 1 else pts
            return np.interp(x, self.nodes[:, 0], vals)
        return bilinear(self.xs, self.ys, vals.reshape(self.n + 1, self.n + 1),
                        pts[..., 0], pts[..., 1])


def bilinear(xs: np.ndarray, ys: np.ndarray, table: np.ndarray, x, y):
    """Bilinear interpolant of ``table[iy, ix]``, given at the tensor
    grid of ascending ``xs`` and ``ys``, evaluated at the points (x, y)."""
    ix = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    iy = np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2)
    tx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    ty = (y - ys[iy]) / (ys[iy + 1] - ys[iy])
    return ((1 - tx) * (1 - ty) * table[iy, ix]
            + tx * (1 - ty) * table[iy, ix + 1]
            + (1 - tx) * ty * table[iy + 1, ix]
            + tx * ty * table[iy + 1, ix + 1])


def build_mesh(domain: DomainSpec, n: int) -> Mesh:
    """Uniform mesh with ``n`` cells per direction, boundary marked and
    the distance field computed exactly."""
    return Mesh(domain, n)


def _frozen_values(values, shape: tuple, what: str) -> np.ndarray:
    """A read-only float copy of ``values``, of ``shape`` and finite."""
    vals = np.array(values, dtype=float)
    if vals.shape != shape:
        raise MeshCompatibilityError(f"expected {what} of shape {shape}, got {vals.shape}")
    if not np.isfinite(vals).all():
        raise NonFiniteFieldError(f"{what} has non-finite values")
    vals.setflags(write=False)
    return vals


@dataclass
class GridFunction:
    """Nodal scalar field on a mesh.  The values are a read-only copy of
    the given ones, so what is derived from them and computed on first
    read, the cell gradients ``grad`` and their norms ``grad_norm``,
    always belongs to them."""

    mesh: Mesh
    values: np.ndarray
    zero_trace: bool = False

    def __post_init__(self):
        self.values = _frozen_values(self.values, (self.mesh.n_nodes,), "nodal values")
        if self.zero_trace and (self.values[self.mesh.boundary_nodes] != 0.0).any():
            raise ValueError("zero-trace field does not vanish on the boundary")

    @cached_property
    def grad(self) -> np.ndarray:
        """``cell_gradients`` of the values, computed once.  A solver that
        already holds them for these values may assign them instead."""
        return cell_gradients(self.mesh, self.values)

    @cached_property
    def grad_norm(self) -> np.ndarray:
        """``gradient`` of the field, |grad u| per cell, computed once."""
        return gradient(self)

    @classmethod
    def constant(cls, mesh: Mesh, c: float):
        return cls(mesh, np.full(mesh.n_nodes, float(c)))

    @classmethod
    def from_callable(cls, mesh: Mesh, fn):
        vals = fn(*(mesh.nodes[:, d] for d in range(mesh.dim)))
        return cls(mesh, np.broadcast_to(vals, (mesh.n_nodes,)))


@dataclass
class QuadField:
    """Values attached to the quadrature points of a mesh.  Used for data
    that is only evaluable strictly inside cells (singular right-hand
    sides that blow up on the boundary).  The values are a read-only copy
    of the given ones, so the load vector, computed on first read of
    ``load``, always belongs to them."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = _frozen_values(self.values, self.mesh.qweights.shape,
                                     "quadrature values")

    @cached_property
    def load(self) -> np.ndarray:
        """``load_vector`` of the values (read-only), computed once."""
        out = _load(self.mesh, self.values)
        out.setflags(write=False)
        return out


def check_same_mesh(mesh: Mesh, *objs):
    """Raise unless every object of ``objs`` lives on ``mesh``."""
    if any(o.mesh is not mesh for o in objs):
        raise MeshCompatibilityError("objects live on different meshes")


def at_quad(mesh: Mesh, nodal_values: np.ndarray) -> np.ndarray:
    """Nodal field evaluated at all quadrature points.

    The vertex terms t_k = qbasis[:, k] * vals[qconn[:, k]] are added as
    ``np.einsum("qk,qk->q", qbasis, vals[qconn])`` adds them, (t0 + t2) + t1
    for three vertices, so the two agree bit for bit."""
    vals = np.asarray(nodal_values, dtype=float)
    k = mesh.qconn.shape[1]
    out = mesh.qbasis[:, 0] * vals[mesh.qconn[:, 0]]
    for j in (*range(2, k), 1):
        out += mesh.qbasis[:, j] * vals[mesh.qconn[:, j]]
    return out


def as_quad_values(mesh: Mesh, h) -> np.ndarray:
    """Coerce scalar / nodal / GridFunction / QuadField data to values at
    quadrature points."""
    if isinstance(h, QuadField):
        check_same_mesh(mesh, h)
        return h.values
    if isinstance(h, GridFunction):
        check_same_mesh(mesh, h)
        return at_quad(mesh, h.values)
    if np.isscalar(h):
        return np.full_like(mesh.qweights, float(h))
    arr = np.asarray(h, dtype=float)
    if arr.shape == mesh.qweights.shape:
        return arr
    if arr.shape == (mesh.n_nodes,):
        return at_quad(mesh, arr)
    raise MeshCompatibilityError(f"cannot interpret data of shape {arr.shape}")


def cell_gradients(mesh: Mesh, nodal_values: np.ndarray) -> np.ndarray:
    """Exact per-cell gradient of the P1 interpolant, shape (n_cells, dim),
    read-only, each axis a contiguous column.  The vertex terms are added
    in order k = 0, 1, 2, as ``np.einsum("ckd,ck->cd", grad_basis,
    vals[cells])`` adds them, so the two agree bit for bit."""
    cols, gb = mesh.columns
    v = np.asarray(nodal_values, dtype=float).take(cols)
    out = gb[0] * v[0]
    for k in range(1, len(v)):
        out += gb[k] * v[k]
    out.setflags(write=False)
    return out.T


def basis_projections(mesh: Mesh, g: np.ndarray) -> np.ndarray:
    """g . grad(hat_k) on each cell for cell vectors ``g`` of shape
    (n_cells, dim): shape (n_cells, k), equal bit for bit to
    ``np.einsum("cd,ckd->ck", g, grad_basis)``."""
    gb = mesh.columns[1]
    out = np.empty(mesh.cells.shape)
    for k, col in enumerate(out.T):
        np.multiply(g[:, 0], gb[k, 0], out=col)
        for d in range(1, mesh.dim):
            col += g[:, d] * gb[k, d]
    return out


def gradient(u: GridFunction) -> np.ndarray:
    """|grad u| per cell of the P1 interpolant (read-only), from the cell
    gradients ``u`` carries; exact for affine nodal data.  A field caches
    it as ``grad_norm``."""
    out = np.sqrt((u.grad ** 2).sum(axis=1))
    out.setflags(write=False)
    return out


def distance_ratio(u: GridFunction):
    """(min, max) of u/d over the interior nodes of the mesh of ``u``."""
    ii = u.mesh.interior_nodes
    q = u.values[ii] / u.mesh.distance[ii]
    return float(q.min()), float(q.max())


def load_vector(mesh: Mesh, h) -> np.ndarray:
    """Nodal vector of integrals of ``h`` against every hat function; a
    QuadField's is the one it holds."""
    if isinstance(h, QuadField):
        check_same_mesh(mesh, h)
        return h.load
    return _load(mesh, as_quad_values(mesh, h))


def _load(mesh: Mesh, hq: np.ndarray) -> np.ndarray:
    w = mesh.qweights * hq
    contrib = np.empty(mesh.qbasis.shape)
    for k, col in enumerate(contrib.T):
        np.multiply(w, mesh.qbasis[:, k], out=col)
    return np.bincount(mesh.qconn.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_nodes)


def boundary_strip(mesh: Mesh, delta: float) -> np.ndarray:
    """Indices of nodes with distance(x) < delta (boundary nodes included)."""
    if not 0.0 < delta <= mesh.max_distance:
        raise ValueError(
            f"delta={delta} outside (0, {mesh.max_distance}]")
    return np.flatnonzero(mesh.distance < delta)


def export_csv(path, mesh: Mesh, columns: dict):
    """One row per node: coordinates then the named nodal columns.  The
    header line lists 'x[,y]' followed by the column names."""
    names = list(columns)
    coord_names = ["x"] if mesh.dim == 1 else ["x", "y"]
    with open(path, "w") as f:
        f.write(",".join(coord_names + names) + "\n")
        cols = [mesh.nodes[:, d] for d in range(mesh.dim)]
        cols += [np.asarray(columns[k], dtype=float) for k in names]
        for row in zip(*cols):
            f.write(",".join(repr(float(v)) for v in row) + "\n")
