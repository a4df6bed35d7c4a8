"""Structured P1 meshes on intervals and rectangles.

Geometric substrate for everything else: node/cell arrays, exact
distance-to-boundary fields, per-cell P1 gradients, and fixed quadrature
(3-point Gauss per interval cell, the interior 3-point rule ``_TRI_BARY``
per triangle) exposed as flat arrays so assembly can be fully vectorized.

A field owns what is derived from its read-only values and computes it
once, on first read, by the one formula for it: a ``GridFunction`` its
cell gradients ``grad``, their squares ``grad_sq``, norms ``grad_norm``
and ``projections``, a ``QuadField`` its load vector and ``l1_norm``.
"""

from __future__ import annotations

import csv
import math
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
    basis, quadrature points and weights, stored cell by cell, the same
    number per cell (per-cell values repeat ``q_per_cell`` times), and
    ``qbasis``, the (q, k) values of a cell's k hats at its q points.
    """

    def __init__(self, domain: DomainSpec, n: int):
        if n < 2:
            raise ValueError("need at least 2 cells per direction")
        self.domain = domain
        self.n = int(n)
        self.dim = domain.dim
        self.N = max(self.dim, 2)  # N of the exponent arithmetic: at least 2
        gb = self._build_1d() if self.dim == 1 else self._build_2d()
        self.q_per_cell = len(self.qbasis)
        # cells as (k, n_cells) and basis gradients as (k, dim, n_cells),
        # C-ordered, so each vertex's column the cell kernels read is
        # contiguous; ``grad_basis`` is their (n_cells, k, dim) view
        self.columns = (np.ascontiguousarray(self.cells.T, dtype=np.int32),
                        np.ascontiguousarray(gb.transpose(1, 2, 0)))
        self.grad_basis = self.columns[1].transpose(2, 0, 1)
        self.distance = domain.distance(self.nodes)
        # a mask, not np.setdiff1d: its np.unique imports numpy.ma on first
        # use, a cost every process would pay during set-up
        interior = np.ones(self.nodes.shape[0], dtype=bool)
        interior[self.boundary_nodes] = False
        self.interior_nodes = np.flatnonzero(interior)
        for arr in (self.nodes, self.cells, self.qweights, self.qbasis,
                    *self.columns, self.distance):
            arr.setflags(write=False)

    def _build_1d(self):
        a, b = self.domain.bounds
        n = self.n
        x = np.linspace(a, b, n + 1)
        self.nodes = x.reshape(-1, 1)
        self.cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        self.boundary_nodes = np.array([0, n])
        self.h = h = (b - a) / n
        # gradients of the two hats on each cell
        gb = np.empty((n, 2, 1))
        gb[:, 0, 0] = -1.0 / h
        gb[:, 1, 0] = 1.0 / h
        # 3-point Gauss per cell
        left = x[:-1]
        qx = (left[:, None] + (0.5 * h) * (1.0 + _G3_T)[None, :]).ravel()
        self.qpoints = qx.reshape(-1, 1)
        self.qweights = np.tile(_G3_W * 0.5 * h, n)
        lam_r = (1.0 + _G3_T) / 2.0
        self.qbasis = np.column_stack([1.0 - lam_r, lam_r])
        return gb

    def _build_2d(self):
        ax, bx, ay, by = self.domain.bounds
        n = self.n
        xs = np.linspace(ax, bx, n + 1)
        ys = np.linspace(ay, by, n + 1)
        X, Y = np.meshgrid(xs, ys)  # Y varies along axis 0
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])

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
        self.h = float(np.maximum.reduce([
            np.hypot(*(p1 - p0).T), np.hypot(*(p2 - p1).T), np.hypot(*(p0 - p2).T)
        ]).max())
        # grad(lambda_1), grad(lambda_2) from the inverse edge matrix
        gb = np.empty((len(self.cells), 3, 2))
        gb[:, 1, 0] = e2[:, 1] / det
        gb[:, 1, 1] = -e2[:, 0] / det
        gb[:, 2, 0] = -e1[:, 1] / det
        gb[:, 2, 1] = e1[:, 0] / det
        gb[:, 0, :] = -gb[:, 1, :] - gb[:, 2, :]

        verts = self.nodes[self.cells]  # (nc, 3, 2)
        qp = np.einsum("qk,ckd->cqd", _TRI_BARY, verts).reshape(-1, 2)
        self.qpoints = qp
        self.qweights = np.repeat(area / 3.0, 3)
        self.qbasis = _TRI_BARY.copy()
        return gb

    # -- queries ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.distance.max())

    @property
    def longest_side(self) -> float:
        """Longest side of the domain's bounding box."""
        return float(np.ptp(self.nodes, axis=0).max())


def interpolate(domain: DomainSpec, table, points: np.ndarray) -> np.ndarray:
    """Interpolant of the values ``table`` at the uniform grid of k points
    per direction spanning ``domain``, ordered as a mesh's nodes (x
    fastest), at ``points`` (one row per point): linear on intervals,
    bilinear on rectangles.  The nodal values of a mesh are such a table."""
    vals = np.asarray(table, dtype=float)
    if domain.dim == 1:
        return np.interp(points[:, 0], np.linspace(*domain.bounds, vals.size), vals)
    k = math.isqrt(vals.size)
    vals = vals.reshape(k, k)
    ax, bx, ay, by = domain.bounds
    xs, ys = np.linspace(ax, bx, k), np.linspace(ay, by, k)
    x, y = points[:, 0], points[:, 1]
    ix = np.clip(np.searchsorted(xs, x) - 1, 0, k - 2)
    iy = np.clip(np.searchsorted(ys, y) - 1, 0, k - 2)
    tx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    ty = (y - ys[iy]) / (ys[iy + 1] - ys[iy])
    return ((1 - tx) * (1 - ty) * vals[iy, ix]
            + tx * (1 - ty) * vals[iy, ix + 1]
            + (1 - tx) * ty * vals[iy + 1, ix]
            + tx * ty * vals[iy + 1, ix + 1])


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
    read, the cell gradients and the arrays formed from them, always
    belongs to them."""

    mesh: Mesh
    values: np.ndarray
    zero_trace: bool = False

    def __post_init__(self):
        self.values = _frozen_values(self.values, (self.mesh.n_nodes,), "nodal values")
        if self.zero_trace and (self.values[self.mesh.boundary_nodes] != 0.0).any():
            raise ValueError("zero-trace field does not vanish on the boundary")

    @cached_property
    def grad(self) -> np.ndarray:
        """``cell_gradients`` of the values, computed once."""
        return cell_gradients(self.mesh, self.values)

    @cached_property
    def grad_sq(self) -> np.ndarray:
        """|grad u|^2 per cell (read-only), computed once."""
        out = (self.grad * self.grad).sum(axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def grad_norm(self) -> np.ndarray:
        """``gradient`` of the field, |grad u| per cell, computed once."""
        return gradient(self)

    @cached_property
    def projections(self) -> np.ndarray:
        """grad u . grad(hat_k) on each cell, shape (n_cells, k)
        (read-only), computed once; equal bit for bit to
        ``np.einsum("cd,ckd->ck", grad, grad_basis)``."""
        g, gb = self.grad, self.mesh.columns[1]
        out = np.empty(self.mesh.cells.shape)
        for k, col in enumerate(out.T):
            np.multiply(g[:, 0], gb[k, 0], out=col)
            for d in range(1, g.shape[1]):
                col += g[:, d] * gb[k, d]
        out.setflags(write=False)
        return out

    def values_only(self) -> "GridFunction":
        """A fresh field of the same values, which has derived nothing yet,
        so what this one derived is freed with it."""
        return GridFunction(self.mesh, self.values, zero_trace=self.zero_trace)

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
    of the given ones, so the load vector and the integral of |h|,
    computed on first read, always belong to them."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = _frozen_values(self.values, self.mesh.qweights.shape,
                                     "quadrature values")

    @cached_property
    def load(self) -> np.ndarray:
        """Integrals of the values against every hat function (read-only),
        computed once."""
        out = _load(self.mesh, self.values)
        out.setflags(write=False)
        return out

    @cached_property
    def l1_norm(self) -> float:
        """int |h| dx by the mesh's quadrature, computed once."""
        return float(self.mesh.qweights @ np.abs(self.values))


def check_same_mesh(mesh: Mesh, *objs):
    """Raise unless every object of ``objs`` lives on ``mesh``."""
    if any(o.mesh is not mesh for o in objs):
        raise MeshCompatibilityError("objects live on different meshes")


def at_quad(mesh: Mesh, nodal_values: np.ndarray) -> np.ndarray:
    """Nodal field evaluated at all quadrature points.

    At the points of each cell the vertex terms t_k = qbasis[:, k] *
    vals[cells[:, k]] are added as ``np.einsum("qk,qk->q", ...)`` adds
    them over per-point tables of basis values and vertices, (t0 + t2) +
    t1 for three vertices, so the two agree bit for bit."""
    v = np.asarray(nodal_values, dtype=float).take(mesh.columns[0])
    out = np.empty((v.shape[1], mesh.q_per_cell))
    for b, col in zip(mesh.qbasis, out.T):  # point by point, long loops
        np.multiply(v[0], b[0], out=col)
        for j in (*range(2, len(v)), 1):
            col += v[j] * b[j]
    return out.ravel()


def as_quad(mesh: Mesh, h) -> QuadField:
    """The one way data reaches the quadrature points of ``mesh``: a
    QuadField of the mesh as it is, so its load and l1_norm are shared, a
    GridFunction interpolated, or an array of one value per point wrapped."""
    if isinstance(h, QuadField):
        check_same_mesh(mesh, h)
        return h
    if isinstance(h, GridFunction):
        check_same_mesh(mesh, h)
        h = at_quad(mesh, h.values)
    return QuadField(mesh, h)


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


def gradient(u: GridFunction) -> np.ndarray:
    """|grad u| per cell of the P1 interpolant (read-only), from the
    squared norms ``u`` carries; exact for affine nodal data.  A field
    caches it as ``grad_norm``."""
    out = np.sqrt(u.grad_sq)
    out.setflags(write=False)
    return out


def distance_ratio(*fields: GridFunction):
    """(min, max) of u/d over the interior nodes and the ``fields`` u of one mesh."""
    mesh = fields[0].mesh
    check_same_mesh(mesh, *fields)
    ii = mesh.interior_nodes
    q = np.stack([u.values[ii] for u in fields]) / mesh.distance[ii]
    return float(q.min()), float(q.max())


def _load(mesh: Mesh, hq: np.ndarray) -> np.ndarray:
    """Nodal sums of hq times each hat, added point by point, vertex by vertex."""
    w = (mesh.qweights * hq).reshape(-1, mesh.q_per_cell)
    contrib = np.empty((*w.shape, mesh.cells.shape[1]))  # (cell, point, vertex)
    for (j, k), b in np.ndenumerate(mesh.qbasis):
        np.multiply(w[:, j], b, out=contrib[:, j, k])
    return np.bincount(mesh.cells.repeat(mesh.q_per_cell, axis=0).ravel(),
                       weights=contrib.ravel(), minlength=mesh.n_nodes)


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
    rows = np.column_stack([mesh.nodes, *(np.asarray(columns[k], dtype=float)
                                          for k in names)])
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["x", "y"][:mesh.dim] + names)
        writer.writerows(row.tolist() for row in rows)
