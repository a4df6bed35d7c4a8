"""Scalar Dirichlet solves for the variable-exponent Laplacian.

-div(|grad u|^(p(x)-2) grad u) = h with zero boundary data is solved by
minimizing the strictly convex energy

    J(u) = int (1/p(x)) (|grad u|^2 + eps^2)^(p(x)/2) dx - int h u dx

over zero-trace P1 fields with damped Newton and Armijo backtracking.
The eps regularization keeps the Hessian nondegenerate where the
gradient vanishes (needed for p > 2); the reported residual is always
that of the UNregularized weak form, tested against every interior hat
function and normalized by the L1 mass of the data plus the measure of
the domain.  Both terms scale with the cell measure as the load entries
do, so tolerances behave across the two scaling regimes of the data,
and a small domain does not pass every stop test at once.

Every Newton system is factorized by LAPACK's banded Cholesky
``dpbtrf`` and solved by ``dpbtrs``, called through ctypes from the
OpenBLAS that numpy's own ``linalg`` links (the numpy wheels bundle an
ILP64 OpenBLAS in ``numpy.libs``), so no SciPy import sits on the
solver's path.  Where numpy links no such library (a conda or distro
numpy, say), the same two routines run through SciPy's
``cholesky_banded`` and ``cho_solve_banded`` instead; which path runs
is fixed at import by what the platform provides.
"""

from __future__ import annotations

import contextlib
import ctypes
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import grid
from .errors import DeltaTooLargeError, SolveError
from .expspace import ExponentField
from .grid import GridFunction, Mesh

_ARMIJO = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACK = 40
# Newton stops once the normalized regularized residual falls this far
# below tol_residual: past that point a step only chases roundoff.
_NEWTON_FORCING = 1e-4
# A predicted decrease below this fraction of the energy is roundoff to
# the Armijo test; Newton is then in its quadratic regime and takes the
# full step instead of backtracking on noise.
_ENERGY_RTOL = 1e-13


@dataclass
class SolverOptions:
    eps_reg: float = 1e-8
    tol_residual: float = 1e-6
    max_newton: int = 60

    def __post_init__(self):
        if not (self.eps_reg > 0 and self.tol_residual > 0 and self.max_newton >= 0):
            raise ValueError("eps_reg and tol_residual must be positive, max_newton >= 0")


@dataclass
class ScalarSolveResult:
    u: GridFunction
    residual: float          # unregularized weak residual, normalized
    newton_iters: int        # Newton systems solved
    converged: bool
    opts: SolverOptions      # the options of the solve
    energies: list = field(default_factory=list, repr=False)

    def checked(self, what: str) -> GridFunction:
        """``u`` if the solve converged; else SolveError naming ``what``."""
        if not self.converged:
            raise SolveError(f"{what} stalled at residual {self.residual:.3e}")
        return self.u


class _Layout:
    """Assembly data that depends on the mesh alone.

    P1 gradients are constant on each cell, so quadrature-weighted
    coefficients are summed per cell first.  Of the (cell, k, l) entries
    of the element matrices only those in the upper band of the interior
    matrix are formed, through flat index tables built here, and added
    straight into LAPACK's band storage ``ab[bw + i - j, j]`` laid out
    column by column, where ``dpbtrf`` factorizes it in place and
    ``dpbtrs`` solves with it, both from numpy's OpenBLAS (through SciPy
    where numpy ships none, see the module docstring).  The kept entries
    stay in (cell, k, l) order, so each band entry sums its terms in the
    order a scatter of the full element matrices would.  Interior nodes
    are numbered row-major, so a cell couples nodes at most ``bw`` apart:
    1 in 1D, ``n`` in 2D.  Every Newton system on the mesh is formed in
    the two kept-entry buffers ``entries`` and assembled and factorized
    in the one band buffer ``newton``, so a Newton step takes no fresh
    memory for them (freeing and retaking that much heap at every step
    costs a page fault per 4 KB); solves on a mesh run one at a time.
    Holds no reference to the mesh, so the weak per-mesh cache below can
    release it.
    """

    def __init__(self, mesh: Mesh):
        cells, gb = mesh.cells, mesh.grad_basis
        nc, k = cells.shape
        self.q_per_cell = mesh.q_per_cell
        # quadrature weights as (cell, point), a view
        self.qweights = mesh.qweights.reshape(nc, self.q_per_cell)
        m = mesh.interior_nodes.size
        pos = np.full(mesh.n_nodes, -1)
        pos[mesh.interior_nodes] = np.arange(m)
        rows = np.broadcast_to(pos[cells][:, :, None], (nc, k, k)).ravel()
        cols = np.broadcast_to(pos[cells][:, None, :], (nc, k, k)).ravel()
        keep = np.flatnonzero((rows >= 0) & (rows <= cols))
        self.m, self.k = m, k
        self.bw = 1 if mesh.dim == 1 else mesh.n
        self.size = (self.bw + 1) * m
        rows, cols = rows[keep], cols[keep]
        # kept entry (c, i, j) reads per-cell arrays at c and flat (cell,
        # vertex) arrays at c*k + i and c*k + j and adds into the band at
        # ``slot``; 32-bit tables halve the memory at little cost in time
        self.slot = (cols * (self.bw + 1) + self.bw + rows - cols).astype(np.int32)
        self.cell_at = (keep // (k * k)).astype(np.int32)
        self.row_at = (keep // k).astype(np.int32)
        self.col_at = (keep // (k * k) * k + keep % k).astype(np.int32)
        self.dots = np.einsum("ckd,cld->ckl", gb, gb).ravel()[keep]
        entries = np.take(self.cell_sum(self.qweights), self.cell_at) * self.dots
        self.poisson = self.factor(self.assemble(entries, np.empty(self.size)))
        self.newton = np.empty(self.size)
        self.entries = (np.empty(keep.size), np.empty(keep.size))

    def cell_sum(self, qvalues: np.ndarray) -> np.ndarray:
        """Per-cell sums of quadrature-point values (points are stored
        cell by cell, flat or as (cell, point)), added in point order as
        ``reshape(-1, q).sum(axis=1)`` adds them."""
        v = qvalues.reshape(-1, self.q_per_cell)
        out = v[:, 0] + v[:, 1]
        for j in range(2, self.q_per_cell):
            out += v[:, j]
        return out

    def assemble(self, entries: np.ndarray, band: np.ndarray) -> np.ndarray:
        """Band data, flat in column-major order, from the values of the
        kept element-matrix entries, written into ``band`` (of ``size``
        floats) and returned."""
        band.fill(0.0)
        np.add.at(band, self.slot, entries)
        return band

    def band(self, data: np.ndarray) -> np.ndarray:
        """The (bw + 1, m) band that flat ``data`` holds, as a view."""
        return data.reshape(self.m, self.bw + 1).T

    def factor(self, data: np.ndarray):
        """Solve function for the interior system with matrix ``data``,
        which is factorized in place.  Skips LAPACK's finiteness checks: a
        non-finite Hessian from the assembly yields a non-finite Newton
        direction, which ``solve_dirichlet`` rejects."""
        ab = self.band(data)
        return (_band_cholesky if _PBTRF_PBTRS else _band_cholesky_fallback)(ab)


def _numpy_openblas(*names):
    """The functions ``names`` of the OpenBLAS numpy's ``linalg`` links, as
    ctypes functions, or None when that library or any of them is
    missing.  dlsym on the extension's handle searches its dependencies;
    the wheels' OpenBLAS prefixes and suffixes its names."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        return [getattr(lib, name) for name in names]
    except (ImportError, OSError, AttributeError):
        return None


def _find_pbtrf_pbtrs():
    """``dpbtrf`` and ``dpbtrs`` of numpy's OpenBLAS, which take 64-bit
    integers, or None where they are missing."""
    found = _numpy_openblas("scipy_dpbtrf_64_", "scipy_dpbtrs_64_")
    if found is None:
        return None
    trf, trs = found
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # (uplo, n, kd, [nrhs,] ab, ldab, [b, ldb,] info), then gfortran's
    # hidden length of the character argument uplo; the arrays go by
    # address, so their layout is checked by the caller
    trf.argtypes = [ctypes.c_char_p, i64, i64, ptr, i64, i64, ctypes.c_size_t]
    trs.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, i64, ptr, i64, i64,
                    ctypes.c_size_t]
    trf.restype = trs.restype = None
    return trf, trs


_PBTRF_PBTRS = _find_pbtrf_pbtrs()
_ONE = ctypes.c_int64(1)


def _find_thread_count():
    """The getter and the setter of the thread count of numpy's OpenBLAS,
    or None where they are missing."""
    found = _numpy_openblas("scipy_openblas_get_num_threads64_",
                            "scipy_openblas_set_num_threads64_")
    if found is None:
        return None
    get, set_ = found
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_THREAD_COUNT = _find_thread_count()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and restore its
    thread count afterwards; a no-op where the library lacks the two
    calls.  The band systems are too small to gain from threads, and on a
    busy host threads that wait for a core cost a 2D run several times
    its time."""
    if _THREAD_COUNT is None:
        yield
        return
    get, set_ = _THREAD_COUNT
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def _band_cholesky(ab: np.ndarray):
    """Solve function for the SPD matrix whose upper band ``ab`` holds
    (Fortran order, ``ab[kd + i - j, j]``), factorized in place."""
    if not (ab.flags.f_contiguous and ab.flags.writeable and ab.dtype == np.float64):
        raise ValueError("band must be a writeable Fortran-ordered float64 array")
    trf, trs = _PBTRF_PBTRS
    ldab, n = ab.shape
    ldab, n, kd, info = (ctypes.c_int64(v) for v in (ldab, n, ldab - 1, 0))
    trf(b"U", n, kd, ab.ctypes.data, ldab, info, 1)
    if info.value > 0:
        raise SolveError("interior system could not be factorized: "
                         f"{info.value}-th leading minor not positive definite")
    if info.value:
        raise SolveError("interior system could not be factorized: "
                         f"dpbtrf rejected argument {-info.value}")

    def solve(rhs):
        x = np.array(rhs, dtype=np.float64)
        if x.shape != (n.value,):
            raise ValueError(f"right-hand side of shape {x.shape} for {n.value} unknowns")
        trs(b"U", n, kd, _ONE, ab.ctypes.data, ldab, x.ctypes.data, n, info, 1)
        if info.value:
            raise SolveError("interior system could not be solved: "
                             f"dpbtrs rejected argument {-info.value}")
        return x

    return solve


def _band_cholesky_fallback(ab: np.ndarray):
    """``_band_cholesky`` through SciPy, where numpy's OpenBLAS or one of
    its two routines is not found."""
    import scipy.linalg as sla
    try:
        cf = sla.cholesky_banded(ab, check_finite=False)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolveError(f"interior system could not be factorized: {exc}")
    return lambda rhs: sla.cho_solve_banded((cf, False), rhs, check_finite=False)


_LAYOUTS = weakref.WeakKeyDictionary()  # Mesh -> _Layout


def _layout(mesh: Mesh) -> _Layout:
    lay = _LAYOUTS.get(mesh)
    if lay is None:
        lay = _LAYOUTS[mesh] = _Layout(mesh)
    return lay


class _Powers:
    """The exponent of a solve at the quadrature points, shaped (cell,
    point), and the powers its energy and derivatives raise to: p/2,
    p - 2 and (p - 2)/2, each formed once per solve."""

    def __init__(self, p: ExponentField, q: int):
        self.p = p.at_quad().reshape(-1, q)
        self.half = self.p / 2.0
        self.excess = self.p - 2.0
        self.half_excess = self.excess / 2.0


def _regularized(lay, u, eps):
    """|grad u|^2 + eps^2 of the field ``u`` at each quadrature point of
    the cell, shaped (cell, point)."""
    return (u.grad_sq + eps * eps).repeat(lay.q_per_cell).reshape(-1, lay.q_per_cell)


def flux_coefficient(g2: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """|g|^(p-2) from the squared norms ``g2`` and the exponent ``pq`` at
    the same points, with the zero limit of the flux |g|^(p-2) g where
    g = 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.power(g2, (pq - 2.0) / 2.0)
    return np.where(g2 > 0.0, c, 0.0)


def _flux_values(mesh, w, gdot):
    """Nodal sums of the cell weights ``w`` times grad u . grad(hat_k),
    given per (cell, vertex) as a field's ``projections``."""
    return np.bincount(mesh.cells.ravel(), weights=(w[:, None] * gdot).ravel(),
                       minlength=mesh.n_nodes)


def apply_operator(p: ExponentField, u: GridFunction) -> np.ndarray:
    """Nodal vector of int |grad u|^(p-2) grad u . grad(hat_j) dx for
    every node j of the mesh of ``p``, from the squared gradient norms and
    projections ``u`` carries."""
    mesh = p.mesh
    grid.check_same_mesh(mesh, u)
    lay = _layout(mesh)
    g2 = u.grad_sq.repeat(lay.q_per_cell)
    w = lay.cell_sum(mesh.qweights * flux_coefficient(g2, p.at_quad()))
    return _flux_values(mesh, w, u.projections)


def _energy(mesh, pw, b, u, base):
    """Regularized energy of the field ``u``, whose ``_regularized``
    squared gradient norms are ``base``; ``b`` is the load vector of the
    data, so the linear term int h u is the nodal product b . u.  A power
    that overflows makes the energy inf, which the line search rejects."""
    with np.errstate(over="ignore"):
        dens = np.power(base, pw.half)
    dens /= pw.p
    return float(mesh.qweights @ dens.ravel()) - float(b @ u.values)


def _linearize(mesh, lay, pw, u, base):
    """Regularized operator at the iterate ``u``, whose ``_regularized``
    norms are ``base``, and a function assembling the energy Hessian there
    from the same cell arrays into a given band buffer: isotropic weight
    plus a rank-one weight along the frozen gradient.  Needs eps > 0 so
    the weights stay finite at vanishing gradients."""
    aa = np.power(base, pw.half_excess)
    A = lay.cell_sum(lay.qweights * aa)
    gdot = u.projections

    def hessian(band):
        weight = pw.excess * aa
        weight /= base
        weight *= lay.qweights
        rank_one, entries = lay.entries
        # (B g.grad(hat_i)) (g.grad(hat_j)); ``entries`` holds the second
        # factor until it takes the isotropic part A grad(hat_i).grad(hat_j)
        (lay.cell_sum(weight)[:, None] * gdot).take(lay.row_at, out=rank_one)
        rank_one *= gdot.take(lay.col_at, out=entries)
        A.take(lay.cell_at, out=entries)
        entries *= lay.dots
        entries += rank_one
        return lay.assemble(entries, band)

    return _flux_values(mesh, A, gdot), hessian


def _data(mesh, h):
    """The load vector of the data ``h`` and int|h| + |Omega|, the
    normalization of every reported residual, which scales with the domain
    as the load does; a QuadField's own serve, formed once however many
    solves and residuals read it."""
    if not isinstance(h, grid.QuadField):
        h = grid.QuadField(mesh, grid.as_quad_values(mesh, h))
    grid.check_same_mesh(mesh, h)
    return h.load, h.l1_norm + float(mesh.qweights.sum())


def _residual(mesh, values, b, scale):
    """Interior defect of the operator ``values`` and its max norm / ``scale``."""
    r = (values - b)[mesh.interior_nodes]
    return r, float(np.abs(r).max() / scale)


def weak_residual(p: ExponentField, u: GridFunction, h) -> float:
    """Max over interior hat functions of the mesh of ``p`` of the
    unregularized weak-form defect of ``u``, normalized by int|h| + |Omega|."""
    b, scale = _data(p.mesh, h)
    return _residual(p.mesh, apply_operator(p, u), b, scale)[1]


def solve_dirichlet(p: ExponentField, h, opts: SolverOptions | None = None,
                    start: GridFunction | None = None) -> ScalarSolveResult:
    """Minimize the regularized energy on the mesh of ``p``; report the
    unregularized weak residual.  Newton starts at ``start`` when it is
    given, a zero-trace field near the answer such as the frozen state of
    a fixed-point map, else at the linear Poisson solve with the same
    data, which has the right sign structure and is cheap.  Each accepted
    line-search trial is the next iterate, a field, and the result is the
    last, so every reader of an iterate shares what it derives.

    Newton stops when the regularized residual, normalized like the
    reported one, reaches ``_NEWTON_FORCING * tol_residual``, when the
    line search stagnates, or after ``max_newton`` steps; the
    unregularized residual against ``tol_residual`` then sets the
    ``converged`` flag.  Non-convergence returns the best iterate
    flagged ``converged=False`` rather than raising; a singular Newton
    system raises SolveError (impossible for p_minus > 1 with
    regularization intact), and so does a start whose energy overflows.
    A trial step whose energy overflows is rejected like one that fails
    the Armijo test.
    """
    opts = opts or SolverOptions()
    mesh = p.mesh
    if p.p_minus <= 1.0:
        raise ValueError(f"solver requires p_minus > 1, got {p.p_minus}")
    b, scale = _data(mesh, h)

    lay = _layout(mesh)
    eps = opts.eps_reg
    pw = _Powers(p, lay.q_per_cell)
    ii = mesh.interior_nodes

    if start is None:
        u = np.zeros(mesh.n_nodes)
        u[ii] = lay.poisson(b[ii])
        u = GridFunction(mesh, u, zero_trace=True)
    else:
        grid.check_same_mesh(mesh, start)
        if not start.zero_trace:
            raise ValueError("the Newton start must be a zero-trace field")
        u = start
    base = _regularized(lay, u, eps)
    energies = [_energy(mesh, pw, b, u, base)]
    if not np.isfinite(energies[0]):
        raise SolveError("energy of the Newton start is non-finite")
    steps = 0
    while steps < opts.max_newton:
        values, hessian = _linearize(mesh, lay, pw, u, base)
        r, rnorm = _residual(mesh, values, b, scale)
        if rnorm <= _NEWTON_FORCING * opts.tol_residual:
            break
        du = lay.factor(hessian(lay.newton))(-r)
        del values, hessian  # the line search needs neither; free them first
        steps += 1
        if not np.isfinite(du).all():
            raise SolveError("Newton direction is non-finite")
        slope = float(r @ du)
        e0 = energies[-1]
        resolved = -slope > _ENERGY_RTOL * abs(e0)
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACK):
            trial = u.values.copy()
            trial[ii] += t * du
            trial = GridFunction(mesh, trial, zero_trace=True)
            trial_base = _regularized(lay, trial, eps)
            et = _energy(mesh, pw, b, trial, trial_base)
            if np.isfinite(et) and (et <= e0 + _ARMIJO * t * slope or not resolved):
                u, base = trial, trial_base
                energies.append(et)
                accepted = True
                break
            t *= _SHRINK
        if not accepted:
            break  # stagnation: the residual check below decides the flag

    res = _residual(mesh, apply_operator(p, u), b, scale)[1]
    converged = bool(res <= opts.tol_residual)
    return ScalarSolveResult(u=u, residual=res, newton_iters=steps, converged=converged,
                             opts=opts, energies=energies)


def torsion(p: ExponentField, opts: SolverOptions | None = None) -> ScalarSolveResult:
    """Converged solve with unit source on the mesh of ``p`` (SolveError
    otherwise).  Its field is the reference profile whose
    distance-comparability anchors every positivity estimate; the audits
    that need the same solve read it, residual and options included,
    from this result."""
    res = solve_dirichlet(p, GridFunction.constant(p.mesh, 1.0), opts)
    res.checked("torsion solve")
    return res


def torsion_delta(p: ExponentField, delta: float, xi: GridFunction,
                  opts: SolverOptions | None = None) -> GridFunction:
    """Torsion-like field on the mesh of ``p`` with source +1 away from
    the boundary and -1 on the strip {d < delta}.

    Checks a posteriori that the result stays positive at interior nodes
    (raises DeltaTooLargeError otherwise, so callers can halve delta)
    and that it sits below ``xi``, the plain torsion field, nodewise.
    """
    mesh = p.mesh
    strip = grid.boundary_strip(mesh, delta)
    hv = np.ones(mesh.n_nodes)
    hv[strip] = -1.0
    xd = solve_dirichlet(p, GridFunction(mesh, hv), opts).checked("strip solve")
    interior = mesh.interior_nodes
    if np.any(xd.values[interior] <= 0.0):
        raise DeltaTooLargeError(
            f"strip field loses positivity for delta={delta}; halve delta")
    tol = 1e-10 * (1.0 + float(np.abs(xi.values).max()))
    if np.any(xd.values > xi.values + tol):
        raise SolveError("strip field exceeds the torsion field; "
                         "comparison violated beyond tolerance")
    return xd
