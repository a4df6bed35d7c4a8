"""Scalar Dirichlet solves for the variable-exponent Laplacian.

-div(|grad u|^(p(x)-2) grad u) = h with zero boundary data is solved by
minimizing the strictly convex energy

    J(u) = int (1/p(x)) (|grad u|^2 + eps^2)^(p(x)/2) dx - int h u dx

over zero-trace P1 fields with damped Newton and Armijo backtracking.
The eps regularization keeps the Hessian nondegenerate where the
gradient vanishes (needed for p > 2); the reported residual is always
that of the UNregularized weak form, tested against every interior hat
function and normalized by the L1 mass of the data plus one, so
tolerances behave across the two scaling regimes of the data.

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

import ctypes
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import grid
from .errors import DeltaTooLargeError, NonFiniteFieldError, SolveError
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
    energies: list = field(default_factory=list, repr=False)


class _Layout:
    """Assembly data that depends on the mesh alone.

    P1 gradients are constant on each cell, so quadrature-weighted
    coefficients are summed per cell first; the (cell, k, l) entries of
    the element matrices are then scattered with one ``bincount`` into
    the upper band of the interior matrix in LAPACK storage
    ``ab[bw + i - j, j]``, factorized by ``dpbtrf`` and solved by
    ``dpbtrs`` from numpy's OpenBLAS (through SciPy where numpy ships
    none, see the module docstring).  Interior
    nodes are numbered row-major, so a cell couples nodes at most
    ``bw`` apart: 1 in 1D, ``n`` in 2D.  Holds no reference to the
    mesh, so the weak per-mesh cache below can release it.
    """

    def __init__(self, mesh: Mesh):
        cells, gb = mesh.cells, mesh.grad_basis
        nc, k = cells.shape
        self.q_per_cell = mesh.qweights.size // nc
        self.dots = np.einsum("ckd,cld->ckl", gb, gb)
        m = mesh.interior_nodes.size
        pos = np.full(mesh.n_nodes, -1)
        pos[mesh.interior_nodes] = np.arange(m)
        rows = np.broadcast_to(pos[cells][:, :, None], (nc, k, k)).ravel()
        cols = np.broadcast_to(pos[cells][:, None, :], (nc, k, k)).ravel()
        keep = (rows >= 0) & (rows <= cols)
        self.m = m
        self.bw = 1 if mesh.dim == 1 else mesh.n
        self.slot = (self.bw + rows[keep] - cols[keep]) * m + cols[keep]
        self.size = (self.bw + 1) * m
        self.keep = np.flatnonzero(keep)
        volumes = self.cell_sum(mesh.qweights)
        self.poisson = self.factor(self.assemble(volumes[:, None, None] * self.dots))

    def cell_sum(self, qvalues: np.ndarray) -> np.ndarray:
        """Per-cell sums of quadrature-point values (points are stored
        cell by cell)."""
        return qvalues.reshape(-1, self.q_per_cell).sum(axis=1)

    def assemble(self, local: np.ndarray) -> np.ndarray:
        """Interior matrix data from element matrices of shape (nc, k, k)."""
        return np.bincount(self.slot, weights=local.ravel()[self.keep],
                           minlength=self.size)

    def factor(self, data: np.ndarray):
        """Solve function for the interior system with matrix ``data``.
        Skips LAPACK's finiteness checks: a non-finite Hessian from the
        assembly yields a non-finite Newton direction, which
        ``solve_dirichlet`` rejects."""
        ab = np.array(data.reshape(self.bw + 1, self.m), order="F")
        return (_band_cholesky if _PBTRF_PBTRS else _band_cholesky_fallback)(ab)


def _find_pbtrf_pbtrs():
    """``dpbtrf`` and ``dpbtrs`` of the OpenBLAS numpy's ``linalg`` links,
    as ctypes functions, or None when that library or either symbol is
    missing.  dlsym on the extension's handle searches its dependencies;
    the wheels' OpenBLAS prefixes and suffixes its LAPACK names and takes
    64-bit integers."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        trf, trs = lib.scipy_dpbtrf_64_, lib.scipy_dpbtrs_64_
    except (ImportError, OSError, AttributeError):
        return None
    i64 = ctypes.POINTER(ctypes.c_int64)
    band, vec = (np.ctypeslib.ndpointer(np.float64, ndim=d, flags="F_CONTIGUOUS,WRITEABLE")
                 for d in (2, 1))
    # (uplo, n, kd, [nrhs,] ab, ldab, [b, ldb,] info), then gfortran's
    # hidden length of the character argument uplo
    trf.argtypes = [ctypes.c_char_p, i64, i64, band, i64, i64, ctypes.c_size_t]
    trs.argtypes = [ctypes.c_char_p, i64, i64, i64, band, i64, vec, i64, i64,
                    ctypes.c_size_t]
    trf.restype = trs.restype = None
    return trf, trs


_PBTRF_PBTRS = _find_pbtrf_pbtrs()


def _band_cholesky(ab: np.ndarray):
    """Solve function for the SPD matrix whose upper band ``ab`` holds
    (Fortran order, ``ab[kd + i - j, j]``), factorized in place."""
    trf, trs = _PBTRF_PBTRS
    ldab, n = (ctypes.c_int64(v) for v in ab.shape)
    kd, info = ctypes.c_int64(ldab.value - 1), ctypes.c_int64()
    trf(b"U", n, kd, ab, ldab, info, 1)
    if info.value > 0:
        raise SolveError("interior system could not be factorized: "
                         f"{info.value}-th leading minor not positive definite")
    if info.value:
        raise SolveError("interior system could not be factorized: "
                         f"dpbtrf rejected argument {-info.value}")

    def solve(rhs):
        x, info = np.array(rhs, dtype=np.float64), ctypes.c_int64()
        if x.shape != (n.value,):
            raise ValueError(f"right-hand side of shape {x.shape} for {n.value} unknowns")
        trs(b"U", n, kd, ctypes.c_int64(1), ab, ldab, x, n, info, 1)
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


def _cell_g2(mesh, lay, u_values):
    """Cell gradients and their squared norms repeated per quad point."""
    g = grid.cell_gradients(mesh, u_values)
    return g, np.repeat((g ** 2).sum(axis=1), lay.q_per_cell)


def _unreg_flux_coeff(g2: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """|g|^(p-2) with the correct zero limit of the flux at g = 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.power(g2, (pq - 2.0) / 2.0)
    return np.where(g2 > 0.0, c, 0.0)


def _flux_values(mesh, w, gdot):
    """Nodal sums of the cell weights ``w`` times grad u . grad(hat_k)."""
    return np.bincount(mesh.cells.ravel(), weights=(w[:, None] * gdot).ravel(),
                       minlength=mesh.n_nodes)


def apply_operator(p: ExponentField, u_values: np.ndarray) -> np.ndarray:
    """Nodal vector of int |grad u|^(p-2) grad u . grad(hat_j) dx for
    every node j of the mesh of ``p``."""
    mesh = p.mesh
    lay = _layout(mesh)
    g, g2 = _cell_g2(mesh, lay, u_values)
    w = lay.cell_sum(mesh.qweights * _unreg_flux_coeff(g2, p.at_quad()))
    return _flux_values(mesh, w, np.einsum("cd,ckd->ck", g, mesh.grad_basis))


def _energy(mesh, lay, pq, b, u_values, eps):
    """Regularized energy; ``b`` is the load vector of the data, so the
    linear term int h u is the nodal product b . u."""
    _, g2 = _cell_g2(mesh, lay, u_values)
    dens = np.power(g2 + eps * eps, pq / 2.0) / pq
    return float(mesh.qweights @ dens) - float(b @ u_values)


def _linearize(mesh, lay, pq, u_values, eps):
    """Regularized operator at ``u_values``, and a function assembling the
    energy Hessian there from the same cell arrays: isotropic weight plus
    a rank-one weight along the frozen gradient.  Needs eps > 0 so the
    weights stay finite at vanishing gradients."""
    g, g2 = _cell_g2(mesh, lay, u_values)
    base = g2 + eps * eps
    aa = np.power(base, (pq - 2.0) / 2.0)
    A = lay.cell_sum(mesh.qweights * aa)
    gdot = np.einsum("cd,ckd->ck", g, mesh.grad_basis)

    def hessian():
        B = lay.cell_sum(mesh.qweights * ((pq - 2.0) * aa / base))
        return lay.assemble(A[:, None, None] * lay.dots
                            + B[:, None, None] * gdot[:, :, None] * gdot[:, None, :])

    return _flux_values(mesh, A, gdot), hessian


def _data_scale(mesh, hq) -> float:
    """int|h| + 1, the normalization of every reported residual."""
    return float(mesh.qweights @ np.abs(hq)) + 1.0


def _residual(mesh, values, b, scale):
    """Interior defect of the operator ``values`` and its max norm / ``scale``."""
    r = (values - b)[mesh.interior_nodes]
    return r, float(np.abs(r).max() / scale)


def weak_residual(p: ExponentField, u: GridFunction, h) -> float:
    """Max over interior hat functions of the mesh of ``p`` of the
    unregularized weak-form defect of ``u``, normalized by int|h| + 1."""
    mesh = p.mesh
    grid.check_same_mesh(mesh, u)
    hq = grid.as_quad_values(mesh, h)
    return _residual(mesh, apply_operator(p, u.values),
                     grid.load_vector(mesh, hq), _data_scale(mesh, hq))[1]


def solve_dirichlet(p: ExponentField, h, opts: SolverOptions | None = None,
                    start: GridFunction | None = None) -> ScalarSolveResult:
    """Minimize the regularized energy on the mesh of ``p``; report the
    unregularized weak residual.  Newton starts at the interior values
    of ``start`` when it is given (a field near the answer, such as the
    frozen state of a fixed-point map), else at the linear Poisson solve
    with the same data, which has the right sign structure and is cheap.

    Newton stops when the regularized residual, normalized like the
    reported one, reaches ``_NEWTON_FORCING * tol_residual``, when the
    line search stagnates, or after ``max_newton`` steps; the
    unregularized residual against ``tol_residual`` then sets the
    ``converged`` flag.  Non-convergence returns the best iterate
    flagged ``converged=False`` rather than raising; a singular Newton
    system raises SolveError (impossible for p_minus > 1 with
    regularization intact).
    """
    opts = opts or SolverOptions()
    mesh = p.mesh
    if p.p_minus <= 1.0:
        raise ValueError(f"solver requires p_minus > 1, got {p.p_minus}")
    hq = grid.as_quad_values(mesh, h)
    if not np.all(np.isfinite(hq)):
        raise NonFiniteFieldError("right-hand side has non-finite values")

    lay = _layout(mesh)
    eps = opts.eps_reg
    pq = p.at_quad()
    b = grid.load_vector(mesh, hq)
    scale = _data_scale(mesh, hq)
    ii = mesh.interior_nodes

    u = np.zeros(mesh.n_nodes)
    if start is None:
        u[ii] = lay.poisson(b[ii])
    else:
        grid.check_same_mesh(mesh, start)
        u[ii] = start.values[ii]
    energies = [_energy(mesh, lay, pq, b, u, eps)]
    steps = 0
    while steps < opts.max_newton:
        values, hessian = _linearize(mesh, lay, pq, u, eps)
        r, rnorm = _residual(mesh, values, b, scale)
        if rnorm <= _NEWTON_FORCING * opts.tol_residual:
            break
        du = lay.factor(hessian())(-r)
        steps += 1
        if not np.all(np.isfinite(du)):
            raise SolveError("Newton direction is non-finite")
        slope = float(r @ du)
        e0 = energies[-1]
        resolved = -slope > _ENERGY_RTOL * abs(e0)
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACK):
            trial = u.copy()
            trial[ii] += t * du
            et = _energy(mesh, lay, pq, b, trial, eps)
            if et <= e0 + _ARMIJO * t * slope or not resolved:
                u = trial
                energies.append(et)
                accepted = True
                break
            t *= _SHRINK
        if not accepted:
            break  # stagnation: the residual check below decides the flag

    res = _residual(mesh, apply_operator(p, u), b, scale)[1]
    converged = bool(res <= opts.tol_residual)
    uf = GridFunction(mesh, u, zero_trace=True)
    return ScalarSolveResult(u=uf, residual=res, newton_iters=steps, converged=converged,
                             energies=energies)


def torsion(p: ExponentField, opts: SolverOptions | None = None) -> GridFunction:
    """Zero-trace field with unit source on the mesh of ``p``: the
    reference profile whose distance-comparability anchors every
    positivity estimate."""
    res = solve_dirichlet(p, GridFunction.constant(p.mesh, 1.0), opts)
    if not res.converged:
        raise SolveError(f"torsion solve stalled at residual {res.residual:.3e}")
    return res.u


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
    res = solve_dirichlet(p, GridFunction(mesh, hv), opts)
    if not res.converged:
        raise SolveError(f"strip solve stalled at residual {res.residual:.3e}")
    xd = res.u
    interior = mesh.interior_nodes
    if np.any(xd.values[interior] <= 0.0):
        raise DeltaTooLargeError(
            f"strip field loses positivity for delta={delta}; halve delta")
    tol = 1e-10 * (1.0 + float(np.abs(xi.values).max()))
    if np.any(xd.values > xi.values + tol):
        raise SolveError("strip field exceeds the torsion field; "
                         "comparison violated beyond tolerance")
    return xd
