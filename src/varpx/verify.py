"""Numerical audits of the a priori estimates and identities.

Each estimate audit measures a candidate constant across one exponent's
scale family and certifies boundedness; the constants themselves exist
only abstractly upstream, so the measured values are regression data,
not reference values.  The mean-value ratio check evaluates

    gamma_hat = int f |grad u|^(p-2) grad u . grad phi dx / int h phi dx

for a solve u of the scalar Dirichlet problem with sign-constant data h
and a sign-constant test field phi, and asserts gamma_hat lies in the
range of f up to a tolerance coupled to the solver residual (the
identity is exact only for the exact weak solution).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import grid, plaplace
from .expspace import ExponentField, per_distinct
from .grid import GridFunction, Mesh
from .plaplace import ScalarSolveResult
from .sysfix import SystemState

DEFAULT_SCALES = (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)

SCHEMA_VERSION = 1  # of the certificate's layout, which the failure stub shares

# An audit family fails if the top-of-scale trend still grows by more
# than this fraction (blow-up), or if any ratio is non-finite.
_TREND_TOL = 0.05

# The sandwich constants may drift by this fraction under one refinement.
_SANDWICH_TOL = 0.2

# Mean-value spot checks per component, draws of the standalone
# sampling, and the range of their weights.
_MVT_CHECKS = 5
_MVT_SAMPLES = 50
_MVT_RANGE = (0.5, 2.0)
_EPS = float(np.finfo(float).eps)


@dataclass
class EstimateAudit:
    name: str
    measured_ratio: float            # candidate constant: max of the family
    scale_family: list               # (input_scale, ratio) pairs
    verdict: str                     # "pass" | "fail"
    tolerance: float
    spread: float = 0.0              # (max-min)/max over the family
    notes: list = field(default_factory=list)

    def as_dict(self):
        def safe(v):
            return float(v) if np.isfinite(v) else None

        return {
            "name": self.name,
            "measured_ratio": safe(self.measured_ratio),
            "ratios": [[safe(s), safe(r)] for s, r in self.scale_family],
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "spread": safe(self.spread),
            "notes": list(self.notes),
        }


def _family_verdict(ratios):
    arr = np.array([r for _, r in ratios])
    if not np.all(np.isfinite(arr)):
        return "fail", 0.0
    spread = float((arr.max() - arr.min()) / arr.max()) if arr.max() > 0 else 0.0
    if len(arr) >= 3:
        trend = (arr[-1] - arr[-3]) / arr[-3] if arr[-3] > 0 else 0.0
        if trend > _TREND_TOL:
            return "fail", spread
    return "pass", spread


@dataclass
class ScaleFamily:
    """One exponent's solves with constant data lam at each scale, run on
    first read, so the audits reading one family solve each problem once.
    ``torsion`` is the checked unit-data solve of ``p`` (``plaplace.torsion``):
    it is the solve at lam = 1, and the others run with its options."""

    p: ExponentField
    torsion: ScalarSolveResult
    scales: tuple = DEFAULT_SCALES

    @cached_property
    def solves(self) -> tuple:
        grid.check_same_mesh(self.p.mesh, self.torsion.u)
        out = []
        for lam in self.scales:
            res = self.torsion if lam == 1.0 else plaplace.solve_dirichlet(
                self.p, GridFunction.constant(self.p.mesh, lam), self.torsion.opts)
            out.append(res.checked(f"audit solve at scale {lam}"))
        return tuple(out)

    def audit(self, name, norm, size, notes=()) -> EstimateAudit:
        """Ratios size(u) / norm(lam)^(1/(p_pm - 1)) over the solves u, with
        branch exponent p_minus when norm(lam) exceeds one, else p_plus."""
        ratios = []
        for lam, u in zip(self.scales, self.solves):
            hnorm = norm(lam)
            expo = self.p.p_minus if hnorm > 1.0 else self.p.p_plus
            ratios.append((float(lam), float(size(u) / hnorm ** (1.0 / (expo - 1.0)))))
        verdict, spread = _family_verdict(ratios)
        return EstimateAudit(name=name, measured_ratio=max(r for _, r in ratios),
                             scale_family=ratios, verdict=verdict,
                             tolerance=_TREND_TOL, spread=spread, notes=list(notes))


def gradient_estimate_audit(family: ScaleFamily) -> EstimateAudit:
    """Ratio |grad u|_inf / |h|_inf^(1/(p_pm - 1)) across the family, with
    the branch exponent chosen by whether |h|_inf = |lam| exceeds one.
    Passes when the family stays bounded (no growth trend at the top
    scales)."""
    return family.audit("gradient_estimate", lambda lam: abs(float(lam)),
                        lambda u: float(u.grad_norm.max()))


def linfty_estimate_audit(family: ScaleFamily) -> EstimateAudit:
    """Ratio |u|_inf / |h|_LN^(1/(p_pm - 1)) across the family.  The
    exponent N is the mesh's ``N``; where it exceeds the dimension (N=2
    on one-dimensional meshes) that is recorded as a deviation."""
    mesh = family.p.mesh
    N = mesh.N
    notes = ([f"dim={mesh.dim}: N={N} used for the exponent arithmetic"]
             if N != mesh.dim else [])
    unit = grid.at_quad(mesh, np.ones(mesh.n_nodes))
    return family.audit(
        "linfty_estimate",
        lambda lam: float((mesh.qweights @ np.abs(lam * unit) ** N) ** (1.0 / N)),
        lambda u: float(np.abs(u.values).max()), notes)


def estimate_audits(ps, kinds, torsions) -> list:
    """Unit-data audits of each kind ("gradient", "linfty") for each
    exponent of ``ps``, component by component, named
    ``<kind>_estimate_p<i>``; all kinds read one ScaleFamily per distinct
    exponent, built on the matching torsion solve of ``torsions``."""

    def audits(p, xi):
        family = ScaleFamily(p, xi)
        # looked up per call, so a wrapper bound to the module name applies
        run = {"gradient": gradient_estimate_audit, "linfty": linfty_estimate_audit}
        return [run[kind](family) for kind in kinds]

    return [replace(a, name=f"{kind}_estimate_p{i + 1}")
            for i, per in enumerate(per_distinct(audits, ps, torsions))
            for kind, a in zip(kinds, per)]


def mvt_ratio(p: ExponentField, u: GridFunction, h, f: GridFunction,
              phi: GridFunction) -> float:
    """The flux-weighted mean value gamma_hat of f against the test
    field phi; f Lipschitz with known range, phi sign-constant with zero
    trace, h the sign-constant data of the solve that produced u, all on
    the mesh of ``p``."""
    mesh = p.mesh
    grid.check_same_mesh(mesh, u, f, phi)
    pv = phi.values
    if np.any(pv > 0) and np.any(pv < 0):
        raise ValueError("phi must be sign-constant")
    if np.any(pv[mesh.boundary_nodes] != 0.0):
        raise ValueError("phi must vanish on the boundary")
    hq = grid.as_quad(mesh, h).values
    # relative to max|h| and int|h phi|: no size of h or of the domain is degenerate
    htol = 1e-14 * float(np.abs(hq).max(initial=0.0))
    if np.any(hq > htol) and np.any(hq < -htol):
        raise ValueError("h must be sign-constant")
    hphi = hq * grid.at_quad(mesh, pv)
    den = float(mesh.qweights @ hphi)
    if abs(den) <= 1e-14 * float(mesh.qweights @ np.abs(hphi)):
        raise ZeroDivisionError("degenerate test field: int h phi vanishes")
    coeff = plaplace.flux_coefficient(u.grad_sq.repeat(mesh.q_per_cell), p.at_quad())
    dots = (u.grad * phi.grad).sum(axis=1).repeat(mesh.q_per_cell)
    fq = grid.at_quad(mesh, f.values)
    num = float(mesh.qweights @ (fq * coeff * dots))
    return num / den


def mvt_tolerance(mesh: Mesh, solver_residual: float) -> float:
    """5 x (solver residual + quadrature tolerance); the quadrature term
    is the (h/l)^2 consistency scale of the P1 pipeline, with l the
    longest side of the domain, so that it is dimensionless like
    gamma_hat; but no smaller than the rounding of a sum over the
    quadrature points, which bounds how well gamma_hat, a ratio of two
    such sums, is known on any domain."""
    rel_h = mesh.h / mesh.longest_side
    return 5.0 * (solver_residual + max(rel_h ** 2, mesh.qweights.size * _EPS))


def random_lipschitz_field(mesh: Mesh, rng: np.random.Generator, lo: float,
                           hi: float, knots: int = 17) -> GridFunction:
    """Piecewise-linear random field with a mesh-independent Lipschitz
    scale: random values at a coarse knot grid, interpolated, then
    rescaled to attain [lo, hi] exactly."""
    vals = grid.interpolate(mesh.domain, rng.normal(size=knots ** mesh.dim), mesh.nodes)
    vmin, vmax = vals.min(), vals.max()
    if vmax - vmin < 1e-12:
        vals = np.full_like(vals, 0.5 * (lo + hi))
    else:
        vals = lo + (hi - lo) * (vals - vmin) / (vmax - vmin)
    return GridFunction(mesh, vals)


def random_sign_constant_test(mesh: Mesh, rng: np.random.Generator) -> GridFunction:
    """Nonnegative zero-trace test field: a coarse random positive
    profile times the distance field (keeping the Lipschitz scale
    mesh-independent and the trace exactly zero)."""
    base = random_lipschitz_field(mesh, rng, 0.1, 1.0, knots=9)
    vals = base.values * mesh.distance
    vals[mesh.boundary_nodes] = 0.0
    return GridFunction(mesh, vals, zero_trace=True)


def sandwich_audit(solution, refined=None) -> dict:
    """Distance-comparability constants of an accepted solution pair:
    c0 = min u_i/d, c1 = max u_i/d over interior nodes.  Pass requires
    c0 > 0 with both constants stable within _SANDWICH_TOL under one mesh
    refinement; ``refined``, the (SystemState, IterationReport) of the
    run at the finer resolution, supplies that part of the audit when it
    is wanted: an unconverged refined run establishes no stability, so
    the audit then fails."""
    per = [dict(zip(("c0", "c1"), grid.distance_ratio(u))) for u in solution]
    c0 = min(p["c0"] for p in per)
    c1 = max(p["c1"] for p in per)
    out = {"c0": c0, "c1": c1, "per_component": per,
           "stability_checked": False, "verdict": "pass"}
    if not (c0 > 0.0 and np.isfinite(c1)):
        out["verdict"] = "fail"
        return out
    if refined is not None:
        fine, report = refined
        fc0, fc1 = grid.distance_ratio(*fine.z)
        out["stability_checked"] = True
        out["refined"] = {"c0": fc0, "c1": fc1, "iters": report.iters,
                          "converged": bool(report.converged)}
        drift0 = abs(fc0 - c0) / max(abs(c0), 1e-30)
        drift1 = abs(fc1 - c1) / max(abs(c1), 1e-30)
        out["drift"] = {"c0": drift0, "c1": drift1}
        if drift0 > _SANDWICH_TOL or drift1 > _SANDWICH_TOL or fc0 <= 0.0:
            out["verdict"] = "fail"
        if not report.converged:
            out["verdict"] = "fail"
            out["notes"] = ["refined run did not converge: "
                            "stability is not established"]
    return out


def mvt_spot_checks(state: SystemState, rng: np.random.Generator) -> list:
    """Mean-value checks on the state's own component equations, against
    its frozen data, with random Lipschitz weights and the state itself as
    test field; each tolerance is coupled to the component's residual."""
    mesh = state.spec.mesh
    lo, hi = _MVT_RANGE
    checks = []
    for i, (p, u, hq, resid) in enumerate(zip(state.spec.p, state.z, state.frozen,
                                              state.residuals)):
        tol = mvt_tolerance(mesh, resid)
        for _ in range(_MVT_CHECKS):
            f = random_lipschitz_field(mesh, rng, lo, hi)
            checks.append({"component": i + 1, "range": [lo, hi], "tolerance": tol,
                           **_mvt_check(p, u, hq, f, u, tol)})
    return checks


def _mvt_check(p, u, h, f, phi, tol) -> dict:
    """gamma_hat, and whether it lies in _MVT_RANGE up to ``tol``."""
    gam = mvt_ratio(p, u, h, f, phi)
    lo, hi = _MVT_RANGE
    return {"gamma_hat": gam, "ok": bool(lo - tol <= gam <= hi + tol)}


def mvt_sampling(ps, rng: np.random.Generator, torsions) -> list:
    """Mean-value checks on each exponent's unit-data solve, the matching
    torsion solve of ``torsions``, named ``mvt_sampling_p<i>``, drawing a
    random Lipschitz weight f and then a sign-constant test field phi per
    check from ``rng``, component by component; equal exponents share
    their checks."""
    mesh = ps[0].mesh
    ones = grid.as_quad(mesh, GridFunction.constant(mesh, 1.0))

    def sample(p, res):
        u = res.checked("mean-value sampling solve")
        tol = mvt_tolerance(mesh, res.residual)
        checks = []
        for _ in range(_MVT_SAMPLES):
            f = random_lipschitz_field(mesh, rng, *_MVT_RANGE)
            phi = random_sign_constant_test(mesh, rng)
            checks.append(_mvt_check(p, u, ones, f, phi, tol))
        return {"tolerance": tol, "checks": checks,
                "verdict": "pass" if all(c["ok"] for c in checks) else "fail"}

    return [{"name": f"mvt_sampling_p{i + 1}", **entry}
            for i, entry in enumerate(per_distinct(sample, ps, torsions))]


def certificate_to_json(cert: dict) -> str:
    """Stable serialization: sorted keys, shortest round-trip floats."""
    return json.dumps(cert, sort_keys=True, indent=2, allow_nan=False) + "\n"


def solution_certificate(state: SystemState, report, refined,
                         rng: np.random.Generator) -> dict:
    """Machine-readable verification record for a completed run, the
    final ``state`` of its iteration and the ``report`` of it: residuals,
    membership, sandwich constants, hypothesis report, the estimate
    audits (on the torsion solves of the state's pair, with their solver
    options), and mean-value spot checks; ``refined``, the (state,
    report) of the run on the refined mesh, goes to ``sandwich_audit``.
    The state's frozen data and residuals are read, not recomputed.
    Deterministic given the same inputs and rng seed."""
    spec, pair = state.spec, state.pair
    mesh = spec.mesh
    r1, r2 = state.residuals
    audits = estimate_audits(spec.p, ("gradient", "linfty"), pair.torsion)
    sandwich = sandwich_audit(state.z, refined)
    mvt = mvt_spot_checks(state, rng)
    cert = {
        "schema_version": SCHEMA_VERSION,
        "mesh": {"dim": mesh.dim, "n": mesh.n, "h": mesh.h},
        "residuals": {"component_1": r1, "component_2": r2, "max": max(r1, r2)},
        "membership": {
            "final": bool(report.membership_trace[-1]),
            "all_iterations": bool(all(report.membership_trace)),
            "gradient_cap_all": bool(all(report.grad_cap_trace)),
        },
        "iteration": {"iters": report.iters, "converged": bool(report.converged),
                      "damping": report.damping_used},
        "sandwich": sandwich,
        "barriers": {"C": pair.C, "delta": pair.delta, "R": pair.R,
                     "c0_measured": pair.c0_measured,
                     "c1_measured": pair.c1_measured},
        "hypothesis_report": spec.hypotheses.as_dict(),
        "audits": [a.as_dict() for a in audits],
        "mvt_spot_checks": mvt,
    }
    if report.caps is not None:
        cert["caps"] = {"L": report.caps[0], "L_tilde": report.caps[1]}
    audits_pass = (all(a.verdict == "pass" for a in audits)
                   and sandwich["verdict"] == "pass"
                   and all(c["ok"] for c in mvt))
    cert["all_audits_pass"] = bool(audits_pass)
    return cert
