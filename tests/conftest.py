import os

import numpy as np
import pytest

from varpx import (DomainSpec, ExponentField, ProblemSpec, build_mesh, torsion,
                   torsion_delta)
from varpx.expspace import luxemburg_norm, luxemburg_norm_from_samples, modular
from varpx.forms import parse_expr
from varpx.grid import at_quad

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def count_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of ``owner.name``, which
    ``monkeypatch`` wraps until it is undone."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def point_tables(mesh):
    """Per-quadrature-point tables, the reference layout of the mesh's
    per-cell ones: each point's cell, the hats' values at each point, and
    the vertices of each point's cell, shapes (n_q,), (n_q, k), (n_q, k).
    Points are stored cell by cell, the same number per cell."""
    nc = len(mesh.cells)
    qcells = np.repeat(np.arange(nc), len(mesh.qbasis))
    return qcells, np.tile(mesh.qbasis, (nc, 1)), mesh.cells[qcells]


def assert_power_bounds(u, p):
    """norm^pmin <= modular <= norm^pmax when the norm exceeds one, and
    norm^pmax <= modular <= norm^pmin otherwise, to quadrature tolerance.
    Returns (modular, norm)."""
    rho, nrm = modular(u, p), luxemburg_norm(u, p)
    lo, hi = sorted((nrm ** p.p_minus, nrm ** p.p_plus))
    slack = 1e-12 + 1e-6 * max(hi, rho)
    assert lo - slack <= rho <= hi + slack
    return rho, nrm


def power_norm_bracket(u, m, k):
    """Norm of |u|^m(x) in the exponent-k(x)/m(x) space, asserted to lie
    between norm_k(u)^m_minus and norm_k(u)^m_plus (it is norm_k(u)^m(x0)
    for some x0).  Returns (value, lo, hi)."""
    mq = m.at_quad()
    value = luxemburg_norm_from_samples(np.abs(at_quad(u.mesh, u.values)) ** mq,
                                        k.at_quad() / mq, u.mesh.qweights)
    lo, hi = sorted(luxemburg_norm(u, k) ** e for e in (m.p_minus, m.p_plus))
    slack = 1e-12 + 1e-6 * max(1.0, hi)
    assert lo - slack <= value <= hi + slack
    return value, lo, hi


@pytest.fixture
def unit_interval():
    return build_mesh(DomainSpec.interval(0.0, 1.0), 64)


@pytest.fixture
def unit_square():
    return build_mesh(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 12)


def torsion_pairs(mesh, spec, delta):
    """(xi, xi_delta) per component at strip width ``delta``: the torsion
    solves and strip fields ``build_barriers`` scales into a barrier pair."""
    xi = tuple(torsion(p) for p in spec.p)
    return xi, tuple(torsion_delta(p, delta, xi=x.u) for p, x in zip(spec.p, xi))


def constant_fields(mesh, values):
    return tuple(ExponentField.constant(mesh, v) for v in values)


def benchmark_spec(mesh):
    """Singular-cooperative two-component system with convection terms:
    p1=2.2, p2=2.4, alpha/beta = (0.3, -0.1) and (-0.1, 0.3)."""
    cf = lambda c: ExponentField.constant(mesh, c)
    f1 = parse_expr({"add": [
        {"mul": [{"pow": {"base": "s1", "exp": 0.3}},
                 {"pow": {"base": "s2", "exp": -0.1}}]},
        {"mul": [0.5, {"pow": {"base": "xi1", "exp": 0.5}}]},
        {"mul": [0.5, {"pow": {"base": "xi2", "exp": 0.5}}]}]})
    f2 = parse_expr({"add": [
        {"mul": [{"pow": {"base": "s1", "exp": -0.1}},
                 {"pow": {"base": "s2", "exp": 0.3}}]},
        {"mul": [0.5, {"pow": {"base": "xi1", "exp": 0.5}}]},
        {"mul": [0.5, {"pow": {"base": "xi2", "exp": 0.5}}]}]})
    return ProblemSpec(mesh=mesh, p1=cf(2.2), p2=cf(2.4),
                       alpha=(cf(0.3), cf(-0.1)), beta=(cf(-0.1), cf(0.3)),
                       gamma=(cf(0.5), cf(0.5)), gamma_bar=(cf(0.5), cf(0.5)),
                       m=(1.0, 1.0), M=(1.0, 1.0), f=(f1, f2), N_dim=2)


def singular_spec(mesh):
    """Strongly singular system: alpha=-0.05, beta=-0.06 per component,
    p=3, gradient powers 0.5 within the smallness caps."""
    cf = lambda c: ExponentField.constant(mesh, c)
    fexpr = parse_expr({"add": [
        {"mul": [{"pow": {"base": "s1", "exp": -0.05}},
                 {"pow": {"base": "s2", "exp": -0.06}}]},
        {"mul": [0.25, {"pow": {"base": "xi1", "exp": 0.5}}]},
        {"mul": [0.25, {"pow": {"base": "xi2", "exp": 0.5}}]}]})
    return ProblemSpec(mesh=mesh, p1=cf(3.0), p2=cf(3.0),
                       alpha=(cf(-0.05), cf(-0.05)), beta=(cf(-0.06), cf(-0.06)),
                       gamma=(cf(0.5), cf(0.5)), gamma_bar=(cf(0.5), cf(0.5)),
                       m=(1.0, 1.0), M=(1.0, 1.0), f=(fexpr, fexpr), N_dim=2)


def trivial_spec(mesh, p=2.0):
    """Constant right-hand sides: the frozen map is constant, its fixed
    point is the torsion pair."""
    cf = lambda c: ExponentField.constant(mesh, c)
    one = parse_expr(1.0)
    return ProblemSpec(mesh=mesh, p1=cf(p), p2=cf(p),
                       alpha=(cf(0.0), cf(0.0)), beta=(cf(0.0), cf(0.0)),
                       gamma=(cf(0.0), cf(0.0)), gamma_bar=(cf(0.0), cf(0.0)),
                       m=(1.0, 1.0), M=(1.0, 1.0), f=(one, one), N_dim=2)


def envelope_spec(mesh, alpha, beta, m=1.0, M=1.0, p=2.0):
    """System whose nonlinearity is exactly the lower envelope
    m * s1^alpha * s2^beta (no gradient terms)."""
    cf = lambda c: ExponentField.constant(mesh, c)
    f = parse_expr({"mul": [m, {"pow": {"base": "s1", "exp": alpha}},
                            {"pow": {"base": "s2", "exp": beta}}]})
    return ProblemSpec(mesh=mesh, p1=cf(p), p2=cf(p),
                       alpha=(cf(alpha), cf(alpha)), beta=(cf(beta), cf(beta)),
                       gamma=(cf(0.0), cf(0.0)), gamma_bar=(cf(0.0), cf(0.0)),
                       m=(m, m), M=(M, M), f=(f, f), N_dim=2)
