import os

import pytest

from varpx import (DomainSpec, ExponentField, ProblemSpec, build_mesh, torsion,
                   torsion_delta)
from varpx.forms import parse_expr

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


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
