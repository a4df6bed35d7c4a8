import numpy as np
import pytest

from varpx import barriers, plaplace

from varpx import (DomainSpec, ExponentField, GridFunction, Regime, ScaleFamily,
                   SolverOptions, build_mesh, calibrate_barriers, calibrate_caps,
                   fixed_point_iterate, gradient_estimate_audit,
                   linfty_estimate_audit, mvt_ratio, sandwich_audit,
                   solution_certificate, solve_dirichlet, torsion)
from varpx.errors import MeshCompatibilityError
from varpx.verify import (DEFAULT_SCALES, certificate_to_json, mvt_tolerance,
                          random_lipschitz_field, random_sign_constant_test)

from conftest import benchmark_spec, singular_spec


def mesh1d(n):
    return build_mesh(DomainSpec.interval(0.0, 1.0), n)


# -- mean value ratio --------------------------------------------------------

def test_mvt_constant_weight_factors_out():
    m = mesh1d(256)
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    h = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    rng = np.random.default_rng(11)
    phi = random_sign_constant_test(m, rng)
    for c in (0.5, 1.0, 3.0):
        f = GridFunction.constant(m, c)
        got = mvt_ratio(p, res.u, h, f, phi)
        assert got == pytest.approx(c, abs=1e-9)


def test_mvt_closed_form_case():
    # p = 2, h = 1, phi = u, f = 1+x: (1/8) / (1/12) = 1.5
    m = mesh1d(1024)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    f = GridFunction.from_callable(m, lambda x: 1 + x)
    got = mvt_ratio(p, res.u, h, f, res.u)
    assert got == pytest.approx(1.5, abs=1e-3)
    assert 1.0 <= got <= 2.0


def test_mvt_two_level_weight_interior_value():
    # f at its min on the left half and max on the right: testing with
    # phi = u mixes both regions, so the ratio is strictly interior
    m = mesh1d(512)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    x = m.nodes[:, 0]
    ramp = np.clip((x - 0.45) / 0.1, 0.0, 1.0)
    f = GridFunction(m, 1.0 + ramp)
    got = mvt_ratio(p, res.u, h, f, res.u)
    assert 1.0 + 1e-3 < got < 2.0 - 1e-3


def test_mvt_random_sampling_within_range():
    m = mesh1d(512)
    rng = np.random.default_rng(12)
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    h = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    tol = mvt_tolerance(m, res.residual)
    for _ in range(50):
        f = random_lipschitz_field(m, rng, 0.7, 1.9)
        phi = random_sign_constant_test(m, rng)
        got = mvt_ratio(p, res.u, h, f, phi)
        assert 0.7 - tol <= got <= 1.9 + tol


def test_random_lipschitz_field_2d_attains_range():
    m = build_mesh(DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0), 24)
    f = random_lipschitz_field(m, np.random.default_rng(4), 0.5, 2.0)
    assert f.values.min() == 0.5 and f.values.max() == 2.0


def test_mvt_degenerate_denominator_raises():
    m = mesh1d(64)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    zero_phi = GridFunction.constant(m, 0.0)
    f = GridFunction.constant(m, 1.0)
    with pytest.raises(ZeroDivisionError):
        mvt_ratio(p, res.u, h, f, zero_phi)


@pytest.mark.parametrize("length, scale", [(1e-7, 1.0), (1.0, 1e-15)],
                         ids=["small-domain", "small-data"])
def test_mvt_ratio_judges_against_the_data_scale(length, scale):
    # gamma_hat is a ratio, so neither the size of the domain nor that of
    # h may decide whether it is defined; p = 2, f = 1 and phi = u give 1
    m = build_mesh(DomainSpec.interval(0.0, length), 64)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, scale)
    res = solve_dirichlet(p, h)
    got = mvt_ratio(p, res.u, h, GridFunction.constant(m, 1.0), res.u)
    assert got == pytest.approx(1.0, rel=0, abs=mvt_tolerance(m, res.residual))


def test_mvt_rejects_sign_changing_phi():
    m = mesh1d(64)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, 1.0)
    res = solve_dirichlet(p, h)
    phi = GridFunction.from_callable(m, lambda x: np.sin(2 * np.pi * x))
    with pytest.raises(ValueError):
        mvt_ratio(p, res.u, h, GridFunction.constant(m, 1.0), phi)


def test_mvt_ratio_rejects_fields_on_another_mesh():
    # a field carries its mesh, so two fields on equal but distinct
    # meshes are still two meshes
    m, other = mesh1d(8), mesh1d(8)
    p = ExponentField.constant(m, 2.0)
    h = GridFunction.constant(m, 1.0)
    u = solve_dirichlet(p, h).u
    f = GridFunction.constant(m, 1.0)
    foreign_f = GridFunction.constant(other, 1.0)
    foreign_u = GridFunction(other, u.values, zero_trace=True)
    for args in ((foreign_u, h, f, u), (u, h, foreign_f, u), (u, h, f, foreign_u)):
        with pytest.raises(MeshCompatibilityError):
            mvt_ratio(p, *args)


# -- estimate audits ---------------------------------------------------------

def test_gradient_audit_linear_case_is_flat():
    m = mesh1d(512)
    p = ExponentField.constant(m, 2.0)
    a = gradient_estimate_audit(ScaleFamily(p, torsion(p)))
    assert a.verdict == "pass"
    assert a.spread < 1e-10
    # |u'|_max = (1-h)/2 for the discrete hat profile
    assert a.measured_ratio == pytest.approx((1 - m.h) / 2, rel=1e-10)


def test_gradient_audit_p3_flat_by_homogeneity():
    m = mesh1d(512)
    p = ExponentField.constant(m, 3.0)
    a = gradient_estimate_audit(ScaleFamily(p, torsion(p)))
    assert a.verdict == "pass" and a.spread < 1e-8
    assert a.measured_ratio == pytest.approx(2 ** -0.5, rel=1e-2)


def test_gradient_audit_variable_p_bounded():
    m = mesh1d(512)
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    a = gradient_estimate_audit(ScaleFamily(p, torsion(p)))
    assert a.verdict == "pass"
    ratios = [r for _, r in a.scale_family]
    assert ratios[-1] <= max(ratios)  # no blow-up at the top scale


def test_linfty_audit_linear_case():
    m = mesh1d(512)
    p = ExponentField.constant(m, 2.0)
    a = linfty_estimate_audit(ScaleFamily(p, torsion(p)))
    assert a.verdict == "pass"
    fam = dict((round(np.log10(s)), r) for s, r in a.scale_family)
    # |u|_inf = 1/8 and |h|_L2 = 1 at unit scale; linearity keeps the
    # ratio at 1/8 on the |h| > 1 branch
    assert fam[0] == pytest.approx(0.125, rel=1e-9)
    assert fam[2] == pytest.approx(0.125, rel=1e-9)
    assert a.notes  # records the N=2-in-1D deviation


def test_linfty_audit_branch_continuity():
    m = mesh1d(256)
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    scales = tuple(float(s) for s in np.linspace(0.9, 1.1, 11))
    a = linfty_estimate_audit(ScaleFamily(p, torsion(p), scales=scales))
    ratios = np.array([r for _, r in a.scale_family])
    jumps = np.abs(np.diff(ratios)) / ratios[:-1]
    assert jumps.max() < 0.05


def test_both_audits_of_one_family_share_its_solves(monkeypatch):
    m = mesh1d(64)
    p = ExponentField.from_callable(m, lambda x: 2 + x)
    family = ScaleFamily(p, torsion(p), scales=(0.5, 2.0, 8.0))
    solves = []
    orig = plaplace.solve_dirichlet

    def counted(*args, **kwargs):
        solves.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(plaplace, "solve_dirichlet", counted)
    grad = gradient_estimate_audit(family)
    # the first audit runs every solve, the second reads them
    assert len(solves) == len(family.scales)
    linfty = linfty_estimate_audit(family)
    assert len(solves) == len(family.scales)
    for a in (grad, linfty):
        assert [s for s, _ in a.scale_family] == list(family.scales)
        assert a.verdict == "pass"


def test_linfty_audit_reads_the_Ln_norm_of_the_data_in_2d():
    # N = 2 on the square: |lam|_L2 = |lam| up to quadrature roundoff
    m = build_mesh(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 8)
    p = ExponentField.constant(m, 2.0)
    family = ScaleFamily(p, torsion(p), scales=(0.5, 4.0))
    a = linfty_estimate_audit(family)
    assert not a.notes
    for (lam, r), u in zip(a.scale_family, family.solves):
        assert r == pytest.approx(np.abs(u.values).max() / lam, rel=1e-12)


# -- sandwich audit ----------------------------------------------------------

def test_sandwich_audit_torsion():
    m = mesh1d(512)
    xi = torsion(ExponentField.constant(m, 2.0)).u
    out = sandwich_audit((xi, xi))
    assert out["verdict"] == "pass"
    # u/d = (1-x)/2 on the left half: extremes 1/4 and (1-h)/2
    assert out["c0"] == pytest.approx(0.25, rel=1e-6)
    assert out["c1"] == pytest.approx((1 - m.h) / 2, rel=1e-6)


def test_sandwich_audit_synthetic_profiles():
    m = mesh1d(256)
    d = GridFunction(m, m.distance.copy(), zero_trace=True)
    out = sandwich_audit((d, d))
    assert out["c0"] == pytest.approx(1.0) and out["c1"] == pytest.approx(1.0)
    # boundary-flat profiles leak c0 -> 0 under refinement; the paired
    # stability audit must flag that
    m2 = mesh1d(512)
    flat2 = GridFunction(m2, m2.distance ** 2, zero_trace=True)
    paired = sandwich_audit((GridFunction(m, m.distance ** 2, zero_trace=True),) * 2,
                            refined=(flat2, flat2))
    assert paired["verdict"] == "fail"


def test_sandwich_stability_accepts_converging_solution():
    m = mesh1d(256)
    m2 = mesh1d(512)
    xi = torsion(ExponentField.constant(m, 2.0)).u
    xi2 = torsion(ExponentField.constant(m2, 2.0)).u
    out = sandwich_audit((xi, xi), refined=(xi2, xi2))
    assert out["verdict"] == "pass" and out["stability_checked"]


# -- certificate -------------------------------------------------------------

def _small_run(n=128, spec_fn=benchmark_spec):
    m = mesh1d(n)
    spec = spec_fn(m)
    cal = calibrate_barriers(spec)
    if spec.hypotheses.regime is Regime.POSITIVE_SUM:
        sol, rep = fixed_point_iterate(spec, cal.pair)
    else:
        caps = calibrate_caps(spec, cal.pair)
        sol, rep = caps.solution, caps.report
    return m, spec, cal, sol, rep


def test_certificate_deterministic_and_complete():
    m, spec, cal, sol, rep = _small_run()
    c1 = solution_certificate(spec, sol, cal.pair, rep,
                              rng=np.random.default_rng(5))
    c2 = solution_certificate(spec, sol, cal.pair, rep,
                              rng=np.random.default_rng(5))
    assert certificate_to_json(c1) == certificate_to_json(c2)
    for key in ("residuals", "membership", "sandwich", "audits",
                "hypothesis_report", "mesh"):
        assert key in c1
    assert c1["residuals"]["max"] <= 1e-6
    assert c1["membership"]["all_iterations"]


def test_certificate_detects_tampering():
    m, spec, cal, sol, rep = _small_run()
    bad0 = GridFunction(m, np.where(m.distance > 0, sol[0].values + 0.1, 0.0),
                        zero_trace=True)
    cert = solution_certificate(spec, (bad0, sol[1]), cal.pair, rep,
                                rng=np.random.default_rng(5))
    assert cert["residuals"]["max"] > 1e-3


@pytest.mark.parametrize("spec_fn,family_solves", [
    (benchmark_spec, 2 * len(DEFAULT_SCALES)),   # p1 != p2
    (singular_spec, len(DEFAULT_SCALES))])       # p1 == p2
def test_certificate_evaluates_frozen_data_once(monkeypatch, spec_fn, family_solves):
    m, spec, cal, sol, rep = _small_run(spec_fn=spec_fn)
    expected = solution_certificate(spec, sol, cal.pair, rep,
                                    rng=np.random.default_rng(5))
    calls = {"frozen": 0, "residual": 0, "solve": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(barriers, "frozen_rhs_quad",
                        counting("frozen", barriers.frozen_rhs_quad))
    monkeypatch.setattr(plaplace, "weak_residual",
                        counting("residual", plaplace.weak_residual))
    monkeypatch.setattr(plaplace, "solve_dirichlet",
                        counting("solve", plaplace.solve_dirichlet))
    cert = solution_certificate(spec, sol, cal.pair, rep,
                                rng=np.random.default_rng(5))
    assert certificate_to_json(cert) == certificate_to_json(expected)
    assert calls["frozen"] == 1
    # solves report their residual from the data they already hold, so
    # only the two component residuals at the solution call weak_residual
    assert calls["residual"] == 2
    # every solve is an audit solve: one per scale and distinct exponent,
    # shared by both audits, none for a component whose exponent equals
    # the first one's, and none at scale 1, where the pair's torsion serves
    distinct = family_solves // len(DEFAULT_SCALES)
    assert calls["solve"] == family_solves - distinct


def test_certificate_audits_solve_with_the_calibration_options(monkeypatch):
    # the lam = 1 audit solve is the pair's torsion, so every other scale
    # must be solved with the options that torsion was solved with
    m = mesh1d(128)
    spec = benchmark_spec(m)
    opts = SolverOptions(tol_residual=1e-9, max_newton=40)
    cal = calibrate_barriers(spec, opts)
    sol, rep = fixed_point_iterate(spec, cal.pair, solver_opts=opts)
    assert all(xi.opts == opts for xi in cal.pair.torsion)
    seen = []
    solve = plaplace.solve_dirichlet

    def recording(p, h, opts=None, start=None):
        seen.append(opts)
        return solve(p, h, opts, start)

    monkeypatch.setattr(plaplace, "solve_dirichlet", recording)
    cert = solution_certificate(spec, sol, cal.pair, rep, rng=np.random.default_rng(5))
    assert seen == [opts] * (2 * (len(DEFAULT_SCALES) - 1))
    assert all(a["verdict"] == "pass" for a in cert["audits"])
