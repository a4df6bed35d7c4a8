import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from varpx import barriers, cli, errors, plaplace, sysfix, verify
from varpx.cli import main, parse_config, run, run_pipeline, sweep
from varpx.errors import ConfigError, SolveError
from varpx import Regime

from conftest import REPO_ROOT, config_path, count_calls


def load(name):
    with open(config_path(name)) as f:
        return f.read()


# every exception class of the package, plus the bare classes that
# escape it: each must follow the exit-code contract
ERROR_CLASSES = sorted((c for c in vars(errors).values()
                        if isinstance(c, type) and issubclass(c, Exception)),
                       key=lambda c: c.__name__)
FAULTS = ERROR_CLASSES + [OSError, AssertionError]


def injected(exc_type):
    if exc_type is ConfigError:
        return ConfigError("$", "injected fault")
    return exc_type("injected fault")


def minimal_config(**overrides):
    cfg = {
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
        "resolution": 32,
        "N_dim": 2,
        "p": [2.0, 2.0],
        "alpha": [0.1, 0.1],
        "beta": [0.1, 0.1],
        "gamma": [0.3, 0.3],
        "gamma_bar": [0.3, 0.3],
        "m": [1.0, 1.0],
        "M": [1.0, 1.0],
        "f": [
            {"mul": [{"pow": {"base": "s1", "exp": 0.1}},
                     {"pow": {"base": "s2", "exp": 0.1}}]},
            {"mul": [{"pow": {"base": "s1", "exp": 0.1}},
                     {"pow": {"base": "s2", "exp": 0.1}}]},
        ],
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def test_parse_minimal_config():
    cfg = parse_config(json.dumps(minimal_config()))
    assert cfg.resolution == 32
    assert cfg.problem.hypotheses.regime is Regime.POSITIVE_SUM


def test_parse_rejects_gamma_boundary():
    cfg = minimal_config(gamma=[1.0, 1.0], gamma_bar=[1.0, 1.0])
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(cfg))
    assert "gradient_power_growth" in str(exc.value)


def test_parse_rejects_bad_schema():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"domain": {"kind": "interval", "a": 0, "b": 1}}))
    assert "resolution" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config("not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps(minimal_config(resolution=8)))


def test_parse_rejects_envelope_escape():
    cfg = minimal_config(f=[5.0, 5.0])  # constant 5 escapes M=1 envelope
    with pytest.raises(ConfigError):
        parse_config(json.dumps(cfg))


def test_benchmark_fixture_parses():
    cfg = parse_config(load("benchmark.json"))
    assert cfg.resolution == 512
    assert cfg.problem.hypotheses.regime is Regime.POSITIVE_SUM
    assert cfg.problem.p[0].p_minus == pytest.approx(2.2)


def test_singular_fixture_parses():
    cfg = parse_config(load("singular.json"))
    assert cfg.problem.hypotheses.regime is Regime.NEGATIVE_SUM


def test_mesh_n_override():
    cfg = parse_config(load("trivial.json"), mesh_n=48)
    assert cfg.problem.mesh.n == 48
    # the resolution a config records is the one its mesh was built at
    assert cfg.resolution == 48


@pytest.mark.parametrize("value, message", [
    ("abc", "$.resolution: expected int, got str"),
    (8, "$.resolution: must be >= 16"),
])
def test_mesh_n_override_still_validates_the_resolution(tmp_path, capsys, value,
                                                        message):
    raw = json.loads(load("trivial.json"))
    raw["resolution"] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw), mesh_n=32)
    assert str(exc.value) == message
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    err = _exit1_one_line_nothing_created(
        capsys, ["solve", str(path), "--mesh-n", "32"], tmp_path / "out")
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("command", [
    ["solve"], ["audit"], ["sweep", "--param", "iteration.theta", "--values", "0.7"]],
    ids=["solve", "audit", "sweep"])
def test_a_small_mesh_override_names_the_flag(tmp_path, capsys, command):
    # the config's resolution is valid: the bad value is the flag's
    argv = [command[0], config_path("trivial.json"), *command[1:], "--mesh-n", "8"]
    err = _exit1_one_line_nothing_created(capsys, argv, tmp_path / "out")
    assert err == "config error: --mesh-n: must be >= 16\n"


def test_a_tiny_square_never_claims_convergence(tmp_path):
    # every residual is normalized by int|h| + |Omega|, so on a 1e-7
    # square the stop tests do not pass at once: the run exits 2 without
    # a converged iteration in its certificate
    raw = json.loads(load("benchmark.json"))
    raw.update(domain={"kind": "rectangle", "ax": 0.0, "bx": 1e-7, "ay": 0.0, "by": 1e-7},
               resolution=16)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out-dir", str(out)]) == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert.get("iteration", {}).get("converged") is not True


def _scaled_square(tmp_path, side):
    """benchmark.json on the square of the given side at n = 16."""
    raw = json.loads(load("benchmark.json"))
    raw.update(domain={"kind": "rectangle", "ax": 0.0, "bx": side, "ay": 0.0, "by": side},
               resolution=16)
    path = tmp_path / f"square_{side}.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("side", [1.0, 1e3])
def test_a_scaled_square_gives_the_unit_square_verdicts(tmp_path, side):
    # converged, every estimate audit passes, and only the sandwich fails
    # (its constants drift under refinement near the corners)
    out = tmp_path / "out"
    assert main(["solve", str(_scaled_square(tmp_path, side)), "--out-dir", str(out)]) == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["iteration"]["converged"] is True
    assert [a["verdict"] for a in cert["audits"]] == ["pass"] * 4
    assert cert["sandwich"]["verdict"] == "fail"


def test_a_bitwise_stationary_outer_loop_stops_unconverged(tmp_path):
    # on the 1e-3 square the clamped iterate repeats itself bit for bit
    # while the residual test fails; the map is deterministic, so the loop
    # stops there rather than repeat it up to max_iters times
    out = tmp_path / "out"
    assert main(["solve", str(_scaled_square(tmp_path, 1e-3)), "--out-dir", str(out)]) == 2
    trace = json.loads((out / "trace.json").read_text())
    assert trace["converged"] is False and trace["iters"] <= 3
    assert trace["step_norms"][-1] == [0.0, 0.0]
    assert trace["residuals"][-1] > 1e-6


def test_each_gradient_array_formed_once_per_field(tmp_path, monkeypatch):
    # the Newton iterate is a field, so the line search, the linearization,
    # the residuals, the frozen data, the membership extremes and the
    # audits share the squared gradient norms and the basis projections a
    # field holds: neither is formed more often than cell gradients are
    import functools
    from varpx import grid
    formed = {}
    for name in ("grad_sq", "projections"):
        func = vars(grid.GridFunction)[name].func
        formed[name] = []

        def counted(self, func=func, calls=formed[name]):
            calls.append(1)
            return func(self)
        prop = functools.cached_property(counted)
        prop.__set_name__(grid.GridFunction, name)
        monkeypatch.setattr(grid.GridFunction, name, prop)
    taken = count_calls(monkeypatch, grid, "cell_gradients")
    config = parse_config(_scaled_square(tmp_path, 1.0).read_text())
    assert run(config, out_dir=str(tmp_path / "out")) == 2
    assert 0 < len(formed["grad_sq"]) <= len(taken)
    assert 0 < len(formed["projections"]) <= len(taken)


def test_a_run_keeps_only_the_arrays_a_later_step_reads(tmp_path, monkeypatch):
    # the calibrated pair's fields and kept torsion solves carry their
    # values alone, the growth exponents alpha/beta cache no quadrature
    # values, and one run of the unit square peaks at most 4.0 MB of
    # Python-traced memory (4.65 MB while all of these were kept)
    import tracemalloc
    specs, calibrate = [], barriers.calibrate_barriers

    def checked(spec, *args, **kwargs):
        cal = calibrate(spec, *args, **kwargs)
        pair = cal.pair
        for u in (*pair.under, *pair.over, *(r.u for r in pair.torsion)):
            assert not {"grad", "grad_sq", "projections"} & vars(u).keys()
        specs.append(spec)
        return cal

    monkeypatch.setattr(barriers, "calibrate_barriers", checked)
    config = parse_config(_scaled_square(tmp_path, 1.0).read_text())
    tracemalloc.start()
    try:
        assert run(config, out_dir=str(tmp_path / "out")) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.mesh.n for s in specs] == [16, 32]
    for spec in specs:
        for e in (*spec.alpha, *spec.beta):
            assert "_quad_values" not in vars(e)
    assert peak <= 4.0e6


@pytest.mark.skipif(plaplace._THREAD_COUNT is None,
                    reason="numpy's OpenBLAS has no thread-count calls here")
@pytest.mark.parametrize("fails", [False, True])
def test_main_runs_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch,
                                                             fails):
    get, set_ = plaplace._THREAD_COUNT
    old = get()
    set_(2)  # capped at the cores OpenBLAS found, so it may read 1
    try:
        before = get()
        seen = []
        solve = plaplace.solve_dirichlet

        def recorded(*args, **kwargs):
            seen.append(get())
            if fails:
                raise SolveError("injected fault")
            return solve(*args, **kwargs)

        monkeypatch.setattr(plaplace, "solve_dirichlet", recorded)
        code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
        assert code == (2 if fails else 0)
        assert seen and set(seen) == {1}
        assert get() == before
    finally:
        set_(old)


def test_refined_problem_matches_parsed_problem():
    raw = json.loads(load("trivial.json"))
    raw["resolution"] = 32
    raw["p"] = [{"add": [2.0, {"mul": [0.3, "x"]}]}, {"add": [2.2, {"mul": [-0.1, "x"]}]}]
    text = json.dumps(raw)
    fine = run_pipeline(parse_config(text), mesh_n=64)[0].spec
    ref = parse_config(text, mesh_n=64).problem
    for name in ("p", "alpha", "beta", "gamma", "gamma_bar"):
        for got, want in zip(getattr(fine, name), getattr(ref, name)):
            assert got.mesh is fine.mesh
            assert got.values.tobytes() == want.values.tobytes()
    assert (fine.m, fine.M, fine.mesh.N) == (ref.m, ref.M, ref.mesh.N)


def test_run_trivial_exit0(tmp_path):
    cfg = parse_config(load("trivial.json"))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["residuals"]["max"] <= 1e-10
    assert cert["iteration"]["converged"]
    assert (tmp_path / "fields.csv").exists()
    assert (tmp_path / "trace.json").exists()
    header = (tmp_path / "fields.csv").read_text().splitlines()[0]
    assert header == "x,u1,u2,d,under1,over1,under2,over2"


def test_run_nonconvergence_exit2(tmp_path):
    raw = json.loads(load("benchmark.json"))
    raw["resolution"] = 64
    raw["iteration"]["max_iters"] = 1
    cfg = parse_config(json.dumps(raw))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 2
    assert (tmp_path / "certificate.json").exists()
    assert (tmp_path / "trace.json").exists()


@pytest.mark.parametrize("exc_type", FAULTS + [ValueError])
def test_solve_time_error_exit2_with_stubs(tmp_path, monkeypatch, exc_type):
    exc = injected(exc_type)

    def fail(config, mesh_n=None):
        raise exc

    monkeypatch.setattr(cli, "run_pipeline", fail)
    code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    for name in ("certificate.json", "trace.json"):
        stub = json.loads((tmp_path / name).read_text())
        assert stub == {"error": str(exc), "schema_version": 1}


def test_run_raises_instead_of_mapping_exit_codes(tmp_path, monkeypatch):
    # the library call leaves the exception to its caller and writes no stub
    def fail(config, mesh_n=None):
        raise SolveError("injected fault")

    monkeypatch.setattr(cli, "run_pipeline", fail)
    with pytest.raises(SolveError):
        run(parse_config(load("trivial.json")), out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_escalated_cap_is_checked_against_its_pair(monkeypatch):
    # injected caps 4, 8, 8: each recheck at a grown cap fails against the
    # pair calibrated at a smaller one (the check tightens as L grows), so
    # C is recalibrated until the reported cap passes with its own pair
    cfg = parse_config(load("singular.json"), mesh_n=cli.MIN_RESOLUTION)
    real_caps = sysfix.calibrate_caps
    real_check = barriers.check_barriers_singular_regime
    real_calibrate = barriers.calibrate_barriers
    caps = iter([4.0, 8.0, 8.0])
    calibrated, checked = [], []

    def growing_caps(*args, **kwargs):
        res = real_caps(*args, **kwargs)
        res.report = dataclasses.replace(res.report,
                                         caps=(next(caps), res.report.caps[1]))
        return res

    def calibrate(spec, opts=None, L=None):
        res = real_calibrate(spec, opts, L=L)
        calibrated.append((res.pair, 2.0 if L is None else L))
        return res

    def check(spec, pair, L):
        rep = real_check(spec, pair, L)
        cal_L = next((c for p, c in calibrated if p is pair), np.inf)
        rep = dataclasses.replace(rep, ok=rep.ok and L <= cal_L)
        checked.append((pair, L, rep.ok))
        return rep

    monkeypatch.setattr(sysfix, "calibrate_caps", growing_caps)
    monkeypatch.setattr(barriers, "calibrate_barriers", calibrate)
    monkeypatch.setattr(barriers, "check_barriers_singular_regime", check)
    state, report = run_pipeline(cfg)
    assert report.caps[0] == 8.0 and len(calibrated) == 3
    assert any(pair is state.pair and L == report.caps[0] and ok
               for pair, L, ok in checked)


def test_cap_escalation_on_real_data(tmp_path, monkeypatch):
    # singular.json on (0, 4) with m = 0.28 escalates without forged caps:
    # the pair calibrated at the provisional cap (C = 2) fails the check at
    # the cap L = 4 its run finds, so C is recalibrated at L = 4 (C = 4),
    # and that pair passes with the caps its own run finds
    raw = json.loads(load("singular.json"))
    raw["domain"]["b"], raw["m"] = 4.0, [0.28, 0.28]
    cfg = parse_config(json.dumps(raw), mesh_n=16)
    real_calibrate = barriers.calibrate_barriers
    calibrated = []

    def calibrate(spec, opts=None, L=None):
        res = real_calibrate(spec, opts, L=L)
        calibrated.append((L, res.pair))
        return res

    monkeypatch.setattr(barriers, "calibrate_barriers", calibrate)
    state, report = run_pipeline(cfg)
    assert [(L, pair.C) for L, pair in calibrated] == [(None, 2.0), (4.0, 4.0)]
    assert report.caps == (4.0, 4.0) and state.pair is calibrated[-1][1]
    check = barriers.check_barriers_singular_regime
    assert not check(state.spec, calibrated[0][1], 4.0).ok
    assert check(state.spec, state.pair, 4.0).ok
    monkeypatch.undo()
    path = tmp_path / "escalate.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--mesh-n", "16", "--out-dir", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["caps"] == {"L": 4.0, "L_tilde": 4.0}


@pytest.mark.parametrize("name", ["benchmark.json", "singular.json"])
def test_run_certificate_reads_the_final_states(tmp_path, monkeypatch, name):
    # each iterate's frozen data is evaluated once, the start's included,
    # and the certificate reads the coarse run's final state, which the
    # loop's last residual test evaluated: it evaluates no frozen data and
    # no weak residual of its own
    cfg = parse_config(load(name), mesh_n=32)
    reports, inside, frozen, residuals = [], [], [], []
    real_iterate = sysfix.fixed_point_iterate
    real_certificate = verify.solution_certificate

    def iterate(*args, **kwargs):
        out = real_iterate(*args, **kwargs)
        reports.append(out[1])
        return out

    def certificate(*args, **kwargs):
        inside.append(True)
        try:
            return real_certificate(*args, **kwargs)
        finally:
            inside.pop()

    def counted(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(bool(inside))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sysfix, "fixed_point_iterate", iterate)
    monkeypatch.setattr(verify, "solution_certificate", certificate)
    monkeypatch.setattr(barriers, "frozen_rhs_quad",
                        counted(frozen, barriers.frozen_rhs_quad))
    monkeypatch.setattr(plaplace, "weak_residual",
                        counted(residuals, plaplace.weak_residual))
    run(cfg, out_dir=str(tmp_path))
    coarse, refined = reports
    assert len(frozen) == (coarse.iters + 1) + (refined.iters + 1)
    assert not any(frozen) and not any(residuals)


def test_unconverged_refined_run_fails_sandwich(tmp_path, monkeypatch):
    real = cli.run_pipeline

    def stalled_refinement(config, mesh_n=None, coarse=None):
        state, report = real(config, mesh_n, coarse)
        if mesh_n is not None:
            report = dataclasses.replace(report, converged=False)
        return state, report

    monkeypatch.setattr(cli, "run_pipeline", stalled_refinement)
    code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    sandwich = json.loads((tmp_path / "certificate.json").read_text())["sandwich"]
    assert sandwich["verdict"] == "fail"
    assert sandwich["refined"]["converged"] is False
    assert sandwich["refined"]["iters"] >= 1
    assert any("did not converge" in note for note in sandwich["notes"])


@pytest.mark.parametrize("name", ["benchmark.json", "singular.json"])
def test_nested_iteration_starts_from_coarse_solution(name):
    with open(config_path(name)) as f:
        cfg = parse_config(f.read(), mesh_n=32)
    coarse, _ = cli.run_pipeline(cfg)
    nested, rep = cli.run_pipeline(cfg, mesh_n=64, coarse=coarse)
    fresh, fresh_rep = cli.run_pipeline(cfg, mesh_n=64)
    assert rep.converged and fresh_rep.converged
    assert len(rep.membership_trace) == rep.iters and all(rep.membership_trace)
    assert rep.iters < fresh_rep.iters
    # singular regime: caps read off the nested run's own iterates
    assert rep.caps == fresh_rep.caps
    for a, b in zip(nested.z, fresh.z):
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-7)


def test_refined_run_recorded_in_certificate(tmp_path):
    code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 0
    sandwich = json.loads((tmp_path / "certificate.json").read_text())["sandwich"]
    assert sandwich["verdict"] == "pass"
    assert sandwich["refined"]["converged"] is True
    assert sandwich["refined"]["iters"] >= 1
    assert "notes" not in sandwich


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path):
    # a whole solve, so a fallback to SciPy at the first factorization shows
    code = ("import sys, varpx.cli\n"
            "code = varpx.cli.main(['solve', sys.argv[1], '--out-dir', sys.argv[2]])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, config_path("trivial.json"),
                           str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "certificate.json").exists()


def test_audit_time_zero_division_exit2_with_stubs(tmp_path, monkeypatch):
    def degenerate(*args, **kwargs):
        raise ZeroDivisionError("degenerate test field: int h phi vanishes")

    monkeypatch.setattr(cli.verify, "mvt_ratio", degenerate)
    code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    for name in ("certificate.json", "trace.json"):
        stub = json.loads((tmp_path / name).read_text())
        assert stub["error"] == "degenerate test field: int h phi vanishes"


@pytest.mark.parametrize("param,values", [("resolution", "64,4"),
                                          ("iteration.max_iters", "50,1")])
def test_sweep_exit2_on_failed_or_unconverged_row(tmp_path, param, values):
    code = main(["sweep", config_path("trivial.json"), "--param", param,
                 "--values", values, "--out-dir", str(tmp_path)])
    assert code == 2
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].split(",")[1] == "True"


def test_sweep_exit0_when_every_row_converges(tmp_path):
    code = main(["sweep", config_path("trivial.json"), "--param", "resolution",
                 "--values", "32,64", "--out-dir", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "value,converged,iters,c0,c1,residual,member,error"


def test_sweep_over_resolution_rejects_a_mesh_override(tmp_path, capsys):
    # --mesh-n would build every row at one resolution, labelled with the
    # swept values: the combination is rejected before any row runs
    argv = ["sweep", config_path("trivial.json"), "--param", "resolution",
            "--values", "64,128", "--mesh-n", "32"]
    err = _exit1_one_line_nothing_created(capsys, argv, tmp_path / "out")
    assert err.startswith("config error: --mesh-n: ")


def test_cli_main_invalid_config_exit1(tmp_path):
    assert main(["solve", config_path("invalid_gamma.json"),
                 "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("section, key, value", [
    ("iteration", "theta", "0.7"),
    ("iteration", "max_iters", "5"),
    ("iteration", "max_iters", -1),
    ("iteration", "max_iters", 5.0),
    ("iteration", "max_iter", 5),
    ("iteration", "tol_step", 0.0),
    ("iteration", "anderson_depth", 2),
    ("iteration", "anderson_depth", False),
    ("solver", "max_newton", "5"),
    ("solver", "max_newton", True),
    ("solver", "max_newton", -1),
    ("solver", "tol_residual", -1e-6),
    ("solver", "eps", 1e-8),
    ("solver", "line_search_shrink", 0.5),
    ("outputs", "fields_csv", 5),
    ("outputs", "fields", "fields.csv"),
])
def test_cli_main_bad_option_exit1(tmp_path, capsys, section, key, value):
    # rejected while parsing, before any solve, with the key named
    raw = json.loads(load("trivial.json"))
    raw.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"config error: $.{section}.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, key, value, message", [
    ("trivial.json", "seed", -1, "must be >= 0"),
    ("trivial.json", "seed", 1.0, "expected int"),
    # N comes from the mesh; the key is accepted only at it
    ("singular.json", "N_dim", 1, "only the mesh's N=2 is accepted"),
    ("trivial.json", "N_dim", 3, "only the mesh's N=2 is accepted"),
    ("trivial.json", "N_dim", 2.0, "expected int"),
])
def test_cli_main_bad_top_level_key_exit1(tmp_path, capsys, config, key, value, message):
    raw = json.loads(load(config))
    raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"config error: $.{key}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_n_dim_at_the_mesh_dimension_parses_to_the_same_problem():
    raw = json.loads(load("singular.json"))
    assert raw.pop("N_dim") == 2
    plain = parse_config(json.dumps(raw)).problem
    raw["N_dim"] = 2
    keyed = parse_config(json.dumps(raw)).problem
    assert plain.mesh.N == keyed.mesh.N == 2
    for name in ("p", "alpha", "beta", "gamma", "gamma_bar"):
        for got, want in zip(getattr(keyed, name), getattr(plain, name)):
            assert got.values.tobytes() == want.values.tobytes()
    assert (keyed.m, keyed.M, keyed.f) == (plain.m, plain.M, plain.f)
    assert keyed.hypotheses.as_dict() == plain.hypotheses.as_dict()


@pytest.mark.parametrize("outputs", [
    {"fields_csv": "certificate.json"},
    {"trace_json": "./fields.csv"},
    {"fields_csv": "a/../x.csv", "certificate_json": "x.csv"},
    {"fields_csv": "{out}/x.csv", "certificate_json": "x.csv"},
])
def test_cli_main_outputs_naming_one_file_exit1(tmp_path, capsys, outputs):
    # else the later artifact overwrites the earlier one; outputs are
    # compared after joining --out-dir, which an absolute path ignores
    raw = json.loads(load("trivial.json"))
    raw["outputs"] = {k: v.format(out=tmp_path / "out") for k, v in outputs.items()}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: $.outputs: " in err and "name one file" in err
    assert not (tmp_path / "out").exists()


def test_retired_anderson_depth_zero_parses_to_the_same_options():
    # the frozen bench configs still pin the retired key to 0
    raw = json.loads(load("trivial.json"))
    assert "anderson_depth" not in raw["iteration"]
    plain = parse_config(json.dumps(raw)).iteration
    raw["iteration"]["anderson_depth"] = 0
    assert parse_config(json.dumps(raw)).iteration == plain


def test_cli_main_missing_file_exit1():
    assert main(["solve", "/nonexistent/config.json"]) == 1


def _exit1_one_line_nothing_created(capsys, argv, out):
    # before the config is accepted: one line, exit 1, nothing created
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(("config error: ", "error: "))
    assert not out.exists()
    return err


_PARSE_ERRORS = [  # (key, value, start of the one error line)
    ("p", [float("nan"), 2.0], "config error: $.p[0]: "),
    ("p", [0.5, 2.0], "config error: $.hypotheses: "),
    ("m", [0.0, 1.0], "config error: $: "),
    ("m", [10 ** 400, 1.0], "config error: $.m[0]: "),
    ("m", ["1.0", "1.0"], "config error: $.m[0]: "),
    ("m", [True, True], "config error: $.m[0]: "),
    ("M", ["2", "2"], "config error: $.M[0]: "),
    ("M", [1.0], "config error: $.M: "),
    ("M", [float("inf"), 1.0], "config error: $.M[0]: "),
    ("solver", {"eps_reg": 10 ** 400}, "config error: $.solver.eps_reg: "),
    ("solver", {"tol_residual": 10 ** 400}, "config error: $.solver.tol_residual: "),
    ("domain", {"kind": "interval", "a": 0.0, "b": 10 ** 400},
     "config error: $.domain.b: "),
    ("p", [{"pow": {"base": "x", "exp": -1}}, 2.0], "config error: $.p[0]: "),
    ("p", [2.0, 10 ** 400], "config error: $.p[1]: "),
    ("f", [10 ** 400, 1.0], "config error: $.f[0]: "),
    ("domain", {"kind": "interval", "a": 0.0, "b": 0.0}, "config error: $.domain: "),
    ("domain", {"kind": "rectangle", "ax": 0.0, "bx": 1.0, "ay": 1.0, "by": 1.0},
     "config error: $.domain: "),
]


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("key, value, start", _PARSE_ERRORS,
                         ids=[f"{k}-value{i}" for i, (k, _, _) in enumerate(_PARSE_ERRORS)])
def test_cli_main_parse_phase_error_exit1(tmp_path, capsys, command, key, value, start):
    raw = json.loads(load("trivial.json"))
    raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    err = _exit1_one_line_nothing_created(capsys, [command, str(path)], tmp_path / "out")
    assert err.startswith(start)


@pytest.mark.parametrize("key, base", [("alpha", "s1"), ("beta", "s2")])
def test_cli_main_mixed_sign_exponent_names_its_key(tmp_path, capsys, key, base):
    # f[0] = base^e keeps the envelope check passing, so the sign test of
    # the exponent e itself rejects the config
    e = {"add": [-0.05, {"mul": [0.1, "x"]}]}
    raw = json.loads(load("trivial.json"))
    raw[key] = [e, 0.0]
    raw["f"] = [{"pow": {"base": base, "exp": e}}, 1.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    err = _exit1_one_line_nothing_created(capsys, ["solve", str(path)], tmp_path / "out")
    assert err.startswith(f"config error: $.{key}[0]: exponent changes sign")


@pytest.mark.parametrize("extra", [["--values", "0.5", "--mesh-n", "4"], ["--values="]],
                         ids=["mesh-n-below-minimum", "no-values"])
def test_cli_main_sweep_parse_phase_error_exit1(tmp_path, capsys, extra):
    # a sweep every row of which would fail on its resolution, or that
    # would run no row at all, is rejected before it starts, as solve and
    # audit reject a --mesh-n below the minimum
    argv = ["sweep", config_path("trivial.json"), "--param", "iteration.theta", *extra]
    err = _exit1_one_line_nothing_created(capsys, argv, tmp_path / "out")
    assert err.startswith("config error: ")


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("key, value", [
    ("barriers", {"C": 2.0}),
    ("seeed", 3),
    ("domain.z", 0.0),
])
def test_cli_main_unknown_key_exit1(tmp_path, capsys, command, key, value):
    # an unknown key is rejected at every level, top level and domain included
    raw = json.loads(load("trivial.json"))
    *parents, name = key.split(".")
    section = raw
    for k in parents:
        section = section[k]
    section[name] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    err = _exit1_one_line_nothing_created(capsys, [command, str(path)], tmp_path / "out")
    assert err == f"config error: $.{key}: unknown key\n"


@pytest.mark.parametrize("argv", [
    ["solve", "{dir}"],
    ["audit", "{dir}"],
    ["sweep", "{dir}", "--param", "seed", "--values", "2"],
    ["sweep", "{text}", "--param", "seed", "--values", "2"],
    ["sweep", "{trivial}", "--param", "seed", "--values", "2,x"],
    ["sweep", "{trivial}", "--param", "nope", "--values", "1"],
])
def test_cli_main_unreadable_input_exit1(tmp_path, capsys, argv):
    # a directory as the config file, a config that is not JSON, a value
    # that is not JSON, a sweep parameter that addresses no key
    (tmp_path / "dir").mkdir()
    (tmp_path / "text").write_text("not json")
    paths = {"dir": tmp_path / "dir", "text": tmp_path / "text",
             "trivial": config_path("trivial.json")}
    argv = [a.format(**paths) for a in argv]
    _exit1_one_line_nothing_created(capsys, argv, tmp_path / "out")


@pytest.mark.parametrize("command, blocked", [
    ("solve", "afile"), ("audit", "afile"), ("sweep", "afile"),
    ("audit", "audit.json"), ("sweep", "sweep.csv"),
])
def test_cli_main_unwritable_output_exit2(tmp_path, capsys, command, blocked):
    # the output directory would lie below a regular file, or a directory
    # stands where the artifact goes: both fail after the config is accepted
    if blocked == "afile":
        (tmp_path / blocked).write_text("")
        out = tmp_path / blocked / "out"
    else:
        (tmp_path / blocked).mkdir()
        out = tmp_path
    extra = {"solve": [], "audit": ["--only", "gradient"],
             "sweep": ["--param", "seed", "--values", "2"]}[command]
    assert main([command, config_path("trivial.json"), "--mesh-n", "16",
                 "--out-dir", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert ("NotADirectoryError" if blocked == "afile" else "IsADirectoryError") in err


def test_cli_main_unwritable_certificate_exit2_with_trace_stub(tmp_path):
    # the solve runs, then the certificate cannot be written: the trace
    # path still takes the stub
    raw = json.loads(load("trivial.json"))
    raw["outputs"] = {"certificate_json": "nodir/certificate.json"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--mesh-n", "16", "--out-dir", str(out)]) == 2
    stub = json.loads((out / "trace.json").read_text())
    assert stub["schema_version"] == 1 and "nodir" in stub["error"]
    assert not (out / "nodir").exists()


@pytest.mark.parametrize("exc_type", [AssertionError, OSError])
def test_sweep_row_error_recorded_exit2(tmp_path, monkeypatch, exc_type):
    real = cli.run_pipeline

    def fail_second(config, mesh_n=None, coarse=None):
        if config.seed == 3:
            raise exc_type("injected fault")
        return real(config, mesh_n, coarse)

    monkeypatch.setattr(cli, "run_pipeline", fail_second)
    code = main(["sweep", config_path("trivial.json"), "--param", "seed",
                 "--values", "2,3", "--mesh-n", "16", "--out-dir", str(tmp_path)])
    assert code == 2
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "True" and rows[1].endswith(",")
    assert rows[2].endswith(f",{exc_type.__name__}: injected fault")


def test_sweep_csv_quotes_an_error_that_holds_a_comma(tmp_path):
    # "degenerate interval (0.0, 0.0)" holds a comma: the csv module quotes
    # it, so the row keeps its eight cells and the error cell its message
    code = main(["sweep", config_path("trivial.json"), "--param", "domain.b",
                 "--values", "0.0,1.0", "--mesh-n", "16", "--out-dir", str(tmp_path)])
    assert code == 2
    with open(tmp_path / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3 and all(len(row) == 8 for row in rows)
    assert rows[1][-1] == "ConfigError: $.domain: degenerate interval (0.0, 0.0)"
    assert rows[2][1] == "True" and rows[2][-1] == ""


def test_sweep_resolution_error_decreasing(tmp_path):
    # p = 3 single-component style torsion config: alpha = beta = 0
    raw = json.loads(load("trivial.json"))
    raw["p"] = [3.0, 3.0]
    rows = sweep(raw, "resolution", [64, 128, 256], out_dir=str(tmp_path))
    assert all(r["converged"] for r in rows)
    # compare the fixed-point component against the closed-form torsion
    errs = []
    for n in (64, 128, 256):
        cfg = parse_config(json.dumps({**raw, "resolution": n}))
        state, _ = run_pipeline(cfg)
        x = state.spec.mesh.nodes[:, 0]
        exact = (2 / 3) * (0.5 ** 1.5 - np.abs(x - 0.5) ** 1.5)
        errs.append(np.abs(state.z[0].values - exact).max())
    assert errs[0] > errs[1] > errs[2]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.0)
    assert (tmp_path / "sweep.csv").exists()


def test_2d_pipeline_trivial(tmp_path):
    cfg = parse_config(json.dumps({
        "domain": {"kind": "rectangle", "ax": 0.0, "bx": 1.0,
                   "ay": 0.0, "by": 1.0},
        "resolution": 16, "N_dim": 2,
        "p": [2.0, 2.0], "alpha": [0.0, 0.0], "beta": [0.0, 0.0],
        "gamma": [0.0, 0.0], "gamma_bar": [0.0, 0.0],
        "m": [1.0, 1.0], "M": [1.0, 1.0], "f": [1.0, 1.0],
        "iteration": {"theta": 1.0, "tol_step": 1e-10,
                      "tol_residual": 1e-8, "max_iters": 20},
        "seed": 0}))
    state, report = run_pipeline(cfg)
    assert report.converged and report.iters <= 3
    assert all(report.membership_trace)
    assert np.all(state.z[0].values[state.spec.mesh.interior_nodes] > 0)


def test_2d_pipeline_singular_convective():
    # mixed-sign exponents need positive barriers at every quadrature
    # point; exercises the diagonal-flip triangulation near corners
    cfg = parse_config(json.dumps({
        "domain": {"kind": "rectangle", "ax": 0.0, "bx": 1.0,
                   "ay": 0.0, "by": 1.0},
        "resolution": 16, "N_dim": 2,
        "p": [2.5, 2.5], "alpha": [0.2, -0.1], "beta": [-0.1, 0.2],
        "gamma": [0.4, 0.4], "gamma_bar": [0.4, 0.4],
        "m": [1.0, 1.0], "M": [1.0, 1.0],
        "f": [
            {"add": [{"mul": [{"pow": {"base": "s1", "exp": 0.2}},
                              {"pow": {"base": "s2", "exp": -0.1}}]},
                     {"mul": [0.5, {"pow": {"base": "xi1", "exp": 0.4}}]}]},
            {"add": [{"mul": [{"pow": {"base": "s1", "exp": -0.1}},
                              {"pow": {"base": "s2", "exp": 0.2}}]},
                     {"mul": [0.5, {"pow": {"base": "xi2", "exp": 0.4}}]}]}],
        "seed": 0}))
    report = run_pipeline(cfg)[1]
    assert report.converged
    assert all(report.membership_trace)
    assert report.residuals[-1] <= 1e-6


def test_sweep_empty_values(tmp_path):
    raw = json.loads(load("trivial.json"))
    rows = sweep(raw, "resolution", [], out_dir=str(tmp_path))
    assert rows == []
    assert (tmp_path / "sweep.csv").read_text().startswith("value,")


def test_sweep_partial_failure_recorded(tmp_path):
    raw = json.loads(load("trivial.json"))
    rows = sweep(raw, "resolution", [64, 4], out_dir=str(tmp_path))
    assert rows[0]["converged"]
    assert rows[1]["error"]


def test_audit_command(tmp_path, capsys):
    code = main(["audit", config_path("trivial.json"),
                 "--only", "gradient", "--out-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "audit.json").read_text())
    names = [a["name"] for a in payload["audits"]]
    assert "gradient_estimate_p1" in names


def test_audit_command_mvt(tmp_path, capsys):
    code = main(["audit", config_path("trivial.json"),
                 "--only", "mvt", "--out-dir", str(tmp_path)])
    assert code == 0
    audits = json.loads((tmp_path / "audit.json").read_text())["audits"]
    # p1 == p2 in trivial.json: the second entry reuses the first's checks
    assert [a["name"] for a in audits] == ["mvt_sampling_p1", "mvt_sampling_p2"]
    assert audits[0]["verdict"] == "pass" and len(audits[0]["checks"]) == 50
    assert audits[1]["checks"] == audits[0]["checks"]


def test_audit_mvt_samples_each_exponent(tmp_path, capsys):
    # p1 = 2.2 and p2 = 2.4: one sampling per exponent, p1 first from the
    # seeded generator, so the p1 entry is what p1 alone would give
    code = main(["audit", config_path("benchmark.json"),
                 "--only", "mvt", "--out-dir", str(tmp_path)])
    assert code == 0
    audits = json.loads((tmp_path / "audit.json").read_text())["audits"]
    assert [a["name"] for a in audits] == ["mvt_sampling_p1", "mvt_sampling_p2"]
    assert all(a["verdict"] == "pass" and len(a["checks"]) == 50 for a in audits)
    assert audits[0]["tolerance"] != audits[1]["tolerance"]
    cfg = parse_config(load("benchmark.json"))
    alone = verify.mvt_sampling(cfg.problem.p[:1], np.random.default_rng(cfg.seed),
                                [plaplace.torsion(cfg.problem.p[0], cfg.solver)])
    assert audits[0] == json.loads(verify.certificate_to_json(alone[0]))


@pytest.mark.parametrize("exc_type", FAULTS + [ZeroDivisionError])
def test_audit_time_error_exit2_with_stub(tmp_path, monkeypatch, exc_type):
    exc = injected(exc_type)

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(verify, "gradient_estimate_audit", fail)
    code = main(["audit", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    stub = json.loads((tmp_path / "audit.json").read_text())
    assert stub == {"error": str(exc), "schema_version": 1}


@pytest.mark.parametrize("name", ["benchmark.json", "singular.json"])
def test_audit_matches_certificate_audits(tmp_path, name):
    main(["solve", config_path(name), "--mesh-n", "64",
          "--out-dir", str(tmp_path / "solve")])
    main(["audit", config_path(name), "--mesh-n", "64",
          "--out-dir", str(tmp_path / "audit")])
    cert = json.loads((tmp_path / "solve" / "certificate.json").read_text())
    audits = json.loads((tmp_path / "audit" / "audit.json").read_text())["audits"]
    # both list each component's audits together, read off one scale
    # family per exponent
    assert [a["name"] for a in cert["audits"]] == [
        "gradient_estimate_p1", "linfty_estimate_p1",
        "gradient_estimate_p2", "linfty_estimate_p2"]
    assert audits[:4] == cert["audits"]


@pytest.mark.parametrize("name", ["singular.json", "benchmark.json"])
def test_run_validates_hypotheses_once_per_mesh(tmp_path, monkeypatch, name):
    # the spec holds its hypothesis report: parsing evaluates it for the
    # coarse mesh and the refined rerun for its own; calibration, the
    # iteration and the certificate read it
    real = barriers.validate_hypotheses
    meshes = []

    def counted(spec):
        meshes.append(spec.mesh.n)
        return real(spec)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").split(".")[0] == "varpx"
                and getattr(mod, "validate_hypotheses", None) is real):
            monkeypatch.setattr(mod, "validate_hypotheses", counted)
    run(parse_config(load(name), mesh_n=32), out_dir=str(tmp_path))
    assert meshes == [32, 64]


def test_crash_free_on_fixture_corpus(tmp_path):
    import glob
    for path in sorted(glob.glob(config_path("*.json"))):
        name = os.path.basename(path)
        if name == "benchmark.json":
            continue  # exercised at full scale by the acceptance suite
        code = main(["solve", path, "--out-dir", str(tmp_path / name)])
        assert code in (0, 1, 2), f"{name} returned {code}"


def test_run_determinism_bytes(tmp_path):
    raw = json.loads(load("trivial.json"))
    cfg = parse_config(json.dumps(raw))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(cfg, out_dir=str(d1)) == 0
    cfg2 = parse_config(json.dumps(raw))
    assert run(cfg2, out_dir=str(d2)) == 0
    assert (d1 / "certificate.json").read_bytes() == (d2 / "certificate.json").read_bytes()
    assert (d1 / "fields.csv").read_bytes() == (d2 / "fields.csv").read_bytes()
    assert (d1 / "trace.json").read_bytes() == (d2 / "trace.json").read_bytes()
