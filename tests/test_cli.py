import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from varpx import cli
from varpx.cli import main, parse_config, run, run_pipeline, sweep
from varpx.errors import (BisectionError, BoundViolationError, ConfigError,
                          MeshCompatibilityError, NonFiniteFieldError)
from varpx import Regime

from conftest import REPO_ROOT, config_path


def load(name):
    with open(config_path(name)) as f:
        return f.read()


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
    assert cfg.hypothesis_report.regime is Regime.POSITIVE_SUM


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
    assert cfg.hypothesis_report.regime is Regime.POSITIVE_SUM
    assert cfg.problem.p1.p_minus == pytest.approx(2.2)


def test_singular_fixture_parses():
    cfg = parse_config(load("singular.json"))
    assert cfg.hypothesis_report.regime is Regime.NEGATIVE_SUM


def test_mesh_n_override():
    cfg = parse_config(load("trivial.json"), mesh_n=48)
    assert cfg.mesh.n == 48


def test_refined_problem_matches_parsed_problem():
    raw = json.loads(load("trivial.json"))
    raw["resolution"] = 32
    raw["p"] = [{"add": [2.0, {"mul": [0.3, "x"]}]}, {"add": [2.2, {"mul": [-0.1, "x"]}]}]
    text = json.dumps(raw)
    fine = run_pipeline(parse_config(text), mesh_n=64).problem
    ref = parse_config(text, mesh_n=64).problem
    for name in ("p", "alpha", "beta", "gamma", "gamma_bar"):
        for got, want in zip(getattr(fine, name), getattr(ref, name)):
            assert got.mesh is fine.mesh
            assert got.values.tobytes() == want.values.tobytes()
    assert (fine.m, fine.M, fine.N_dim) == (ref.m, ref.M, ref.N_dim)


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


@pytest.mark.parametrize("exc_type", [NonFiniteFieldError, MeshCompatibilityError,
                                      BisectionError, BoundViolationError,
                                      ValueError])
def test_solve_time_error_exit2_with_stubs(tmp_path, monkeypatch, exc_type):
    def fail(config, mesh_n=None):
        raise exc_type("injected fault")

    monkeypatch.setattr(cli, "run_pipeline", fail)
    code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    for name in ("certificate.json", "trace.json"):
        stub = json.loads((tmp_path / name).read_text())
        assert stub == {"error": "injected fault", "schema_version": 1}


def test_unconverged_refined_run_fails_sandwich(tmp_path, monkeypatch):
    real = cli.run_pipeline

    def stalled_refinement(config, mesh_n=None):
        pv = real(config, mesh_n)
        if mesh_n is not None:
            pv.report = dataclasses.replace(pv.report, converged=False)
        return pv

    monkeypatch.setattr(cli, "run_pipeline", stalled_refinement)
    code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    sandwich = json.loads((tmp_path / "certificate.json").read_text())["sandwich"]
    assert sandwich["verdict"] == "fail"
    assert sandwich["refined"]["converged"] is False
    assert sandwich["refined"]["iters"] >= 1
    assert any("did not converge" in note for note in sandwich["notes"])


def test_refined_run_recorded_in_certificate(tmp_path):
    code = main(["solve", config_path("trivial.json"), "--out-dir", str(tmp_path)])
    assert code == 0
    sandwich = json.loads((tmp_path / "certificate.json").read_text())["sandwich"]
    assert sandwich["verdict"] == "pass"
    assert sandwich["refined"]["converged"] is True
    assert sandwich["refined"]["iters"] >= 1
    assert "notes" not in sandwich


def test_cli_import_leaves_scipy_sparse_unloaded():
    code = "import sys, varpx.cli; sys.exit('scipy.sparse' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0


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


def test_cli_main_invalid_config_exit1(tmp_path):
    assert main(["solve", config_path("invalid_gamma.json"),
                 "--out-dir", str(tmp_path)]) == 1


def test_cli_main_missing_file_exit1():
    assert main(["solve", "/nonexistent/config.json"]) == 1


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
        pv = run_pipeline(cfg)
        x = pv.mesh.nodes[:, 0]
        exact = (2 / 3) * (0.5 ** 1.5 - np.abs(x - 0.5) ** 1.5)
        errs.append(np.abs(pv.solution[0].values - exact).max())
    assert errs[0] > errs[1] > errs[2]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.0)
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_fixed_barrier_scale_membership(tmp_path):
    # small fixed C: the map output escapes the box and the iteration
    # cannot settle; calibrated-size C restores membership
    raw = json.loads(load("benchmark.json"))
    raw["resolution"] = 128
    raw["barriers"] = {"C": None}
    raw["iteration"]["max_iters"] = 80
    rows = sweep(raw, "barriers.C", [1.05, 2.0, 4.0], out_dir=str(tmp_path))
    assert rows[0]["member"] is False and rows[0]["converged"] is False
    assert rows[1]["member"] is True and rows[1]["converged"] is True
    assert rows[2]["member"] is True
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "value,converged,iters,c0,c1,residual,member,error"


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
    pv = run_pipeline(cfg)
    assert pv.report.converged and pv.report.iters <= 3
    assert all(pv.report.membership_trace)
    assert np.all(pv.solution[0].values[pv.mesh.interior_nodes] > 0)


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
    pv = run_pipeline(cfg)
    assert pv.report.converged
    assert all(pv.report.membership_trace)
    assert pv.report.residuals[-1] <= 1e-6


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
    payload = json.loads((tmp_path / "audit.json").read_text())
    entry = payload["audits"][0]
    assert entry["name"] == "mvt_sampling" and entry["verdict"] == "pass"
    assert len(entry["checks"]) == 50


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
