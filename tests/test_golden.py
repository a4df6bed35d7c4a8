"""Pinned artifact bytes.  A change to the arithmetic of a kernel, such as
the order in which it adds terms, moves the last bits of the solver's
numbers and so the bytes of every artifact; these digests catch that.

The digests hold for numpy 2.4.6 with the OpenBLAS its wheels bundle,
which the banded solver binds to.  Another numpy or BLAS may round
differently (its einsum, for one, may add in another order), so there
the test skips and says why.  The work a run does (its scalar solves per
caller, Newton steps, factorizations and energy evaluations) follows the
same floating-point decisions, so its pinned counts hold there too."""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import config_path
from varpx import cli, plaplace

PINNED_NUMPY = "2.4.6"

DIGESTS = {
    "trivial": {
        "certificate.json": "8246219fe74d848a0bb0237b3a843dd353649722ebd631fd03380ed3b2b008a4",
        "trace.json": "4ffe250758dd98b75af2a7d056dd11b4323d96f86e1e4a4ae76dc75fa94b1dd7",
        "fields.csv": "a7d017818eafbd98fd1b6d2ab0268745e32bbdcb2437fd70f7ba93786e2ee32e",
    },
    "singular": {
        "certificate.json": "05dd73203b62fa066d6bec6c081472fa40dc4a1e8ccca295735905105bc80e74",
        "trace.json": "18444e0f7b7fe157ddb37dc5603db2796f94346294a84ff96a85b31badab4b5c",
        "fields.csv": "25e4e08e6013cd2027f4d751b5206bc0ee806fe9261f4e87cc49289e10c75e0c",
    },
    "unit_square": {
        "certificate.json": "359d845efc24fda5319f524bd91f3abe531432466c29ffd8cc7f6b47d662dc52",
        "trace.json": "94c95544e46cdbf9f3022320d791b6827f843203c4941b9053237e3517420ae4",
        "fields.csv": "71f8558c4931f6c92a485f3b5178ddc65cc3fc9f585dcdf4e5be39e3602f19a0",
    },
    "variable_square": {
        "certificate.json": "0b0ba9b792fcdab9d5687bd0614c06707a044b6ad91cced13eac15b2298a7b01",
        "trace.json": "b2adcab0eb9b44449d301ee52551d85eb93a6cd92e0f135eed82de6defd197c3",
        "fields.csv": "01baf2bb3d47854d3517fc23250f2c799e9e244044302bb596886c3b376bc0eb",
    },
    # the interval-singular bench workload; its seed moves the certificate
    # (the mean-value draws) but not the trace or the fields of "singular"
    "interval_singular": {
        "certificate.json": "d6f6c73ad6ec7b306d3234e803dd24a2d642052c9b5bf013c117bf6af488b002",
        "trace.json": "18444e0f7b7fe157ddb37dc5603db2796f94346294a84ff96a85b31badab4b5c",
        "fields.csv": "25e4e08e6013cd2027f4d751b5206bc0ee806fe9261f4e87cc49289e10c75e0c",
    },
    # the paper's own case: singular, with convection and variable exponents
    "singular_vp": {
        "certificate.json": "2f7aa0e2f831bc60f74ebd2d13555762e7069eae67a0eb9b3a4caec9a4440daa",
        "trace.json": "80832898c252bac0c485e32da6c0979358418ebc8c62d2e755371ffe1f775b2a",
        "fields.csv": "301a9e4d355fbe08825f1fb51b23bf22b107157f9b45aa874142dc932269af84",
    },
}

_BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

# p = (2.0 + 0.4x, 2.6 - 0.4x): the one pinned case whose exponents vary
_VARIABLE_P = [{"add": [2.0, {"mul": [0.4, "x"]}]},
               {"add": [2.6, {"mul": [-0.4, "x"]}]}]


def _unit_square_config(tmp_path, name):
    """benchmark.json on the unit square at n = 16, with the variable
    exponents for ``variable_square``."""
    with open(config_path("benchmark.json")) as f:
        raw = json.load(f)
    raw["domain"] = {"kind": "rectangle", "ax": 0.0, "bx": 1.0, "ay": 0.0, "by": 1.0}
    raw["resolution"] = 16
    if name == "variable_square":
        raw["p"] = _VARIABLE_P
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


# p = (3 + 0.4x, 3.4 - 0.4x) on the interval-singular workload: "singular_vp"
_SINGULAR_VP = [{"add": [3.0, {"mul": [0.4, "x"]}]},
                {"add": [3.4, {"mul": [-0.4, "x"]}]}]

# cases over a bench config at seed 7, as keys set over the file: the two
# gated bench workloads and the variable-exponent interval case
_BENCH_CASES = {
    "interval_singular": ("singular.json", {}),
    "singular_vp": ("singular.json", {"p": _SINGULAR_VP}),
    "rectangle_positive": ("benchmark.json", {
        "domain": {"kind": "rectangle", "ax": 0.0, "bx": 1.0, "ay": 0.0, "by": 1.0},
        "resolution": 16}),
}


def _bench_config(name) -> str:
    """The bench config of case ``name`` at seed 7, as the bench runs it."""
    base, keys = _BENCH_CASES[name]
    raw = json.loads((_BENCH_CONFIGS / base).read_text())
    raw.update(keys, seed=7)
    return json.dumps(raw)


pinned = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY or plaplace._PBTRF_PBTRS is None,
    reason=f"pinned for numpy {PINNED_NUMPY} with its bundled OpenBLAS; "
           f"this is numpy {np.__version__}"
           + ("" if plaplace._PBTRF_PBTRS else " without that OpenBLAS"))


@pinned
@pytest.mark.parametrize("name, exit_code", [
    ("trivial", 0), ("singular", 0), ("interval_singular", 0), ("singular_vp", 0),
    # the sandwich constants drift under refinement
    ("unit_square", 2), ("variable_square", 2),
])
def test_artifact_digests(tmp_path, name, exit_code):
    if name.endswith("_square"):
        config = _unit_square_config(tmp_path, name)
    elif name in _BENCH_CASES:
        config = tmp_path / f"{name}.json"
        config.write_text(_bench_config(name))
        config = str(config)
    else:
        config = config_path(f"{name}.json")
    out = tmp_path / "out"
    assert cli.main(["solve", config, "--out-dir", str(out)]) == exit_code
    got = {art: hashlib.sha256((out / art).read_bytes()).hexdigest()
           for art in DIGESTS[name]}
    assert got == DIGESTS[name]


# who calls plaplace.solve_dirichlet, by module and function
_CALLERS = {"varpx.sysfix.<lambda>": "map", "varpx.plaplace.torsion": "torsion",
            "varpx.plaplace.torsion_delta": "strip", "varpx.verify.solves": "audit"}


def _caller(frame) -> str:
    """The caller of _CALLERS that ``frame`` runs in, or "other"."""
    while frame is not None:
        site = f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"
        if site in _CALLERS:
            return _CALLERS[site]
        frame = frame.f_back
    return "other"


# one run's work: solves per caller, Newton steps, factorizations, energy
# evaluations and cold (Poisson) starts.  A change to any count is a change
# to the work a run does, and is stated with its reason where it is made.
WORK = {
    "rectangle_positive": {"map": 74, "torsion": 4, "strip": 4, "audit": 10,
                           "newton_steps": 188, "factorizations": 206,
                           "energy_evals": 280, "cold_starts": 18},
    "interval_singular": {"map": 26, "torsion": 2, "strip": 2, "audit": 5,
                          "newton_steps": 124, "factorizations": 133,
                          "energy_evals": 164, "cold_starts": 9},
    "singular_vp": {"map": 54, "torsion": 4, "strip": 4, "audit": 10,
                    "newton_steps": 351, "factorizations": 369,
                    "energy_evals": 517, "cold_starts": 18},
}


@pinned
@pytest.mark.parametrize("name", sorted(WORK))
def test_a_run_does_the_pinned_work(tmp_path, monkeypatch, name):
    work = Counter()
    solve, factor, energy = plaplace.solve_dirichlet, plaplace._Layout.factor, plaplace._energy

    def counted_solve(p, h, opts=None, start=None):
        work[_caller(sys._getframe(1))] += 1
        work["cold_starts"] += start is None
        res = solve(p, h, opts, start)
        work["newton_steps"] += res.newton_iters
        return res

    def counted_factor(lay, data):
        work["factorizations"] += 1
        return factor(lay, data)

    def counted_energy(*args):
        work["energy_evals"] += 1
        return energy(*args)

    monkeypatch.setattr(plaplace, "solve_dirichlet", counted_solve)
    monkeypatch.setattr(plaplace._Layout, "factor", counted_factor)
    monkeypatch.setattr(plaplace, "_energy", counted_energy)
    cli.run(cli.parse_config(_bench_config(name)), str(tmp_path))
    assert dict(work) == WORK[name]
