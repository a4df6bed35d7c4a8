"""Pinned artifact bytes.  A change to the arithmetic of a kernel, such as
the order in which it adds terms, moves the last bits of the solver's
numbers and so the bytes of every artifact; these digests catch that.

The digests hold for numpy 2.4.6 with the OpenBLAS its wheels bundle,
which the banded solver binds to.  Another numpy or BLAS may round
differently (its einsum, for one, may add in another order), so there
the test skips and says why."""

import hashlib
import json

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
}


def _unit_square_config(tmp_path):
    """benchmark.json on the unit square at n = 16."""
    with open(config_path("benchmark.json")) as f:
        raw = json.load(f)
    raw["domain"] = {"kind": "rectangle", "ax": 0.0, "bx": 1.0, "ay": 0.0, "by": 1.0}
    raw["resolution"] = 16
    path = tmp_path / "unit_square.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY or plaplace._PBTRF_PBTRS is None,
    reason=f"digests are pinned for numpy {PINNED_NUMPY} with its bundled OpenBLAS; "
           f"this is numpy {np.__version__}"
           + ("" if plaplace._PBTRF_PBTRS else " without that OpenBLAS"))
@pytest.mark.parametrize("name, exit_code", [
    ("trivial", 0), ("singular", 0),
    ("unit_square", 2),  # the sandwich constants drift under refinement
])
def test_artifact_digests(tmp_path, name, exit_code):
    config = (_unit_square_config(tmp_path) if name == "unit_square"
              else config_path(f"{name}.json"))
    out = tmp_path / "out"
    assert cli.main(["solve", config, "--out-dir", str(out)]) == exit_code
    got = {art: hashlib.sha256((out / art).read_bytes()).hexdigest()
           for art in DIGESTS[name]}
    assert got == DIGESTS[name]
