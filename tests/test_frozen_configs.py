"""The benchmark parses configs it keeps frozen under bench/: a config key
that parse_config stops accepting makes every bench run exit 1.  This
reads bench/configs, bench/run.py's workload table (without running the
script) and the shipped configs, and never writes them."""

import ast
import glob
import json
import os

import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from varpx.cli import MIN_RESOLUTION, parse_config

BENCH = os.path.join(REPO_ROOT, "bench")


def _read(path):
    with open(path) as f:
        return json.load(f)


def _bench_workloads():
    """``WORKLOADS`` of bench/run.py, a literal read off its syntax tree."""
    path = os.path.join(BENCH, "run.py")
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WORKLOADS" for t in node.targets))


def _frozen_configs():
    # each workload's config is built the way bench/run.py's make_config does
    cases = {}
    for name, spec in _bench_workloads().items():
        raw = _read(os.path.join(BENCH, "configs", spec["base"]))
        raw.update({k: spec[k] for k in ("domain", "resolution") if k in spec})
        cases[f"bench:{name}"] = raw
    shipped = glob.glob(os.path.join(BENCH, "configs", "*.json")) + [
        p for p in glob.glob(os.path.join(CONFIG_DIR, "*.json"))
        if os.path.basename(p) != "invalid_gamma.json"]
    for path in sorted(shipped):
        cases[os.path.relpath(path, REPO_ROOT)] = _read(path)
    return cases


_CASES = _frozen_configs()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_frozen_config_parses(name):
    parse_config(json.dumps(_CASES[name]), mesh_n=MIN_RESOLUTION)
