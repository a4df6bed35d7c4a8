import json

import numpy as np
import pytest

from varpx.cli import parse_config
from varpx.errors import ConfigError
from varpx.forms import SPATIAL, evaluate_spatial, parse_expr

from conftest import config_path


def test_parse_constants_and_variables():
    assert parse_expr(2.5).evaluate({}) == 2.5
    assert parse_expr(3).evaluate({}) == 3.0
    e = parse_expr("s1")
    assert e.evaluate({"s1": np.array([1.0, 4.0])}).tolist() == [1.0, 4.0]


def test_parse_add_mul_pow():
    e = parse_expr({"add": [1.0, {"mul": [2.0, "x"]}]})
    np.testing.assert_allclose(e.evaluate({"x": np.array([0.0, 1.0])}), [1.0, 3.0])
    p = parse_expr({"pow": {"base": "s1", "exp": {"add": [2.0, "x"]}}})
    got = p.evaluate({"s1": 2.0, "x": np.array([0.0, 1.0])})
    np.testing.assert_allclose(got, [4.0, 8.0])


def test_pow_exponent_must_be_spatial():
    with pytest.raises(ConfigError):
        parse_expr({"pow": {"base": "x", "exp": "s1"}})


def test_unknown_nodes_rejected_with_path():
    with pytest.raises(ConfigError) as exc:
        parse_expr({"add": [1.0, {"bogus": []}]})
    assert "add[1]" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_expr("unknown_var")
    with pytest.raises(ConfigError, match="unknown operation 'const'"):
        parse_expr({"const": 3})
    with pytest.raises(ConfigError):
        parse_expr(True)
    with pytest.raises(ConfigError):
        parse_expr({"add": []})


def test_spatial_only_guard():
    # a context allowing only the coordinates rejects a state variable at
    # parse time, naming where it sits
    with pytest.raises(ConfigError) as exc:
        parse_expr({"mul": ["x", "s1"]}, "$.p[0]", SPATIAL)
    assert "$.p[0].mul[1]" in str(exc.value)
    ok = parse_expr({"add": ["x", 1.0]}, "$.p[0]", SPATIAL)
    np.testing.assert_allclose(ok.evaluate({"x": np.array([0.0, 2.0])}), [1.0, 3.0])


@pytest.mark.parametrize("key, expr, where", [
    ("f", {"add": [1.0, {"mul": [1.0, "y"]}]}, "$.f[0].add[1].mul[1]"),
    ("f", {"pow": {"base": "s1", "exp": "y"}}, "$.f[0].pow.exp"),
    ("p", {"add": [2.0, {"mul": [0.1, "y"]}]}, "$.p[0].add[1].mul[1]"),
], ids=["f", "f-pow-exp", "exponent"])
def test_y_in_a_1d_config_is_rejected_with_its_path(key, expr, where):
    # an interval has no y: the config is rejected where the y sits
    with open(config_path("trivial.json")) as f:
        raw = json.load(f)
    raw[key][0] = expr
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    assert str(exc.value).startswith(where + ":")
    assert "'y'" in str(exc.value)


def test_evaluate_spatial_broadcasts_constants():
    expr = parse_expr(2.0)
    pts = np.linspace(0, 1, 5)
    np.testing.assert_allclose(evaluate_spatial(expr, pts), 2.0)


@pytest.mark.parametrize("obj, where", [
    ({"add": [1.0, {"pow": {"base": "s1", "exp": "s2"}}]}, "$.f[0].add[1].pow.exp"),
    ({"mul": [2.0, "q"]}, "$.f[0].mul[1]"),
    ({"add": [1.0, {"add": [1.0], "mul": [2.0]}]},
     "$.f[0].add[1]: expression node must have exactly one key"),
    ({"mul": [2.0, {"pow": {"base": "s1"}}]}, "$.f[0].mul[1].pow: needs {'base'"),
    ({"add": [1.0, [2.0]]}, "$.f[0].add[1]: cannot parse list as an expression"),
], ids=["pow-exp", "var", "two-keys", "pow-without-exp", "list"])
def test_nested_errors_name_their_config_path(obj, where):
    with pytest.raises(ConfigError) as exc:
        parse_expr(obj, "$.f[0]")
    assert where in str(exc.value)


_F = {"add": [{"mul": [{"pow": {"base": "s1", "exp": -0.05}},
                       {"pow": {"base": "s2", "exp": {"mul": [0.5, "x"]}}}]},
              {"mul": [0.25, {"pow": {"base": "xi1", "exp": 0.5}}]}]}


def test_trees_parsed_from_the_same_json_are_equal():
    a, b = parse_expr(_F), parse_expr(json.loads(json.dumps(_F)))
    assert a is not b and a == b


@pytest.mark.parametrize("old, new", [
    ('{"add": [{"mul"', '{"mul": [{"mul"'),            # add against mul
    ('"exp": -0.05', '"exp": -0.06'),                   # a constant
    ('[0.5, "x"]', '[0.5, "y"]'),                       # a spatial exponent
], ids=["fold-op", "const", "spatial-exp"])
def test_trees_that_differ_are_unequal(old, new):
    text = json.dumps(_F, separators=(", ", ": "))
    assert old in text
    assert parse_expr(json.loads(text)) != parse_expr(json.loads(text.replace(old, new)))


def test_signed_zero_constants_are_unequal():
    # equal trees must give equal bits, and 0.0 and -0.0 can give different ones
    assert parse_expr(0.0) != parse_expr(-0.0)
    assert parse_expr(0.0) == parse_expr(0)


@pytest.mark.parametrize("name, shared", [("singular.json", True),
                                          ("benchmark.json", False)])
def test_spec_knows_whether_its_nonlinearities_agree(name, shared):
    with open(config_path(name)) as f:
        spec = parse_config(f.read(), mesh_n=16).problem
    # equal trees are held as one object, which per_distinct shares
    assert (spec.f[0] is spec.f[1]) is shared
