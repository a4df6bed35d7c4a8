import numpy as np
import pytest

from varpx.errors import ConfigError
from varpx.forms import evaluate_spatial, parse_expr, spatial_only


def test_parse_constants_and_variables():
    assert parse_expr(2.5).evaluate({}) == 2.5
    assert parse_expr({"const": 3}).evaluate({}) == 3.0
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
    with pytest.raises(ConfigError):
        parse_expr(True)
    with pytest.raises(ConfigError):
        parse_expr({"add": []})


def test_spatial_only_guard():
    expr = parse_expr({"mul": ["x", "s1"]})
    with pytest.raises(ConfigError):
        spatial_only(expr)
    ok = parse_expr({"add": ["x", 1.0]})
    assert spatial_only(ok) is ok


def test_evaluate_spatial_broadcasts_constants():
    expr = parse_expr(2.0)
    pts = np.linspace(0, 1, 5)
    np.testing.assert_allclose(evaluate_spatial(expr, pts), 2.0)


@pytest.mark.parametrize("obj, where", [
    ({"add": [1.0, {"pow": {"base": "s1", "exp": "s2"}}]}, "$.f[0].add[1].pow.exp"),
    ({"mul": [2.0, {"var": "q"}]}, "$.f[0].mul[1].var"),
], ids=["pow-exp", "var"])
def test_nested_errors_name_their_config_path(obj, where):
    with pytest.raises(ConfigError) as exc:
        parse_expr(obj, "$.f[0]")
    assert where in str(exc.value)
