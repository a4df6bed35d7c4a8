"""Closed-form expression grammar for coefficients and nonlinearities.

Expressions are JSON trees over the variables x, y (coordinates), s1, s2
(solution components) and xi1, xi2 (gradient magnitudes), with scalar
constants, sums, products, and powers whose exponent may itself vary in
space.  This grammar is the only channel through which nonlinearities
enter a run; nothing is ever eval()'d or imported at runtime.

Grammar (JSON):
    2.5                       -> constant
    "x" | "s1" | "xi2" | ...  -> variable
    {"add": [e1, e2, ...]}    -> sum
    {"mul": [e1, e2, ...]}    -> product
    {"pow": {"base": e, "exp": e_spatial}}  -> power; the exponent may
        reference only x and y so that it materializes as an exponent
        field on the mesh.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError

VARIABLES = ("x", "y", "s1", "s2", "xi1", "xi2")
SPATIAL = ("x", "y")
_FOLDS = {"add": operator.add, "mul": operator.mul}


class Expr:
    """Base node; subclasses implement evaluate() and free_vars()."""

    def evaluate(self, env):
        raise NotImplementedError

    def free_vars(self):
        raise NotImplementedError


class Const(Expr):
    def __init__(self, value):
        self.value = float(value)

    def evaluate(self, env):
        return self.value

    def free_vars(self):
        return set()


class Var(Expr):
    def __init__(self, name):
        self.name = name

    def evaluate(self, env):
        if self.name not in env:
            raise ConfigError("var", f"variable {self.name!r} not available here")
        return env[self.name]

    def free_vars(self):
        return {self.name}


class Fold(Expr):
    """Sum or product: ``op`` applied left to right over the terms."""

    def __init__(self, op, terms):
        self.op = op
        self.terms = list(terms)

    def evaluate(self, env):
        out = self.terms[0].evaluate(env)
        for t in self.terms[1:]:
            out = self.op(out, t.evaluate(env))
        return out

    def free_vars(self):
        return set().union(*(t.free_vars() for t in self.terms))


class Pow(Expr):
    def __init__(self, base, exp):
        self.base = base
        self.exp = exp

    def evaluate(self, env):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.power(self.base.evaluate(env), self.exp.evaluate(env))

    def free_vars(self):
        return self.base.free_vars() | self.exp.free_vars()


def parse_expr(obj, path="expr") -> Expr:
    """Parse the JSON form of the grammar; errors carry the offending path."""
    if isinstance(obj, bool):
        raise ConfigError(path, "booleans are not expressions")
    if isinstance(obj, (int, float)):
        return _const(obj, path)
    if isinstance(obj, str):
        return _var(obj, path)
    if isinstance(obj, dict):
        if len(obj) != 1:
            raise ConfigError(path, "expression node must have exactly one key")
        key, val = next(iter(obj.items()))
        if key == "const":
            return _const(val, f"{path}.const")
        if key == "var":
            return _var(val, f"{path}.var")
        if key in _FOLDS:
            if not isinstance(val, list) or not val:
                raise ConfigError(f"{path}.{key}", "needs a non-empty list")
            return Fold(_FOLDS[key], (parse_expr(t, f"{path}.{key}[{i}]")
                                      for i, t in enumerate(val)))
        if key == "pow":
            if not isinstance(val, dict) or set(val) != {"base", "exp"}:
                raise ConfigError(f"{path}.pow", "needs {'base':..., 'exp':...}")
            exp_path = f"{path}.pow.exp"
            return Pow(parse_expr(val["base"], f"{path}.pow.base"),
                       spatial_only(parse_expr(val["exp"], exp_path), exp_path))
        raise ConfigError(path, f"unknown operation {key!r}")
    raise ConfigError(path, f"cannot parse {type(obj).__name__} as an expression")


def _var(name, path) -> Var:
    if name not in VARIABLES:
        raise ConfigError(path, f"unknown variable {name!r}")
    return Var(name)


def _const(value, path) -> Const:
    try:
        return Const(value)
    except OverflowError:
        raise ConfigError(path, "expected a number, got an int beyond the float range")


def spatial_only(expr: Expr, path="expr"):
    extra = expr.free_vars() - set(SPATIAL)
    if extra:
        raise ConfigError(path, f"only x and y allowed here, got {sorted(extra)}")
    return expr


def spatial_env(points) -> dict:
    """The variables x and y (y for two-dimensional points only) at an
    array of points: one coordinate per point, or one row per point."""
    pts = np.asarray(points, dtype=float)
    env = {"x": pts[..., 0] if pts.ndim > 1 else pts}
    if pts.ndim > 1 and pts.shape[-1] > 1:
        env["y"] = pts[..., 1]
    return env


def evaluate_spatial(expr: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate a spatial expression at an array of points."""
    env = spatial_env(points)
    val = expr.evaluate(env)
    return np.broadcast_to(val, np.shape(env["x"])).astype(float)
