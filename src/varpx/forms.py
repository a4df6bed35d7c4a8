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

import numpy as np

from .errors import ConfigError

VARIABLES = ("x", "y", "s1", "s2", "xi1", "xi2")
SPATIAL = ("x", "y")


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
        if name not in VARIABLES:
            raise ConfigError("var", f"unknown variable {name!r}")
        self.name = name

    def evaluate(self, env):
        if self.name not in env:
            raise ConfigError("var", f"variable {self.name!r} not available here")
        return env[self.name]

    def free_vars(self):
        return {self.name}


class Add(Expr):
    def __init__(self, terms):
        self.terms = list(terms)

    def evaluate(self, env):
        out = self.terms[0].evaluate(env)
        for t in self.terms[1:]:
            out = out + t.evaluate(env)
        return out

    def free_vars(self):
        return set().union(*(t.free_vars() for t in self.terms))


class Mul(Expr):
    def __init__(self, factors):
        self.factors = list(factors)

    def evaluate(self, env):
        out = self.factors[0].evaluate(env)
        for t in self.factors[1:]:
            out = out * t.evaluate(env)
        return out

    def free_vars(self):
        return set().union(*(t.free_vars() for t in self.factors))


class Pow(Expr):
    def __init__(self, base, exp):
        extra = exp.free_vars() - set(SPATIAL)
        if extra:
            raise ConfigError("pow.exp",
                              f"power exponents may only vary in space, got {sorted(extra)}")
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
        if obj not in VARIABLES:
            raise ConfigError(path, f"unknown variable {obj!r}")
        return Var(obj)
    if isinstance(obj, dict):
        if len(obj) != 1:
            raise ConfigError(path, "expression node must have exactly one key")
        key, val = next(iter(obj.items()))
        if key == "const":
            return _const(val, f"{path}.const")
        if key == "var":
            return Var(val)
        if key == "add":
            if not isinstance(val, list) or not val:
                raise ConfigError(f"{path}.add", "needs a non-empty list")
            return Add(parse_expr(t, f"{path}.add[{i}]") for i, t in enumerate(val))
        if key == "mul":
            if not isinstance(val, list) or not val:
                raise ConfigError(f"{path}.mul", "needs a non-empty list")
            return Mul(parse_expr(t, f"{path}.mul[{i}]") for i, t in enumerate(val))
        if key == "pow":
            if not isinstance(val, dict) or set(val) != {"base", "exp"}:
                raise ConfigError(f"{path}.pow", "needs {'base':..., 'exp':...}")
            return Pow(parse_expr(val["base"], f"{path}.pow.base"),
                       parse_expr(val["exp"], f"{path}.pow.exp"))
        raise ConfigError(path, f"unknown operation {key!r}")
    raise ConfigError(path, f"cannot parse {type(obj).__name__} as an expression")


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


def evaluate_spatial(expr: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate a spatial expression at an array of points."""
    pts = np.asarray(points, dtype=float)
    env = {"x": pts[..., 0] if pts.ndim > 1 else pts}
    if pts.ndim > 1 and pts.shape[-1] > 1:
        env["y"] = pts[..., 1]
    val = expr.evaluate(env)
    base = env["x"]
    return np.broadcast_to(val, np.shape(base)).astype(float)
