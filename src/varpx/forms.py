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

Which variables a tree may reference is fixed when it is parsed, by the
names its context allows (an exponent: the coordinates of the mesh's
dimension), so a parsed tree never reads a variable its context lacks.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError

SPATIAL = ("x", "y")
STATE = ("s1", "s2", "xi1", "xi2")
VARIABLES = SPATIAL + STATE
_FOLDS = {"add": operator.add, "mul": operator.mul}


class Expr:
    """Base node; subclasses implement evaluate() and _key(), what two
    nodes of one type must share to be equal.  Equal trees evaluate to
    the same bits in the same environment."""

    def evaluate(self, env):
        raise NotImplementedError

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()


class Const(Expr):
    def __init__(self, value):
        self.value = float(value)

    def evaluate(self, env):
        return self.value

    def _key(self):
        return self.value.hex()  # bit for bit: 0.0 and -0.0 differ


class Var(Expr):
    def __init__(self, name):
        self.name = name

    def evaluate(self, env):
        return env[self.name]

    def _key(self):
        return self.name


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

    def _key(self):
        return self.op, self.terms


class Pow(Expr):
    def __init__(self, base, exp):
        self.base = base
        self.exp = exp

    def evaluate(self, env):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.power(self.base.evaluate(env), self.exp.evaluate(env))

    def _key(self):
        return self.base, self.exp


def parse_expr(obj, path="expr", names=VARIABLES) -> Expr:
    """Parse the JSON form of the grammar, allowing the variables
    ``names`` (and the spatial ones among them in a power's exponent);
    errors carry the offending path."""
    if isinstance(obj, bool):
        raise ConfigError(path, "booleans are not expressions")
    if isinstance(obj, (int, float)):
        return _const(obj, path)
    if isinstance(obj, str):
        return _var(obj, path, names)
    if isinstance(obj, dict):
        if len(obj) != 1:
            raise ConfigError(path, "expression node must have exactly one key")
        key, val = next(iter(obj.items()))
        if key in _FOLDS:
            if not isinstance(val, list) or not val:
                raise ConfigError(f"{path}.{key}", "needs a non-empty list")
            return Fold(_FOLDS[key], (parse_expr(t, f"{path}.{key}[{i}]", names)
                                      for i, t in enumerate(val)))
        if key == "pow":
            if not isinstance(val, dict) or set(val) != {"base", "exp"}:
                raise ConfigError(f"{path}.pow", "needs {'base':..., 'exp':...}")
            return Pow(parse_expr(val["base"], f"{path}.pow.base", names),
                       parse_expr(val["exp"], f"{path}.pow.exp",
                                  tuple(n for n in names if n in SPATIAL)))
        raise ConfigError(path, f"unknown operation {key!r}")
    raise ConfigError(path, f"cannot parse {type(obj).__name__} as an expression")


def _var(name, path, names) -> Var:
    if name not in VARIABLES:
        raise ConfigError(path, f"unknown variable {name!r}")
    if name not in names:
        raise ConfigError(path, f"variable {name!r} not allowed here, only {list(names)}")
    return Var(name)


def _const(value, path) -> Const:
    try:
        return Const(value)
    except OverflowError:
        raise ConfigError(path, "expected a number, got an int beyond the float range")


def evaluate_spatial(expr: Expr, points: np.ndarray, **state) -> np.ndarray:
    """Evaluate an expression at an array of points (one coordinate per
    point, or one row per point), given the state variables it reads
    there by keyword, one value per point."""
    pts = np.asarray(points, dtype=float)
    env = {"x": pts[..., 0] if pts.ndim > 1 else pts, **state}
    if pts.ndim > 1 and pts.shape[-1] > 1:
        env["y"] = pts[..., 1]
    val = expr.evaluate(env)
    return np.broadcast_to(val, np.shape(env["x"])).astype(float)
