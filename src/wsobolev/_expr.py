"""Tiny arithmetic-expression evaluator for config-supplied fields.

Initial states and sources arrive in config files as strings like
"x * exp(-x**2)".  Evaluating them with eval() would hand config authors the
whole interpreter, so this walks the AST instead and admits only arithmetic,
the node coordinates, and a short list of numpy functions.
"""

from __future__ import annotations

import ast
import math

import numpy as np

__all__ = ["evaluate_expression", "ExpressionError"]

_FUNCTIONS = {
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "atan": np.arctan,
    "max": np.maximum,
    "min": np.minimum,
    "sign": np.sign,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
    ast.Mod: lambda a, b: a % b,
}


class ExpressionError(ValueError):
    pass


_TOO_DEEP = "expression nests too deeply"


def _eval(node: ast.AST, names: dict) -> object:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            try:
                return np.float64(node.value)  # numpy float: overflow is inf, not exact ints
            except OverflowError:  # an integer beyond float range, as 1e400 is
                return np.float64(math.inf)
        raise ExpressionError(f"literal {node.value!r} is not a number")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        raise ExpressionError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval(node.left, names), _eval(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _eval(node.operand, names)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only the documented function names may be called")
        if node.keywords:
            raise ExpressionError("keyword arguments are not supported")
        name = node.func.id
        arity = 2 if name in ("max", "min") else 1
        if len(node.args) != arity:
            raise ExpressionError(f"{name}() takes {arity} argument{'s' * (arity > 1)}, "
                                  f"got {len(node.args)}")
        return _FUNCTIONS[name](*(_eval(a, names) for a in node.args))
    raise ExpressionError(f"unsupported syntax: {ast.dump(node)[:60]}")


def evaluate_expression(text: str, *axes: np.ndarray) -> np.ndarray:
    """Evaluate an arithmetic expression of the node coordinates, x the first
    axis' array and y the second's, arrays that broadcast together
    (Grid.coordinates); the values have their broadcast shape.

    One that nests deeper than the parser or the evaluator's recursion can
    go raises ExpressionError, as any malformed expression does."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ExpressionError(f"cannot parse {text!r}: {err.msg}") from None
    except (RecursionError, MemoryError):  # the parser's depth limits
        raise ExpressionError(_TOO_DEEP) from None
    try:
        out = _eval(tree.body, dict(zip("xy", axes)))
    except RecursionError:
        raise ExpressionError(_TOO_DEEP) from None
    shape = np.broadcast_shapes(*(a.shape for a in axes))
    return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()
