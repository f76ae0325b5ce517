"""The single evaluator of termcert: expressions, guards, CFG payloads and
certificate stanzas compiled to Python lambdas over valuation tuples.

Everything that evaluates a program or a certificate goes through here: the
checker, the run loop, `semantics.step`, the schedulers, `Certificate.value`
and `cfg.value_passing`.  The interpretive reference that the tests compare
against lives in `tests/oracles.py`.

Arithmetic stays exact: program values are Python ints, certificate values
ints or Fractions, and the helpers enforce the integer-arithmetic side
conditions (integer operands and a positive divisor for `div`, a
nonnegative integer exponent for `^`).

A certificate value is an int or Fraction when finite and None for
infinity.  A compiled stanza returns `MISS` at points none of its guards
cover, which the checker skips and every other consumer values as infinity
(`cert_value`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from .lang import And, BinOp, Cmp, Const, EvalError, Expr, InfConst, Not, Or, Pow, Pred, Var

OP_BRANCH, OP_ASSIGN, OP_CALL, OP_NONDET, OP_EXIT = range(5)

MISS = object()


def _idiv(a, b):
    if b <= 0:
        raise EvalError(f"floor division by non-positive value {b}")
    if isinstance(b, Fraction) and b.denominator != 1:
        raise EvalError(f"floor division by non-integer {b}")
    if isinstance(a, Fraction) and a.denominator != 1:
        raise EvalError(f"floor division of non-integer {a}")
    return a // b


def _ipow(a, b):
    if b < 0 or (isinstance(b, Fraction) and b.denominator != 1):
        raise EvalError(f"exponent {b} is not a nonnegative integer")
    return a ** int(b)


def point_text(fname: str, label: int, pvars: Tuple[str, ...], vals: tuple) -> str:
    """A stack element as error messages name it: (f, 1, {n=3})."""
    point = ", ".join(f"{k}={val}" for k, val in zip(pvars, vals))
    return f"({fname}, {label}, {{{point}}})"


def _negative(x, v, fname, label, pvars):
    from .certificates import CertificateError

    raise CertificateError(
        f"certificate value {x} at {point_text(fname, label, pvars, v)} is negative")


_NAMESPACE = {"F": Fraction, "_idiv": _idiv, "_ipow": _ipow, "_negative": _negative,
              "MISS": MISS, "__builtins__": {}}


def expr_code(expr: Expr, pvar_index: Dict[str, int],
              svar_index: Optional[Dict[str, int]] = None) -> str:
    """Render `expr` as Python source over `v` (pvars) and `m` (samples)."""
    if isinstance(expr, Const):
        value = expr.value
        if value.denominator == 1:
            return repr(value.numerator)
        return f"F({value.numerator}, {value.denominator})"
    if isinstance(expr, Var):
        if expr.name in pvar_index:
            return f"v[{pvar_index[expr.name]}]"
        if svar_index is not None and expr.name in svar_index:
            return f"m[{svar_index[expr.name]}]"
        raise EvalError(f"unbound variable {expr.name!r}")
    if isinstance(expr, BinOp):
        left = expr_code(expr.left, pvar_index, svar_index)
        right = expr_code(expr.right, pvar_index, svar_index)
        if expr.op == "div":
            return f"_idiv({left}, {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, Pow):
        base = expr_code(expr.base, pvar_index, svar_index)
        exp = expr_code(expr.exponent, pvar_index, svar_index)
        return f"_ipow({base}, {exp})"
    if isinstance(expr, InfConst):
        raise EvalError("inf cannot appear inside an arithmetic expression")
    raise TypeError(f"not an expression: {expr!r}")


def pred_code(pred: Pred, pvar_index: Dict[str, int]) -> str:
    if isinstance(pred, Cmp):
        left = expr_code(pred.left, pvar_index)
        right = expr_code(pred.right, pvar_index)
        return f"({left} {pred.op} {right})"
    if isinstance(pred, Not):
        return f"(not {pred_code(pred.inner, pvar_index)})"
    if isinstance(pred, And):
        return f"({pred_code(pred.left, pvar_index)} and {pred_code(pred.right, pvar_index)})"
    if isinstance(pred, Or):
        return f"({pred_code(pred.left, pvar_index)} or {pred_code(pred.right, pvar_index)})"
    raise TypeError(f"not a predicate: {pred!r}")


@lru_cache(maxsize=2048)
def compile_lambda(source: str) -> Callable:
    """The lambda for `source`; random and repeated programs share many."""
    return eval(source, _NAMESPACE)


def _index(names: Tuple[str, ...]) -> Dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def compile_pred(pred: Pred, pvars: Tuple[str, ...]) -> Callable:
    return compile_lambda(f"lambda v: {pred_code(pred, _index(pvars))}")


def compile_update(var: Optional[str], expr: Optional[Expr],
                   pvars: Tuple[str, ...],
                   sampling_vars: Tuple[str, ...]) -> Callable:
    """fn(v, m) -> v' where m carries the drawn sampling values in order."""
    if var is None or expr is None:
        return compile_lambda("lambda v, m: v")
    body = expr_code(expr, _index(pvars), _index(sampling_vars))
    slots = ", ".join(
        body if name == var else f"v[{i}]" for i, name in enumerate(pvars)
    )
    return compile_lambda(f"lambda v, m: ({slots},)")


def compile_call_args(params: Tuple[str, ...], args: Tuple[Expr, ...],
                      caller_pvars: Tuple[str, ...],
                      callee_vars: Tuple[str, ...]) -> Callable:
    """fn(v) -> callee valuation tuple (parameters bound, locals zero)."""
    pidx = _index(caller_pvars)
    by_param = dict(zip(params, args))
    slots = [expr_code(by_param[name], pidx) if name in by_param else "0"
             for name in callee_vars]
    return compile_lambda(f"lambda v: ({', '.join(slots)},)")


def compile_op(cfg, fname: str, label: int) -> tuple:
    """The op of (fname, label), in the one format every consumer reads:

        (OP_BRANCH, guard_fn, true_target, false_target)
        (OP_ASSIGN, update_fn, sampling_vars, target)
        (OP_CALL, args_fn, callee, callee_entry, target)
        (OP_NONDET, then_target, else_target)
        (OP_EXIT,)

    Each consumer adds its own distribution data (joint-support outcomes,
    sampling thresholds) to the assignment ops.
    """
    fn = cfg.function(fname)
    if label == fn.exit:
        return (OP_EXIT,)
    edges = fn.out_edges(label)  # sorted: the true/then edge comes first
    if not edges:
        raise KeyError(f"{fname} has no label {label}")
    p, target = edges[0].payload, edges[0].target
    if label in fn.branching:
        return (OP_BRANCH, compile_pred(p.pred, fn.pvars), target, edges[1].target)
    if label in fn.nondet:
        return (OP_NONDET, target, edges[1].target)
    if label in fn.call:
        return (OP_CALL, compile_call_args(p.params, p.args, fn.pvars, p.callee_vars),
                p.callee, cfg.function(p.callee).entry, target)
    return (OP_ASSIGN, compile_update(p.var, p.expr, fn.pvars, p.sampling_vars),
            p.sampling_vars, target)


class OpTable(dict):
    """(fname, label) -> op of one CFG, compiled on first lookup."""

    def __init__(self, cfg):
        super().__init__()
        self.cfg = cfg

    def __missing__(self, key):
        op = self[key] = compile_op(self.cfg, *key)
        return op


def compile_stanza(pieces, fname: str, label: int, pvars: Tuple[str, ...],
                   is_terminal: bool) -> Callable:
    """fn(v) -> the first matching piece's value (None for `inf`), or MISS.

    A terminal label with no stanza at all is 0.  A negative value raises
    CertificateError naming the point.
    """
    if not pieces:
        return compile_lambda("lambda v: 0" if is_terminal else "lambda v: MISS")
    pidx = _index(pvars)
    code = "MISS"
    for piece in reversed(pieces):
        if isinstance(piece.expr, InfConst):
            value = "None"
        elif isinstance(piece.expr, Const) and piece.expr.value >= 0:
            value = expr_code(piece.expr, pidx)
        else:
            value = (f"(x if (x := {expr_code(piece.expr, pidx)}) >= 0 "
                     f"else _negative(x, v, {fname!r}, {label!r}, {pvars!r}))")
        if piece.guard is None:
            code = value
        else:
            code = f"({value} if {pred_code(piece.guard, pidx)} else {code})"
    return compile_lambda(f"lambda v: {code}")


def cert_value(stanza: Callable, vals: tuple):
    """Value of a compiled stanza at `vals`; uncovered points are infinite."""
    value = stanza(vals)
    return None if value is MISS else value


def value_le(a, b) -> bool:
    """a <= b over certificate values, None being infinity."""
    return b is None or (a is not None and a <= b)


def format_value(x) -> str:
    return "inf" if x is None else str(x)
