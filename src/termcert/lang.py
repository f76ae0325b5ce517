"""AST for the recursive probabilistic language, plus labelling and printing.

Programs are lists of function entities over integer program variables;
sampling variables are read-only names bound to distributions elsewhere.
Statement labels are assigned by :func:`label_program` (depth-first, source
order, starting at 1 in each function body, terminal label last) and are
excluded from structural equality so that a pretty-printed program re-parses
to an AST equal to the original.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, Optional, Set, Tuple, Union

from . import InputError
from ._record import field, record
from .distributions import DiscreteDist


class EvalError(InputError, ArithmeticError):
    """Expression evaluation left the integers (bad `div` operand or exponent)."""


# ---------------------------------------------------------------------------
# Expressions and predicates
# ---------------------------------------------------------------------------

@record(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))


@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class BinOp:
    op: str  # one of + - * div
    left: "Expr"
    right: "Expr"


@record(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@record(frozen=True)
class InfConst:
    """The literal `inf`; only certificate expressions may contain it."""


Expr = Union[Const, Var, BinOp, Pow, InfConst]


@record(frozen=True)
class Cmp:
    op: str  # one of < <= > >=
    left: Expr
    right: Expr


@record(frozen=True)
class Not:
    inner: "Pred"


@record(frozen=True)
class And:
    left: "Pred"
    right: "Pred"


@record(frozen=True)
class Or:
    left: "Pred"
    right: "Pred"


Pred = Union[Cmp, Not, And, Or]


def expr_variables(expr: Expr) -> Set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, BinOp):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, Pow):
        return expr_variables(expr.base) | expr_variables(expr.exponent)
    return set()


def pred_variables(pred: Pred) -> Set[str]:
    if isinstance(pred, Cmp):
        return expr_variables(pred.left) | expr_variables(pred.right)
    if isinstance(pred, Not):
        return pred_variables(pred.inner)
    return pred_variables(pred.left) | pred_variables(pred.right)


# ---------------------------------------------------------------------------
# Statements, functions, programs
# ---------------------------------------------------------------------------

@record(frozen=True)
class Skip:
    label: Optional[int] = field(default=None, compare=False)


@record(frozen=True)
class Assign:
    var: str
    expr: Expr
    label: Optional[int] = field(default=None, compare=False)


@record(frozen=True)
class IfBool:
    cond: Pred
    then: "Stmt"
    orelse: "Stmt"
    label: Optional[int] = field(default=None, compare=False)


@record(frozen=True)
class IfStar:
    then: "Stmt"
    orelse: "Stmt"
    label: Optional[int] = field(default=None, compare=False)


@record(frozen=True)
class While:
    cond: Pred
    body: "Stmt"
    label: Optional[int] = field(default=None, compare=False)


@record(frozen=True)
class Call:
    fname: str
    args: Tuple[Expr, ...]
    label: Optional[int] = field(default=None, compare=False)


@record(frozen=True)
class Seq:
    """`s1; s2; ...; sn` as one node.  `;` is associative, so sequences
    among the items are spliced in: equality does not depend on how the
    statements were grouped, and `==`, `hash`, `repr` and pickling walk the
    items as a tuple rather than one Python frame per statement."""

    items: Tuple["Stmt", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items",
                           tuple(s for item in self.items for s in _seq_items(item)))


Stmt = Union[Skip, Assign, IfBool, IfStar, While, Call, Seq]


@record(frozen=True)
class FunctionEntity:
    name: str
    params: Tuple[str, ...]
    body: Stmt
    terminal_label: Optional[int] = field(default=None, compare=False)


@record(frozen=True)
class Program:
    functions: Tuple[FunctionEntity, ...]
    # Distributions introduced by bernoulli(...) desugaring, keyed by the
    # fresh sampling variable the parser invented.
    builtin_dists: Tuple[Tuple[str, DiscreteDist], ...] = ()

    def function(self, name: str) -> FunctionEntity:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def function_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.functions)

    @cached_property
    def _program_vars(self) -> frozenset:
        """Every identifier that is a program variable somewhere in the
        program (see `program_variables`); one walk per program."""
        return frozenset(_classify_program_variables(self))

    def sampling_variables(self) -> Tuple[str, ...]:
        """All sampling variables, in first-occurrence order."""
        program_vars = self._program_vars
        seen = []
        for f in self.functions:
            for stmt in iter_statements(f.body):
                if isinstance(stmt, Assign):
                    for name in sorted(expr_variables(stmt.expr)):
                        if name not in program_vars and name not in seen:
                            seen.append(name)
        return tuple(seen)


def iter_statements(stmt: Stmt) -> Iterator[Stmt]:
    """All statements in depth-first source order (Seq nodes excluded)."""
    for item in _seq_items(stmt):
        yield item
        if isinstance(item, (IfBool, IfStar)):
            yield from iter_statements(item.then)
            yield from iter_statements(item.orelse)
        elif isinstance(item, While):
            yield from iter_statements(item.body)


def _seq_items(stmt: Stmt) -> Tuple[Stmt, ...]:
    """The statements of a sequence in order; any other statement is its
    own one item."""
    return stmt.items if isinstance(stmt, Seq) else (stmt,)


def program_variables(prog: Program, fname: str) -> Tuple[str, ...]:
    """pvars(f): parameters plus every program variable in the body.

    An identifier is a program variable if anywhere in the whole program it
    is a parameter, an assignment target, or appears in a predicate or call
    argument; identifiers used only on assignment right-hand sides are
    sampling variables.
    """
    program_vars = prog._program_vars
    f = prog.function(fname)
    names = _bound_variables(f)
    for stmt in iter_statements(f.body):
        if isinstance(stmt, Assign):
            names |= expr_variables(stmt.expr) & program_vars
    return tuple(sorted(names))


def _bound_variables(f: FunctionEntity) -> Set[str]:
    """The parameters of `f` and the names its body assigns, or reads in a
    predicate or a call argument: program variables wherever they appear."""
    names: Set[str] = set(f.params)
    for stmt in iter_statements(f.body):
        if isinstance(stmt, Assign):
            names.add(stmt.var)
        elif isinstance(stmt, (IfBool, While)):
            names |= pred_variables(stmt.cond)
        elif isinstance(stmt, Call):
            for arg in stmt.args:
                names |= expr_variables(arg)
    return names


def _classify_program_variables(prog: Program) -> Set[str]:
    return set().union(*map(_bound_variables, prog.functions))


# ---------------------------------------------------------------------------
# Labelling
# ---------------------------------------------------------------------------

def label_program(prog: Program) -> Program:
    """Assign distinct labels per function body.

    Depth-first in source order starting at 1; the terminal line of each
    body receives the next label after all statements.  Deterministic, so
    two runs on the same AST agree.
    """
    return Program(
        tuple(_label_function(f) for f in prog.functions),
        prog.builtin_dists,
    )


def _label_function(f: FunctionEntity) -> FunctionEntity:
    counter = itertools.count(1)

    def visit(stmt: Stmt) -> Stmt:
        if isinstance(stmt, Seq):
            return Seq(tuple(map(visit, stmt.items)))
        lab = next(counter)
        if isinstance(stmt, Skip):
            return Skip(label=lab)
        if isinstance(stmt, Assign):
            return Assign(stmt.var, stmt.expr, label=lab)
        if isinstance(stmt, Call):
            return Call(stmt.fname, stmt.args, label=lab)
        if isinstance(stmt, IfBool):
            return IfBool(stmt.cond, visit(stmt.then), visit(stmt.orelse), label=lab)
        if isinstance(stmt, IfStar):
            return IfStar(visit(stmt.then), visit(stmt.orelse), label=lab)
        if isinstance(stmt, While):
            return While(stmt.cond, visit(stmt.body), label=lab)
        raise TypeError(f"not a statement: {stmt!r}")

    body = visit(f.body)
    return FunctionEntity(f.name, f.params, body, terminal_label=next(counter))


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "div": 2}


def format_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Const):
        v = expr.value
        text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return f"({text})" if v < 0 and parent_prec > 0 else text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, InfConst):
        return "inf"
    if isinstance(expr, Pow):
        base = format_expr(expr.base, 3)
        exp = format_expr(expr.exponent, 3)
        return f"{base} ^ {exp}" if parent_prec < 3 else f"({base} ^ {exp})"
    prec = _PRECEDENCE[expr.op]
    left = format_expr(expr.left, prec)
    # Right operands always get parens at equal precedence so the printed
    # grouping re-parses to the same tree.
    right = format_expr(expr.right, prec + 1)
    text = f"{left} {expr.op} {right}"
    return f"({text})" if prec < parent_prec else text


def format_pred(pred: Pred, parent_prec: int = 0) -> str:
    if isinstance(pred, Cmp):
        return f"{format_expr(pred.left)} {pred.op} {format_expr(pred.right)}"
    if isinstance(pred, Not):
        return f"not ({format_pred(pred.inner)})"
    if isinstance(pred, And):
        text = f"{format_pred(pred.left, 2)} and {format_pred(pred.right, 2)}"
        return f"({text})" if parent_prec > 2 else text
    if isinstance(pred, Or):
        text = f"{format_pred(pred.left, 1)} or {format_pred(pred.right, 1)}"
        return f"({text})" if parent_prec > 1 else text
    raise TypeError(f"not a predicate: {pred!r}")


def pretty_print(prog: Program) -> str:
    """Concrete syntax that re-parses to a structurally equal program."""
    builtin = dict(prog.builtin_dists)
    return "\n\n".join(f"{f.name}({', '.join(f.params)}) {{\n{_pp_stmt(f.body, 1, builtin)}\n}}"
                       for f in prog.functions) + "\n"


def _pp_stmt(stmt: Stmt, depth: int, builtin: Dict[str, DiscreteDist]) -> str:
    """The lines of `stmt`, a statement or a sequence, at `depth`, joined by
    the separator `;`: one Python frame per level of nesting."""
    pad = "  " * depth
    lines = []
    for item in _seq_items(stmt):
        if isinstance(item, Skip):
            lines.append(f"{pad}skip")
        elif isinstance(item, Assign):
            if isinstance(item.expr, Var) and item.expr.name in builtin:
                p = builtin[item.expr.name].prob(1)
                lines.append(f"{pad}{item.var} := bernoulli({p.numerator}/{p.denominator})")
            else:
                lines.append(f"{pad}{item.var} := {format_expr(item.expr)}")
        elif isinstance(item, Call):
            lines.append(f"{pad}{item.fname}({', '.join(map(format_expr, item.args))})")
        elif isinstance(item, (IfBool, IfStar)):
            cond = format_pred(item.cond) if isinstance(item, IfBool) else "star"
            lines.append(f"{pad}if {cond} then\n{_pp_stmt(item.then, depth + 1, builtin)}\n"
                         f"{pad}else\n{_pp_stmt(item.orelse, depth + 1, builtin)}\n{pad}fi")
        elif isinstance(item, While):
            lines.append(f"{pad}while {format_pred(item.cond)} do\n"
                         f"{_pp_stmt(item.body, depth + 1, builtin)}\n{pad}od")
        else:
            raise TypeError(f"not a statement: {item!r}")
    return ";\n".join(lines)
