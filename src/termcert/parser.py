"""Recursive-descent parser for the probabilistic language, over the tokens of `_lex`.

Concrete syntax (keywords: if/then/else/fi, while/do/od, skip, star, `:=`,
`;` as statement separator)::

    f(n) {
      if n >= 1 then
        if star then
          f(n div 2); f(n div 2)
        else
          g(n - 1)
        fi
      else
        skip
      fi
    }

`bernoulli(p)` on an assignment right-hand side is sugar: the parser invents
a fresh sampling variable bound to the two-point distribution {1: p, 0: 1-p}
and rewrites the statement into an ordinary assignment from that variable.

Which identifiers are sampling variables is decided by the program text
(`lang.Program._names` states the rule); each must occur exactly once.

Nesting is bounded by MAX_NESTING, counted over expressions and statements
together: each open parenthesis, unary minus, `^`, `not` and `if` or
`while` body is one level, and deeper input is a ParseError, not a
RecursionError in the parser or in a later walker.  A statement sequence is
one flat `Seq` however long it is.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import List, Tuple

from ._lex import (_KEYWORDS, MAX_NESTING, ParseError, Token, TokenStream,  # noqa: F401
                   _too_deep, parse_number, tokenize)
from .distributions import DiscreteDist
from .lang import (
    And,
    Assign,
    BinOp,
    Call,
    Cmp,
    Const,
    Expr,
    FunctionEntity,
    IfBool,
    IfStar,
    InfConst,
    Not,
    Or,
    Pow,
    Pred,
    Program,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
    iter_statements,
)


# ---------------------------------------------------------------------------
# Expressions and predicates (shared with the certificate format)
# ---------------------------------------------------------------------------

def _within_limit(tree, tok: Token):
    """`tree`, if it is at most MAX_NESTING operators deep."""
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            raise _too_deep(tok)
        if isinstance(node, (BinOp, Cmp, And, Or)):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, Pow):
            stack += ((node.base, depth + 1), (node.exponent, depth + 1))
        elif isinstance(node, Not):
            stack.append((node.inner, depth + 1))
    return tree


def parse_expr(ts: TokenStream, allow_inf: bool = False) -> Expr:
    tok = ts.peek()
    return _within_limit(_parse_sum(ts, allow_inf), tok)


def _parse_sum(ts: TokenStream, allow_inf: bool) -> Expr:
    """A sum of products, both left-associative, in one frame."""
    total = op = None
    while True:
        node = _parse_factor(ts, allow_inf)
        while ts.peek().kind in ("*", "div"):
            mul = ts.next().kind
            node = BinOp(mul, node, _parse_factor(ts, allow_inf))
        total = node if total is None else BinOp(op, total, node)
        if ts.peek().kind not in ("+", "-"):
            return total
        op = ts.next().kind


def _parse_factor(ts: TokenStream, allow_inf: bool) -> Expr:
    node = _parse_atom(ts, allow_inf)
    tok = ts.accept("^")
    if tok is not None:
        ts.enter(tok)
        node = Pow(node, _parse_factor(ts, allow_inf))
        ts.leave()
    return node


def _parse_atom(ts: TokenStream, allow_inf: bool) -> Expr:
    tok = ts.peek()
    if tok.kind in ("int", "frac", "dec"):
        if tok.kind != "int" and not allow_inf:
            raise ParseError("non-integer constants are only allowed in certificates",
                             tok.line, tok.col)
        return Const(parse_number(ts))
    if tok.kind == "-":
        ts.next()
        nxt = ts.peek()
        if nxt.kind in ("int", "frac", "dec"):  # fold negative literals
            inner = _parse_atom(ts, allow_inf)
            return Const(-inner.value)
        ts.enter(tok)
        node = BinOp("-", Const(Fraction(0)), _parse_atom(ts, allow_inf))
        ts.leave()
        return node
    if tok.kind == "ident":
        ts.next()
        return Var(tok.text)
    if tok.kind == "inf":
        ts.next()
        if not allow_inf:
            raise ParseError("the literal inf is only allowed in certificates",
                             tok.line, tok.col)
        return InfConst()
    if tok.kind == "(":
        ts.next()
        ts.enter(tok)
        node = _parse_sum(ts, allow_inf)
        ts.leave()
        ts.expect(")")
        return node
    raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}",
                     tok.line, tok.col)


def parse_pred(ts: TokenStream) -> Pred:
    tok = ts.peek()
    return _within_limit(_parse_pred_disj(ts), tok)


def _parse_pred_disj(ts: TokenStream) -> Pred:
    node = _parse_pred_conj(ts)
    while ts.accept("or"):
        node = Or(node, _parse_pred_conj(ts))
    return node


def _parse_pred_conj(ts: TokenStream) -> Pred:
    node = _parse_pred_atom(ts)
    while ts.accept("and"):
        node = And(node, _parse_pred_atom(ts))
    return node


def _parse_pred_atom(ts: TokenStream) -> Pred:
    tok = ts.accept("not")
    if tok is not None:
        ts.enter(tok)
        node = Not(_parse_pred_atom(ts))
        ts.leave()
        return node
    if ts.peek().kind == "(":
        # Either a parenthesized predicate or a parenthesized arithmetic
        # expression starting a comparison; try the comparison first.
        saved = ts.pos, ts.depth
        try:
            return _parse_cmp(ts)
        except ParseError:
            ts.pos, ts.depth = saved
        ts.enter(ts.expect("("))
        node = _parse_pred_disj(ts)
        ts.leave()
        ts.expect(")")
        return node
    return _parse_cmp(ts)


def _parse_cmp(ts: TokenStream) -> Pred:
    left = _parse_sum(ts, False)
    tok = ts.peek()
    if tok.kind not in ("<", "<=", ">", ">="):
        raise ParseError(f"expected a comparison operator, found {tok.text!r}",
                         tok.line, tok.col)
    ts.next()
    return Cmp(tok.kind, left, _parse_sum(ts, False))


# ---------------------------------------------------------------------------
# Statements and programs
# ---------------------------------------------------------------------------

class _ProgramParser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.fresh_coins: List[Tuple[str, DiscreteDist]] = []

    def parse_program(self) -> Program:
        functions = []
        while self.ts.peek().kind != "eof":
            functions.append(self.parse_function())
        if not functions:
            tok = self.ts.peek()
            raise ParseError("a program needs at least one function", tok.line, tok.col)
        return Program(tuple(functions), tuple(self.fresh_coins))

    def parse_function(self) -> FunctionEntity:
        name = self.ts.expect("ident").text
        self.ts.expect("(")
        params: List[str] = []
        if self.ts.peek().kind != ")":
            params.append(self.ts.expect("ident").text)
            while self.ts.accept(","):
                params.append(self.ts.expect("ident").text)
        self.ts.expect(")")
        self.ts.expect("{")
        body = self.parse_stmt_seq()
        self.ts.expect("}")
        return FunctionEntity(name, tuple(params), body)

    def parse_stmt_seq(self) -> Stmt:
        stmts = [self.parse_stmt()]
        while self.ts.accept(";"):
            if self.ts.peek().kind in ("}", "else", "fi", "od", "eof"):
                break  # trailing separator
            stmts.append(self.parse_stmt())
        return stmts[0] if len(stmts) == 1 else Seq(tuple(stmts))

    def parse_stmt(self) -> Stmt:
        tok = self.ts.peek()
        if tok.kind == "skip":
            self.ts.next()
            return Skip()
        if tok.kind == "if":
            self.ts.next()
            star = self.ts.accept("star")
            cond = None if star else parse_pred(self.ts)
            self.ts.expect("then")
            self.ts.enter(tok)
            then = self.parse_stmt_seq()
            self.ts.expect("else")
            orelse = self.parse_stmt_seq()
            self.ts.leave()
            self.ts.expect("fi")
            return IfStar(then, orelse) if star else IfBool(cond, then, orelse)
        if tok.kind == "while":
            self.ts.next()
            cond = parse_pred(self.ts)
            self.ts.expect("do")
            self.ts.enter(tok)
            body = self.parse_stmt_seq()
            self.ts.leave()
            self.ts.expect("od")
            return While(cond, body)
        if tok.kind == "ident":
            if self.ts.peek(1).kind == "(":
                name = self.ts.next().text
                self.ts.next()  # (
                args: List[Expr] = []
                if self.ts.peek().kind != ")":
                    args.append(parse_expr(self.ts))
                    while self.ts.accept(","):
                        args.append(parse_expr(self.ts))
                self.ts.expect(")")
                return Call(name, tuple(args))
            name = self.ts.next().text
            self.ts.expect(":=")
            if self.ts.peek().kind == "bernoulli":
                return self._parse_bernoulli_assign(name)
            return Assign(name, parse_expr(self.ts))
        raise ParseError(f"expected a statement, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def _parse_bernoulli_assign(self, target: str) -> Stmt:
        tok = self.ts.expect("bernoulli")
        self.ts.expect("(")
        p = parse_number(self.ts)
        self.ts.expect(")")
        if not (0 < p < 1):
            raise ParseError(f"bernoulli probability {p} outside (0, 1)", tok.line, tok.col)
        coin = f"_bern{len(self.fresh_coins) + 1}"
        self.fresh_coins.append((coin, DiscreteDist.bernoulli(p)))
        return Assign(target, Var(coin))


def parse_program(source: str) -> Program:
    """Parse and validate; raises ParseError on bad input.  A syntax error
    names its line and column; the errors `_validate` finds in the program
    as a whole (a duplicate function or parameter, a bad call, a shadowed
    coin, a sampling variable not occurring exactly once) name none."""
    prog = _ProgramParser(TokenStream(tokenize(source))).parse_program()
    _validate(prog)
    return prog


def _validate(prog: Program) -> None:
    names = [f.name for f in prog.functions]
    for name in names:
        if names.count(name) > 1:
            raise ParseError(f"duplicate function name {name!r}")
    arity = {f.name: len(f.params) for f in prog.functions}
    for f in prog.functions:
        if len(set(f.params)) != len(f.params):
            raise ParseError(f"duplicate parameter in function {f.name!r}")
        for stmt in iter_statements(f.body):
            if isinstance(stmt, Call):
                if stmt.fname not in arity:
                    raise ParseError(
                        f"call to undeclared function {stmt.fname!r} in {f.name!r}")
                if len(stmt.args) != arity[stmt.fname]:
                    raise ParseError(
                        f"call to {stmt.fname!r} passes {len(stmt.args)} arguments, "
                        f"declared with {arity[stmt.fname]}")

    _validate_sampling_variables(prog)


def _validate_sampling_variables(prog: Program) -> None:
    program_vars, _, reads = prog._names
    for coin, _ in prog.builtin_dists:
        if coin in program_vars:
            # A user identifier shadowing the fresh name would make it a
            # program variable and silently change the semantics.
            raise ParseError(f"internal coin variable {coin!r} is shadowed by the program")
    counts = Counter(name for assigns in reads.values() for _, names in assigns for name in names)
    for name in prog.sampling_variables():
        if counts[name] != 1:
            raise ParseError(
                f"sampling variable {name!r} appears {counts[name]} times; "
                "each sampling variable must appear exactly once")


def load_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())
