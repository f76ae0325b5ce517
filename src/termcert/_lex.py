"""The tokens of every input: programs, `.cert` and `.dist` files and option values.
A leaf module: `lab` reads its options without loading the parser."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import InputError
from ._record import record


class ParseError(InputError, ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


@record
class Token:
    kind: str
    text: str
    line: int
    col: int


_KEYWORDS = {
    "if", "then", "else", "fi", "while", "do", "od", "skip", "star",
    "and", "or", "not", "div", "bernoulli", "inf", "true",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\r\n]*)
  | (?P<nl>\r\n|\r|\n)
  | (?P<frac>[0-9]+/[0-9]+)
  | (?P<dec>[0-9]+\.[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>:=|<=|>=|\.\.|<|>|\^|[-+*(){},;:\[\]@=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, start = 1, 0  # the line's number and the offset of its first character
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "nl":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, m.start() - start + 1)
        elif kind not in ("ws", "comment"):
            if kind == "sym" or (kind == "ident" and text in _KEYWORDS):
                kind = text
            tokens.append(Token(kind, text, line, m.start() - start + 1))
    tokens.append(Token("eof", "", line, len(source) - start + 1))
    return tokens


class TokenStream:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses, unary minuses, `^`s, `not`s, `if`s and `while`s open

    def enter(self, tok: Token) -> None:
        """Open one more nested level at `tok`, within MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            raise _too_deep(tok)
        self.depth += 1

    def leave(self) -> None:
        self.depth -= 1

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        """The next token, which must be a `kind`; the error names it `what`."""
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what or repr(kind)}, "
                             f"found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None


def line_streams(source: str) -> List[TokenStream]:
    """`source` tokenized once, as a stream per line that holds a token, each
    ending in an eof token past its last, so that no line runs on into the next."""
    lines: Dict[int, List[Token]] = {}
    for tok in tokenize(source)[:-1]:
        lines.setdefault(tok.line, []).append(tok)
    return [TokenStream(toks + [Token("eof", "", line, toks[-1].col + len(toks[-1].text))])
            for line, toks in lines.items()]


def parse_line_items(ts: TokenStream, item: Callable[[TokenStream], object]) -> list:
    """`: item (; item)* [;]`, up to the end of the line `ts` holds."""
    ts.expect(":")
    items = [item(ts)]
    while ts.accept(";") and ts.peek().kind != "eof":
        items.append(item(ts))
    ts.expect("eof", "';' or the end of the line")
    return items


def parse_items(ts: TokenStream, item: Callable[[TokenStream], object], one: bool = False):
    """The `item`s to the end of `ts`, separated by commas or spaces (with `one`, the one item)."""
    items = [item(ts)] if one else []
    while not one and ts.peek().kind != "eof":
        if ts.accept(",") is None:
            items.append(item(ts))
    ts.expect("eof", "the end of the value")
    return items[0] if one else items


def parse_number(ts: TokenStream, kinds: Tuple[str, ...] = ("int", "frac", "dec"),
                 what: str = "a number") -> Fraction:
    """An integer, fraction (`27/2`) or decimal (`13.5`) literal among `kinds`,
    exactly; the error names it `what`.  A literal that runs straight into a
    name, as `1e` in `1e-3` or `1_0`, is an error naming the two."""
    # expect raises when the next token's kind is not among `kinds`
    tok = ts.next() if ts.peek().kind in kinds else ts.expect(kinds[0], what)
    after = ts.peek()
    if after.kind == "ident" and (after.line, after.col) == (tok.line, tok.col + len(tok.text)):
        raise ParseError(f"bad number literal {tok.text + after.text!r}", tok.line, tok.col)
    try:
        return Fraction(tok.text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok.text!r}", tok.line, tok.col) from None
    except ValueError:  # past the digits Python converts (sys.get_int_max_str_digits)
        raise ParseError(f"number too long ({len(tok.text)} characters)",
                         tok.line, tok.col) from None


def parse_integer(ts: TokenStream, what: str = "an integer") -> int:
    """An int literal, negated by a `-` before it."""
    sign = -1 if ts.accept("-") else 1
    return sign * int(parse_number(ts, ("int",), what))


# How deeply an expression, predicate or statement may nest, counted two
# ways: the operators on any path of an expression's tree, and the
# parentheses, unary minuses, `^`s, `not`s and `if`/`while` bodies open at
# any point of the program text.  Walkers over an expression tree
# (printing, compiling, `==`, pickling) recurse up to three frames per tree
# level, the parser three per open parenthesis and two per open body, and
# the commands' walkers over statements (labelling, printing, lowering) at
# most two per body, so at this limit all stay inside Python's recursion
# limit of 1000 frames.  `==`, `hash` and pickling of a whole statement
# tree take about ten frames per body, and are not bounded by this limit.
# A 250-term sum is 249 operators deep.
MAX_NESTING = 256


def _too_deep(tok: Token) -> ParseError:
    what = "statement" if tok.kind in ("if", "while") else "expression"
    return ParseError(f"{what} nested more than {MAX_NESTING} levels deep", tok.line, tok.col)
