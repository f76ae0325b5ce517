"""Piecewise certificates mapping stack elements to [0, inf].

A certificate assigns to each (function, label) an ordered list of guarded
extended-real expressions over that function's program variables; the first
matching guard wins and an implicit ``otherwise -> inf`` piece closes every
stanza.  Points a stanza's guards do not cover are thereby both given the
value infinity when they appear as successors and treated as outside the
certificate's declared invariant by the checker.

File format, read with the program's tokens and ``#`` comments::

    eps=1 delta=13 zeta=13
    f@1: [n >= 1] 12*n - 4 ; [n <= 0] 2
    f@7: 0

A line holds either parameters (``name=number ...``) or one stanza
(``f@L: piece (; piece)* [;]``, a piece ``[guard] expr`` or ``expr``), and
ends at its end.  Errors name the offending ``line:col``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple, Union

from . import InputError
from ._compile import cert_value, compile_lambda, stanza_source
from ._lex import (ParseError, TokenStream, line_streams, parse_items, parse_line_items,
                   parse_number)
from ._record import field, record
from .lang import Expr, Pred, format_expr, format_pred
from .parser import parse_expr, parse_pred
from .valuation import Valuation

CHECK_KINDS = ("ranking", "cdb", "db", "super")  # the families `checker` and `bounds` know


class CertificateError(InputError, ValueError):
    pass


@record(frozen=True)
class CertPiece:
    guard: Optional[Pred]  # None means `true`
    expr: Expr

    def render(self) -> str:
        body = format_expr(self.expr)
        if self.guard is None:
            return body
        return f"[{format_pred(self.guard)}] {body}"


@record(frozen=True)
class CertParams:
    """Decrease/increase parameters attached to a certificate.

    eps: guaranteed expected decrease per step (ranking conditions)
    delta: cap on expected decrease (lower-bound conditions) or expected
        absolute-change floor (super-measure conditions)
    zeta: cap on (expected or per-outcome) absolute change
    """

    eps: Optional[Fraction] = None
    delta: Optional[Fraction] = None
    zeta: Optional[Fraction] = None

    def __post_init__(self) -> None:
        for name in ("eps", "delta", "zeta"):
            value = getattr(self, name)
            if value is not None:
                value = Fraction(value)
                if value <= 0:
                    raise CertificateError(f"{name} must be positive, got {value}")
                object.__setattr__(self, name, value)
        if self.eps is not None and self.delta is not None and self.eps > self.delta:
            raise CertificateError(
                f"eps={self.eps} exceeds delta={self.delta}; the expected decrease "
                "cannot be both at least eps and at most delta")

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise CertificateError(f"certificate parameter {name!r} is required here")


@record(frozen=True)
class Certificate:
    stanzas: Tuple[Tuple[Tuple[str, int], Tuple[CertPiece, ...]], ...]
    params: CertParams = CertParams()
    source_text: Optional[str] = None
    # (function, label) -> (line, col) of its stanza in `source_text`
    positions: Dict[Tuple[str, int], Tuple[int, int]] = field(
        default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        keys = [k for k, _ in self.stanzas]
        if len(set(keys)) != len(keys):
            raise CertificateError("duplicate certificate stanza")
        object.__setattr__(self, "stanzas", tuple(sorted(self.stanzas)))

    @cached_property
    def stanza_map(self) -> Dict[Tuple[str, int], Tuple[CertPiece, ...]]:
        return dict(self.stanzas)

    def pieces(self, fname: str, label: int) -> Tuple[CertPiece, ...]:
        return self.stanza_map.get((fname, label), ())

    def require_labels(self, cfg) -> None:
        """Raise a CertificateError at the first stanza, in source order, whose
        (function, label) the CFG `cfg` lacks."""
        labels = {(fn.name, label) for fn in cfg.functions for label in fn.labels()}
        stray = min(((self.positions.get(key, (0, 0)), key) for key in self.stanza_map
                     if key not in labels), default=None)
        if stray:
            (line, col), (fname, label) = stray
            raise CertificateError(str(ParseError(
                f"certificate stanza {fname}@{label} names no label of the program", line, col)))

    @cached_property
    def _sources(self) -> Dict[tuple, str]:
        return {}

    def _stanza(self, fname: str, label: int, pvars: Tuple[str, ...],
                is_terminal: bool) -> Callable:
        """The compiled stanza over `pvars` (see `_compile.stanza_source`), its
        source built once per certificate object and its code taken from
        `compile_lambda`'s cache, which all code of the same source shares."""
        key = (fname, label, pvars, is_terminal)
        source = self._sources.get(key)
        if source is None:
            source = self._sources[key] = stanza_source(self.pieces(fname, label), *key)
        return compile_lambda(source)

    def value(self, fname: str, label: int, nu: Valuation,
              is_terminal: bool = False) -> Union[int, Fraction, None]:
        """First-matching-guard evaluation: an int or Fraction, or None for
        inf, which is also the value where nothing matches.

        A terminal label with no stanza at all defaults to 0, since every
        certificate family pins terminal values to 0 anyway.
        """
        return cert_value(self._stanza(fname, label, nu.variables, is_terminal), nu.values)

    def digest(self) -> str:
        """SHA-256 of the source text, or else of `render()`, once per certificate."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        text = self.source_text if self.source_text is not None else self.render()
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        params = " ".join(f"{name}={value}" for name, value in (
            ("eps", self.params.eps), ("delta", self.params.delta), ("zeta", self.params.zeta))
            if value is not None)
        lines = [params] if params else []
        lines += [f"{fname}@{label}: " + " ; ".join(p.render() for p in pieces)
                  for (fname, label), pieces in self.stanzas]
        return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    values, params, stanzas = dict.fromkeys(("eps", "delta", "zeta")), CertParams(), {}
    positions: Dict[Tuple[str, int], Tuple[int, int]] = {}

    def parameter(ts: TokenStream) -> None:
        tok = ts.expect("ident", "a parameter name")
        if tok.text not in values:
            raise ParseError(f"unknown parameter {tok.text!r}", tok.line, tok.col)
        ts.expect("=")
        values[tok.text] = parse_number(ts)
    try:
        for ts in line_streams(text):
            first = ts.peek()
            if ts.peek(1).kind == "@":
                fname = ts.expect("ident", "a function name").text
                ts.expect("@")
                key = fname, int(parse_number(ts, ("int",), "a label number"))
                if key in stanzas:
                    raise ParseError(f"duplicate certificate stanza {fname}@{key[1]}",
                                     first.line, first.col)
                stanzas[key] = tuple(parse_line_items(ts, _parse_piece))
                positions[key] = first.line, first.col
                continue
            parse_items(ts, parameter)  # commas separate like spaces
            try:
                params = CertParams(**values)
            except CertificateError as exc:
                raise ParseError(str(exc), first.line, first.col) from None
    except ParseError as exc:
        raise CertificateError(str(exc)) from None
    return Certificate(tuple(stanzas.items()), params, text, positions)


def _parse_piece(ts: TokenStream) -> CertPiece:
    guard: Optional[Pred] = None
    if ts.accept("["):
        if ts.accept("true") is None:
            guard = parse_pred(ts)
        ts.expect("]")
    return CertPiece(guard, parse_expr(ts, allow_inf=True))


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certificate(fh.read())
