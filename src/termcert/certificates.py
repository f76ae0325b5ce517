"""Piecewise certificates mapping stack elements to [0, inf].

A certificate assigns to each (function, label) an ordered list of guarded
extended-real expressions over that function's program variables; the first
matching guard wins and an implicit ``otherwise -> inf`` piece closes every
stanza.  Points a stanza's guards do not cover are thereby both given the
value infinity when they appear as successors and treated as outside the
certificate's declared invariant by the checker.

File format (``#`` comments allowed)::

    eps=1 delta=13 zeta=13
    f@1: [n >= 1] 12*n - 4 ; [n <= 0] 2
    f@7: 0
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple, Union

from . import InputError
from ._compile import cert_value, compile_stanza
from ._record import record
from .lang import Expr, Pred, format_expr, format_pred
from .parser import ParseError, TokenStream, parse_expr, parse_pred, tokenize
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

    @cached_property
    def _compiled(self) -> Dict[tuple, Callable]:
        return {}

    def __getstate__(self):
        # lambdas do not pickle; a pool worker compiles its own copy
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}

    def _stanza(self, fname: str, label: int, pvars: Tuple[str, ...],
                is_terminal: bool) -> Callable:
        """The compiled stanza over `pvars` (see `_compile.compile_stanza`),
        built once per certificate object."""
        key = (fname, label, pvars, is_terminal)
        stanza = self._compiled.get(key)
        if stanza is None:
            stanza = self._compiled[key] = compile_stanza(
                self.pieces(fname, label), fname, label, pvars, is_terminal)
        return stanza

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
        lines = []
        parts = []
        for name, value in (("eps", self.params.eps), ("delta", self.params.delta),
                            ("zeta", self.params.zeta)):
            if value is not None:
                parts.append(f"{name}={value}")
        if parts:
            lines.append(" ".join(parts))
        for (fname, label), pieces in self.stanzas:
            body = " ; ".join(p.render() for p in pieces)
            lines.append(f"{fname}@{label}: {body}")
        return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    params = CertParams()
    stanzas = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "@" not in line.split(":", 1)[0]:
            params = _parse_params_line(line, lineno, params)
            continue
        head, _, body = line.partition(":")
        fname, _, label_text = head.partition("@")
        fname = fname.strip()
        try:
            label = int(label_text.strip())
        except ValueError:
            raise CertificateError(f"line {lineno}: bad label in {head!r}") from None
        if not fname.isidentifier():
            raise CertificateError(f"line {lineno}: bad function name {fname!r}")
        pieces = tuple(_parse_piece(part, lineno) for part in body.split(";") if part.strip())
        if not pieces:
            raise CertificateError(f"line {lineno}: stanza has no pieces")
        stanzas.append(((fname, label), pieces))
    return Certificate(tuple(stanzas), params, source_text=text)


def _parse_params_line(line: str, lineno: int, params: CertParams) -> CertParams:
    values = {"eps": params.eps, "delta": params.delta, "zeta": params.zeta}
    for part in line.replace(",", " ").split():
        if "=" not in part:
            raise CertificateError(f"line {lineno}: expected name=value, found {part!r}")
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in values:
            raise CertificateError(f"line {lineno}: unknown parameter {name!r}")
        try:
            values[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise CertificateError(f"line {lineno}: bad value for {name!r}") from None
    return CertParams(**values)


def _parse_piece(part: str, lineno: int) -> CertPiece:
    part = part.strip()
    guard: Optional[Pred] = None
    try:
        ts = TokenStream(tokenize(part))
        if ts.accept("["):
            if not (ts.peek().kind == "true" and ts.peek(1).kind == "]"):
                guard = parse_pred(ts)
            else:
                ts.next()
            ts.expect("]")
        expr = parse_expr(ts, allow_inf=True)
        if ts.peek().kind != "eof":
            tok = ts.peek()
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    except ParseError as exc:
        raise CertificateError(f"line {lineno}: {exc}") from None
    return CertPiece(guard, expr)


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certificate(fh.read())
