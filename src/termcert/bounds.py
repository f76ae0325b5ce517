"""Numeric termination-time bounds derived from a checked certificate.

Every bound is a function of the certificate value at the entry, which is
held as the evaluator holds it: an int or Fraction, or None for inf.
Rational bounds (expected-time bounds, the inverse-linear tail bound) are
exact and take the same form; only the exponential and square-root tail
formulas go through floating point, evaluated at 40 significant digits
before rounding to a double.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import InputError
from ._compile import format_value
from ._record import record
from .certificates import CHECK_KINDS, Certificate
from .cfg import Cfg, StackElement, theta_fixpoint
from .lang import EvalError

# 40 significant digits, and exponents as wide as decimal allows, so that a
# factor like exp(eps*value/(eps+zeta)^2) overflows only the final float
_CONTEXT = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)

_Value = Union[int, Fraction, None]  # a certificate value; None is inf


class BoundError(InputError, ValueError):
    pass


@record(frozen=True)
class BoundReport:
    """One computed bound with the data needed to audit it."""

    rule: str
    entry: str
    params: Dict[str, str]
    value: str
    validity: str = ""


def cert_value_at(cert: Certificate, cfg: Cfg, entry: StackElement) -> _Value:
    """The certificate's value at `entry`, a stack element of `cfg`."""
    if entry.fname not in cfg.function_names():
        raise BoundError(f"no function named {entry.fname!r}")
    fn = cfg.function(entry.fname)
    if entry.label not in fn.labels():
        raise BoundError(f"function {entry.fname!r} has no label {entry.label}")
    try:
        return cert.value(entry.fname, entry.label, entry.valuation,
                          is_terminal=entry.label == fn.exit)
    except EvalError as exc:
        raise EvalError(f"{exc} at ({entry.fname}, {entry.label}, {entry.valuation})") from None


def upper_expected(cert: Certificate, eps: Fraction, entry_value: _Value) -> _Value:
    """Expected-time upper bound value/eps (infinite when the value is)."""
    if Fraction(eps) <= 0:
        raise BoundError("eps must be positive")
    return None if entry_value is None else entry_value / Fraction(eps)


def lower_expected(cert: Certificate, delta: Fraction, entry_value: _Value) -> Fraction:
    """Expected-time lower bound value/delta; needs a finite value."""
    if Fraction(delta) <= 0:
        raise BoundError("delta must be positive")
    if entry_value is None:
        raise BoundError("lower bound requires a finite certificate value at the entry")
    return entry_value / Fraction(delta)


def markov_tail(eps: Fraction, entry_value: _Value, k: int) -> Fraction:
    """P(T >= k) <= value/(eps*k), clamped to [0, 1]; exact rational."""
    if k < 1:
        raise BoundError("k must be at least 1")
    if Fraction(eps) <= 0:
        raise BoundError("eps must be positive")
    if entry_value is None:
        return Fraction(1)
    bound = entry_value / (Fraction(eps) * k)
    return min(Fraction(1), bound)


def concentration_tail(eps: Fraction, zeta: Fraction, entry_value: _Value,
                       n: int) -> Tuple[float, float]:
    """Exponential bound on P(T > n) for per-outcome-bounded certificates.

    Returns (exact form, looser factored form):

        exp(-(eps*n - value)^2 / (2*n*(eps+zeta)^2))
        exp(eps*value/(eps+zeta)^2) * exp(-eps^2*n / (2*(eps+zeta)^2))

    Only valid for n strictly above value/eps.
    """
    eps = Fraction(eps)
    zeta = Fraction(zeta)
    if eps <= 0 or zeta <= 0:
        raise BoundError("eps and zeta must be positive")
    if entry_value is None:
        raise BoundError("concentration bound requires a finite certificate value")
    h0 = Fraction(entry_value)
    if Fraction(n) * eps <= h0:
        raise BoundError(
            f"n={n} is outside the validity domain n > {h0}/{eps} = {h0/eps}")
    with localcontext(_CONTEXT):
        denom = 2 * n * (eps + zeta) ** 2
        exact = (-_dec((eps * n - h0) ** 2 / denom)).exp()
        factored = (_dec(eps * h0 / (eps + zeta) ** 2).exp()
                    * (-_dec(eps * eps * n / (2 * (eps + zeta) ** 2))).exp())
        return float(min(exact, 1)), float(factored)


@record(frozen=True)
class SqrtTailResult:
    ok: bool
    bound: Optional[float]
    k: int
    min_valid_k: Optional[int] = None


def _dec(q: Union[int, Fraction]) -> Decimal:
    """q rounded once to the current context."""
    return Decimal(q.numerator) / q.denominator


def _smallness_holds(zeta: Fraction, delta: Fraction, k: int) -> bool:
    """exp(c*t) - (1 + c*t + c^2 t^2/2) <= (delta^2/4) t^2 at t = 1/sqrt(k),
    with c the per-outcome difference bound."""
    with localcontext(_CONTEXT):
        t = 1 / Decimal(k).sqrt()
        c = _dec(zeta)
        lhs = (c * t).exp() - (1 + c * t + c * c * t * t / 2)
        rhs = _dec(Fraction(delta) ** 2 / 4) * t * t
        return lhs <= rhs


def sqrt_tail(entry_value: _Value, delta: Fraction, zeta: Fraction,
              K: int, k: int) -> SqrtTailResult:
    """Inverse-square-root tail bound for never-increasing certificates.

    With t = 1/sqrt(k):

        P(T >= k) <= (1 - exp(-value*t)) / (1 - (1 + (delta^2/4) t^2)^(-floor(k/K)))

    valid once t is small enough that the cubic-and-higher terms of
    exp(zeta*t) are dominated by (delta^2/4) t^2; below that threshold the
    result reports the smallest usable k (found by doubling then bisection).
    The bound is clamped to [0, 1] and degenerates to 1 when k < K.
    """
    delta = Fraction(delta)
    zeta = Fraction(zeta)
    if delta <= 0 or zeta <= 0:
        raise BoundError("delta and zeta must be positive")
    if K < 1 or k < 1:
        raise BoundError("K and k must be at least 1")
    if entry_value is None or entry_value == 0:
        raise BoundError(
            "sqrt tail bound requires a finite, positive certificate value at the entry")

    if not _smallness_holds(zeta, delta, k):
        lo = k
        hi = k
        while not _smallness_holds(zeta, delta, hi):
            hi *= 2
            if hi > 2 ** 80:
                raise BoundError("no usable k found for the smallness condition")
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if _smallness_holds(zeta, delta, mid):
                hi = mid
            else:
                lo = mid
        return SqrtTailResult(ok=False, bound=None, k=k, min_valid_k=hi)

    periods = k // K
    if periods == 0:
        return SqrtTailResult(ok=True, bound=1.0, k=k)
    with localcontext(_CONTEXT):
        t = 1 / Decimal(k).sqrt()
        numerator = 1 - (-_dec(entry_value) * t).exp()
        base = 1 + _dec(delta ** 2 / 4) * t * t
        denominator = 1 - base ** -periods
        bound = numerator / denominator
        return SqrtTailResult(ok=True, bound=float(min(bound, 1)), k=k)


def bound_rows(kind: str, cert: Certificate, cfg: Cfg, entry: StackElement,
               ks: Tuple[int, ...], ns: Tuple[int, ...]) -> List[BoundReport]:
    """The bounds a `kind` certificate gives at `entry`: P(T >= k) rows for
    each k in `ks`, concentration rows for each n in `ns`."""
    if kind not in CHECK_KINDS:
        raise BoundError(f"unknown certificate kind {kind!r}; expected one of "
                         f"{', '.join(CHECK_KINDS)}")
    cert.require_labels(cfg)
    params = cert.params
    value = cert_value_at(cert, cfg, entry)
    value_text = format_value(value)
    entry_text = f"({entry.fname}, {entry.label}, {entry.valuation})"
    rows: List[BoundReport] = []

    def row(rule: str, text: str, validity: str, **shown) -> None:
        rows.append(BoundReport(rule, entry_text, {k: str(v) for k, v in shown.items()},
                                text, validity))

    if kind in ("ranking", "cdb", "db"):
        params.require("eps")
        row("expected-time-upper", format_value(upper_expected(cert, params.eps, value)), "",
            eps=params.eps, value=value_text)
        for k in ks:
            row("tail-markov", str(markov_tail(params.eps, value, k)), "any k >= 1",
                eps=params.eps, value=value_text, k=k)
    if kind == "cdb":
        params.require("delta")
        row("expected-time-lower", str(lower_expected(cert, params.delta, value)),
            "finite certificate value at the entry", delta=params.delta, value=value_text)
    if kind == "db":
        params.require("zeta")
        for n in ns:
            exact, factored = concentration_tail(params.eps, params.zeta, value, n)
            shown = dict(eps=params.eps, zeta=params.zeta, value=value_text, n=n)
            row("tail-concentration", f"{exact:.6g}", f"n > value/eps = {value / params.eps}",
                **shown)
            row("tail-concentration-factored", f"{factored:.6g}",
                "looser product form of the same bound", **shown)
    if kind == "super":
        params.require("delta", "zeta")
        theta = theta_fixpoint(cfg)
        if not theta.all_covered:
            raise BoundError(
                "the fixpoint does not cover every label; the square-root "
                "tail bound's hypothesis fails")
        row("as-termination", "certified almost-sure termination; tail in O(1/sqrt(k))",
            "without the per-outcome jump cap only O(k^(-1/6)) is certified, with no "
            "computable constant", K_max=theta.K_max)
        for k in ks:
            res = sqrt_tail(value, params.delta, params.zeta, theta.K_max, k)
            row("tail-sqrt", f"{res.bound:.6g}" if res.ok else "k too small for this bound",
                "" if res.ok else f"smallest usable k is {res.min_valid_k}",
                delta=params.delta, zeta=params.zeta, K=theta.K_max, value=value_text, k=k)
    return rows
