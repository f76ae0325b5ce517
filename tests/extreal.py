"""Extended-real arithmetic over exact rationals, for the test oracles.

Certificate values live in [0, inf].  The kernel holds one as an int or
Fraction, or None for inf; the oracles in `oracles.py` compute with this
class instead, so that their arithmetic stays independent of the kernel's.
The finite part is a `fractions.Fraction` and infinity is a distinguished
element with the usual absorbing conventions:

    d * inf = inf  for d > 0        0 * inf = 0
    x + inf = inf                   inf <= inf

Negative finite values are representable because intermediate results of
certificate expressions (e.g. ``12*n - 4``) may dip below zero before the
final value is range-checked by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple


class ExtRealError(ArithmeticError):
    """An operation left the domain where extended-real arithmetic is defined."""


class ExtReal:
    """A rational number or +infinity, with exact arithmetic."""

    __slots__ = ("_frac",)

    def __init__(self, value=0):
        if isinstance(value, ExtReal):
            self._frac = value._frac
        elif value is None:
            self._frac = None  # +infinity
        else:
            self._frac = Fraction(value)

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ExtRealError("infinite value has no rational part")
        return self._frac

    def __add__(self, other) -> "ExtReal":
        other = _coerce(other)
        if self._frac is None or other._frac is None:
            return INF
        return ExtReal(self._frac + other._frac)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtReal":
        other = _coerce(other)
        if other._frac is None:
            # inf - inf and finite - inf are both undefined here; the checker
            # never forms them because difference conditions are restricted
            # to points with finite certificate value.
            raise ExtRealError("subtraction of infinity is undefined")
        if self._frac is None:
            return INF
        return ExtReal(self._frac - other._frac)

    def __mul__(self, other) -> "ExtReal":
        other = _coerce(other)
        if self._frac is not None and other._frac is not None:
            return ExtReal(self._frac * other._frac)
        # One side is infinite: 0 * inf = 0, d * inf = inf for d > 0.
        finite = self._frac if self._frac is not None else other._frac
        if finite is None:  # inf * inf
            return INF
        if finite == 0:
            return ZERO
        if finite < 0:
            raise ExtRealError("negative multiple of infinity is undefined")
        return INF

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExtReal":
        other = _coerce(other)
        if other._frac is None or other._frac <= 0:
            raise ExtRealError("division only by a finite positive value")
        if self._frac is None:
            return INF
        return ExtReal(self._frac / other._frac)

    def __abs__(self) -> "ExtReal":
        if self._frac is None:
            return INF
        return ExtReal(abs(self._frac))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExtReal(other)
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._frac == other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other._frac is None:
            return True  # x <= inf, including inf <= inf
        if self._frac is None:
            return False
        return self._frac <= other._frac

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        return self <= other and self != other

    def __ge__(self, other) -> bool:
        return _coerce(other) <= self

    def __gt__(self, other) -> bool:
        return _coerce(other) < self

    def __repr__(self) -> str:
        return f"ExtReal({self})"

    def __str__(self) -> str:
        if self._frac is None:
            return "inf"
        if self._frac.denominator == 1:
            return str(self._frac.numerator)
        return f"{self._frac.numerator}/{self._frac.denominator}"


def _coerce(value) -> ExtReal:
    return value if isinstance(value, ExtReal) else ExtReal(value)


ZERO = ExtReal(0)
INF = ExtReal(None)


def extreal_max(a: ExtReal, b: ExtReal) -> ExtReal:
    return b if a <= b else a


def extreal_sum_weighted(terms: Iterable[Tuple[Fraction, ExtReal]]) -> ExtReal:
    """Exact weighted sum of extended reals, honoring 0 * inf = 0.

    Weights must be nonnegative rationals.
    """
    total = ZERO
    for weight, value in terms:
        w = Fraction(weight)
        if w < 0:
            raise ExtRealError("weights must be nonnegative")
        total = total + ExtReal(w) * _coerce(value)
    return total
