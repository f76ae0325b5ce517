"""Finite discrete distributions with exact rational probabilities.

A :class:`SamplingFunction` assigns one distribution per sampling variable;
the induced joint distribution over sampling valuations is the coordinate
product.  Probabilities are `Fraction`s so that expected-value conditions in
the certificate checker are decided exactly; floats appear only when drawing
samples.

The file format, read with the program's tokens and ``#`` comments, has one
variable per line, ``r: 1 1/4; -1 3/4``; errors name the ``line:col``.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from . import InputError
from ._lex import ParseError, line_streams, parse_integer, parse_line_items, parse_number
from ._record import record
from .valuation import Valuation

JOINT_SUPPORT_WARN_LIMIT = 10_000


class DistributionError(InputError, ValueError):
    """Malformed distribution data."""


@record(frozen=True)
class DiscreteDist:
    """Finite support distribution over the integers.

    Support entries are (value, probability) with distinct values, each
    probability a rational in (0, 1], and probabilities summing to exactly 1.
    """

    support: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise DistributionError("support must be nonempty")
        entries = tuple(sorted((int(v), Fraction(p)) for v, p in self.support))
        values = [v for v, _ in entries]
        if len(set(values)) != len(values):
            raise DistributionError("support values must be distinct")
        total, cdf = Fraction(0), []
        for v, p in entries:
            if not (0 < p <= 1):
                raise DistributionError(f"probability {p} outside (0, 1]")
            total += p
            cdf.append((float(total), v))
        if total != 1:
            raise DistributionError(f"probabilities sum to {total}, not 1")
        cdf[-1] = (1.0, cdf[-1][1])
        object.__setattr__(self, "support", entries)
        # kept off the fields; computed once for thresholds()
        object.__setattr__(self, "_thresholds", tuple(cdf))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, Fraction]]) -> "DiscreteDist":
        return cls(tuple(pairs))

    @classmethod
    def point(cls, value: int) -> "DiscreteDist":
        return cls(((value, Fraction(1)),))

    @classmethod
    def bernoulli(cls, p: Fraction) -> "DiscreteDist":
        p = Fraction(p)
        return cls.point(int(p)) if p in (0, 1) else cls(((0, 1 - p), (1, p)))

    @property
    def values(self) -> Tuple[int, ...]:
        return tuple(v for v, _ in self.support)

    def prob(self, value: int) -> Fraction:
        return dict(self.support).get(value, Fraction(0))

    def thresholds(self) -> Tuple[Tuple[float, int], ...]:
        """Cumulative float thresholds for inverse-CDF sampling."""
        return self._thresholds

    def __str__(self) -> str:
        return "; ".join(f"{v} {p}" for v, p in self.support)


@record(frozen=True)
class SamplingFunction:
    """Per-variable distributions plus the induced joint distribution."""

    entries: Tuple[Tuple[str, DiscreteDist], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries))
        names = [n for n, _ in entries]
        if len(set(names)) != len(names):
            raise DistributionError("duplicate sampling variable")
        object.__setattr__(self, "entries", entries)
        size = self.joint_size()
        if size > JOINT_SUPPORT_WARN_LIMIT:
            warnings.warn(
                f"joint sampling support has {size} outcomes; expected-value "
                "checks enumerate all of them",
                stacklevel=2,
            )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, DiscreteDist]) -> "SamplingFunction":
        return cls(tuple(mapping.items()))

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def dist(self, var: str) -> DiscreteDist:
        for n, d in self.entries:
            if n == var:
                return d
        raise KeyError(f"no distribution bound to sampling variable {var!r}")

    def joint_size(self) -> int:
        size = 1
        for _, d in self.entries:
            size *= len(d.support)
        return size

    def joint_support_over(self, variables: Sequence[str]) -> Iterator[Tuple[Valuation, Fraction]]:
        """Joint support restricted to a subset of the sampling variables.

        Marginalizing out unused coordinates is exact because coordinates are
        independent; weights over the subset still sum to 1.
        """
        names = tuple(variables)
        dists = [self.dist(n) for n in names]
        if not names:
            yield Valuation({}), Fraction(1)
            return
        for combo in itertools.product(*(d.support for d in dists)):
            weight = Fraction(1)
            for _, p in combo:
                weight *= p
            yield Valuation({n: v for n, (v, _) in zip(names, combo)}), weight


def merge_distributions(builtin, extra: Mapping[str, DiscreteDist]) -> Dict[str, DiscreteDist]:
    """A program's `bernoulli` distributions, as (name, dist) pairs, and
    `extra`, such as a distribution file's; a variable both define is an
    error."""
    merged = dict(builtin)
    for name, dist in extra.items():
        if name in merged:
            raise DistributionError(f"distribution for {name!r} defined twice")
        merged[name] = dist
    return merged


def parse_distributions(text: str) -> Dict[str, DiscreteDist]:
    """Parse ``r: value prob (; value prob)* [;]`` lines, each value an
    integer and each probability an integer, fraction or decimal literal."""
    out: Dict[str, DiscreteDist] = {}
    try:
        for ts in line_streams(text):
            tok = ts.expect("ident", "a variable name")
            if tok.text in out:
                raise ParseError(f"duplicate stanza for {tok.text!r}", tok.line, tok.col)
            pairs = parse_line_items(ts, lambda ts: (parse_integer(ts, "an integer value"),
                                                     parse_number(ts)))
            try:
                out[tok.text] = DiscreteDist.from_pairs(pairs)
            except DistributionError as exc:  # a line that parsed but does not hold
                raise ParseError(str(exc), tok.line, tok.col) from None
    except ParseError as exc:
        raise DistributionError(str(exc)) from None
    return out


def load_distributions(path: str) -> Dict[str, DiscreteDist]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distributions(fh.read())
