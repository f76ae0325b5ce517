"""Finite discrete distributions with exact rational probabilities.

A :class:`SamplingFunction` assigns one distribution per sampling variable;
the induced joint distribution over sampling valuations is the coordinate
product.  Probabilities are `Fraction`s so that expected-value conditions in
the certificate checker are decided exactly; floats appear only when drawing
samples.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from . import InputError
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
        if p == 1:
            return cls.point(1)
        if p == 0:
            return cls.point(0)
        return cls(((0, 1 - p), (1, p)))

    @property
    def values(self) -> Tuple[int, ...]:
        return tuple(v for v, _ in self.support)

    def prob(self, value: int) -> Fraction:
        for v, p in self.support:
            if v == value:
                return p
        return Fraction(0)

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


def parse_fraction(text: str) -> Fraction:
    """Parse `3`, `1/4`, or `0.5` as an exact rational."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DistributionError(f"bad rational literal {text!r}") from exc


def parse_distributions(text: str) -> Dict[str, DiscreteDist]:
    """Parse the distribution file format.

    One sampling variable per stanza: ``r: 1 1/4; -1 3/4``.  Blank lines and
    ``#`` comments are ignored.
    """
    out: Dict[str, DiscreteDist] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DistributionError(f"line {lineno}: expected 'var: value prob; ...'")
        name, body = line.split(":", 1)
        name = name.strip()
        if not name.isidentifier():
            raise DistributionError(f"line {lineno}: bad variable name {name!r}")
        if name in out:
            raise DistributionError(f"line {lineno}: duplicate stanza for {name!r}")
        pairs = []
        for part in body.split(";"):
            part = part.strip()
            if not part:
                continue
            pieces = part.split()
            if len(pieces) != 2:
                raise DistributionError(f"line {lineno}: expected 'value prob' in {part!r}")
            pairs.append((int(pieces[0]), parse_fraction(pieces[1])))
        out[name] = DiscreteDist.from_pairs(pairs)
    return out


def load_distributions(path: str) -> Dict[str, DiscreteDist]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distributions(fh.read())
