"""Closed forms and float tail bounds pinned bit for bit.

`golden/closed_forms.json` holds, for every call below, the `repr` of each
float (or flag) it returns, written by the evaluator this file was first
committed against: `lab.analytic` for every tag and query over a grid of
`n` and `alpha` plus a seeded grid of `alpha` for zeta, and a seeded grid
of `concentration_tail` and `sqrt_tail` cases.  Any later change of how
these are evaluated must reproduce it, except at subnormal results, where
a 40-digit evaluation may land on either side of a rounding boundary of
the float: those must equal the value computed with mpmath at 100 digits
and rounded once, through a 40-digit string.  To rewrite it (only when a
change of the values is intended):
`PYTHONPATH=src python tests/test_golden_closed_forms.py`.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from termcert.bounds import concentration_tail, sqrt_tail
from termcert.lab import TAGS, LabError, analytic

GOLDEN = Path(__file__).parent / "golden" / "closed_forms.json"

NS = (0, 1, 2, 3, 9, 10, 99, 100, 1000, 1019, 1020, 1021, 1074, 1075, 20000)
ALPHAS = (1 + 1e-12, 1.0001, 1.5, 2.0, 2.5, 3.0, 10.0, 72.0, 200.0)
SEED = 2017
# exp(-709.08...): a subnormal result that two 40-digit evaluations round differently
SUBNORMAL = ("concentration_tail", Fraction(53, 15), Fraction(86, 15), 875, 10247)


def _fraction(rng):
    return Fraction(rng.randint(1, 99), rng.randint(1, 30))


def _concentration_case(rng):
    """A case whose exponent is small, near the float's subnormal range, or
    anywhere up to 10^6: n solves (eps*n - h)^2 = 2n(eps+zeta)^2 * e."""
    eps, zeta = _fraction(rng), _fraction(rng)
    h = rng.choice((0, rng.randint(1, 1000), rng.randint(1, 10**7)))
    e = rng.choice((rng.uniform(0, 5), rng.uniform(700, 750), 10 ** rng.uniform(0, 6)))
    b = float(eps * h + (eps + zeta) ** 2 * e)
    n = (b + math.sqrt(b * b - float(eps * h) ** 2)) / float(eps) ** 2
    return ("concentration_tail", eps, zeta, h, max(int(n), math.floor(h / eps) + 1))


def _sqrt_case(rng):
    value = rng.choice((rng.randint(1, 1000), rng.randint(1, 10**6), _fraction(rng)))
    k = rng.randint(1, 9) * 10 ** rng.randint(0, 12)
    return ("sqrt_tail", value, _fraction(rng), _fraction(rng), rng.randint(1, 20), k)


def calls():
    """Every pinned call as (function, *arguments)."""
    for tag in TAGS:
        for alpha in ALPHAS if tag == "noconcentration" else (None,):
            for query in ("prob_nonterm", "expected_T"):
                yield ("analytic", tag, query, None, alpha)
            for n in NS:
                yield ("analytic", tag, "tail", n, alpha)
    rng = random.Random(SEED)
    for _ in range(100):
        yield ("analytic", "noconcentration", "expected_T", None, 1 + 10 ** rng.uniform(-12, 2.3))
    yield SUBNORMAL
    for _ in range(600):
        yield _concentration_case(rng)
    for _ in range(300):
        yield _sqrt_case(rng)


def values(call):
    """The reprs of what `call` returns."""
    name, *args = call
    if name == "analytic":
        try:
            return [repr(analytic(*args))]
        except LabError:
            return ["LabError"]
    if name == "concentration_tail":
        return list(map(repr, concentration_tail(*args)))
    res = sqrt_tail(*args)
    return [repr(res.ok), repr(res.bound), repr(res.min_valid_k)]


def key(call):
    return " ".join(map(str, call))


def corpus():
    return {key(call): values(call) for call in calls()}


def _mpf(q):
    return mpmath.mpf(Fraction(q).numerator) / Fraction(q).denominator


def reference(call):
    """The float results of `call` at 100 digits, rounded once through a
    40-digit string: the closed forms with a subnormal value on the grid."""
    name, *args = call
    with mpmath.workdps(100):
        if name == "concentration_tail":
            eps, zeta, h, n = map(_mpf, args)
            exact = mpmath.exp(-(eps * n - h) ** 2 / (2 * n * (eps + zeta) ** 2))
            factored = (mpmath.exp(eps * h / (eps + zeta) ** 2)
                        * mpmath.exp(-eps ** 2 * n / (2 * (eps + zeta) ** 2)))
            xs = [min(exact, 1), factored]
        else:
            tag, _, n, alpha = args
            xs = [mpmath.mpf(2) ** -n if tag == "cbounded" else mpmath.mpf(n + 1) ** -alpha]
        return [float(mpmath.nstr(x, 40)) for x in xs]


def _subnormal(text):
    try:
        return 0 < abs(float(text)) < sys.float_info.min
    except ValueError:
        return False


def test_closed_forms_match_the_golden_corpus():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    every = {key(call): call for call in calls()}
    assert every.keys() == golden.keys()
    assert any(map(_subnormal, golden[key(SUBNORMAL)]))
    for k, texts in golden.items():
        got = values(every[k])
        for i, text in enumerate(texts):
            if _subnormal(text):
                assert float(got[i]) == reference(every[k])[i], (k, i)
            else:
                assert got[i] == text, (k, i)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus(), indent=1) + "\n", encoding="utf-8")
