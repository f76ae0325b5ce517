"""Closed-form stochastic processes that separate the certificate families.

Each process follows the shared recurrence

    X_{n+1} = 1_{X_n > 0} * (X_n + Y_{n+1})

with a per-step two-point law for Y_{n+1} (or, for the running-sum variant,
no indicator reset), and stops at T = first n with X_n <= 0.  Every tag has
an exact analytic law to compare the simulation against:

    nonnegativity      P(T > n) = exp(-sum_{j<=n} 1/j^2): positive mass at
                       infinity even though the expected drift is ranking
    cbounded           E[T] = 2, far below initial-value/drift = 3: expected
                       lower bounds need a cap on the expected step size
    noconcentration    P(T > n) = (n+1)^-alpha: polynomial tails when jumps
                       are unbounded, so no exponential concentration
    randomwalk         P(T > n) = C(n, floor(n/2))/2^n = Theta(1/sqrt(n)):
                       the square-root tail bound is order-optimal
    positivity         P(T = infinity) = 1/2 when the expected absolute step
                       only stays positive but not bounded away from zero
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal, localcontext
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from . import InputError
from ._record import record
from .rng import Z95, TailEstimate, below, make_generator, wilson_interval

if TYPE_CHECKING:
    import numpy as np

TAGS = ("nonnegativity", "cbounded", "noconcentration", "randomwalk", "positivity")

_CONTEXT = Context(prec=40)  # the closed forms' working precision
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")
_ZIV = Decimal("1e-35")  # far above the Stirling tail's relative error (see `_central_tail`)


class LabError(InputError, ValueError):
    pass


def _needs_alpha(tag: str, alpha: Optional[float]) -> float:
    if tag != "noconcentration":
        return 0.0
    if alpha is None or not alpha > 1:
        raise LabError("noconcentration needs alpha > 1")
    return float(alpha)


def initial_value(tag: str) -> float:
    return {"nonnegativity": 0.5, "cbounded": 3.0, "noconcentration": 3.0,
            "randomwalk": 1.0, "positivity": 1.0}[tag]


def step_law(tag: str, n: int, alpha: Optional[float] = None) -> Tuple[Tuple[float, float], ...]:
    """The two-point law of the n-th increment (n >= 1) as ((value, prob), ...)."""
    if tag not in TAGS:
        raise LabError(f"unknown process {tag!r}; choose from {TAGS}")
    if n < 1:
        raise LabError("increments are defined for n >= 1")
    alpha = _needs_alpha(tag, alpha)
    if tag == "nonnegativity":
        p_up = math.exp(-1.0 / (n * n))
        return ((1.0, p_up), (-4.0 * n * n, 1.0 - p_up))
    if tag == "cbounded":
        up = float(2 ** (n - 1))
        return ((up, 0.5), (-up - 2.0, 0.5))
    if tag == "noconcentration":
        p_up = (n / (n + 1.0)) ** alpha
        return ((2.0, p_up), (-2.0 * n - 1.0, 1.0 - p_up))
    if tag == "randomwalk":
        return ((1.0, 0.5), (-1.0, 0.5))
    return ((2.0 ** (-n + 1), 0.5), (-(2.0 ** (-n + 1)), 0.5))


def analytic(tag: str, query: str, n: Optional[int] = None,
             alpha: Optional[float] = None) -> float:
    """Exact value of a supported query, evaluated at 40 significant digits
    with `decimal` and rounded once to a float.

    Queries: ``prob_nonterm``, ``expected_T``, ``tail`` (P(T > n), needs n).
    Unsupported (tag, query) pairs raise LabError.
    """
    if tag not in TAGS:
        raise LabError(f"unknown process {tag!r}; choose from {TAGS}")
    alpha_f = _needs_alpha(tag, alpha)
    with localcontext(_CONTEXT):
        if query == "tail":
            if n is None or n < 0:
                raise LabError("tail query needs n >= 0")
            if tag == "nonnegativity":
                return float(Decimal(-sum(1 / Decimal(j * j) for j in range(1, n + 1))).exp())
            if tag == "cbounded":
                return math.ldexp(1.0, -n)
            if tag == "noconcentration":
                return float(Decimal(n + 1) ** -Decimal(alpha_f))
            if tag == "randomwalk":
                return _central_tail(n)
            return 1.0 if n == 0 else 0.5
        if query == "prob_nonterm":
            if tag == "nonnegativity":
                return float((-_zeta(Decimal(2))).exp())
            if tag in ("cbounded", "noconcentration", "randomwalk"):
                return 0.0
            return 0.5
        if query == "expected_T":
            if tag == "cbounded":
                return 2.0
            if tag == "noconcentration":
                return float(_zeta(Decimal(alpha_f)))
            raise LabError(f"expected_T is not finite/supported for {tag!r}")
    raise LabError(f"unknown query {query!r}")


def _central_tail(n: int) -> float:
    """C(n, m) / 2^n for m = n // 2, rounded once.  From n = 10^4 on, 4^-m C(2m, m) =
    exp(S(2m) - 2 S(m)) / sqrt(pi m) (times n/(n + 1) for odd n), where S(x) = 1/(12x) -
    1/(360x^3) + ... is Stirling's series, cut where it errs by < 2e-3 x^-11 < 1e-43; kept
    if _ZIV either side rounds alike (Ziv's test), else the exact, quadratic quotient."""
    m = n // 2
    if n >= 10**4:
        s = sum((Decimal(2) ** -(2 * k + 1) - 2) / (d * Decimal(m) ** (2 * k + 1))
                for k, d in enumerate((12, -360, 1260, -1680, 1188)))  # S(2m) - 2 S(m)
        v = s.exp() / (_PI * m).sqrt() * (Decimal(n) / (n + 1) if n % 2 else 1)
        if float(v * (1 - _ZIV)) == float(v * (1 + _ZIV)):
            return float(v)
    return math.comb(n, m) / 2 ** n  # int division rounds once


@functools.lru_cache(maxsize=None)
def _borwein_weights() -> Tuple[int, ...]:
    """d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!) for k = 0..n, n = 70."""
    n = 70
    d = [0]
    for i in range(n + 1):
        d.append(d[-1] + n * math.factorial(n + i - 1) * 4 ** i
                 // (math.factorial(n - i) * math.factorial(2 * i)))
    return tuple(d[1:])


def _zeta(s: Decimal) -> Decimal:
    """The Riemann zeta function at real s > 1, in the current context.

    P. Borwein, "An efficient algorithm for the Riemann zeta function"
    (2000), algorithm 2: the alternating series eta(s) weighted by d_k,
    divided by 1 - 2^(1-s).  With 70 terms the series misses eta(s), which
    is at least ln 2, by less than 3 / (3 + sqrt 8)^70 < 1e-53.
    """
    d = _borwein_weights()
    n = len(d) - 1
    eta = sum((-1) ** k * (d[k] - d[n]) / Decimal(k + 1) ** s for k in range(n))
    return -eta / (d[n] * (1 - Decimal(2) ** (1 - s)))


@record(frozen=True)
class LabResult:
    tag: str
    alpha: Optional[float]
    runs: int
    horizon: int
    seed: int
    terminated: int
    censored: int
    mean: Optional[float]
    mean_halfwidth: Optional[float]
    survivals: Tuple[TailEstimate, ...]  # entry at n estimates P(T > n)

    def survival(self, n: int) -> TailEstimate:
        for t in self.survivals:
            if t.k == n:
                return t
        raise KeyError(f"no survival estimate for n={n}")

    @property
    def p_censored(self) -> float:
        return self.censored / self.runs if self.runs else 0.0

    def rows(self) -> Tuple[Tuple[str, Optional[float], str, float, float], ...]:
        """(query, analytic, method, empirical, ci-halfwidth) comparison rows.

        The censored fraction P(T > horizon) is an upper-biased proxy for
        the probability of nontermination and is labelled as such.
        """
        rows = []
        try:
            exp_t = analytic(self.tag, "expected_T", alpha=self.alpha)
        except LabError:
            exp_t = None
        if self.mean is not None:
            rows.append((
                "expected_T", exp_t,
                "closed form" if exp_t is not None else "not finite",
                self.mean, self.mean_halfwidth or 0.0,
            ))
        nonterm = analytic(self.tag, "prob_nonterm", alpha=self.alpha)
        lo, hi = wilson_interval(self.censored, self.runs)
        rows.append((
            f"prob_nonterm (proxy: P(T > {self.horizon}))", nonterm,
            "closed form limit; empirical column is horizon-censored and upper-biased",
            self.p_censored, (hi - lo) / 2,
        ))
        for t in self.survivals:
            rows.append((
                f"tail P(T > {t.k})",
                analytic(self.tag, "tail", n=t.k, alpha=self.alpha),
                "closed form", t.p_hat, (t.hi - t.lo) / 2,
            ))
        return tuple(rows)


def simulate_lab(tag: str, runs: int, horizon: int, seed: int = 0,
                 alpha: Optional[float] = None,
                 tail_ns: Sequence[int] = ()) -> LabResult:
    """Simulate the recurrence and aggregate termination-time statistics.

    Increment laws are time-inhomogeneous but identical across runs, so the
    whole cohort advances one step at a time as a vector, its coins cut from
    raw 64-bit Philox words at integer points.  The random walk advances a
    block of steps at a time: it reads the bytes of raw words, at most 2^18
    steps per chunk, sixteen steps per table lookup, so memory does not
    grow with runs x block.  Runs alive at the horizon are censored; they
    count toward every requested survival level (exact, since T > horizon
    >= n) and are excluded from the mean, taken with the spread in float64.
    """
    import numpy as np
    if tag not in TAGS:
        raise LabError(f"unknown process {tag!r}; choose from {TAGS}")
    if horizon < 1:
        raise LabError("horizon must be at least 1")
    if runs < 0:
        raise LabError(f"runs must be nonnegative, got {runs}")
    if not 0 <= seed < 2**64:
        raise LabError(f"seed must be in [0, 2^64), got {seed}")
    alpha_f = _needs_alpha(tag, alpha)
    tail_ns = tuple(sorted(set(int(n) for n in tail_ns)))
    for n in tail_ns:
        if n < 0 or n > horizon:
            raise LabError(f"survival level {n} outside [0, horizon]")

    gen = make_generator(seed, 0)
    T = (_simulate_walk(gen, runs, horizon) if tag == "randomwalk"
         else _simulate_two_point(gen, tag, alpha_f, runs, horizon))

    terminated = int(np.count_nonzero(T))
    censored = runs - terminated
    mean = halfwidth = None
    if terminated:
        steps = T[T > 0] if censored else T  # numpy sums the integers exactly, in float64
        mean = float(steps.mean())
        halfwidth = (float(Z95 * steps.std(ddof=1) / math.sqrt(terminated))
                     if terminated > 1 else float("inf"))

    survivals = tuple(TailEstimate(n, c, c / runs if runs else 0.0, *wilson_interval(c, runs))
                      for n, c in zip(tail_ns, _survival_counts(T, tail_ns)))
    return LabResult(tag=tag, alpha=alpha if tag == "noconcentration" else None, runs=runs,
                     horizon=horizon, seed=seed, terminated=terminated, censored=censored,
                     mean=mean, mean_halfwidth=halfwidth, survivals=survivals)


def _survival_counts(T: np.ndarray, levels: Sequence[int]) -> list:
    """Per level n, the runs with T > n or censored (T = 0), from one
    histogram of T summed from the top; it is as long as the largest T, not
    the horizon."""
    import numpy as np
    hist = np.bincount(T, minlength=1)
    at_least = np.append(hist[::-1].cumsum()[::-1], 0)  # at_least[t]: runs with T >= t
    return [int(hist[0] + at_least[min(n + 1, hist.size)]) for n in levels]


def _simulate_two_point(gen: np.random.Generator, tag: str, alpha: float,
                        runs: int, horizon: int) -> np.ndarray:
    """Step the cohort through the recurrence; returns T per run (0 = censored).

    `nonnegativity` uses the running-sum form (no reset on nonpositive
    values); the others reset, which for stopping-time purposes is the same
    as freezing the run at its first nonpositive value.  `below` decides
    the `alive` runs' up-steps, in order.  While they share one value `v`
    and only a down-step stops a run (all steps but `positivity`'s after
    the first), the up-steps survive; else `x` holds each alive run's value.
    `T` is int32 while runs and horizon fit, to halve a large cohort's traffic;
    `compress` drops stopped runs several times faster than a mask index.
    """
    import numpy as np
    dtype = np.int32 if max(runs, horizon) < 2**31 else np.int64
    T, alive, x, v = np.zeros(runs, dtype=dtype), None, None, initial_value(tag)
    for n in range(1, horizon + 1):
        k = runs if alive is None else alive.size
        if k == 0:
            break
        (up_val, p_up), (down_val, _) = step_law(tag, n, alpha)
        stay = below(gen, k, p_up)
        if x is None and v + down_val <= 0 < v + up_val:
            v += up_val
        else:
            x = np.where(stay, up_val, down_val) + (v if x is None else x)
            stay = x > 0
        if alive is None:  # n == 1, where every run is alive
            T, alive = (~stay).astype(dtype), np.flatnonzero(stay)
        elif np.count_nonzero(stay) < k:
            T[alive.compress(~stay)] = n
            alive = alive.compress(stay)
        x = x if x is None or x.size == alive.size else x.compress(stay)
    return T


_CHUNK_DRAWS = 1 << 18  # walk draws per chunk of 4k rows, at most (4 rows at the least)


@functools.lru_cache(maxsize=None)
def _byte_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per byte of eight walk steps (bit i: step i + 1 goes down): the net
    move, the lowest prefix sum less it, and row k - 1's first step <= -k."""
    import numpy as np
    down = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    prefix = np.cumsum(1 - 2 * down.astype(np.int16), axis=1)
    net = prefix[:, -1]
    first = (prefix <= -np.arange(1, 9, dtype=np.int16)[:, None, None]).argmax(axis=2) + 1
    return net, prefix.min(axis=1) - net, first


@functools.lru_cache(maxsize=None)
def _unit_tables() -> Tuple[np.ndarray, np.ndarray]:
    """`_byte_tables`' net move and lowest prefix less it per 16-bit unit of
    sixteen steps, 256 * high byte + low byte, the low byte's steps first."""
    import numpy as np
    net, low, _ = _byte_tables()
    return (net[:, None] + net).ravel(), np.minimum(low - net[:, None], low[:, None]).ravel()


def _first_down(units: np.ndarray, before: np.ndarray) -> np.ndarray:
    """The step (1..16) at which a walk entering each unit `before` (1..16)
    above 0 first reaches 0, which the unit must do: in the low byte, or in
    the high byte, entered at `before` plus the low byte's net move (`& 7`
    keeps the index of the branch that `where` drops in range)."""
    import numpy as np
    net, low, first = _byte_tables()
    lo, hi = units & 0xFF, units >> 8
    entered = before + net[lo]
    return np.where(entered + low[lo] <= 0, first[(before - 1) & 7, lo],
                    first[(entered - 1) & 7, hi] + 8)


def _simulate_walk(gen: np.random.Generator, runs: int, horizon: int) -> np.ndarray:
    """Symmetric +-1 walk from 1 absorbed at 0, scanned sixteen steps a lookup.

    Each block takes its steps from one (alive x block) draw, row by row:
    the block schedule decides which draw goes to which run, so it must not
    change without changing the statistics.  That draw is numpy's int8
    `integers(0, 2)`: the top bit of each byte of 32-bit words, low byte
    first, which are the low then the high halves of raw 64-bit words.  A
    call starts on a fresh 32-bit word, and one of odd length leaves a high
    half to the next (`carry` keeps it), so chunks of at most 2^18 steps in
    multiples of 4 rows read the one big call's bytes in bounded memory.
    Down-steps are packed eight to a byte and each row padded to whole
    16-bit units (pad bits act as up-steps).  Prefix sums run over units,
    laid out unit-major so that each sum and the minimum per run are whole
    vector ops; that minimum finds the runs that reach 0, and `_first_down`
    the step.  `x` stays int64: it can outgrow int16 on long horizons.
    """
    import numpy as np
    net, low = _unit_tables()
    T = np.zeros(runs, dtype=np.int64)
    x = np.ones(runs, dtype=np.int64)  # the values of the `alive` runs, in order
    alive = np.arange(runs)
    done_steps, carry = 0, np.empty(0, dtype=np.uint8)
    while alive.size and done_steps < horizon:
        block = int(max(64, min(4096, 4_000_000 // max(alive.size, 1))))
        block = min(block, horizon - done_steps)
        rows = max(4, _CHUNK_DRAWS // block // 4 * 4)
        keep = np.ones(alive.size, dtype=bool)
        for lo in range(0, alive.size, rows):
            r = min(rows, alive.size - lo)
            fresh = -(-r * block // 4) - carry.size // 4  # 32-bit words still to draw
            raw = gen.bit_generator.random_raw(-(-fresh // 2))
            raw = raw.astype("<u8", copy=False).view(np.uint8)
            steps = (np.concatenate((carry, raw)) if carry.size else raw)[:r * block]
            carry = raw[raw.size - 4 * (fresh % 2):]
            packed = np.packbits((steps < 0x80).reshape(r, block), axis=1, bitorder="little")
            if packed.shape[1] % 2:
                packed = np.concatenate((packed, np.zeros((r, 1), dtype=np.uint8)), axis=1)
            units = packed.view("<u2").T  # units[j, i]: row i's steps 16j + 1..16j + 16
            ends = np.cumsum(net.take(units), axis=0, dtype=np.int16)
            xs = x[lo:lo + r]
            floor = -np.minimum(xs, 8192).astype(np.int16)  # a block is <= 4096 steps
            lows = ends + low.take(units)
            hits = np.flatnonzero(lows.min(axis=0) <= floor)
            if hits.size:
                g = (lows[:, hits] <= floor[hits]).argmax(axis=0)
                unit = units[g, hits]
                before = ends[g, hits] - net.take(unit) - floor[hits]  # 1..16
                T[alive[lo + hits]] = done_steps + 16 * g + _first_down(unit, before)
                keep[lo + hits] = False
            xs += ends[-1] + block % -16  # less the pad's up-steps
        alive, x = alive.compress(keep), x.compress(keep)
        done_steps += block
    return T


def fit_tail_slope(ns: Sequence[int], counts: Sequence[int], runs: int) -> float:
    """Weighted log-log slope of an empirical survival curve.

    The abscissa is log(n + 1), which counts completed trials: the natural
    argument for survival functions of first-failure times (P(T > n)
    depends on the n+1 trials survived).  Points with fewer than 25
    surviving runs are dropped, and the rest are weighted by their counts,
    approximating inverse variance of log P-hat under Poisson noise.
    """
    import numpy as np
    xs, ys, ws = [], [], []
    for n, count in zip(ns, counts):
        if count >= 25 and n >= 0:
            xs.append(math.log(n + 1))
            ys.append(math.log(count / runs))
            ws.append(float(count))
    if len(xs) < 2:
        raise LabError("not enough usable points to fit a slope")
    xs_a, ys_a, ws_a = map(np.asarray, (xs, ys, ws))
    xbar = np.average(xs_a, weights=ws_a)
    ybar = np.average(ys_a, weights=ws_a)
    return float(np.sum(ws_a * (xs_a - xbar) * (ys_a - ybar))
                 / np.sum(ws_a * (xs_a - xbar) ** 2))
