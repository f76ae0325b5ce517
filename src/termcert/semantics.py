"""Operational semantics as a run loop: schedulers, and seed-stable Monte
Carlo estimation of termination-time statistics.

A run starts from one stack element (function, label, valuation) and takes
steps until its stack of activation frames is empty; its termination time
is the number of steps taken.  `simulate` runs the one loop that
`_compile.compile_runner` emits per program: it takes one step per label,
jumps between resume points by number, and keeps the run's frames, each a
(resume point, values) pair, on a list of its own.  An assignment draws
the sampling variables it reads when it runs, and a scheduler resolves
every nondeterministic label; runs whose draws fall between the same cuts
share one run (`_run_range`).  The single-step reference the run loop is
tested against lives in `tests/oracles.py`.  `StackElement` (from `cfg`)
and `TailEstimate`, `wilson_interval` and `Z95` (from `rng`) remain names
of this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from operator import mul
from threading import get_ident
from typing import Callable, Optional, Sequence, Tuple

from . import InputError
from ._compile import cert_value, compile_runner, value_le
from ._pool import fan_out
from ._record import field, record
from .certificates import Certificate
from .cfg import Cfg, CfgFunction, StackElement
from .distributions import SamplingFunction
from .rng import Z95, TailEstimate, make_generator, philox_doubles, rekey, wilson_interval


class SemanticsError(InputError, ValueError):
    pass


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------

SCHEDULER_KINDS = ("greedy-max", "greedy-min", "always-then", "always-else", "uniform")
_CHOICES = 4096  # greedy choices remembered per star label and worker


@record(frozen=True)
class Scheduler:
    """Memoryless policy over nondeterministic configurations.

    The greedy modes inspect a certificate: greedy-max takes the branch with
    the larger certificate value (then-branch on ties), greedy-min the
    smaller; these are the policies the bound checks in the test-suite lean
    on.  `uniform` flips a fair coin from the run's own stream.
    """

    kind: str
    cert: Optional[Certificate] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULER_KINDS:
            raise SemanticsError(
                f"unknown scheduler {self.kind!r}; choose from {SCHEDULER_KINDS}")
        if self.kind.startswith("greedy") and self.cert is None:
            raise SemanticsError(f"scheduler {self.kind!r} needs a certificate")

    def _greedy(self, fn: CfgFunction, t_then: int, t_else: int) -> Callable[..., bool]:
        """values -> whether the greedy mode takes the then-branch.  A choice
        depends on the values alone, so the last _CHOICES are remembered (one
        that raises is not)."""
        h_then = self.cert._stanza(fn.name, t_then, fn.pvars, t_then == fn.exit)
        h_else = self.cert._stanza(fn.name, t_else, fn.pvars, t_else == fn.exit)
        low, high = (h_else, h_then) if self.kind == "greedy-max" else (h_then, h_else)
        return lru_cache(maxsize=_CHOICES)(
            lambda *vals: value_le(cert_value(low, vals), cert_value(high, vals)))


# ---------------------------------------------------------------------------
# Run statistics
# ---------------------------------------------------------------------------

@record(frozen=True)
class RunStats:
    runs: int
    terminated: int
    censored: int
    max_steps: int
    mean: Optional[float]
    mean_halfwidth: Optional[float]
    tails: Tuple[TailEstimate, ...]
    seed: int
    scheduler: str
    sum_steps: int = field(default=0, repr=False)
    sumsq_steps: int = field(default=0, repr=False)

    def tail(self, k: int) -> TailEstimate:
        for t in self.tails:
            if t.k == k:
                return t
        raise KeyError(f"no tail estimate for k={k}")


def _finalize(totals: Sequence[int], runs: int, max_steps: int, k_list: Sequence[int],
              seed: int, scheduler_kind: str) -> RunStats:
    terminated, sum_steps, sumsq_steps, *counts = totals
    mean = halfwidth = None
    if terminated > 0:
        mean = sum_steps / terminated
        if terminated > 1:
            var = (sumsq_steps - terminated * mean * mean) / (terminated - 1)
            halfwidth = Z95 * math.sqrt(max(var, 0.0) / terminated)
        else:
            halfwidth = float("inf")
    tails = []
    for k, count in zip(k_list, counts):
        lo, hi = wilson_interval(count, runs)
        tails.append(TailEstimate(k, count, count / runs if runs else 0.0, lo, hi))
    return RunStats(
        runs=runs,
        terminated=terminated,
        censored=runs - terminated,
        max_steps=max_steps,
        mean=mean,
        mean_halfwidth=halfwidth,
        tails=tuple(tails),
        seed=seed,
        scheduler=scheduler_kind,
        sum_steps=sum_steps,
        sumsq_steps=sumsq_steps,
    )


# ---------------------------------------------------------------------------
# Simulation: each run is one call of the program's compiled run loop
# ---------------------------------------------------------------------------

_ROW = 8  # draws per run computed ahead, by whole Philox blocks of 4
_FIRST = 24  # draws of a run's first read past its row, of 8..256 the fastest on halving
_BLOCK = 1024  # runs whose first _ROW draws one kernel call computes
_SHARED = 256  # rows a block needs for runs to share classes: in fewer, few classes repeat
# `fan_out`'s budget: about one pool start-up (25-36 ms to import the pool
# module and start one worker) at 11.1M-11.8M (uniform) to 20.0M-22.2M
# (always-else) steps/s, fixed costs and the steps of shared runs included,
# on 1,000 halving-game runs from n = 5 a call, 2-core VM, Python 3.11: 14
# to 27 ms.  A draw-free simulation runs once whatever its run count:
# within the budget
_SERIAL_STEPS = 300_000


class _Uniforms:
    """The draws of a run past those it was given.  `dr` holds the current
    run's next draws, last first, for the run loop to pop; `next` refills
    it and returns the next draw.  At its first call in the run `run`, it
    re-keys its thread's one generator (a forked worker's is its parent's)
    to the Philox stream (seed, run), `skip` blocks of 4 draws in, past the
    draws the run was given, and reads _FIRST draws; each later call reads
    twice as many as the last, up to 256, so a run drawing thousands makes
    few numpy calls."""

    __slots__ = ("seed", "run", "skip", "dr", "gen", "size")

    def __init__(self, seed: int, run: int):
        self.seed, self.run, self.skip, self.dr = seed, run, 0, []

    def next(self) -> float:
        if self.run is not None:  # the run's first call
            self.gen = _generator(get_ident())
            rekey(self.gen, self.seed, self.run, self.skip)
            self.run, self.size = None, _FIRST
        self.dr += self.gen.random(self.size)[::-1].tolist()
        self.size = min(2 * self.size, 256)
        return self.dr.pop()


@lru_cache(maxsize=4)
def _generator(thread: int):
    """The thread's one generator, which `rekey` restarts on each stream."""
    return make_generator(0)


_RUNNERS: dict = {}  # (id(cfg), id(sf), kind, entry) -> (cfg, sf, compile_runner's result)
_MAX_RUNNERS = 32


def _runner(cfg: Cfg, sf: SamplingFunction, kind: str, entry: Tuple[str, int]) -> tuple:
    """`compile_runner`'s result, kept for the last _MAX_RUNNERS compiled; an
    entry holds its cfg and sf, whose ids a hit checks by identity too."""
    key = (id(cfg), id(sf), kind, entry)
    hit = _RUNNERS.get(key)
    if hit is None or hit[0] is not cfg or hit[1] is not sf:
        if len(_RUNNERS) >= _MAX_RUNNERS:
            _RUNNERS.pop(next(iter(_RUNNERS)), None)  # the oldest, unless a thread took it
        hit = _RUNNERS[key] = (cfg, sf, compile_runner(cfg, sf, kind, entry))
    return hit[2]


def _tally(steps, k_list: Tuple[int, ...], copies: int = 1) -> list:
    """(terminated, steps, squared steps, *tail counts in k_list's order) of
    runs taking `steps` each, None for a censored run (counted in every
    tail), each run counted `copies` times."""
    done = sorted(t for t in steps if t is not None)
    censored = len(steps) - len(done)
    return [term * copies for term in (
        len(done), sum(done), sum(map(mul, done, done)),
        *(len(done) - bisect_left(done, k) + censored for k in k_list))]


def _run_range(cfg: Cfg, sf: SamplingFunction, entry_fname: str, entry_label: int,
               entry_vals: tuple, scheduler: Scheduler, max_steps: int,
               k_list: Tuple[int, ...], seed: int, lo: int, hi: int,
               budget: float) -> Tuple[list, int]:
    """Runs lo..hi-1, each a call of the program's compiled run loop (see
    `_compile.compile_runner`), which keeps the run's frame stack.  Stops
    before the first run that would start once the steps spent (a censored
    run spends max_steps) reach `budget`.  The first run starts with no
    draws; when it draws none, every run of the range is that run, counted
    for all of them.  Otherwise one `philox_doubles` call computes the
    rows of _ROW draws of the next _BLOCK runs, made Python lists at once,
    and each run starts with its row in `dr`.  As the run loop compares
    draws with its `cuts` alone, a run of a block of _SHARED rows or more
    that ends within its row gives its steps (None if censored) to each
    row whose draws up to the last it read fall between the same cuts
    (`_classes`), which is not run; the rows still go in order.  Returns
    the runs' (terminated, steps, squared steps, *tail counts in k_list's
    order) and the first run not taken."""
    make, stars, cuts = _runner(cfg, sf, scheduler.kind, (entry_fname, entry_label))
    if lo == hi or budget <= 0:
        return _tally((), k_list), lo
    uniforms = _Uniforms(seed, lo)
    walk = make(uniforms.next, uniforms.dr, max_steps, *(scheduler._greedy(*s) for s in stars))
    steps = [walk(entry_vals)]
    if uniforms.run is not None:  # drew nothing, so no run draws
        return _tally(steps, k_list, hi - lo), hi
    totals, spent, end = _tally(steps, k_list), steps[0] or max_steps, lo + 1
    uniforms.skip = _ROW // 4
    while end < hi and spent < budget:
        steps.clear()
        block = philox_doubles(seed, end, min(_BLOCK, hi - end), _ROW // 4)
        known, table, first, share = [False] * len(block), None, end, len(block) >= _SHARED
        for row, t in zip(block[:, ::-1].tolist(), known):  # t: given by an earlier run, or False
            if spent >= budget:
                break
            if t is False:
                uniforms.run, uniforms.dr[:] = end, row
                t = walk(entry_vals)
                if share and uniforms.run is not None:  # it read from its row alone
                    order, place, common = table = table or _classes(block, cuts)
                    read, a = _ROW - len(uniforms.dr), place[end - first]
                    b = a + 1
                    while common[a] >= read:
                        a -= 1
                    while common[b] >= read:
                        b += 1
                    for j in order[a:b]:
                        known[j] = t
            steps.append(t)
            spent += t or max_steps
            end += 1
        totals = [a + b for a, b in zip(totals, _tally(steps, k_list))]
    return totals, end


def _classes(block, cuts: tuple) -> tuple:
    """(order, place, common): `order` sorts a block's rows by the classes
    (a draw's: the cuts at or below it) of their first `width` draws, packed
    in keys of 53 bits that doubles hold exactly; row i is order[place[i]];
    the rows at places p - 1 and p share common[p] classes, -1 past the ends."""
    import numpy as np

    bits = len(cuts).bit_length() or 1
    width = min(_ROW, 53 // bits)
    keys = np.searchsorted(cuts, block[:, :width], side="right") @ (
        1 << bits * np.arange(width - 1, -1, -1))
    order = keys.argsort()
    ranked = keys[order]
    differ = np.frexp(ranked[1:] ^ ranked[:-1])[1]  # the bit length of each XOR
    common = ((bits * width - differ) // bits).tolist()
    return order.tolist(), order.argsort().tolist(), [-1, *common, -1]


def simulate(cfg: Cfg, sf: SamplingFunction, entry: StackElement,
             scheduler: Scheduler, runs: int, max_steps: int,
             k_list: Sequence[int] = (), seed: int = 0,
             workers: int = 1) -> RunStats:
    """Monte Carlo estimate of termination-time statistics.

    Each run owns the stream (seed, run-index), the seed in [0, 2^64), so
    results are bit-identical for any worker count.  `_pool.fan_out` spreads the runs over at most
    `workers` processes (0: one per core) in contiguous ranges, after a
    head of runs in this process whose steps reach _SERIAL_STEPS.  Runs
    stopped at `max_steps` are censored: they are excluded from the mean
    and counted as mass at or beyond every requested tail threshold (all
    thresholds must be <= max_steps, which makes tail estimates unbiased).
    So is a run at a value that `*` or `^` makes longer than
    `_compile.VALUE_BITS` bits, which the step cap alone would not stop in
    reasonable time or memory.  Every run starts from `entry`, so when one
    run draws no random number all runs are that run, and it is simulated
    once.
    """
    if entry.fname not in cfg.function_names():
        raise SemanticsError(f"no function named {entry.fname!r}")
    fn = cfg.function(entry.fname)
    if entry.label not in fn.labels():
        raise SemanticsError(f"function {entry.fname!r} has no label {entry.label}")
    unbound = [v for v in fn.pvars if v not in entry.valuation]
    if unbound:
        raise SemanticsError(f"entry valuation binds no value to {unbound}")
    if entry.label == fn.exit:
        raise SemanticsError("entry stack element must be nonterminal")
    if max_steps < 1:
        raise SemanticsError("max_steps must be at least 1")
    if runs < 0:
        raise SemanticsError(f"runs must be nonnegative, got {runs}")
    if not 0 <= seed < 2**64:
        raise SemanticsError(f"seed must be in [0, 2^64), got {seed}")
    k_list = tuple(sorted(set(int(k) for k in k_list)))
    for k in k_list:
        if k < 1 or k > max_steps:
            raise SemanticsError(f"tail threshold {k} outside [1, max_steps]")
    missing = [s for s in cfg.sampling_vars if s not in sf.variables]
    if missing:
        raise SemanticsError(f"no distribution for sampling variables {missing}")
    if scheduler.kind.startswith("greedy"):
        scheduler.cert.require_labels(cfg)
    entry_vals = tuple(entry.valuation[v] for v in fn.pvars)

    job = (cfg, sf, entry.fname, entry.label, entry_vals, scheduler, max_steps, k_list, seed)
    parts = fan_out(_run_range, job, runs, workers, _SERIAL_STEPS)
    return _finalize([sum(column) for column in zip(*parts)], runs, max_steps, k_list,
                     seed, scheduler.kind)
