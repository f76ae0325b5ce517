"""Operational semantics as a run loop: schedulers, and seed-stable Monte
Carlo estimation of termination-time statistics.

A run starts from one stack element (function, label, valuation) and takes
steps until its stack of activation frames is empty; its termination time
is the number of steps taken.  `simulate` runs the one loop that
`_compile.compile_runner` emits per program: it takes one step per label,
jumps between resume points by number, and keeps the run's frames, each a
(resume point, values) pair, on a list of its own.  An assignment draws
the sampling variables it reads when it runs, and a scheduler resolves
every nondeterministic label.  The single-step reference the run loop is
tested against lives in `tests/oracles.py`.  `StackElement` (from `cfg`)
and `TailEstimate`, `wilson_interval` and `Z95` (from `rng`) remain names
of this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
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
_BLOCK = 1024  # runs whose first _ROW draws one kernel call computes
# `fan_out`'s budget: about one pool start-up (25-36 ms to import the pool
# module and start one worker) at the run loop's 5.2M (uniform) to 8.4M
# (always-else) steps/s on the halving game, 2-core VM, Python 3.11.  A
# draw-free simulation runs once whatever its run count: within the budget
_SERIAL_STEPS = 200_000


class _Uniforms:
    """The uniform draws of one worker's runs below `hi`, run `i` from the
    Philox stream (seed, i).  `dr` holds the current run's next draws,
    last first, for the run loop to pop; `next` refills it and returns the
    next draw.  At a run's first draw it takes the run's row of _ROW draws,
    and when the run is outside the rows at hand it first computes the rows
    of the next _BLOCK runs in one `philox_doubles` call.  A run that draws
    past its row re-keys the worker's one generator to its stream, skips
    the row's Philox blocks, and reads on 256 draws at a time.  Each draw
    depends on (seed, run) alone, so how runs fall into blocks cannot
    change a draw."""

    __slots__ = ("seed", "hi", "dr", "rows", "base", "gen", "run", "drawn")

    def __init__(self, seed: int, hi: int):
        self.seed, self.hi = seed, hi
        self.dr: list = []
        self.rows = ()  # the current block's rows, each last draw first
        self.base = 0
        self.gen = None  # opened at the first run that draws past its row

    def start(self, run: int) -> None:
        self.run = run
        self.drawn = 0
        self.dr.clear()

    def next(self) -> float:
        run, dr = self.run, self.dr
        if not self.drawn:
            if not 0 <= run - self.base < len(self.rows):
                self.base, n = run, min(_BLOCK, self.hi - run)
                self.rows = philox_doubles(self.seed, run, n, _ROW // 4)[:, ::-1]
            # a row at a time: Python floats for a whole block at once left
            # the heap fragmented, some MB larger after a simulation
            dr += self.rows[run - self.base].tolist()
            self.drawn = _ROW
        else:
            if self.drawn == _ROW:
                if self.gen is None:
                    self.gen = make_generator(self.seed)
                rekey(self.gen, self.seed, run)
                self.gen.bit_generator.advance(_ROW // 4)
            dr += self.gen.random(256)[::-1].tolist()
            self.drawn += 256
        return dr.pop()


def _run_range(cfg: Cfg, sf: SamplingFunction, entry_fname: str, entry_label: int,
               entry_vals: tuple, scheduler: Scheduler, max_steps: int,
               k_list: Tuple[int, ...], seed: int, lo: int, hi: int,
               budget: float) -> Tuple[tuple, int]:
    """Runs lo..hi-1, each a call of the program's compiled run loop (see
    `_compile.compile_runner`), which keeps the run's frame stack.  Stops
    before the first run that would start once the steps spent (a censored
    run spends max_steps) reach `budget`.  A run that draws nothing is
    every run of the range, so it is counted for the rest of the range and
    the loop ends.  Returns the runs' (terminated, steps, squared steps,
    *tail counts in k_list's order) and the first run not taken."""
    make, stars = compile_runner(cfg, sf, scheduler.kind, (entry_fname, entry_label))
    tail = dict.fromkeys(k_list, 0)
    uniforms = _Uniforms(seed, hi)
    walk = make(uniforms.next, uniforms.dr, max_steps,
                *(scheduler._greedy(*star) for star in stars))

    spent = censored = sumsq = 0
    end = hi
    for run in range(lo, hi):
        if spent >= budget:
            end = run
            break
        uniforms.start(run)
        steps = walk(entry_vals)
        copies = 1 if uniforms.drawn else hi - run
        spent += (steps or max_steps) * copies  # a censored run (None) counts max_steps
        if steps is None:  # censored, counted in every tail below
            censored += copies
        else:
            sumsq += steps * steps * copies
            for k in k_list:
                if steps >= k:
                    tail[k] += copies
        if not uniforms.drawn:
            break
    return (end - lo - censored, spent - censored * max_steps, sumsq,
            *(count + censored for count in tail.values())), end


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
    entry_vals = tuple(entry.valuation[v] for v in fn.pvars)

    job = (cfg, sf, entry.fname, entry.label, entry_vals, scheduler, max_steps, k_list, seed)
    parts = fan_out(_run_range, job, runs, workers, _SERIAL_STEPS)
    return _finalize([sum(column) for column in zip(*parts)], runs, max_steps, k_list,
                     seed, scheduler.kind)
