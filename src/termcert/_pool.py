"""How the simulator and the checker spread their work over processes."""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from typing import Callable, List

from . import InputError


def fan_out(work: Callable, job: tuple, n: int, workers: int, budget) -> List:
    """Units 0..n-1 of `job`, run through `work(*job, lo, hi, budget) ->
    (part, end)`, which takes units lo.. in order and stops before the first
    unit that would start once its cost reaches `budget`, `end` being the
    first unit not taken.  Returns the parts in unit order.

    At most `workers` processes run (0: one per core), this one included,
    and never more than the units or the machine's cores.  With more than
    one worker, units 0, 1, ... run in this process until their cost
    reaches `budget`: about one pool start-up's worth of work, since
    importing the pool module takes about 35 ms and starting two workers
    17-26 ms (2-core VM, Python 3.11).  A cost count, not a clock, so which
    processes start depends on the inputs alone, and work within the budget
    loads no pool module.  The units left are split into contiguous ranges,
    one per worker: this process runs the first while a pool of the other
    workers runs the rest.  An exception raised in a part propagates, the
    first in unit order.  A negative `workers` is an InputError, raised
    before any unit runs.
    """
    if workers < 0:
        raise InputError(f"workers must be nonnegative, got {workers}")
    cores = os.cpu_count() or 1
    workers = min(workers or cores, n, cores)
    part, done = work(*job, 0, n, budget if workers > 1 else math.inf)
    parts = [part]
    workers = min(workers, n - done)
    if not workers:
        return parts
    bounds = [done + ((n - done) * i) // workers for i in range(workers + 1)]
    with _pool(workers - 1) as pool:
        futures = [pool.submit(work, *job, bounds[i], bounds[i + 1], math.inf)
                   for i in range(1, workers)]
        parts.append(work(*job, bounds[0], bounds[1], math.inf)[0])
        return parts + [f.result()[0] for f in futures]


def _pool(size: int):
    """A pool of `size` worker processes; for none, a stand-in that loads
    no pool module and is never asked to run anything."""
    if not size:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=size)
