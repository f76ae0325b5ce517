"""Simulation statistics pinned bit for bit.

`golden/runstats.json` holds `repr(RunStats)`, followed by the step sums
that the repr leaves out, for every entry of the corpus below, written by
the run loop this file was first committed against.  Any later change to the stepper, the schedulers or the draws must reproduce it
at every worker count.  To rewrite it (only when a change of the statistics
is intended): `PYTHONPATH=src python tests/test_golden_runstats.py`.
"""

import json
from pathlib import Path

import pytest

from termcert.fixtures import coin_loops, halving_game, random_walk
from termcert.semantics import SCHEDULER_KINDS, Scheduler, StackElement, simulate
from termcert.valuation import Valuation

GOLDEN = Path(__file__).parent / "golden" / "runstats.json"

ENTRIES = (  # (fixture, function, label, arguments)
    (halving_game, "f", 1, {"n": 5}),
    (random_walk, "f", 1, {"n": 3}),
    (random_walk, "g", 1, {"n": 3}),
    (coin_loops, "main", 1, {"n": 0, "i": 0, "c": 0}),
)
SEEDS = (0, 1105, 2**64 - 1)
CAPS = (1, 3, 100_000)
RUNS = 40


def corpus(workers=1):
    """(key, RunStats as text) for every entry x scheduler x seed x cap."""
    for fixture, fname, label, args in ENTRIES:
        cfg, sf, cert = fixture()
        entry = StackElement(fname, label, Valuation(args))
        for kind in SCHEDULER_KINDS:
            for seed in SEEDS:
                for cap in CAPS:
                    stats = simulate(cfg, sf, entry, Scheduler(kind, cert), runs=RUNS,
                                     max_steps=cap, k_list=sorted({1, cap // 2 or 1, cap}),
                                     seed=seed, workers=workers)
                    yield (f"{fixture.__name__} {fname} {kind} {seed} {cap}",
                           f"{stats!r} sum_steps={stats.sum_steps} sumsq_steps={stats.sumsq_steps}")


@pytest.mark.parametrize("workers", [1, 2])
def test_run_statistics_match_the_golden_corpus(workers, inline_pool):
    inline_pool()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = dict(corpus(workers))
    assert got.keys() == golden.keys()
    for key, text in golden.items():
        assert got[key] == text, key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(dict(corpus()), indent=1) + "\n", encoding="utf-8")
