"""Process-lab statistics pinned bit for bit.

`golden/labstats.json` holds `repr(LabResult)` for every entry of the
corpus below, written by the lab kernels this file was first committed
against.  Any later change to `termcert.lab`'s kernels or draws must
reproduce it.  The shapes cover empty, single-run and small cohorts, and
horizons that cross the random walk's step blocks: 976 steps for 4097
alive runs and 4096 steps once few runs are left.  The benchmark's two lab
calls are pinned too: 50,000 walks start on 80-step blocks drawn in
816-row chunks, and 500,000 `noconcentration` runs thin out over 1000
steps.  To rewrite it (only when a change of the statistics is intended):
`PYTHONPATH=src python tests/test_golden_labstats.py`.
"""

import json
from pathlib import Path

from termcert.lab import TAGS, simulate_lab

GOLDEN = Path(__file__).parent / "golden" / "labstats.json"

SEEDS = (0, 12, 2**64 - 1)
SHAPES = ((0, 300), (1, 300), (7, 1000), (4097, 1500))  # (runs, horizon)
# longer walks reach later blocks; 4099 runs start on 975-step blocks, so
# their draws are split between chunks of rows mid-way through 32-bit words
# unless the row counts are multiples of 4
WALK_SHAPES = ((1, 5000), (300, 10_000), (4099, 1200))
# the lab calls of the benchmark's `simulate-halving` round
BENCH_SHAPES = (("randomwalk", 50_000, 1000), ("noconcentration", 500_000, 1000))
BENCH_SEEDS = (0, 12)
ALPHA = 2.0


def _entry(tag, seed, runs, horizon):
    alpha = ALPHA if tag == "noconcentration" else None
    tail_ns = sorted({0, 1, horizon // 3, horizon - 1, horizon})
    result = simulate_lab(tag, runs=runs, horizon=horizon, seed=seed,
                          alpha=alpha, tail_ns=tail_ns)
    return f"{tag} {seed} {runs} {horizon}", repr(result)


def corpus():
    """(key, LabResult as text) for every tag x seed x shape."""
    for tag in TAGS:
        shapes = SHAPES + WALK_SHAPES if tag == "randomwalk" else SHAPES
        for seed in SEEDS:
            for runs, horizon in shapes:
                yield _entry(tag, seed, runs, horizon)
    for tag, runs, horizon in BENCH_SHAPES:
        for seed in BENCH_SEEDS:
            yield _entry(tag, seed, runs, horizon)


def test_lab_statistics_match_the_golden_corpus():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = dict(corpus())
    assert got.keys() == golden.keys()
    for key, text in golden.items():
        assert got[key] == text, key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(dict(corpus()), indent=1) + "\n", encoding="utf-8")
