"""Reproducible, splittable random streams.

Every consumer of randomness owns an (seed, stream) pair mapped onto a
counter-based Philox4x64-10 generator.  Identical pairs give identical draw
sequences on every platform, and distinct stream indices give streams that
are independent for practical purposes, so per-run streams can be handed to
parallel workers without coordination.

A stream is read in one of three ways, all with the key from `_key`, so all
three give the same draws for the same pair:

- `make_generator` opens a new numpy generator on it;
- `rekey` restarts an existing Philox generator on it, in place, at any
  block of 4 draws;
- `philox_doubles` computes the first draws of many consecutive streams at
  once, as numpy does, in one vectorised pass over the streams.

The simulator uses the last for the first draws of a block of runs (most
runs need only a few), and re-keys one generator per worker, just past
them, for a run that draws more.  The process lab reads raw 64-bit words
(see `below`).  `TailEstimate`, `wilson_interval` and `Z95` are the
estimates both report.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from ._record import record

if TYPE_CHECKING:
    import numpy as np

_KEY_MASK = (1 << 64) - 1
_LOW = (1 << 32) - 1
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64 multipliers
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # Philox4x64 key schedule

Z95 = 1.959963984540054


@record(frozen=True)
class TailEstimate:
    k: int
    count: int
    p_hat: float
    lo: float
    hi: float


def wilson_interval(count: int, n: int) -> Tuple[float, float]:
    """The 95% Wilson score interval (z = Z95) of `count` successes in `n`
    trials; all of [0, 1] when there are no trials."""
    if n == 0:
        return (0.0, 1.0)
    p = count / n
    denom = 1 + Z95 * Z95 / n
    center = (p + Z95 * Z95 / (2 * n)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / n + Z95 * Z95 / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _key(seed: int, stream: int) -> list:
    """The 128-bit Philox key of (seed, stream) as its two 64-bit words, low
    word first: the stream, then the seed, each masked to 64 bits."""
    return [int(stream) & _KEY_MASK, int(seed) & _KEY_MASK]


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    import numpy as np  # here, not at module level: commands that draw nothing never load it
    key = np.array(_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(gen: np.random.Generator, seed: int, stream: int, skip: int = 0) -> None:
    """Restart the Philox generator `gen` on the stream (seed, stream), past
    its first `skip` blocks of 4 draws: its next draws are those of a new
    `make_generator(seed, stream)` after `4 * skip` draws."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [skip, 0, 0, 0], "key": _key(seed, stream)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # the buffer is empty
        "has_uint32": 0,
        "uinteger": 0,
    }


def below(gen: np.random.Generator, k: int, p: float) -> np.ndarray:
    """`gen.random(k) < p`, decided on k raw words: numpy reads a word w as
    the double (w >> 11)·2^-53, which is below p exactly when w is below
    ceil(p·2^53)·2^11.  That cut overflows 64 bits only for p >= 1."""
    import numpy as np
    words = gen.bit_generator.random_raw(k)
    return words < np.uint64(max(0, math.ceil(p * 2**53)) << 11) if p < 1 else words >= 0


def philox_doubles(seed: int, lo: int, n: int, blocks: int) -> np.ndarray:
    """Row i holds the first 4·blocks draws of `make_generator(seed, lo + i)
    .random()`, for i < n: Philox4x64-10 on counters 1..blocks (numpy
    increments the counter before each block) under the keys (lo + i, seed),
    each output word x read as the double (x >> 11)·2^-53."""
    import numpy as np

    u64 = np.uint64
    stream_key, seed_key = _key(seed, lo)
    k0 = np.arange(n, dtype=u64) + u64(stream_key)  # wraps mod 2^64, as the mask does
    k1 = np.full(1, seed_key, dtype=u64)  # an array: numpy warns when a scalar wraps
    bump0, bump1 = u64(_BUMP[0]), u64(_BUMP[1])
    mul0, mul1 = ((u64(m), u64(m & _LOW), u64(m >> 32)) for m in _MUL)  # numpy scalars, once
    zero = np.zeros((blocks, n), dtype=u64)
    c0, c1, c2, c3 = np.arange(1, blocks + 1, dtype=u64)[:, None] + zero, zero, zero, zero
    for r in range(10):
        if r:
            k0, k1 = k0 + bump0, k1 + bump1
        hi0, lo0 = _mulhilo(*mul0, c0)
        hi1, lo1 = _mulhilo(*mul1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).transpose(1, 0, 2).reshape(n, 4 * blocks)
    return (words >> u64(11)).astype(np.float64) * 2.0 ** -53


def _mulhilo(m, m0, m1, x: np.ndarray) -> tuple:
    """(high, low) 64-bit words of the 128-bit product m·x, where m0 and m1
    are the 32-bit halves of m; the high word is built from the halves'
    products, since numpy has no 128-bit integers."""
    x0, x1 = x & _LOW, x >> 32
    p01, p10 = m0 * x1, m1 * x0
    mid = (m0 * x0 >> 32) + (p01 & _LOW) + (p10 & _LOW)
    return m1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), m * x
