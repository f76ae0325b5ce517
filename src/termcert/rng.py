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
  once, as numpy does, in one vectorised pass over the streams that runs
  in place on buffers kept from call to call.

The simulator uses the last for the first draws of a block of runs (most
runs need only a few), and re-keys one generator per process, just past
them, for a run that draws more.  The process lab reads raw 64-bit words
(see `below`).  `TailEstimate`, `wilson_interval` and `Z95` are the
estimates both report.
"""

from __future__ import annotations

import math
from functools import lru_cache
from threading import get_ident
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
    each output word x read as the double (x >> 11)·2^-53.

    Rows 0..3 of `words` end up holding the words c0..c3 of every block,
    block-major.  A round multiplies x = (c0, c2) and XORs y = (c1, c3) in
    place: y becomes the next x and x, reversed, the next y, so x and y
    start in rows (2, 0) and (3, 1).  The high word of m·x is built from
    32-bit halves as mh·xh + (t >> 32) + ((ml·xh + (t & 2^32-1)) >> 32),
    where t = mh·xl + (ml·xl >> 32), no sum passing 64 bits."""
    import numpy as np

    stream_key, seed_key = _key(seed, lo)
    words, (keys, a, b, t, high), (mul, ml, mh, bump) = _buffers(n, blocks, get_ident())
    words.fill(0)
    words[2] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]  # c0, the counter
    # the keys (lo + i, seed), lo + i wrapping mod 2^64 as `_key` masks it
    keys.reshape(2, blocks, n)[0] = np.arange(n, dtype=np.uint64) + np.uint64(stream_key)
    keys[1] = seed_key
    x, y = (words.reshape(4, -1)[row::-2] for row in (2, 3))
    for _ in range(10):
        np.bitwise_and(x, _LOW, out=a)
        np.right_shift(x, 32, out=b)
        np.multiply(a, ml, out=high)
        high >>= 32
        a *= mh
        a += high  # t
        np.multiply(b, mh, out=high)
        np.right_shift(a, 32, out=t)
        high += t
        a &= _LOW
        b *= ml
        b += a
        b >>= 32
        high += b
        y ^= high[::-1]  # c1 ^ high(m·c2), c3 ^ high(m·c0)
        y ^= keys
        x *= mul
        x, y = y, x[::-1]
        keys += bump
    words >>= 11
    out = np.empty((n, blocks, 4))
    np.multiply(words, 2.0 ** -53, out=out.transpose(2, 1, 0))
    return out.reshape(n, 4 * blocks)


@lru_cache(maxsize=4)
def _buffers(n: int, blocks: int, thread: int) -> tuple:
    """`philox_doubles`' words, five scratch pairs of rows and constant pairs
    (in full: numpy broadcasts a column slowly), kept for the thread's later
    calls, as new ones cost a page fault per 4 KiB, a quarter of its time."""
    import numpy as np

    consts = np.array([_MUL, [m & _LOW for m in _MUL], [m >> 32 for m in _MUL], _BUMP],
                      dtype=np.uint64)[:, :, None].repeat(blocks * n, axis=2)
    return np.empty((4, blocks, n), np.uint64), np.empty((5, 2, blocks * n), np.uint64), consts
