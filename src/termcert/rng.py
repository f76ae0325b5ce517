"""Reproducible, splittable random streams.

Every consumer of randomness owns an (seed, stream) pair mapped onto a
counter-based Philox generator.  Identical pairs give identical draw
sequences on every platform, and distinct stream indices give streams that
are independent for practical purposes, so per-run streams can be handed to
parallel workers without coordination.

A stream is opened either as a new generator (`make_generator`) or by
re-keying an existing Philox generator in place (`rekey`).  The simulator's
run loop does the latter: each worker builds one generator, and run `i`
keys it to (seed, i) at its first draw.  Both ways give the same draws for
the same pair, since both take the key from `_key`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_KEY_MASK = (1 << 64) - 1


def _key(seed: int, stream: int) -> list:
    """The 128-bit Philox key of (seed, stream) as its two 64-bit words, low
    word first: the stream, then the seed, each masked to 64 bits."""
    return [int(stream) & _KEY_MASK, int(seed) & _KEY_MASK]


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    import numpy as np  # here, not at module level: commands that draw nothing never load it
    key = np.array(_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(gen: np.random.Generator, seed: int, stream: int) -> None:
    """Restart the Philox generator `gen` on the stream (seed, stream): its
    next draws are those of a new `make_generator(seed, stream)`."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": _key(seed, stream)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # the buffer is empty
        "has_uint32": 0,
        "uinteger": 0,
    }
