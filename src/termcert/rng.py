"""Reproducible, splittable random streams.

Every consumer of randomness owns an (seed, stream) pair mapped onto a
counter-based Philox generator.  Identical pairs give identical draw
sequences on every platform, and distinct stream indices give streams that
are independent for practical purposes, so per-run streams can be handed to
parallel workers without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_KEY_MASK = (1 << 64) - 1


@dataclass
class RngStream:
    """A (seed, stream-index) addressed random stream."""

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.stream < 0:
            raise ValueError("stream index must be nonnegative")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = make_generator(self.seed, self.stream)
        return self._gen

    def random(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self.generator.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self.generator.random(n)


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    key = ((int(seed) & _KEY_MASK) << 64) | (int(stream) & _KEY_MASK)
    return np.random.Generator(np.random.Philox(key=key))
