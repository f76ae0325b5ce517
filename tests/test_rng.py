import numpy as np
import pytest

from termcert.rng import make_generator, rekey

MASK = (1 << 64) - 1
SEEDS = [0, 2**64 - 1, -3, 2**70 + 5]
STREAMS = [0, 1, 2**64 - 1]


def chunked(gen, sizes):
    return np.concatenate([gen.random(n) for n in sizes])


def test_rekeyed_generator_matches_a_new_one():
    # one generator re-keyed over every (seed, stream) pair, after draws that
    # leave its counter, buffer and 32-bit carry in the middle of a stream,
    # gives the draws of a new generator and of the integer key layout
    # (seed << 64 | stream); the chunks of 64 and 256 cross refills
    sizes = [64, 256, 256, 24]
    gen = make_generator(12345, 7)
    for seed in SEEDS:
        for stream in STREAMS:
            gen.random(5)
            gen.integers(0, 2**32, size=3, dtype=np.uint32)
            rekey(gen, seed, stream)
            got = chunked(gen, sizes)
            assert len(got) == 600
            assert np.array_equal(got, make_generator(seed, stream).random(600))
            key = ((seed & MASK) << 64) | (stream & MASK)
            reference = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(got, reference.random(600))


def test_rekey_separates_seeds_and_streams():
    gen = make_generator(0)
    firsts = set()
    for seed in SEEDS:
        for stream in STREAMS:
            rekey(gen, seed, stream)
            firsts.add(gen.random())
    # seeds and streams are taken mod 2^64; no two pairs here share a key
    assert len(firsts) == len(SEEDS) * len(STREAMS)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_rekey_restarts_a_stream(seed):
    gen = make_generator(seed, 4)
    first = gen.random(300)
    rekey(gen, seed, 4)
    assert np.array_equal(gen.random(300), first)
