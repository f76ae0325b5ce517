import math
from functools import lru_cache

import numpy as np
import pytest

from termcert.rng import below, make_generator, philox_doubles, rekey
from termcert.semantics import _BLOCK, _ROW, _Uniforms

MASK = (1 << 64) - 1
SEEDS = [0, 2**64 - 1, -3, 2**70 + 5]
STREAMS = [0, 1, 2**64 - 1]
# around the kernel's 32-bit halves, and up to where stream + i wraps to 0
KERNEL_STREAMS = [0, 2**32 - 1, 2**32, 2**64 - 2, 2**64 - 1]


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
    for skip in (1, 2, 5):  # past the first `skip` blocks of 4 draws
        rekey(gen, seed, 4, skip)
        assert np.array_equal(gen.random(300 - 4 * skip), first[4 * skip:])


@lru_cache(maxsize=None)
def stream_rows(seed, lo):
    """The first 16 draws of the streams lo .. lo + _BLOCK - 1, one row each."""
    return np.array([make_generator(seed, lo + i).random(16) for i in range(_BLOCK)])


@pytest.mark.parametrize("blocks", [1, 2, 3, 4])
def test_block_kernel_matches_numpy(blocks):
    # row i of the kernel holds the first 4 * blocks draws of the stream
    # lo + i, taken mod 2^64 like every stream index, for up to _BLOCK
    # streams, as many as the simulator asks for at once
    for seed in SEEDS:
        for lo in KERNEL_STREAMS:
            for n in (1, 3, 1000, _BLOCK):
                rows = philox_doubles(seed, lo, n, blocks)
                assert rows.shape == (n, 4 * blocks)
                assert np.array_equal(rows, stream_rows(seed, lo)[:n, :4 * blocks]), (seed, lo, n)


def test_block_kernel_rows_outlive_later_calls():
    # the kernel keeps its buffers for later calls of the same shape, in
    # each thread: rows it returned are not among them, and threads that
    # run it at once each get their own
    from concurrent.futures import ThreadPoolExecutor

    first = philox_doubles(5, 0, 100, 2)
    want = first.copy()
    for lo in range(1, 40):
        philox_doubles(5, lo, 100, 2)
    assert np.array_equal(first, want)
    rows = [philox_doubles(5, lo, 100, 2) for lo in range(40)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            got = list(pool.map(lambda lo: philox_doubles(5, lo, 100, 2), range(40)))
            assert all(np.array_equal(a, b) for a, b in zip(got, rows))


def draws(uniforms, run, n, row=()):
    """The first n draws of `run`, taken as the compiled run loop takes them:
    from `row`, the draws the run starts with, last first, then past them."""
    uniforms.run, uniforms.skip = run, len(row) // 4
    dr = uniforms.dr
    dr[:] = row
    return [dr.pop() if dr else uniforms.next() for _ in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_run_draws_continue_past_the_block_row(seed):
    # each run twice on one worker's generator: given no draws, as the first
    # run of a range is, and given its row of _ROW draws from the kernel's
    # block, as every later run is; draws _ROW..599 then come from the
    # re-keyed generator.  Runs on either side of a block boundary, runs
    # that draw nothing, and a run started again all read their own stream
    lo = 2**64 - 2
    rows = [row for start in (lo, lo + _BLOCK)  # two blocks, as `_run_range` computes them
            for row in philox_doubles(seed, start, _BLOCK, _ROW // 4)[:, ::-1].tolist()]
    uniforms = _Uniforms(seed, lo)
    for run, n in [(2**64 - 2, 600), (2**64 - 1, 0), (2**64, 3), (2**64, 600),
                   (2**64 + _BLOCK - 3, _ROW), (2**64 + _BLOCK - 2, 9),
                   (2**64 + _BLOCK + 1, 600), (2**64 - 2, 5)]:
        want = make_generator(seed, run).random(n).tolist()
        assert draws(uniforms, run, n) == want
        assert draws(uniforms, run, n, rows[run - lo]) == want


def _plain(state):
    """A bit generator's state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_coin_bytes_are_the_top_bits_of_word_bytes(seed):
    # numpy's int8 integers(0, 2) reads 4 draws from each 32-bit word, low
    # byte first, and returns each byte's top bit; the walk reads the words
    # itself.  Odd word counts leave half of a 64-bit Philox output in the
    # generator's buffer, and partial last words discard their other bytes.
    coins, words = make_generator(seed, 0), make_generator(seed, 0)
    for size in [1, 2, 3, 5, 9, 13, 4, 6, 21, 8, 4097, 7, 65_539, 12]:
        got = coins.integers(0, 2, size=size, dtype=np.int8)
        word = words.integers(0, 2**32, size=-(-size // 4), dtype=np.uint32)
        assert np.array_equal(got, word.astype("<u4").view(np.uint8)[:size] >> 7)
        assert _plain(coins.bit_generator.state) == _plain(words.bit_generator.state)


# the smallest subnormal, 1 - 2^-53 (the largest double below 1), and the
# nonnegativity law's up-probability exp(-1/n^2) at n = 1000
CUT_PS = [0.0, 5e-324, 0.25, 0.5, 1 - 2**-53, 1.0, math.exp(-1 / 1000**2)]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_integer_cut_points_decide_as_random_does(seed):
    # `below` on raw words against `random(k) < p` on a twin generator; the
    # sizes are odd and cross Philox's 4-word buffer
    doubles, words = make_generator(seed, 0), make_generator(seed, 0)
    for k in [1, 3, 5, 4099]:
        for p in CUT_PS:
            assert np.array_equal(below(words, k, p), doubles.random(k) < p), (k, p)
    assert _plain(doubles.bit_generator.state) == _plain(words.bit_generator.state)


class _Words:
    """A stand-in generator whose raw words are given."""

    def __init__(self, words):
        self.bit_generator, self.words = self, np.array(words, dtype=np.uint64)

    def random_raw(self, k):
        return self.words[:k]


@pytest.mark.parametrize("p", CUT_PS)
def test_integer_cut_points_split_words_at_the_double_boundary(p):
    # the words on either side of each cut, and both ends of the range,
    # decide as numpy's double (w >> 11) * 2^-53 does
    cut = math.ceil(p * 2**53) << 11
    near = (0, cut - 2**11, cut - 1, cut, cut + 1, 2**64 - 1)
    words = sorted({w for w in near if 0 <= w < 2**64})
    doubles = (np.array(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(below(_Words(words), len(words), p), doubles < p)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_odd_uint32_draws_carry_the_high_half_of_a_raw_word(seed):
    # integers(0, 2**32, uint32) returns each raw word's low half, then its
    # high half; a call of odd length leaves the high half to the next call,
    # which the lab walk keeps itself when it reads raw words
    ints, raws = make_generator(seed, 0), make_generator(seed, 0)
    carry = np.empty(0, dtype="<u4")
    for size in [1, 3, 2, 5, 1, 7, 4097, 65_537, 1, 6, 3, 1]:  # an even total
        got = ints.integers(0, 2**32, size=size, dtype=np.uint32)
        fresh = raws.bit_generator.random_raw(-(-(size - carry.size) // 2))
        stream = np.concatenate((carry, fresh.astype("<u8").view("<u4")))
        assert np.array_equal(got, stream[:size]), size
        carry = stream[size:]
    assert carry.size == 0
    a, b = _plain(ints.bit_generator.state), _plain(raws.bit_generator.state)
    del a["uinteger"], b["uinteger"]  # numpy keeps the last high half it handed out
    assert a == b
