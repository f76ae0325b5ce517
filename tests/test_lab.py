import math
import time
import tracemalloc
from collections import Counter
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from termcert import lab
from termcert.lab import TAGS, LabError, analytic, fit_tail_slope, simulate_lab, step_law
from termcert.rng import make_generator


def test_step_laws_match_their_definitions():
    (up, p_up), (down, p_down) = step_law("cbounded", 5)
    assert (up, down) == (16.0, -18.0)
    assert p_up == p_down == 0.5

    (up, p_up), (down, _) = step_law("noconcentration", 3, alpha=2)
    assert (up, down) == (2.0, -7.0)
    assert p_up == pytest.approx((3 / 4) ** 2)

    (up, p_up), (down, _) = step_law("nonnegativity", 2)
    assert (up, down) == (1.0, -16.0)
    assert p_up == pytest.approx(math.exp(-0.25))

    assert step_law("randomwalk", 9) == ((1.0, 0.5), (-1.0, 0.5))

    (up, _), (down, _) = step_law("positivity", 4)
    assert up == 2.0 ** -3 and down == -(2.0 ** -3)


def test_empirical_step_law_frequencies():
    # the time-inhomogeneous law at a fixed step index has the stated odds
    gen = make_generator(31, 0)
    (_, p_up), _ = step_law("noconcentration", 7, alpha=2)
    n = 200_000
    ups = int((gen.random(n) < p_up).sum())
    sigma = math.sqrt(p_up * (1 - p_up) / n)
    assert abs(ups / n - p_up) <= 3 * sigma


def test_analytic_values():
    assert analytic("nonnegativity", "prob_nonterm") == pytest.approx(0.1930253, abs=1e-6)
    assert analytic("cbounded", "expected_T") == 2.0
    assert analytic("noconcentration", "tail", n=9, alpha=2) == pytest.approx(0.01)
    assert analytic("positivity", "prob_nonterm") == 0.5
    assert analytic("randomwalk", "tail", n=3) == pytest.approx(3 / 8)
    with mpmath.workdps(30):
        partial = float(mpmath.e ** (-mpmath.fsum(
            mpmath.mpf(1) / (j * j) for j in range(1, 11))))
    assert analytic("nonnegativity", "tail", n=10) == pytest.approx(partial, rel=1e-12)


@pytest.mark.parametrize("n", [9_999, 10_000, 10_001, 10_002, 12_345, 2**15, 2**15 + 1, 50_001])
def test_randomwalk_tail_past_the_series_cutoff_is_the_rounded_quotient(n):
    # from n = 10^4 on the tail comes from Stirling's series
    assert analytic("randomwalk", "tail", n=n) == math.comb(n, n // 2) / 2**n


def test_randomwalk_tail_falls_back_to_the_exact_quotient(monkeypatch):
    # an error interval as wide as the value never rounds to one float
    monkeypatch.setattr(lab, "_ZIV", Decimal(1))
    assert analytic("randomwalk", "tail", n=10_001) == math.comb(10_001, 5_000) / 2**10_001


def test_randomwalk_tail_at_a_million_steps_is_fast():
    # the exact quotient alone takes seconds here: quadratic in n
    start = time.perf_counter()
    value = analytic("randomwalk", "tail", n=10**6)
    assert time.perf_counter() - start < 0.2
    assert value == pytest.approx(1 / math.sqrt(math.pi * 5 * 10**5), rel=1e-6)


def test_analytic_unsupported_pairs_raise():
    with pytest.raises(LabError):
        analytic("randomwalk", "expected_T")
    with pytest.raises(LabError):
        analytic("nonnegativity", "expected_T")
    with pytest.raises(LabError):
        analytic("noconcentration", "tail", n=5)  # alpha missing
    with pytest.raises(LabError):
        analytic("cbounded", "nope")


def test_cbounded_mean_and_tail():
    result = simulate_lab("cbounded", runs=40_000, horizon=200, seed=11, tail_ns=[1, 4])
    assert result.censored == 0
    assert result.mean == pytest.approx(2.0, abs=0.05)
    assert result.survival(4).p_hat == pytest.approx(2.0 ** -4, abs=0.006)


def test_noconcentration_matches_polynomial_tail():
    result = simulate_lab("noconcentration", runs=200_000, horizon=100, seed=5,
                          alpha=2, tail_ns=[9, 31])
    for n in (9, 31):
        truth = analytic("noconcentration", "tail", n=n, alpha=2)
        est = result.survival(n)
        sigma = math.sqrt(truth * (1 - truth) / result.runs)
        assert abs(est.p_hat - truth) <= 4 * sigma


def test_nonnegativity_tail_matches_partial_products():
    result = simulate_lab("nonnegativity", runs=50_000, horizon=100, seed=6,
                          tail_ns=[10, 100])
    for n in (10, 100):
        truth = analytic("nonnegativity", "tail", n=n)
        est = result.survival(n)
        sigma = math.sqrt(truth * (1 - truth) / result.runs)
        assert abs(est.p_hat - truth) <= 3 * sigma


def test_positivity_survival_is_one_half():
    result = simulate_lab("positivity", runs=50_000, horizon=64, seed=7, tail_ns=[64])
    truth = 0.5
    sigma = math.sqrt(0.25 / result.runs)
    assert abs(result.survival(64).p_hat - truth) <= 3 * sigma
    # nontermination proxy equals the survival here
    assert result.censored == result.survival(64).count


def test_randomwalk_tail_scales_like_inverse_sqrt():
    result = simulate_lab("randomwalk", runs=50_000, horizon=10**5, seed=8,
                          tail_ns=[99, 999, 9999])
    scaled = []
    for n in (99, 999, 9999):
        k = n + 1  # P(T >= k) = P(T > k - 1)
        scaled.append(result.survival(n).p_hat * math.sqrt(k))
        truth = analytic("randomwalk", "tail", n=n)
        sigma = math.sqrt(truth * (1 - truth) / result.runs)
        assert abs(result.survival(n).p_hat - truth) <= 3.5 * sigma
    assert max(scaled) / min(scaled) < 1.25


def test_lab_determinism():
    a = simulate_lab("cbounded", runs=5_000, horizon=100, seed=3, tail_ns=[2])
    b = simulate_lab("cbounded", runs=5_000, horizon=100, seed=3, tail_ns=[2])
    assert a == b
    c = simulate_lab("cbounded", runs=5_000, horizon=100, seed=4, tail_ns=[2])
    assert a != c


def test_lab_rejects_bad_inputs():
    with pytest.raises(LabError):
        simulate_lab("nope", runs=10, horizon=10)
    with pytest.raises(LabError):
        simulate_lab("noconcentration", runs=10, horizon=10)  # alpha missing
    with pytest.raises(LabError):
        simulate_lab("cbounded", runs=10, horizon=5, tail_ns=[6])
    with pytest.raises(LabError, match="runs must be nonnegative, got -5"):
        simulate_lab("noconcentration", alpha=2.0, runs=-5, horizon=10)


def test_result_rows_carry_methods():
    result = simulate_lab("cbounded", runs=2_000, horizon=50, seed=1, tail_ns=[1])
    rows = result.rows()
    queries = [r[0] for r in rows]
    assert any(q == "expected_T" for q in queries)
    assert any(q.startswith("prob_nonterm") for q in queries)
    assert all(r[2] for r in rows)  # every row names its method


def test_fit_tail_slope_recovers_exponent():
    # exact survival counts from the polynomial law give slope -2
    grid = [10, 21, 46, 100, 215, 464, 1000]
    runs = 10**6
    counts = [round(runs / (n + 1) ** 2) for n in grid]
    slope = fit_tail_slope(grid, counts, runs)
    assert slope == pytest.approx(-2.0, abs=0.01)
    with pytest.raises(LabError):
        fit_tail_slope([10], [100], 1000)


def _reference_stopping_times(tag, runs, horizon, seed, alpha):
    gen = make_generator(seed, 0)
    if tag == "randomwalk":
        return oracles.walk_stopping_times(gen, runs, horizon)
    return oracles.two_point_stopping_times(gen, tag, alpha, runs, horizon)


def _assert_matches_reference(tag, runs, horizon, seed, alpha=None):
    """The whole survival histogram, the counts and the mean agree with the
    per-run scalar reference."""
    result = simulate_lab(tag, runs=runs, horizon=horizon, seed=seed, alpha=alpha,
                          tail_ns=range(horizon + 1))
    T = _reference_stopping_times(tag, runs, horizon, seed, alpha)
    stopped = [t for t in T if t]
    assert (result.terminated, result.censored) == (len(stopped), runs - len(stopped))
    stops_at, surviving = Counter(stopped), [runs]  # P(T > 0) counts every run
    for n in range(1, horizon + 1):
        surviving.append(surviving[-1] - stops_at[n])
    assert [s.count for s in result.survivals] == surviving
    assert result.mean == (sum(stopped) / len(stopped) if stopped else None)


@settings(max_examples=40)
@given(tag=st.sampled_from(TAGS), runs=st.integers(0, 3000), horizon=st.integers(1, 3000),
       seed=st.integers(0, 2**64 - 1), alpha=st.sampled_from([1.5, 2.0, 3.0, math.inf]))
def test_lab_kernels_match_the_scalar_reference(tag, runs, horizon, seed, alpha):
    # past 976 runs the walk's first block is shorter than 4096 steps (1333
    # at 3000 runs), so horizons cross blocks; a horizon also cuts a block to
    # lengths that are not multiples of 4, where only chunks of 4k rows keep
    # the 32-bit words of the draws whole.  An infinite alpha never steps up.
    alpha = alpha if tag == "noconcentration" else None
    _assert_matches_reference(tag, runs, horizon, seed, alpha)


def test_the_benchmark_walk_matches_the_scalar_reference():
    # 50,000 walks start on 80-step blocks, drawn in chunks of 816 rows
    _assert_matches_reference("randomwalk", 50_000, 1000, 12)


@pytest.mark.parametrize("seed", [0, 2, 2**64 - 1])
def test_long_walks_match_the_scalar_reference(seed):
    # a few of 200 walks outlive several 4096-step blocks and pass 32767
    # steps, where x may outgrow the prefix sums' int16
    _assert_matches_reference("randomwalk", 200, 40_000, seed)


class _StepStream:
    """A stand-in generator whose walk steps are `ups` ones, then zeros, in
    draw order whatever the call shapes: int8 draws of 1 for the scalar
    reference, or bytes of 0x80 in the raw 64-bit words that the lab kernel
    reads from its `bit_generator`."""

    def __init__(self, ups):
        self.left = ups
        self.bit_generator = self

    def _draw(self, size, dtype, up):
        steps = np.zeros(size, dtype=dtype)
        flat = steps.reshape(-1).view(np.uint8)
        flat[:self.left] = up
        self.left -= min(self.left, flat.size)
        return steps

    def integers(self, low, high, size, dtype):
        return self._draw(size, dtype, 1)

    def random_raw(self, size):
        return self._draw(size, "<u8", 0x80)


def test_walk_keeps_values_past_int16():
    ups = 36_000  # climbs to 36001, then needs 36001 steps down to 0
    for kernel in (lab._simulate_walk, oracles.walk_stopping_times):
        assert list(kernel(_StepStream(ups), 1, 80_000)) == [2 * ups + 1]
        assert list(kernel(_StepStream(ups), 1, 2 * ups)) == [0]


def test_walk_memory_does_not_grow_with_the_cohort():
    tracemalloc.start()
    try:
        simulate_lab("randomwalk", runs=50_000, horizon=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_an_empty_cohort_steps_no_laws():
    # cbounded's up-step 2^(n-1) leaves the doubles after n = 1024
    result = simulate_lab("cbounded", runs=0, horizon=2000, tail_ns=[2000])
    assert (result.terminated, result.censored, result.survival(2000).count) == (0, 0, 0)


@settings(max_examples=60)
@given(runs=st.integers(0, 400), horizon=st.integers(1, 300), censored=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_survival_counts_match_a_count_per_level(runs, horizon, censored, seed):
    # T as the kernels return it: stopping times in 1..horizon, 0 for a
    # censored run; levels 0 and horizon included, and levels past the
    # largest T, where only censored runs count
    rng = np.random.default_rng(seed)
    T = rng.integers(1, rng.integers(1, horizon, endpoint=True), size=runs, endpoint=True)
    T[rng.random(runs) < censored] = 0
    levels = sorted({0, horizon, *rng.integers(0, horizon, size=5, endpoint=True).tolist()})
    assert lab._survival_counts(T, levels) == [int(((T > n) | (T == 0)).sum()) for n in levels]


@pytest.mark.parametrize("seed", [0, 12])
@pytest.mark.parametrize("runs, horizon", [(4099, 1200), (300, 10_000), (50_000, 1000)])
def test_chunk_size_does_not_change_the_walk(monkeypatch, runs, horizon, seed):
    # 4,099 walks start on 975-step blocks, whose chunks of 4 and of 268
    # rows (2^12 and 2^18 draws) end inside a raw 64-bit word; 300 walks take
    # 4096-step blocks, longer than a chunk of 2^12 draws, which holds 4 rows
    walks = []
    for size in (1 << 12, 1 << 16, lab._CHUNK_DRAWS):
        monkeypatch.setattr(lab, "_CHUNK_DRAWS", size)
        walks.append(lab._simulate_walk(make_generator(seed, 0), runs, horizon))
    assert all(np.array_equal(walks[0], T) for T in walks[1:])


def test_unit_tables_match_a_direct_scan_of_every_unit():
    # bit i of unit u sends step i + 1 down; the low byte's steps come first
    units = np.arange(1 << 16, dtype=np.uint16)
    down = np.unpackbits(units.astype("<u2").view(np.uint8).reshape(-1, 2), axis=1,
                         bitorder="little")
    prefix = np.cumsum(1 - 2 * down.astype(np.int16), axis=1)
    net, low = lab._unit_tables()
    assert np.array_equal(net, prefix[:, -1])
    assert np.array_equal(low + net, prefix.min(axis=1))
    for k in range(1, 17):
        reach = prefix.min(axis=1) <= -k
        first = (prefix[reach] <= -k).argmax(axis=1) + 1
        before = np.full(int(reach.sum()), k, dtype=np.int16)
        assert np.array_equal(lab._first_down(units[reach], before), first), k


def test_walks_outliving_a_block_of_1333_steps_match_the_scalar_reference():
    # 3,000 walks start on a 1333-step block, 83 units and 5 steps: its 11
    # pad steps, not 3 as whole bytes would give, come off the survivors
    _assert_matches_reference("randomwalk", 3000, 1400, 1)
