import math
from fractions import Fraction

import mpmath
import pytest

from termcert.bounds import (
    BoundError,
    cert_value_at,
    concentration_tail,
    lower_expected,
    markov_tail,
    sqrt_tail,
    upper_expected,
)
from termcert.semantics import StackElement
from termcert.valuation import Valuation


def entry_value(halving, n):
    cfg, _, cert = halving
    return cert_value_at(cert, cfg, StackElement("f", 1, Valuation({"n": n})))


def test_upper_expected_values(halving, coins):
    cfg, _, cert = halving
    assert upper_expected(cert, Fraction(1), entry_value(halving, 5)) == 56
    ccfg, _, ccert = coins
    start = cert_value_at(ccert, ccfg, StackElement(
        "main", 1, Valuation({"n": 0, "i": 0, "c": 0})))
    assert upper_expected(ccert, Fraction(1), start) == 19
    # terminal entries are free
    terminal = cert_value_at(cert, cfg, StackElement("f", 7, Valuation({"n": 3})))
    assert upper_expected(cert, Fraction(1), terminal) == 0
    assert upper_expected(cert, Fraction(1), None) is None  # inf stays inf


def test_lower_expected_values(halving):
    cfg, _, cert = halving
    assert lower_expected(cert, Fraction(13), entry_value(halving, 5)) == Fraction(56, 13)
    terminal = cert_value_at(cert, cfg, StackElement("f", 7, Valuation({"n": 0})))
    assert lower_expected(cert, Fraction(13), terminal) == 0
    infinite = cert_value_at(cert, cfg, StackElement("f", 2, Valuation({"n": 0})))
    with pytest.raises(BoundError):
        lower_expected(cert, Fraction(13), infinite)


def test_markov_tail_values(halving, coins):
    v = entry_value(halving, 5)
    assert markov_tail(Fraction(1), v, 112) == Fraction(1, 2)
    assert markov_tail(Fraction(1), v, 1) == Fraction(1)  # clamped
    ccfg, _, ccert = coins
    start = cert_value_at(ccert, ccfg, StackElement(
        "main", 1, Valuation({"n": 0, "i": 0, "c": 0})))
    assert markov_tail(Fraction(1), start, 190) == Fraction(1, 10)


def test_terminal_entry_bounds_degenerate(halving):
    cfg, _, cert = halving
    terminal = cert_value_at(cert, cfg, StackElement("f", 7, Valuation({"n": 1})))
    assert upper_expected(cert, Fraction(1), terminal) == 0
    assert markov_tail(Fraction(1), terminal, 1) == Fraction(0)
    assert markov_tail(Fraction(1), terminal, 10**6) == Fraction(0)


def test_markov_tail_scales_inverse_linearly(halving):
    v = entry_value(halving, 5)
    values = [markov_tail(Fraction(1), v, k) for k in (100, 200, 400, 800)]
    assert all(values[i] == 2 * values[i + 1] for i in range(3))
    assert all(values[i] >= values[i + 1] for i in range(3))


def test_concentration_tail_matches_direct_evaluation(halving):
    v = entry_value(halving, 5)  # 56
    exact, factored = concentration_tail(Fraction(1), Fraction(13), v, 560)
    with mpmath.workdps(40):
        expect = mpmath.e ** (-mpmath.mpf(504) ** 2 / (2 * 560 * 196))
    assert exact == pytest.approx(float(expect), rel=1e-12)
    assert exact == pytest.approx(0.31438, abs=5e-5)
    assert factored >= exact


def test_concentration_tail_boundary_excluded(halving):
    v = entry_value(halving, 5)
    with pytest.raises(BoundError):
        concentration_tail(Fraction(1), Fraction(13), v, 56)
    exact, _ = concentration_tail(Fraction(1), Fraction(13), v, 57)
    assert 0 < exact <= 1


def test_concentration_tail_small_case():
    exact, _ = concentration_tail(Fraction(1), Fraction(1), 0, 1)
    assert exact == pytest.approx(math.exp(-1 / 8), rel=1e-12)


def test_concentration_factored_dominates_everywhere(halving):
    v = entry_value(halving, 5)
    for n in (57, 100, 560, 5000, 10**6):
        exact, factored = concentration_tail(Fraction(1), Fraction(13), v, n)
        assert factored >= exact
        assert exact <= 1.0


def test_concentration_eventually_decreasing(halving):
    v = entry_value(halving, 5)
    values = [concentration_tail(Fraction(1), Fraction(13), v, n)[0]
              for n in (500, 1000, 2000, 4000)]
    assert values == sorted(values, reverse=True)


def test_sqrt_tail_matches_direct_evaluation(walk):
    cfg, _, cert = walk
    v = cert_value_at(cert, cfg, StackElement("f", 1, Valuation({"n": 1})))
    assert v == 2
    res = sqrt_tail(v, Fraction(1), Fraction(1), 2, 10**6)
    assert res.ok
    with mpmath.workdps(40):
        t = 1 / mpmath.sqrt(10**6)
        expect = (1 - mpmath.e ** (-2 * t)) / (1 - (1 + mpmath.mpf(1) / (4 * 10**6)) ** -(10**6 // 2))
    assert res.bound == pytest.approx(float(expect), rel=1e-12)
    assert res.bound == pytest.approx(0.0170038, abs=2e-6)


def test_sqrt_tail_smallness_gate():
    # a large per-outcome cap needs a large k before the cubic tail of
    # exp(zeta*t) is dominated; below that the result names the threshold
    res = sqrt_tail(2, Fraction(1), Fraction(50), 1, 10)
    assert not res.ok
    assert res.min_valid_k is not None and res.min_valid_k > 10
    res2 = sqrt_tail(2, Fraction(1), Fraction(50), 1, res.min_valid_k)
    assert res2.ok
    res3 = sqrt_tail(2, Fraction(1), Fraction(50), 1, res.min_valid_k - 1)
    assert not res3.ok


def test_sqrt_tail_monotone_in_delta(walk):
    cfg, _, cert = walk
    v = cert_value_at(cert, cfg, StackElement("f", 1, Valuation({"n": 1})))
    small = sqrt_tail(v, Fraction(1), Fraction(1), 2, 10**6)
    large = sqrt_tail(v, Fraction(2), Fraction(1), 2, 10**6)
    assert large.bound < small.bound


def test_sqrt_tail_rejects_degenerate_entries():
    with pytest.raises(BoundError):
        sqrt_tail(None, Fraction(1), Fraction(1), 1, 100)
    with pytest.raises(BoundError):
        sqrt_tail(0, Fraction(1), Fraction(1), 1, 100)


def test_sqrt_tail_scaling_stabilizes(walk):
    # bound * sqrt(k) approaches a constant; ratios settle within 20%
    cfg, _, cert = walk
    v = cert_value_at(cert, cfg, StackElement("f", 1, Valuation({"n": 1})))
    scaled = []
    for k in (10**4, 10**6, 10**8):
        res = sqrt_tail(v, Fraction(1), Fraction(1), 2, k)
        scaled.append(res.bound * math.sqrt(k))
    assert abs(scaled[1] - scaled[2]) / scaled[2] < 0.2
    assert abs(scaled[0] - scaled[2]) / scaled[2] < 0.2


def test_concentration_bound_dominates_simulated_tails(halving):
    # cross-validation: simulated survival under every scheduler stays below
    # the exponential bound wherever it applies
    from termcert.semantics import SCHEDULER_KINDS, Scheduler, simulate

    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    v = entry_value(halving, 5)
    ns = (60, 112, 224)
    for kind in SCHEDULER_KINDS:
        sched = Scheduler(kind, cert if kind.startswith("greedy") else None)
        stats = simulate(cfg, sf, entry, sched, runs=3_000, max_steps=1_000,
                         k_list=[n + 1 for n in ns], seed=77)
        for n in ns:
            bound, _ = concentration_tail(Fraction(1), Fraction(13), v, n)
            estimate = stats.tail(n + 1)  # P(T > n) = P(T >= n+1)
            sigma = math.sqrt(max(estimate.p_hat * (1 - estimate.p_hat),
                                  0.25 / stats.runs) / stats.runs)
            assert estimate.p_hat <= bound + 3 * sigma


def test_sqrt_tail_degenerates_below_one_period(walk):
    cfg, _, cert = walk
    v = cert_value_at(cert, cfg, StackElement("f", 1, Valuation({"n": 1})))
    res = sqrt_tail(v, Fraction(1), Fraction(1), K=10, k=5)
    assert res.ok and res.bound == 1.0


def test_bound_rows_rejects_an_unknown_kind(halving):
    from termcert.bounds import bound_rows

    cfg, _, cert = halving
    with pytest.raises(BoundError, match="ranking, cdb, db, super"):
        bound_rows("bogus", cert, cfg, StackElement("f", 1, Valuation({"n": 5})), (1,), ())


def test_cert_value_at_rejects_an_entry_the_program_lacks(halving):
    # an unknown function, or a label its function lacks, is a BoundError,
    # not a KeyError or a value of inf
    cfg, _, cert = halving
    with pytest.raises(BoundError, match="^no function named 'h'$"):
        cert_value_at(cert, cfg, StackElement("h", 1, Valuation({"n": 5})))
    with pytest.raises(BoundError, match="^function 'f' has no label 99$"):
        cert_value_at(cert, cfg, StackElement("f", 99, Valuation({"n": 5})))


def test_bound_rows_rejects_a_stanza_for_a_label_the_program_lacks(halving):
    # f@99 names a label the halving game lacks, zz@1 a function it lacks
    from termcert.bounds import bound_rows
    from termcert.certificates import CertificateError, parse_certificate

    cfg, _, _ = halving
    with pytest.raises(CertificateError, match="^2:1: certificate stanza f@99 names no label"):
        bound_rows("ranking", parse_certificate("eps=1\nf@99: 0\nzz@1: 3\n"), cfg,
                   StackElement("f", 1, Valuation({"n": 5})), (1,), ())
