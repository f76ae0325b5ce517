"""Acceptance gate: the shipped claims, each checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Statistical criteria use frozen seeds; tolerances are the
3-sigma (or stated) windows fixed below, never adjusted at runtime.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from pathlib import Path

from oracles import (
    brute_force_min_delta,
    walk_first_passage_survival_dp,
    walk_first_passage_survival_exact,
    walk_loop_tail_exact,
)

from termcert.bounds import cert_value_at, markov_tail, sqrt_tail, upper_expected, lower_expected
from termcert.cfg import dump_cfg, theta_fixpoint
from termcert.checker import VerifyBox, check_cdb, check_ranking, check_super
from termcert.lab import analytic, fit_tail_slope, simulate_lab
from termcert.semantics import SCHEDULER_KINDS, Scheduler, StackElement, simulate
from termcert.valuation import Valuation

GOLDEN_CFG = Path(__file__).parent / "golden" / "halving_game_cfg.txt"


class Gate:
    """Times a criterion and prints its one-line verdict before asserting."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.checks = []
        self.start = time.perf_counter()

    def check(self, ok: bool, detail: str) -> None:
        self.checks.append((bool(ok), detail))

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.start
        ok = all(c for c, _ in self.checks) and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        print(f"\n[criterion {self.number}] {status} {self.title} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s)")
        for good, detail in self.checks:
            print(f"    {'ok  ' if good else 'FAIL'} {detail}")
        if elapsed >= self.budget:
            print(f"    FAIL runtime {elapsed:.1f}s exceeds budget")
        assert ok


def test_criterion_1_cfg_dump_matches_golden(halving):
    gate = Gate(1, "control-flow graph matches the golden edge list", budget_s=1.0)
    cfg, _, _ = halving
    dump = dump_cfg(cfg)
    gate.check(dump == GOLDEN_CFG.read_text(), "dump equals frozen golden file")
    f = cfg.function("f")
    g = cfg.function("g")
    edges_f, edges_g = len(list(f.edges())), len(list(g.edges()))
    gate.check(edges_f == 8 and edges_g == 5, f"edge counts f={edges_f} g={edges_g} (8/5)")
    gate.finish()


def test_criterion_2_halving_game_certification(halving):
    gate = Gate(2, "expected-decrease and drop-cap certification is sharp", budget_s=5.0)
    cfg, sf, cert = halving
    box = VerifyBox.parse("n=-100..100")

    ranking = check_ranking(cert, cfg, sf, box)
    gate.check(ranking.passed, "expected-decrease conditions pass at eps=1")

    cdb = check_cdb(cert, cfg, sf, box)
    gate.check(cdb.passed, "drop/jump caps pass at delta=13, zeta=13")

    min_delta = brute_force_min_delta(cert, cfg, sf, box)
    gate.check(min_delta == Fraction(13),
               f"independent brute force gives minimal delta {min_delta} (=13)")

    below = check_cdb(cert, cfg, sf, box, delta=min_delta - Fraction(1, 100))
    ce = below.first_failure
    gate.check(not below.passed and ce is not None,
               "delta just below the minimum fails with a counterexample: "
               + (ce.render() if ce else "none"))
    gate.finish()


def test_criterion_3_coin_loops_certification(coins):
    gate = Gate(3, "demonic coin game admits an expected-decrease witness", budget_s=10.0)
    cfg, sf, cert = coins
    box = VerifyBox.parse("i=0..30, n=0..30, c=0..1")
    report = check_ranking(cert, cfg, sf, box)
    gate.check(report.passed,
               f"expected-decrease conditions pass at eps=1 "
               f"({report.points_checked} points checked)")
    gate.finish()


def test_criteria_4_and_5_bound_bracketing(halving):
    gate = Gate(4, "simulated means bracketed by value/13 and value/1; "
                   "inverse-linear tail holds (criterion 5 included)", budget_s=30.0)
    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    value = cert_value_at(cert, cfg, entry)
    upper = float(upper_expected(cert, Fraction(1), value))       # 56
    lower = float(lower_expected(cert, Fraction(13), value))      # 56/13
    markov = float(markov_tail(Fraction(1), value, 112))          # 1/2
    gate.check(upper == 56.0 and abs(lower - 56 / 13) < 1e-12 and markov == 0.5,
               f"bounds from the certificate: lower {lower:.3f}, upper {upper:.0f}, "
               f"tail(112) <= {markov}")

    greedy_max_mean = None
    for kind in SCHEDULER_KINDS:
        sched = Scheduler(kind, cert if kind.startswith("greedy") else None)
        stats = simulate(cfg, sf, entry, sched, runs=20_000, max_steps=10**5,
                         k_list=[112], seed=1105, workers=4)
        ci = stats.mean_halfwidth
        inside = (lower - ci) <= stats.mean <= (upper + ci)
        gate.check(inside and stats.censored == 0,
                   f"{kind}: mean {stats.mean:.3f} +-{ci:.3f} inside "
                   f"[{lower:.3f}, {upper:.0f}]")
        tail = stats.tail(112)
        sigma = math.sqrt(max(tail.p_hat * (1 - tail.p_hat), 0.25 / stats.runs)
                          / stats.runs)
        gate.check(tail.p_hat <= markov + 3 * sigma,
                   f"{kind}: tail estimate {tail.p_hat:.4f} within the "
                   f"inverse-linear bound {markov}")
        if kind == "greedy-max":
            greedy_max_mean = (stats.mean, ci)

    mean, ci = greedy_max_mean
    gate.check(mean >= lower - ci,
               f"greedy-max witness: mean {mean:.3f} >= lower bound {lower:.3f} - CI")
    gate.finish()


def test_criterion_6_super_measure_pipeline(walk):
    gate = Gate(6, "never-increasing certificate pipeline on the random walk",
                budget_s=60.0)
    cfg, sf, cert = walk
    box = VerifyBox.parse("n=-50..50")
    report = check_super(cert, cfg, sf, box)
    gate.check(report.passed, "super conditions pass at delta=1, zeta=1")

    theta = theta_fixpoint(cfg)
    gate.check(theta.all_covered and theta.K_max_by_function == {"f": 2, "g": 1},
               f"fixpoint covers all labels with per-function bounds "
               f"{theta.K_max_by_function} (f:2, g:1)")

    # exact law oracle: DP over (step, position) cross-checked against the
    # closed-form central-binomial survival
    horizon_walk_steps = 5_000
    dp = walk_first_passage_survival_dp(horizon_walk_steps)
    for m in (49, 4999):
        exact = float(walk_first_passage_survival_exact(m))
        gate.check(abs(dp[m] - exact) < 1e-12,
                   f"DP oracle matches closed form at {m} walk steps "
                   f"({dp[m]:.6f} vs {exact:.6f})")

    entry = StackElement("g", 1, Valuation({"n": 1}))
    stats = simulate(cfg, sf, entry, Scheduler("always-then"), runs=100_000,
                     max_steps=10**4, k_list=[100, 10**4], seed=1001, workers=4)
    value = cert_value_at(cert, cfg, entry)  # 2
    for k in (100, 10**4):
        t = stats.tail(k)
        exact = float(walk_loop_tail_exact(k))
        sigma = math.sqrt(exact * (1 - exact) / stats.runs)
        gate.check(abs(t.p_hat - exact) <= 4 * sigma,
                   f"k={k}: estimate {t.p_hat:.5f} matches exact oracle {exact:.5f}")
        # the bound uses the walk function's own period: the entry never
        # leaves g, whose fixpoint distance bound is 1
        res = sqrt_tail(value, Fraction(1), Fraction(1),
                        theta.K_max_by_function["g"], k)
        gate.check(res.ok and t.p_hat <= res.bound + 3 * sigma,
                   f"k={k}: estimate {t.p_hat:.5f} below computed tail bound "
                   f"{res.bound:.5f}")
        scaled = t.p_hat * math.sqrt(k)
        gate.check(0.2 <= scaled <= 1.2,
                   f"k={k}: estimate*sqrt(k) = {scaled:.3f} inside [0.2, 1.2]")
    gate.finish()


def test_criterion_7_process_lab_exactness():
    gate = Gate(7, "counterexample processes match their closed-form laws",
                budget_s=120.0)

    # (a) expected stopping time 2 for the doubling-jump process
    res = simulate_lab("cbounded", runs=100_000, horizon=200, seed=11)
    gate.check(abs(res.mean - 2.0) <= 0.05,
               f"(a) doubling-jump process: mean {res.mean:.4f} within 2 +- 0.05")

    # (b) polynomial tail: survival at 9 equals 1/100 within 3 sigma, and the
    # fitted log-log slope over [10, 1000] is -2 +- 0.15
    grid = [9, 10, 15, 22, 32, 46, 68, 100, 147, 215, 316, 464, 681, 1000]
    res = simulate_lab("noconcentration", runs=1_000_000, horizon=1000, seed=12,
                       alpha=2, tail_ns=grid)
    p9 = res.survival(9).p_hat
    sigma = math.sqrt(0.01 * 0.99 / res.runs)
    gate.check(abs(p9 - 0.01) <= 3 * sigma,
               f"(b) survival at 9: {p9:.5f} within 0.01 +- {3 * sigma:.5f}")
    fit_ns = [n for n in grid if n >= 10]
    slope = fit_tail_slope(fit_ns, [res.survival(n).count for n in fit_ns], res.runs)
    gate.check(abs(slope - (-2.0)) <= 0.15,
               f"(b) fitted log-log tail slope {slope:.3f} within -2 +- 0.15 "
               "(sub-exponential decay)")

    # (c) positive mass at infinity despite expected decrease
    res = simulate_lab("nonnegativity", runs=100_000, horizon=10_000, seed=13,
                       tail_ns=[10_000])
    p = res.survival(10_000).p_hat
    limit = analytic("nonnegativity", "prob_nonterm")
    gate.check(abs(p - 0.1930) <= 0.004,
               f"(c) survival at 1e4: {p:.4f} within 0.1930 +- 0.004 "
               f"(limit {limit:.4f})")

    # (d) vanishing step sizes: nontermination probability one half
    res = simulate_lab("positivity", runs=100_000, horizon=64, seed=17, tail_ns=[64])
    p = res.survival(64).p_hat
    gate.check(abs(p - 0.5) <= 0.005,
               f"(d) survival at 64: {p:.4f} within 0.5 +- 0.005")
    gate.finish()


def test_criterion_8_determinism_and_randomized_invariants(halving):
    gate = Gate(8, "bit-identical reruns/workers and 1000-case invariants",
                budget_s=60.0)
    cfg, sf, cert = halving
    box = VerifyBox.parse("n=-20..20")

    a = check_ranking(cert, cfg, sf, box)
    b = check_ranking(cert, cfg, sf, box)
    c = check_ranking(cert, cfg, sf, box, workers=8)
    gate.check(a == b == c, "checker verdicts identical across reruns and workers 1/8")

    bad1 = check_cdb(cert, cfg, sf, box, delta=Fraction(2))
    bad8 = check_cdb(cert, cfg, sf, box, delta=Fraction(2), workers=8)
    gate.check(bad1 == bad8 and not bad1.passed,
               "failing reports identical across workers 1/8")

    entry = StackElement("f", 1, Valuation({"n": 5}))
    s1 = simulate(cfg, sf, entry, Scheduler("uniform"), runs=2_000,
                  max_steps=10**4, k_list=[30], seed=8, workers=1)
    s8 = simulate(cfg, sf, entry, Scheduler("uniform"), runs=2_000,
                  max_steps=10**4, k_list=[30], seed=8, workers=8)
    gate.check(s1 == s8, "simulation statistics identical across workers 1/8")

    value = cert_value_at(cert, cfg, entry)
    bounds_twice = [
        (upper_expected(cert, Fraction(1), value),
         lower_expected(cert, Fraction(13), value),
         markov_tail(Fraction(1), value, 112))
        for _ in range(2)
    ]
    gate.check(bounds_twice[0] == bounds_twice[1],
               "rational bounds bit-identical across reruns")

    from test_properties import (
        test_distribution_normalization,
        test_expected_decrease_is_monotone_in_eps,
        test_per_outcome_cap_implies_expected_caps,
        test_stack_discipline,
    )

    for prop in (test_expected_decrease_is_monotone_in_eps,
                 test_per_outcome_cap_implies_expected_caps,
                 test_stack_discipline,
                 test_distribution_normalization):
        prop()
        gate.check(True, f"{prop.__name__} held on 1000 random cases")
    gate.finish()
