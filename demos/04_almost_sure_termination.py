#!/usr/bin/env python3
"""Almost-sure termination with explicit inverse-square-root tails.

The symmetric random walk terminates with probability one but has infinite
expected time, so no expected-decrease certificate exists.  A
never-increasing certificate with a unit expected-jump floor at sampling
assignments still certifies almost-sure termination, and combined with the
reach-an-assignment fixpoint it yields a computable tail bound that decays
like 1/sqrt(k) -- the optimal order for this process.
"""

import math
from fractions import Fraction

from termcert import Scheduler, StackElement, Valuation, simulate
from termcert.bounds import cert_value_at, sqrt_tail
from termcert.cfg import theta_fixpoint
from termcert.checker import VerifyBox, run_check
from termcert.fixtures import random_walk

cfg, sf, cert = random_walk()
box = VerifyBox.parse("n=-50..50")
report = run_check("super", cert, cfg, sf, box)
print(f"certificate conditions: {'pass' if report.passed else 'fail'} on {box.render()}")

theta = theta_fixpoint(cfg)
print(f"every label reaches an assignment or the exit within "
      f"{theta.K_max} steps (per function: {theta.K_max_by_function})")

entry = StackElement("g", 1, Valuation({"n": 1}))
value = cert_value_at(cert, cfg, entry)
print(f"certificate value at (g, 1, n=1): {value}\n")

stats = simulate(cfg, sf, entry, Scheduler("always-then"), runs=50_000,
                 max_steps=10**4, k_list=[100, 1000, 10**4], seed=1001, workers=4)
print(f"{'k':>6}  {'bound':>9}  {'estimate':>9}  {'est*sqrt(k)':>12}")
for k in (100, 1000, 10**4):
    res = sqrt_tail(value, Fraction(1), Fraction(1),
                    theta.K_max_by_function["g"], k)
    t = stats.tail(k)
    print(f"{k:>6}  {res.bound:>9.5f}  {t.p_hat:>9.5f}  {t.p_hat * math.sqrt(k):>12.3f}")
print("\nestimate*sqrt(k) hovers near a constant: the walk's tail really is")
print("of order 1/sqrt(k), so the certified rate cannot be improved.")
