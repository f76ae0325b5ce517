#!/usr/bin/env python3
"""Checking the four certificate families over verification boxes.

The halving-game certificate is an expected-decrease witness (decrease at
least 1 per step) that is also drop-capped (decrease at most 13, expected
jump at most 13) and per-outcome bounded (jumps at most 13).  The checker
sweeps every box valuation exactly, so pushing a parameter just below its
brute-forced optimum produces a concrete counterexample.
"""

from fractions import Fraction

from termcert import CertParams, VerifyBox, run_check
from termcert.fixtures import halving_game, random_walk

cfg, sf, cert = halving_game()
box = VerifyBox.parse("n=-100..100")

print("halving game, box", box.render())
for name, report in [
    ("expected decrease (eps=1)", run_check("ranking", cert, cfg, sf, box)),
    ("drop caps (delta=13, zeta=13)", run_check("cdb", cert, cfg, sf, box)),
    ("per-outcome caps (zeta=13)", run_check("db", cert, cfg, sf, box)),
]:
    print(f"  {name:32s} -> {'pass' if report.passed else 'fail'}")

print("\n  nudging delta below its optimum (13 -> 12.99):")
report = run_check("cdb", cert, cfg, sf, box, CertParams(delta=Fraction(1299, 100)))
print("   ", report.first_failure.render())

print("\nrandom walk, box n=-50..50")
wcfg, wsf, wcert = random_walk()
wbox = VerifyBox.parse("n=-50..50")
report = run_check("super", wcert, wcfg, wsf, wbox)
print(f"  never-increasing family (delta=1, zeta=1) -> "
      f"{'pass' if report.passed else 'fail'}")

# the same certificate is NOT an expected-decrease witness: the walk has no
# drift, so the strict-decrease conditions fail immediately
report = run_check("ranking", wcert, wcfg, wsf, wbox, CertParams(eps=Fraction(1)))
print(f"  expected-decrease family (eps=1)          -> "
      f"{'pass' if report.passed else 'fail'}")
print("   ", report.first_failure.render())
