"""The layer suite: what a traced run adds for the layers its workload does
not enter.

A layer a workload enters is measured on that workload's own calls.  For the
rest, the suite runs one round of the workload that owns the layer, at a
small `scale` and under its own span source (`suite:<workload>`), so a
layer's figures always come from the same calls the owning workload makes.
Three probes measure what no workload isolates in-process: pool start-up,
the bound rows the CLI prints, and the CLI's import.  The owners' outputs
are checked like the workload's own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, Tuple

from termcert import StackElement, Valuation, VerifyBox, run_check, theta_fixpoint
from termcert.bounds import (
    cert_value_at,
    concentration_tail,
    lower_expected,
    markov_tail,
    sqrt_tail,
    upper_expected,
)
from termcert.parser import tokenize

from spans import Tracer
from workloads import SCHEDULERS, WORKLOADS, Fixture, Workload, front_end

REPS = 20  # repetitions of the millisecond-scale calls
SCALE = 0.1  # size of an owner's round next to the workload's own

# Each owner, in the order its spans are preferred, with the spans one of
# its traced rounds records.
OWNERS: List[Tuple[str, List[Tuple[str, str]]]] = [
    ("sweep-wide", [("checker", name) for name in
                    ("ranking", "cdb", "db", "super", "fail", "ranking@w2")]),
    ("simulate-halving", [("semantics", s) for s in SCHEDULERS + ("greedy-max@w2",)]
     + [("lab", "randomwalk"), ("lab", "noconcentration")]),
    ("many-programs", [("parser", "tokenize"), ("parser", "parse_program"),
                       ("parser", "parse_certificate"), ("lang", "label_program"),
                       ("cfg", "build_cfg"), ("compile", "first_check"),
                       ("compile", "first_sim"), ("checker", "theta_fixpoint")]),
    ("cli-readme", [("cli", c) for c in ("parse", "cfg", "check", "bounds", "simulate", "lab")]),
]


def tokenized(tr: Tracer, texts: List[str]) -> None:
    for _ in range(REPS):
        for text in texts:
            with tr.span("parser", "tokenize") as sp:
                sp.counts["tokens"] = len(tokenize(text))


def _halving(root: Path):
    fx = Fixture(root, "halving_game")
    return front_end(Tracer(False), fx.program, fx.cert, fx.dist)


def _pool(tr: Tracer, root: Path) -> None:
    cfg, cert, sf = _halving(root)
    point = VerifyBox.parse("n=0..0")
    for _ in range(3):
        for workers in (1, 2):
            with tr.span("pool", f"point@w{workers}"):
                run_check("ranking", cert, cfg, sf, point, workers=workers)


def _bounds(tr: Tracer, root: Path) -> None:
    """The rows of the README's `termcert bounds` (halving game, cdb, f(5),
    k = 112, 224), plus a square-root tail for the random walk."""
    cfg, cert, _ = _halving(root)
    fx = Fixture(root, "random_walk")
    wcfg, wcert, _ = front_end(Tracer(False), fx.program, fx.cert, fx.dist)
    K = theta_fixpoint(wcfg).K_max
    p, wp = cert.params, wcert.params
    for _ in range(REPS):
        with tr.span("bounds", "rows"):
            value = cert_value_at(cert, cfg, StackElement("f", 1, Valuation({"n": 5})))
            upper_expected(cert, p.eps, value)
            lower_expected(cert, p.delta, value)
            for k in (112, 224):
                markov_tail(p.eps, value, k)
            concentration_tail(p.eps, p.zeta, value, 200)
            wvalue = cert_value_at(wcert, wcfg, StackElement("f", 1, Valuation({"n": 5})))
            sqrt_tail(wvalue, wp.delta, wp.zeta, K, 10 ** 4)


def _cli_import(tr: Tracer, root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import time; t = time.perf_counter(); import termcert.cli; "
            "print(round((time.perf_counter() - t) * 1e9))")
    for _ in range(3):
        with tr.span("cli", "import") as sp:
            proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
        sp.counts["import_ns"] = int(proc.stdout.split()[-1])


PROBES: List[Tuple[str, Callable[[Tracer, Path], None], List[Tuple[str, str]]]] = [
    ("pool", _pool, [("pool", "point@w1"), ("pool", "point@w2")]),
    ("bounds", _bounds, [("bounds", "rows")]),
    ("cli-import", _cli_import, [("cli", "import")]),
]


def run_missing(tr: Tracer, workload: Workload) -> Tuple[List[str], List[Workload]]:
    """Run every owner and probe whose spans the workload did not record.
    Returns the names of those run and the owner workloads, whose outputs
    the caller checks."""
    have = {(s.layer, s.name) for s in tr.spans if s.source == "workload"}
    ran: List[str] = []
    owners: List[Workload] = []
    try:
        for name, needs in OWNERS:
            if set(needs) <= have:
                continue
            tr.source = f"suite:{name}"
            tr.enabled = False  # only the round counts; the owner's set-up is not its layer
            owner = WORKLOADS[name](workload.root, workload.seed, tr, SCALE)
            owner.warm_up()
            tr.enabled = True
            owner.round()
            if ("parser", "tokenize") in needs:
                tokenized(tr, owner.texts)
            ran.append(name)
            owners.append(owner)
        tr.source = "suite:probes"
        for name, probe, needs in PROBES:
            if not set(needs) <= have:
                probe(tr, workload.root)
                ran.append(name)
    finally:
        tr.source = "workload"
    return ran, owners
