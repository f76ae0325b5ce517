"""The four workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up), runs one warm-up call, then repeats `round()` while the run
measures.  Every call into termcert sits inside a span named after the
module it enters.  `verify()` then compares every recorded output with a
reference that does not come from termcert: known verdicts and hand-derived
values for the shipped fixtures, closed forms for the lab processes, and the
generator's own model (gen.py) for generated programs.
"""

from __future__ import annotations

import math
import os
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from termcert import (
    Scheduler,
    StackElement,
    Valuation,
    VerifyBox,
    build_cfg,
    label_program,
    parse_certificate,
    parse_distributions,
    parse_program,
    run_check,
    simulate,
    simulate_lab,
    theta_fixpoint,
)
from termcert.certificates import CertParams
from termcert.distributions import SamplingFunction

import gen
from spans import Tracer

FIXTURES = ("halving_game", "random_walk", "coin_loops")
HALVING_CERT_VALUE = 56  # 12*5 - 4 at (f, 1) with n = 5, read off the certificate
SCHEDULERS = ("always-then", "always-else", "uniform", "greedy-max", "greedy-min")
Z = 5.0  # standard errors allowed on a statistical check: false alarm < 1e-6


class Checks:
    """Operations attempted, and those that raised or missed their reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


class Fixture:
    def __init__(self, root: Path, name: str):
        base = root / "src" / "termcert" / "fixtures"
        self.program = (base / f"{name}.prob").read_text(encoding="utf-8")
        cert = "random_walk_super" if name == "random_walk" else name
        self.cert = (base / f"{cert}.cert").read_text(encoding="utf-8")
        dist = base / f"{name}.dist"
        self.dist = dist.read_text(encoding="utf-8") if dist.exists() else ""


def front_end(tr: Tracer, program: str, cert_text: str, dist_text: str):
    """Source text to (cfg, cert, sampling function), one span per layer."""
    with tr.span("parser", "parse_program"):
        prog = parse_program(program)
    with tr.span("lang", "label_program"):
        prog = label_program(prog)
    with tr.span("cfg", "build_cfg") as sp:
        cfg = build_cfg(prog)
        sp.counts["labels"] = sum(len(fn.labels()) for fn in cfg.functions)
    with tr.span("parser", "parse_certificate"):
        cert = parse_certificate(cert_text)
    dists = dict(cfg.builtin_dists)
    dists.update(parse_distributions(dist_text) if dist_text else {})
    return cfg, cert, SamplingFunction.from_mapping(dists)


def checked(tr: Tracer, name: str, kind: str, cert, cfg, sf, box, params=None,
            workers: int = 1):
    with tr.span("checker", name) as sp:
        report = run_check(kind, cert, cfg, sf, box, params, workers=workers)
    sp.counts.update(points=report.points_checked, skipped=report.points_skipped,
                     conditions=report.conditions_checked,
                     failures=len(report.failures), workers=workers)
    return report, sp


def simulated(tr: Tracer, name: str, cfg, sf, entry, scheduler, runs: int,
              max_steps: int, tails, seed: int, workers: int = 1):
    with tr.span("semantics", name) as sp:
        stats = simulate(cfg, sf, entry, scheduler, runs=runs, max_steps=max_steps,
                         k_list=tails, seed=seed, workers=workers)
    sp.counts.update(steps=stats.sum_steps + stats.censored * max_steps,
                     censored=stats.censored, runs=runs, workers=workers)
    return stats, sp


def table(text: str) -> List[Dict[str, str]]:
    """Rows of a termcert table (meta line, header, rows) keyed by header,
    cut at the header's column starts."""
    lines = text.splitlines()
    header = lines[1]
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    names = header.split()
    return [{name: line[a:b].strip() for name, a, b in
             zip(names, starts, starts[1:] + [len(line)])} for line in lines[2:] if line]


def fastest(samples: List[float]) -> float:
    """The shortest of repeated timings of the same call.

    The shared machines this runs on switch between a fast state and one
    about 1.4x slower, for seconds at a time, because of other tenants.
    Medians and even first quartiles flip between the two states from run
    to run; the minimum of repeats spread over a run stays in the fast one.
    """
    return min(samples)


def within(p_hat: float, p: float, runs: int) -> bool:
    """An empirical frequency within Z standard errors of its exact value."""
    return abs(p_hat - p) <= Z * math.sqrt(p * (1 - p) / runs) + 1.0 / runs


def walk_survival(n: int) -> float:
    """P(T > n) for the +-1 walk from 1 absorbed at 0: C(n, n//2) / 2^n."""
    return math.comb(n, n // 2) / 2.0 ** n


class Workload:
    name = ""
    texts: List[str] = []  # program texts whose tokenizing a traced run times

    def __init__(self, root: Path, seed: int, tr: Tracer, scale: float = 1.0):
        """`scale` shrinks the calls' sizes (box widths, run counts) for a
        single traced round that only feeds the layer metrics (suite.py)."""
        self.root = root
        self.seed = seed
        self.tr = tr
        self.scale = scale
        self.samples: List[List[float]] = []  # per position in a round: seconds, all rounds
        self.work: List[int] = []  # per position: the work work_per_s counts, or 0

    def record(self, seconds: List[float], work: List[int]) -> None:
        """One round's call times, position by position, and the work each
        position does (the same in every round of a run)."""
        if not self.samples:
            self.samples = [[] for _ in seconds]
        for column, value in zip(self.samples, seconds):
            column.append(value)
        self.work = work

    def best(self) -> List[float]:
        return [fastest(column) for column in self.samples]

    def round_s(self) -> float:
        return sum(self.best())

    def work_per_s(self) -> float:
        return sum(self.work) / sum(t for t, w in zip(self.best(), self.work) if w)

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def verify(self, checks: Checks) -> None:
        raise NotImplementedError

    def named_metrics(self) -> Dict[str, Tuple[float, str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class SweepWide(Workload):
    name = "sweep-wide"
    HALF_WIDTH = 500

    def __init__(self, root, seed, tr, scale=1.0):
        super().__init__(root, seed, tr, scale)
        half = max(10, round(self.HALF_WIDTH * scale))
        shift = seed % (half - 3)  # moves the boxes; every verdict holds on any box with lo <= 3
        lo, hi = -half + shift, half + shift
        self.width = hi - lo + 1
        loaded = {}
        self.texts = []
        for name in FIXTURES:
            fx = Fixture(root, name)
            self.texts.append(fx.program)
            loaded[name] = front_end(tr, fx.program, fx.cert, fx.dist)
        halving, walk, coin = (loaded[n] for n in FIXTURES)
        hbox = VerifyBox.parse(f"n={lo}..{hi}")
        wbox = VerifyBox.parse(f"n={lo - half}..{hi + half}")
        self.walk_width = hi - lo + 1 + 2 * half
        top = max(6, round(60 * scale))
        cbox = VerifyBox.parse(f"c=-1..1, i=0..11, n=0..{top}")  # 2^(n+2) up to 62 bits
        fail = CertParams(eps=halving[1].params.eps, delta=Fraction("12.99"),
                          zeta=halving[1].params.zeta)
        # (span name, kind, (cfg, cert, sf), box, params, workers)
        self.calls = [
            ("ranking", "ranking", halving, hbox, None, 1),
            ("cdb", "cdb", halving, hbox, None, 1),
            ("db", "db", halving, hbox, None, 1),
            ("fail", "cdb", halving, hbox, fail, 1),
            ("ranking", "ranking", coin, cbox, None, 1),
            ("super", "super", walk, wbox, None, 1),
            ("ranking@w2", "ranking", halving, hbox, None, 2),
        ]
        self.reports: List[List] = []

    def _call(self, i: int):
        name, kind, (cfg, cert, sf), box, params, workers = self.calls[i]
        report, sp = checked(self.tr, name, kind, cert, cfg, sf, box, params, workers)
        if i == 0:
            sp.counts["w2pair"] = 1  # the workers=1 twin of the last call
        return report, sp.seconds

    def warm_up(self) -> None:
        self._call(0)

    def round(self) -> None:
        out = []
        for i in range(len(self.calls)):
            with self.tr.op(f"check-{i}"):
                out.append(self._call(i))
        self.reports.append(out)
        self.record([t for _, t in out],
                    [r.conditions_checked for r, _ in out[:6]] + [0])

    def verify(self, checks: Checks) -> None:
        for out in self.reports:
            (ranking, _), (cdb, _), (db, _), (fail, _), (coin, _), (walk, _), (w2, _) = out
            for what, rep, points in (("halving ranking", ranking, 12 * self.width),
                                      ("halving cdb", cdb, 12 * self.width),
                                      ("halving db", db, 12 * self.width),
                                      ("random_walk super", walk, 8 * self.walk_width)):
                # every label of both fixtures has stanzas covering every n
                checks.op(what, [] if rep.passed and rep.points_checked == points
                          and rep.points_skipped == 0 else
                          [f"passed={rep.passed} points={rep.points_checked}"])
            checks.op("coin_loops ranking", [] if coin.passed else ["failed"])
            first = fail.first_failure
            # at (f, 3), n = 3: 12*3 - 6 = 30 here; callee f@1 at n=1 is 8 and
            # f@4 at n=3 is 9, so 30 <= 12.99 + 17 fails, while delta = 13 passes
            problems = []
            if fail.passed or first is None:
                problems.append("passed")
            elif (first.condition, first.fname, first.label, first.point, first.lhs,
                  first.rhs) != ("call-drop-cap", "f", 3, (("n", 3),), "2999/100", "30"):
                problems.append(f"first counterexample {first.render()}")
            checks.op("halving cdb delta=12.99", problems)
            checks.op("halving ranking workers=2",
                      [] if w2 == ranking else ["report differs from workers=1"])

    def named_metrics(self):
        w2 = self.reports[0][6][0].conditions_checked / self.best()[6]
        return {
            "check_conditions_per_s": (self.work_per_s(), "1/s"),
            "check_w2_conditions_per_s": (w2, "1/s"),
        }


# ---------------------------------------------------------------------------

class ManyPrograms(Workload):
    name = "many-programs"
    BATCH = 10  # programs per round
    BATCHES = 15  # rounds cycle through these; repeat k renames m, n to mk, nk

    def __init__(self, root, seed, tr, scale=1.0):
        super().__init__(root, seed, tr, scale)
        self.cases = gen.generate(seed, self.BATCH * self.BATCHES)
        self.texts = [case.program_text for case in self.cases[:self.BATCH]]
        self.done = 0  # rounds so far
        self.samples = [[] for _ in self.cases]  # seconds per program, all repeats
        self.results: List[Tuple[gen.Case, Optional[gen.Expected], str]] = []
        self.check_seconds = 0.0
        self.check_conditions = 0
        self.program_seconds: List[float] = []

    def _program(self, case: gen.Case, k: int):
        tr = self.tr
        box = VerifyBox.parse(f"m{k}={gen.BOX_LO}..{gen.BOX_HI}, n{k}={gen.BOX_LO}..{gen.BOX_HI}")
        cfg, cert, sf = front_end(tr, gen.variant(case.program_text, k),
                                  gen.variant(case.cert_text, k), gen.DIST_TEXT)
        if tr.enabled:  # pay compilation on a one-point box, so it has its own span
            with tr.span("compile", "first_check"):
                run_check("ranking", cert, cfg, sf, VerifyBox.parse(f"m{k}=0..0, n{k}=0..0"),
                          CertParams(eps=1))
        with tr.span("checker", "theta_fixpoint"):
            th = theta_fixpoint(cfg)
        reports = [checked(tr, kind, kind, cert, cfg, sf, box, params)
                   for kind, params in [("ranking", CertParams(eps=e)) for e in gen.EPS_VALUES]
                   + [("db", None), ("cdb", None)]]
        reports = [(rep, sp.seconds) for rep, sp in reports]
        entry = StackElement("f", cfg.function("f").entry,
                             Valuation({f"{v}{k}": x for v, x in zip(gen.PVARS, case.entry_vals)}))
        if tr.enabled:
            with tr.span("compile", "first_sim"):
                simulate(cfg, sf, entry, Scheduler("uniform"), runs=1,
                         max_steps=gen.SIM_MAX_STEPS, seed=case.sim_seed)
        stats, _ = simulated(tr, "uniform", cfg, sf, entry, Scheduler("uniform"),
                             gen.SIM_RUNS, gen.SIM_MAX_STEPS, gen.SIM_TAILS, case.sim_seed)
        for rep, seconds in reports:
            self.check_seconds += seconds
            self.check_conditions += rep.conditions_checked
        first = reports[0][0]
        return gen.Expected(
            first.points_checked, first.points_skipped,
            tuple(r.passed for r, _ in reports[:3]), reports[3][0].passed,
            reports[4][0].passed, (th.all_covered, th.K_max, th.m_star),
            (stats.terminated, stats.sum_steps, stats.sumsq_steps,
             tuple(t.count for t in stats.tails)))

    def warm_up(self) -> None:
        self._program(gen.generate(self.seed, 1, start=10 ** 7)[0], 0)

    def round(self) -> None:
        b, k = self.done % self.BATCHES, self.done // self.BATCHES
        for case in self.cases[b * self.BATCH:(b + 1) * self.BATCH]:
            with self.tr.op(f"program-{case.index}-{k}") as sp:
                try:
                    got, error = self._program(case, k), ""
                except Exception as exc:  # recorded as a failed operation
                    got, error = None, f"{type(exc).__name__}: {exc}"
            self.samples[case.index].append(sp.seconds)
            self.program_seconds.append(sp.seconds)
            self.results.append((case, got, error))
        self.done += 1

    def best(self) -> List[float]:
        """Each program's fastest time over its repeats, for programs run so far."""
        return [fastest(column) for column in self.samples if column]

    def round_s(self) -> float:
        return self.BATCH * statistics.mean(self.best())

    def work_per_s(self) -> float:
        return len(self.best()) / sum(self.best())

    def verify(self, checks: Checks) -> None:
        wanted: Dict[int, gen.Expected] = {}
        for case, got, error in self.results:
            if error:
                checks.op(f"program {case.index}", [error])
                continue
            if case.index not in wanted:
                wanted[case.index] = gen.expected(case)
            want = wanted[case.index]
            problems = [f"{field}: got {getattr(got, field)} want {getattr(want, field)}"
                        for field in ("points", "skipped", "ranking", "db", "cdb",
                                      "theta", "sim")
                        if getattr(got, field) != getattr(want, field)]
            checks.op(f"program {self.seed}/{case.index}", problems)

    def named_metrics(self):
        ms = sorted(1000 * s for s in self.program_seconds)
        out = {
            "programs_per_s": (self.work_per_s(), "1/s"),
            "program_p50_ms": (statistics.median(ms), "ms"),
            "check_conditions_per_s": (self.check_conditions / self.check_seconds, "1/s"),
        }
        if len(ms) >= 200:  # at least ten samples beyond the 95th percentile
            out["program_p95_ms"] = (statistics.quantiles(ms, n=20)[-1], "ms")
        return out


# ---------------------------------------------------------------------------

class SimulateHalving(Workload):
    name = "simulate-halving"
    RUNS = 1000
    MAX_STEPS = 100_000
    TAIL = 112
    LAB = (("randomwalk", None, 50_000), ("noconcentration", 2.0, 500_000))
    LAB_HORIZON = 1000
    LAB_LEVELS = (9, 99, 999)

    def __init__(self, root, seed, tr, scale=1.0):
        super().__init__(root, seed, tr, scale)
        self.runs = max(50, round(self.RUNS * scale))
        self.lab = [(tag, alpha, max(1000, round(runs * scale))) for tag, alpha, runs in self.LAB]
        fx = Fixture(root, "halving_game")
        self.texts = [fx.program]
        self.cfg, self.cert, self.sf = front_end(tr, fx.program, fx.cert, fx.dist)
        self.entry = StackElement("f", 1, Valuation({"n": 5}))
        self.records: List[List] = []

    def _sim(self, scheduler: str, workers: int = 1, runs: Optional[int] = None):
        name = scheduler if workers == 1 else f"{scheduler}@w2"
        stats, sp = simulated(self.tr, name, self.cfg, self.sf, self.entry,
                              Scheduler(scheduler, self.cert), runs or self.runs,
                              self.MAX_STEPS, (self.TAIL,), self.seed, workers)
        if scheduler == "greedy-max" and workers == 1:
            sp.counts["w2pair"] = 1
        return stats, sp.seconds

    def _lab(self, tag: str, alpha, runs: int):
        with self.tr.span("lab", tag) as sp:
            res = simulate_lab(tag, runs=runs, horizon=self.LAB_HORIZON, seed=self.seed,
                               alpha=alpha, tail_ns=self.LAB_LEVELS)
        sp.counts["runs"] = runs
        return res, sp.seconds

    def warm_up(self) -> None:
        for scheduler in SCHEDULERS:
            self._sim(scheduler, runs=100)

    def round(self) -> None:
        out = []
        for i, scheduler in enumerate(SCHEDULERS + ("greedy-max",)):
            with self.tr.op(f"simulate-{i}"):
                out.append(self._sim(scheduler, workers=1 if i < 5 else 2))
        for tag, alpha, runs in self.lab:
            with self.tr.op(f"lab-{tag}"):
                out.append(self._lab(tag, alpha, runs))
        self.records.append(out)
        self.record([t for _, t in out],
                    [s.sum_steps + s.censored * self.MAX_STEPS for s, _ in out[:5]] + [0] * 3)

    def verify(self, checks: Checks) -> None:
        lower, upper = Fraction(HALVING_CERT_VALUE, 13), HALVING_CERT_VALUE
        sigma = math.sqrt(0.25 / self.runs)
        for out in self.records:
            for scheduler, (stats, _) in zip(SCHEDULERS, out):
                se = (stats.mean_halfwidth or 0.0) / 1.959963984540054
                problems = []
                if stats.terminated != self.runs:
                    problems.append(f"{stats.censored} censored")
                elif not (lower - Z * se <= stats.mean <= upper + Z * se):
                    problems.append(f"mean {stats.mean} outside [56/13, 56]")
                if stats.tail(self.TAIL).p_hat > 0.5 + 3 * sigma:
                    problems.append(f"P(T >= 112) = {stats.tail(self.TAIL).p_hat} > 1/2")
                if scheduler == "always-then" and stats.mean != 44:
                    # deterministic: f(5) -> f(2) twice -> f(1) twice each -> f(0)
                    problems.append(f"always-then mean {stats.mean} != 44")
                checks.op(f"simulate {scheduler}", problems)
            checks.op("simulate greedy-max workers=2",
                      [] if out[5][0] == out[3][0] else ["statistics differ from workers=1"])
            for (res, _), (tag, alpha, runs) in zip(out[6:], self.lab):
                problems = []
                for level in self.LAB_LEVELS:
                    exact = walk_survival(level) if alpha is None else (level + 1) ** -alpha
                    p_hat = res.survival(level).p_hat
                    if not within(p_hat, exact, runs):
                        problems.append(f"P(T > {level}) = {p_hat} vs {exact:.6g}")
                checks.op(f"lab {tag}", problems)

    def named_metrics(self):
        runs = sum(r for _, _, r in self.lab)
        return {
            "sim_steps_per_s": (self.work_per_s(), "1/s"),
            "lab_runs_per_s": (runs / sum(self.best()[6:]), "1/s"),
        }


# ---------------------------------------------------------------------------

class CliReadme(Workload):
    name = "cli-readme"
    # The README's simulate (20000 runs) and lab (100000 runs) at a tenth of
    # their run counts: a round then takes about 2 s instead of 5 s, so each
    # command repeats about 18 times in a 50-s run, and its fastest time
    # varies less from run to run.
    SIM_RUNS = 2000
    LAB_RUNS = 10_000

    def __init__(self, root, seed, tr, scale=1.0):
        super().__init__(root, seed, tr, scale)
        import termcert.cli  # noqa: F401  (set-up pays the import, as the commands do)

        fix = "src/termcert/fixtures/"
        prog, cert, dist = (fix + f"halving_game.{ext}" for ext in ("prob", "cert", "dist"))
        self.expected_cfg = (Path(__file__).parent / "expected" /
                             "halving_game_cfg.txt").read_text(encoding="utf-8")
        self.sim_seed = 1105 + seed
        self.lab_seed = 12 + seed
        self.sim_runs = max(500, round(self.SIM_RUNS * scale))
        self.lab_runs = max(1000, round(self.LAB_RUNS * scale))
        self.commands = [
            ["parse", prog],
            ["cfg", prog],
            ["check", prog, "--cert", cert, "--kind", "ranking", "--dist", dist,
             "--box", "n=-100..100"],
            ["check", prog, "--cert", cert, "--kind", "cdb", "--dist", dist,
             "--box", "n=-100..100", "--delta", "12.99"],
            ["bounds", prog, "--cert", cert, "--kind", "cdb", "--entry", "f",
             "--args", "n=5", "--k", "112,224"],
            ["simulate", prog, "--entry", "f", "--args", "n=5", "--dist", dist,
             "--scheduler", "greedy-max", "--cert", cert, "--runs", str(self.sim_runs),
             "--max-steps", "100000", "--tail", "112", "--seed", str(self.sim_seed)],
            ["lab", "--example", "noconcentration", "--alpha", "2", "--runs", str(self.lab_runs),
             "--horizon", "1000", "--seed", str(self.lab_seed), "--tail", "9,99,999"],
        ]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.records: List[List] = []

    def _run(self, argv: List[str]):
        with self.tr.span("cli", argv[0]) as sp:
            proc = subprocess.run([sys.executable, "-m", "termcert.cli"] + argv,
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=120)
        return proc, sp.seconds

    def warm_up(self) -> None:
        self._run(self.commands[1])

    def round(self) -> None:
        out = []
        for i, argv in enumerate(self.commands):
            with self.tr.op(f"cli-{i}"):
                out.append(self._run(argv))
        self.records.append(out)
        self.record([t for _, t in out], [1] * len(out))

    def verify(self, checks: Checks) -> None:
        for out in self.records:
            for i, (proc, _) in enumerate(out):
                argv = self.commands[i]
                checks.op(" ".join(argv[:1] + argv[2:5]), self._problems(i, proc))

    def _problems(self, i: int, proc) -> List[str]:
        text = proc.stdout
        want_rc = 1 if i == 3 else 0  # 1 = a failing check, as documented
        if proc.returncode != want_rc:
            return [f"exit {proc.returncode}, want {want_rc}: {proc.stderr.strip()[-200:]}"]
        try:
            ok = self._output_ok(i, text)
        except (KeyError, IndexError, ValueError):  # a table that does not parse
            ok = False
        return [] if ok else [f"unexpected output: {text[-300:]!r}"]

    def _output_ok(self, i: int, text: str) -> bool:
        rows = table(text) if i in (4, 5, 6) else []
        if i == 0:
            ok = "f(n) {" in text and "g(n) {" in text and "n := n + r;" in text
        elif i == 1:
            ok = text == self.expected_cfg
        elif i == 2:
            ok = "verdict=pass" in text and "points=2412 skipped=0" in text
        elif i == 3:
            ok = "call-drop-cap fails at (f, 3) with {n=3}: 2999/100 vs 30" in text
        elif i == 4:  # value 56 at f(5): E[T] <= 56/1, P(T >= k) <= 56/k, E[T] >= 56/13
            ok = [(r["rule"], r["value"]) for r in rows] == [
                ("expected-time-upper", "56"), ("tail-markov", "1/2"),
                ("tail-markov", "1/4"), ("expected-time-lower", "56/13")]
        elif i == 5:
            stat = {r["statistic"]: r for r in rows}
            mean = float(stat["mean_T"]["value"])
            se = (mean - float(stat["mean_T"]["ci95_lo"])) / 1.959963984540054
            ok = (int(stat["terminated"]["value"]) + int(stat["censored"]["value"])
                  == self.sim_runs
                  and 56 / 13 - Z * se - 1e-4 <= mean <= 56 + Z * se + 1e-4)
        else:
            tails = {int(r["query"].split()[-1].rstrip(")")): float(r["empirical"])
                     for r in rows if r["query"].startswith("tail")}
            ok = sorted(tails) == [9, 99, 999] and all(
                within(p, (n + 1) ** -2.0, self.lab_runs) for n, p in tails.items())
        return ok

    def named_metrics(self):
        return {
            "cli_total_s": (self.round_s(), "s"),
            "cli_startup_s": (self.best()[1], "s"),  # `termcert cfg`, once per round
        }


WORKLOADS = {cls.name: cls for cls in (SweepWide, ManyPrograms, SimulateHalving, CliReadme)}
