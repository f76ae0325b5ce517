"""Seeded two-function programs with piecewise-linear certificates, and an
independent reference model of what termcert must answer for them.

`generate(seed, count)` emits programs as source text.  termcert receives
only that text (plus the certificate and distribution text); the syntax tree
the text was printed from stays here as the reference model.  The model
evaluates that tree directly, with Python integers and Fractions and without
importing termcert, so the verdicts, point counts, fixpoint figures and
simulation statistics it predicts do not come from the code under test.

Programs follow the language's documented semantics: labels are numbered
depth-first in source order from 1, the terminal label comes last, a loop
head is its body's continuation, and a call's callee gets its parameters
bound to the argument values.  Simulation replays the documented stream
contract: run i of seed s draws uniforms in order from Philox keyed
(s << 64) | i, one per sampling variable at an assignment and one per
`star` under the uniform scheduler.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

PVARS = ("m", "n")
BOX_LO, BOX_HI = -2, 2
EPS_VALUES = (Fraction(2), Fraction(1), Fraction(1, 2))
DIST_TEXT = "r: -1 1/2; 1 1/2\n"
R_OUTCOMES = ((-1, Fraction(1, 2)), (1, Fraction(1, 2)))
SIM_RUNS = 20
SIM_MAX_STEPS = 200
SIM_TAILS = (5, 50)

INF = None  # an infinite certificate value
_KEY_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Syntax trees (tuples) and their concrete syntax
# ---------------------------------------------------------------------------
# expr: ("c", k) | ("v", name) | ("+"|"-", a, b) | ("*", k, a) | ("div", a, k)
# pred: ("cmp", op, a, b) | ("and", p, q)
# stmt: ("skip",) | ("assign", var, expr) | ("call", (a1, a2))
#       | ("if", pred, s1, s2) | ("star", s1, s2) | ("while", pred, s)
#       | ("seq", (s1, s2, ...))

def expr_text(e) -> str:
    tag = e[0]
    if tag == "c":
        return str(e[1]) if e[1] >= 0 else f"({e[1]})"
    if tag == "v":
        return e[1]
    if tag == "*":
        return f"({e[1]} * {expr_text(e[2])})"
    if tag == "div":
        return f"({expr_text(e[1])} div {e[2]})"
    return f"({expr_text(e[1])} {tag} {expr_text(e[2])})"


def pred_text(p) -> str:
    if p[0] == "and":
        return f"{pred_text(p[1])} and {pred_text(p[2])}"
    return f"{expr_text(p[2])} {p[1]} {expr_text(p[3])}"


def stmt_lines(s, depth: int) -> List[str]:
    pad = "  " * depth
    tag = s[0]
    if tag == "seq":
        lines: List[str] = []
        for i, part in enumerate(s[1]):
            sub = stmt_lines(part, depth)
            if i < len(s[1]) - 1:
                sub[-1] += ";"
            lines += sub
        return lines
    if tag == "skip":
        return [pad + "skip"]
    if tag == "assign":
        return [f"{pad}{s[1]} := {expr_text(s[2])}"]
    if tag == "call":
        return [f"{pad}g({expr_text(s[1][0])}, {expr_text(s[1][1])})"]
    if tag == "while":
        return ([f"{pad}while {pred_text(s[1])} do"] + stmt_lines(s[2], depth + 1)
                + [pad + "od"])
    head = "star" if tag == "star" else pred_text(s[1])
    then, orelse = (s[1], s[2]) if tag == "star" else (s[2], s[3])
    return ([f"{pad}if {head} then"] + stmt_lines(then, depth + 1) + [pad + "else"]
            + stmt_lines(orelse, depth + 1) + [pad + "fi"])


def variant(text: str, k: int) -> str:
    """Program or certificate text with m and n renamed to m<k> and n<k>:
    the same work for termcert, but a pair no cache has seen."""
    return re.sub(r"\b([mn])\b", rf"\g<1>{k}", text)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _expr(rnd: random.Random, depth: int):
    roll = rnd.random()
    if depth == 0 or roll < 0.4:
        if rnd.random() < 0.5:
            return ("c", rnd.randint(-4, 4))
        return ("v", rnd.choice(PVARS))
    if roll < 0.7:
        return (rnd.choice("+-"), _expr(rnd, depth - 1), _expr(rnd, depth - 1))
    if roll < 0.85:
        return ("*", rnd.randint(-3, 3), _expr(rnd, depth - 1))
    return ("div", _expr(rnd, depth - 1), rnd.randint(2, 3))


def _pred(rnd: random.Random):
    def cmp():
        return ("cmp", rnd.choice(("<", "<=", ">", ">=")), _expr(rnd, 1), _expr(rnd, 1))

    return ("and", cmp(), cmp()) if rnd.random() < 0.3 else cmp()


def _stmt(rnd: random.Random, depth: int, allow_call: bool):
    roll = rnd.random()
    if depth == 0 or roll < 0.35:
        if rnd.random() < 0.25:
            return ("skip",)
        return ("assign", rnd.choice(PVARS), _expr(rnd, 2))
    if allow_call and roll < 0.45:
        return ("call", (_expr(rnd, 1), _expr(rnd, 1)))
    if roll < 0.6:
        return ("if", _pred(rnd), _stmt(rnd, depth - 1, allow_call),
                _stmt(rnd, depth - 1, allow_call))
    if roll < 0.75:
        return ("star", _stmt(rnd, depth - 1, allow_call), _stmt(rnd, depth - 1, allow_call))
    if roll < 0.9:
        return ("while", _pred(rnd), _stmt(rnd, depth - 1, allow_call))
    return ("seq", (_stmt(rnd, depth - 1, allow_call), _stmt(rnd, depth - 1, allow_call)))


def _cert_pieces(rnd: random.Random):
    """One stanza: a guarded linear piece plus a fallback, all values >= 0."""
    a, b, c = rnd.randint(0, 3), rnd.randint(0, 3), rnd.randint(0, 12)
    nonneg = ("and", ("cmp", ">=", ("v", "m"), ("c", 0)), ("cmp", ">=", ("v", "n"), ("c", 0)))
    linear = ("+", ("+", ("*", a, ("v", "m")), ("*", b, ("v", "n"))), ("c", c))
    roll = rnd.random()
    if roll < 0.6:  # covers every point
        return ((nonneg, linear), (None, ("c", rnd.randint(0, 12))))
    if roll < 0.8:  # leaves m > 0, n < 0 uncovered: skipped, or inf as a successor
        return ((nonneg, linear),
                (("cmp", "<=", ("v", "m"), ("c", 0)), ("c", rnd.randint(0, 12))))
    return ((("cmp", ">=", ("v", "n"), ("c", 0)),
             ("+", ("*", b, ("v", "n")), ("c", c))),
            (None, INF))


@dataclass
class Function:
    name: str
    nodes: Dict[int, tuple]  # label -> lowered node
    entry: int
    exit: int


@dataclass
class Case:
    """One generated program: the text termcert sees and the model kept here."""

    index: int
    program_text: str
    cert_text: str
    functions: Dict[str, Function]
    cert: Dict[Tuple[str, int], tuple]
    delta: int
    zeta: int
    entry_vals: Tuple[int, int]
    sim_seed: int


def generate(seed: int, count: int, start: int = 0) -> List[Case]:
    """Cases start .. start+count-1 of the stream for `seed`; each case has its
    own random.Random, so a case does not depend on how many came before."""
    return [_case(seed, i) for i in range(start, start + count)]


def _case(seed: int, index: int) -> Case:
    rnd = random.Random(f"perfbench-many-programs-{seed}-{index}")
    f_parts = [_stmt(rnd, 2, True) for _ in range(rnd.randint(1, 2))]
    g_parts = [_stmt(rnd, 1, False) for _ in range(rnd.randint(1, 2))]
    if rnd.random() < 0.6:
        victim = rnd.choice(PVARS)
        step = ("assign", victim, ("+", ("v", victim), ("v", "r")))
        (f_parts if rnd.random() < 0.5 else g_parts).append(step)
    functions = {}
    text = []
    for name, parts in (("f", f_parts), ("g", g_parts)):
        body = parts[0] if len(parts) == 1 else ("seq", tuple(parts))
        functions[name] = _lower(name, body)
        text += [f"{name}(m, n) {{"] + stmt_lines(body, 1) + ["}", ""]
    cert = {}
    cert_lines = []
    delta, zeta = rnd.randint(1, 6), rnd.randint(1, 6)
    cert_lines.append(f"delta={delta} zeta={zeta}")
    for fn in functions.values():
        for label in sorted(fn.nodes) + [fn.exit]:
            pieces = ((None, ("c", 0)),) if label == fn.exit else _cert_pieces(rnd)
            cert[(fn.name, label)] = pieces
            body = " ; ".join(
                ("" if g is None else f"[{pred_text(g)}] ")
                + ("inf" if e is INF else expr_text(e))
                for g, e in pieces)
            cert_lines.append(f"{fn.name}@{label}: {body}")
    return Case(index, "\n".join(text), "\n".join(cert_lines) + "\n", functions, cert,
                delta, zeta, (rnd.randint(0, 3), rnd.randint(0, 3)),
                rnd.randrange(1 << 32))


# ---------------------------------------------------------------------------
# Labelling and lowering, as documented for the language
# ---------------------------------------------------------------------------

def _lower(name: str, body) -> Function:
    labels: Dict[int, tuple] = {}
    counter = [0]

    def label(s):  # depth-first, source order; sequences carry no label
        if s[0] == "seq":
            return ("seq", tuple(label(x) for x in s[1]))
        counter[0] += 1
        lab = counter[0]
        if s[0] == "if":
            return ("if", lab, s[1], label(s[2]), label(s[3]))
        if s[0] == "star":
            return ("star", lab, label(s[1]), label(s[2]))
        if s[0] == "while":
            return ("while", lab, s[1], label(s[2]))
        return s + (lab,)

    def first(s):
        while s[0] == "seq":
            s = s[1][0]
        return s[1] if s[0] in ("if", "star", "while") else s[-1]

    def lower(s, nxt):
        tag = s[0]
        if tag == "seq":
            items = s[1]
            for i, part in enumerate(items):
                lower(part, first(items[i + 1]) if i + 1 < len(items) else nxt)
        elif tag == "skip":
            labels[s[-1]] = ("assign", None, None, nxt)
        elif tag == "assign":
            labels[s[-1]] = ("assign", s[1], s[2], nxt)
        elif tag == "call":
            labels[s[-1]] = ("call", s[1], nxt)
        elif tag == "if":
            labels[s[1]] = ("branch", s[2], first(s[3]), first(s[4]))
            lower(s[3], nxt)
            lower(s[4], nxt)
        elif tag == "star":
            labels[s[1]] = ("nondet", first(s[2]), first(s[3]))
            lower(s[2], nxt)
            lower(s[3], nxt)
        else:  # while: the head is the body's continuation
            labels[s[1]] = ("branch", s[2], first(s[3]), nxt)
            lower(s[3], s[1])

    labelled = label(body)
    exit_label = counter[0] + 1
    lower(labelled, exit_label)
    return Function(name, labels, first(labelled), exit_label)


# ---------------------------------------------------------------------------
# Reference evaluation
# ---------------------------------------------------------------------------

def ev(e, env: Dict[str, int]) -> int:
    tag = e[0]
    if tag == "c":
        return e[1]
    if tag == "v":
        return env[e[1]]
    if tag == "+":
        return ev(e[1], env) + ev(e[2], env)
    if tag == "-":
        return ev(e[1], env) - ev(e[2], env)
    if tag == "*":
        return e[1] * ev(e[2], env)
    return ev(e[1], env) // e[2]  # floor division toward minus infinity


def holds(p, env: Dict[str, int]) -> bool:
    if p[0] == "and":
        return holds(p[1], env) and holds(p[2], env)
    a, b = ev(p[2], env), ev(p[3], env)
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[p[1]]


_UNMATCHED = object()


def cert_value(case: Case, fname: str, label: int, env):
    """First matching guard wins; _UNMATCHED when no guard matches."""
    for guard, expr in case.cert[(fname, label)]:
        if guard is None or holds(guard, env):
            return INF if expr is INF else ev(expr, env)
    return _UNMATCHED


def _succ(case: Case, fname: str, label: int, env):
    value = cert_value(case, fname, label, env)
    return INF if value is _UNMATCHED else value


def _uses_r(expr) -> bool:
    if expr is None:
        return False
    if expr[0] == "v":
        return expr[1] == "r"
    return any(_uses_r(x) for x in expr[1:] if isinstance(x, tuple))


def _outcomes(expr, var, env):
    """[(weight, successor env)] over the joint support of the drawn samples."""
    if var is None:
        return [(Fraction(1), env)]
    if not _uses_r(expr):
        return [(Fraction(1), dict(env, **{var: ev(expr, env)}))]
    return [(w, dict(env, **{var: ev(expr, dict(env, r=r))})) for r, w in R_OUTCOMES]


@dataclass
class Expected:
    """What every check on one case must report."""

    points: int
    skipped: int
    ranking: Tuple[bool, ...]  # one verdict per EPS_VALUES entry
    db: bool
    cdb: bool
    theta: Tuple[bool, int, int]  # (all_covered, K_max, m_star)
    sim: Tuple[int, int, int, Tuple[int, ...]]  # terminated, sum, sumsq, tail counts


def _absdiff(value, h):
    return INF if value is INF else abs(value - h)


def _max(values):
    """Maximum where INF is larger than every number."""
    return INF if any(v is INF for v in values) else max(values)


def expected(case: Case) -> Expected:
    points = skipped = 0
    terminal_ok = True
    rank_slack: Optional[Fraction] = None  # min h - successor; None = no constraint
    rank_broken = False  # a finite point whose successor is infinite
    drop = None  # max h - successor where the successor is finite (cdb drop cap)
    ejump = 0  # max expected |change| at assignments (cdb jump cap), INF possible
    jump = 0  # max per-outcome |change| (db)
    for fn in case.functions.values():
        for label in sorted(fn.nodes) + [fn.exit]:
            for m in range(BOX_LO, BOX_HI + 1):
                for n in range(BOX_LO, BOX_HI + 1):
                    env = {"m": m, "n": n}
                    h = cert_value(case, fn.name, label, env)
                    if h is _UNMATCHED:
                        skipped += 1
                        continue
                    points += 1
                    if label == fn.exit:
                        terminal_ok = terminal_ok and h == 0
                        continue
                    if h is INF:
                        continue  # every family holds trivially or is not enforced
                    node = fn.nodes[label]
                    if node[0] == "assign":
                        outs = [(w, _succ(case, fn.name, node[3], e))
                                for w, e in _outcomes(node[2], node[1], env)]
                        if any(s is INF for _, s in outs):
                            succ = INF
                            ejump = INF
                        else:
                            succ = sum(w * s for w, s in outs)
                            if ejump is not INF:
                                ejump = max(ejump, sum(w * abs(s - h) for w, s in outs))
                        diffs = [_absdiff(s, h) for _, s in outs]
                    elif node[0] == "nondet":
                        pair = [_succ(case, fn.name, t, env) for t in node[1:]]
                        succ = _max(pair)
                        diffs = [_max([_absdiff(s, h) for s in pair])]
                    else:
                        if node[0] == "call":
                            callee = case.functions["g"]
                            args = {"m": ev(node[1][0], env), "n": ev(node[1][1], env)}
                            a = _succ(case, "g", callee.entry, args)
                            b = _succ(case, fn.name, node[2], env)
                            succ = INF if INF in (a, b) else a + b
                        else:
                            target = node[2] if holds(node[1], env) else node[3]
                            succ = _succ(case, fn.name, target, env)
                        diffs = [_absdiff(succ, h)]
                    if succ is INF:
                        rank_broken = True
                    else:
                        slack = h - succ
                        rank_slack = slack if rank_slack is None else min(rank_slack, slack)
                        drop = slack if drop is None else max(drop, slack)
                    jump = _max([jump] + diffs)
    ranking = tuple(
        terminal_ok and not rank_broken and (rank_slack is None or rank_slack >= eps)
        for eps in EPS_VALUES)
    cdb = ((drop is None or drop <= case.delta)
           and ejump is not INF and ejump <= case.zeta)
    db = jump is not INF and jump <= case.zeta
    return Expected(points, skipped, ranking, db, cdb, theta(case), simulate(case))


def theta(case: Case) -> Tuple[bool, int, int]:
    """Labels that reach an assignment or the exit within a bounded number
    of steps, grown one synchronous round at a time."""
    K: Dict[Tuple[str, int], int] = {}
    for fn in case.functions.values():
        K[(fn.name, fn.exit)] = 0
        for label, node in fn.nodes.items():
            if node[0] == "assign":
                K[(fn.name, label)] = 0
    rounds = 0
    while True:
        added = {}
        for fn in case.functions.values():
            for label, node in fn.nodes.items():
                key = (fn.name, label)
                if key in K:
                    continue
                if node[0] == "call":
                    entry = (("g", case.functions["g"].entry), (fn.name, node[2]))
                    if all(x in K for x in entry):
                        added[key] = K[entry[0]] + K[entry[1]] + 1
                else:
                    targets = [(fn.name, t) for t in node[-2:]]
                    if all(t in K for t in targets):
                        added[key] = 1 + max(K[t] for t in targets)
        if not added:
            break
        K.update(added)
        rounds += 1
    total = sum(len(fn.nodes) + 1 for fn in case.functions.values())
    return len(K) == total, max(K.values()), rounds


def simulate(case: Case) -> Tuple[int, int, int, Tuple[int, ...]]:
    """Replay SIM_RUNS runs of the uniform scheduler from f(entry_vals)."""
    terminated = total = total_sq = 0
    tails = [0] * len(SIM_TAILS)
    f = case.functions["f"]
    for run in range(SIM_RUNS):
        gen = np.random.Generator(np.random.Philox(
            key=((case.sim_seed & _KEY_MASK) << 64) | run))
        draws: List[float] = []

        def uniform() -> float:
            if not draws:
                draws.extend(reversed(gen.random(256).tolist()))
            return draws.pop()

        stack = [(f, f.entry, dict(zip(PVARS, case.entry_vals)))]
        steps = 0
        while stack and steps < SIM_MAX_STEPS:
            fn, label, env = stack[-1]
            node = fn.nodes[label]
            steps += 1
            if node[0] == "call":
                callee = case.functions["g"]
                frame = (callee, callee.entry,
                         {"m": ev(node[1][0], env), "n": ev(node[1][1], env)})
                if node[2] == fn.exit:
                    stack[-1] = frame
                else:
                    stack[-1] = (fn, node[2], env)
                    stack.append(frame)
                continue
            if node[0] == "assign":
                if node[1] is not None:
                    scope = env
                    if _uses_r(node[2]):
                        scope = dict(env, r=-1 if uniform() < 0.5 else 1)
                    env = dict(env, **{node[1]: ev(node[2], scope)})
                target = node[3]
            elif node[0] == "branch":
                target = node[2] if holds(node[1], env) else node[3]
            else:
                target = node[1] if uniform() < 0.5 else node[2]
            if target == fn.exit:
                stack.pop()
            else:
                stack[-1] = (fn, target, env)
        if stack:
            tails = [t + 1 for t in tails]
        else:
            terminated += 1
            total += steps
            total_sq += steps * steps
            tails = [t + (steps >= k) for t, k in zip(tails, SIM_TAILS)]
    return terminated, total, total_sq, tuple(tails)
