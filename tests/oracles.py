"""Independent oracles used by the unit and acceptance tests.

Everything here recomputes expected values from first principles (direct
enumeration, dynamic programming, closed forms) without going through the
checker or simulator engines it is used to judge.  That includes the
interpretive reference for the compiled evaluator in `termcert._compile`:
expressions and guards walked over the AST, certificate values, and single
steps of the semantics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from extreal import INF, ZERO, ExtReal, extreal_max, extreal_sum_weighted
from termcert.certificates import CertificateError
from termcert.lab import initial_value, step_law
from termcert.lang import (And, BinOp, Cmp, Const, EvalError, InfConst, Not, Or, Pow, Var,
                           iter_statements)
from termcert.rng import make_generator
from termcert.semantics import StackElement
from termcert.valuation import Valuation

ACTION_TAU = "tau"  # the one action at a label that is not nondeterministic
ACTION_THEN = "th"
ACTION_ELSE = "el"


# ---------------------------------------------------------------------------
# Interpretive reference evaluator
# ---------------------------------------------------------------------------

def labels_of(f) -> dict:
    """label -> statement over a labelled function's body."""
    return {stmt.label: stmt for stmt in iter_statements(f.body) if stmt.label is not None}


class Runaway(Exception):
    """A power longer than the `bits` an evaluation allows."""


def eval_expr(expr, *vals, bits=None) -> Fraction:
    """Evaluate under the union of the given valuations (exact arithmetic).
    With `bits`, a power longer than that many bits raises Runaway; a base
    of size at least 2 raised past `bits` does so before it is computed."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        for v in vals:
            if expr.name in v:
                return Fraction(v[expr.name])
        raise KeyError(f"unbound variable {expr.name!r}")
    if isinstance(expr, BinOp):
        a = eval_expr(expr.left, *vals, bits=bits)
        b = eval_expr(expr.right, *vals, bits=bits)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op != "div":
            raise EvalError(f"unknown operator {expr.op!r}")
        if b.denominator != 1 or b <= 0:
            raise EvalError(f"floor division by non-positive-integer {b}")
        if a.denominator != 1:
            raise EvalError(f"floor division of non-integer {a}")
        return Fraction(a.numerator // b.numerator)
    if isinstance(expr, Pow):
        base = eval_expr(expr.base, *vals, bits=bits)
        exp = eval_expr(expr.exponent, *vals, bits=bits)
        if exp.denominator != 1 or exp < 0:
            raise EvalError(f"exponent {exp} is not a nonnegative integer")
        if bits is not None and abs(base) >= 2 and exp > bits:  # at least 2^exp
            raise Runaway
        value = base ** exp.numerator
        if bits is not None and abs(value.numerator).bit_length() > bits:
            raise Runaway
        return value
    if isinstance(expr, InfConst):
        raise EvalError("the literal inf is not a finite expression")
    raise TypeError(f"not an expression: {expr!r}")


def eval_pred(pred, *vals, bits=None) -> bool:
    if isinstance(pred, Cmp):
        a = eval_expr(pred.left, *vals, bits=bits)
        b = eval_expr(pred.right, *vals, bits=bits)
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[pred.op]
    if isinstance(pred, Not):
        return not eval_pred(pred.inner, *vals, bits=bits)
    if isinstance(pred, And):
        return eval_pred(pred.left, *vals, bits=bits) and eval_pred(pred.right, *vals, bits=bits)
    if isinstance(pred, Or):
        return eval_pred(pred.left, *vals, bits=bits) or eval_pred(pred.right, *vals, bits=bits)
    raise TypeError(f"not a predicate: {pred!r}")


def cert_match(cert, fname, label, nu):
    """The first piece of the stanza whose guard holds at `nu`, or None."""
    for piece in cert.pieces(fname, label):
        if piece.guard is None or eval_pred(piece.guard, nu):
            return piece
    return None


def cert_value(cert, fname, label, nu, is_terminal=False) -> ExtReal:
    """First-matching-guard value; inf when nothing matches, 0 at a terminal
    label without a stanza."""
    if not cert.pieces(fname, label) and is_terminal:
        return ExtReal(0)
    piece = cert_match(cert, fname, label, nu)
    if piece is None or isinstance(piece.expr, InfConst):
        return INF
    value = ExtReal(eval_expr(piece.expr, nu))
    if value < ExtReal(0):
        raise CertificateError(f"certificate value {value} at ({fname}, {label}, {nu}) is negative")
    return value


def h_at(cert, cfg, fname, label, nu):
    fn = cfg.function(fname)
    return cert_value(cert, fname, label, nu, is_terminal=label == fn.exit)


def apply_update(node, nu, mu, bits=None) -> Valuation:
    """The valuation after an assignment node (`cfg.Update`)."""
    if node.var is None:
        return nu
    value = eval_expr(node.expr, nu, mu, bits=bits)
    assert value.denominator == 1
    return Valuation({var: value.numerator if var == node.var else old
                      for var, old in zip(nu.variables, nu.values)})


def box_points(box, variables):
    """All valuations of the box over `variables`, lexicographic in sorted order."""
    names = tuple(sorted(variables))
    for combo in box.tuples(names):
        yield Valuation(dict(zip(names, combo)))


def pass_values(site, nu, bits=None) -> Valuation:
    """The callee's entry valuation at a call node (`cfg.CallSite`)."""
    bindings = {v: 0 for v in site.callee_vars}
    for param, arg in zip(site.params, site.args):
        bindings[param] = int(eval_expr(arg, nu, bits=bits))
    return Valuation(bindings)


@dataclass(frozen=True)
class MdpState:
    """A state of the semantics: a configuration and the previous step's
    joint sample."""

    config: Tuple[StackElement, ...]  # first element = top of the call stack
    sample: Valuation

    @property
    def terminated(self) -> bool:
        return not self.config


def step(state, action, mu_prime, cfg, bits=None) -> MdpState:
    """One transition of the semantics under the fresh joint sample
    `mu_prime`, which the state keeps and an assignment consumes.  The
    empty configuration is absorbing; `action` is read only at a
    nondeterministic label.  `bits` bounds every power (`eval_expr`)."""
    if state.terminated:
        return MdpState((), mu_prime)
    top, rest = state.config[0], state.config[1:]
    fn = cfg.function(top.fname)
    cls, node = fn.label_class(top.label), fn.nodes[top.label]
    nu = top.valuation
    if cls == "call":
        callee = StackElement(node.callee, cfg.function(node.callee).entry,
                              pass_values(node, nu, bits))
        if node.target != fn.exit:
            rest = (StackElement(top.fname, node.target, nu),) + rest
        return MdpState((callee,) + rest, mu_prime)
    if cls == "assignment":
        nu = apply_update(node, nu, mu_prime, bits)
        target = node.target
    elif cls == "branching":
        target = node.yes if eval_pred(node.pred, nu, bits=bits) else node.no
    else:
        target = node.then if action == ACTION_THEN else node.orelse
    if target == fn.exit:
        return MdpState(rest, mu_prime)
    return MdpState((StackElement(top.fname, target, nu),) + rest, mu_prime)


def sample_from_uniform(thresholds, u: float) -> int:
    """Inverse CDF: the first value whose cumulative threshold exceeds u."""
    for cutoff, v in thresholds:
        if u < cutoff:
            return v
    return thresholds[-1][1]


def draws(dist, seed, stream, n):
    """n samples of `dist` as the simulator draws them: inverse CDF over the
    uniforms of the stream (seed, stream)."""
    return [sample_from_uniform(dist.thresholds(), u)
            for u in make_generator(seed, stream).random(n).tolist()]


VALUE_BITS = 4096  # a coin run ends once a value or a power grows past this many bits


def grows(expr) -> bool:
    """Whether `expr` multiplies, which can add more than one bit to a
    value: the simulator censors a run at a value past VALUE_BITS bits
    computed by such an expression, and at any power past VALUE_BITS bits
    (see `eval_expr`)."""
    if isinstance(expr, BinOp) and expr.op == "*":
        return True
    if isinstance(expr, Pow):
        return grows(expr.base) or grows(expr.exponent)
    return isinstance(expr, BinOp) and (grows(expr.left) or grows(expr.right))


def coin_run(cfg, sf, entry, seed, max_steps):
    """The states of one run from `entry`, of at most `max_steps` steps, that
    flips a fair coin at each nondeterministic label.  Coins and each step's
    joint sample are drawn from the stream (seed, 0), through the
    simulator's sampler.  The run also ends at a state holding a value of
    more than VALUE_BITS bits, and before a step that computes a power
    longer than that: an update such as `m := m * m * (-1 - m)` cubes its
    value on every loop turn, and exact arithmetic on such values would not
    finish within the step bound's worth of time."""
    us = iter(make_generator(seed).random((1 + len(sf.variables)) * max_steps).tolist())
    states = [MdpState((entry,), Valuation({}))]
    while not states[-1].terminated and len(states) <= max_steps and all(
            abs(value).bit_length() <= VALUE_BITS
            for element in states[-1].config for value in element.valuation.values):
        top = states[-1].config[0]
        action = ACTION_TAU
        if cfg.function(top.fname).label_class(top.label) == "nondet":
            action = ACTION_THEN if next(us) < 0.5 else ACTION_ELSE
        mu = Valuation({s: sample_from_uniform(sf.dist(s).thresholds(), next(us))
                        for s in sf.variables})
        try:
            states.append(step(states[-1], action, mu, cfg, VALUE_BITS))
        except Runaway:
            break
    return states


def greedy_takes_then(cert, kind, cfg, top) -> bool:
    """greedy-max takes the larger certificate value, greedy-min the smaller,
    both the then-branch on ties."""
    star = cfg.function(top.fname).nodes[top.label]
    t_then, t_else = star.then, star.orelse
    h_then = h_at(cert, cfg, top.fname, t_then, top.valuation)
    h_else = h_at(cert, cfg, top.fname, t_else, top.valuation)
    return h_then >= h_else if kind == "greedy-max" else h_then <= h_else


# ---------------------------------------------------------------------------
# Successor profiles and brute-force certificate bounds
# ---------------------------------------------------------------------------

def successor_profile(cert, cfg, sf, fname, label, nu):
    """(kind, data) describing the h-values one step after (fname, label, nu)."""
    fn = cfg.function(fname)
    cls = fn.label_class(label)
    if cls == "terminal":
        return ("terminal", None)
    node = fn.nodes[label]
    if cls == "assignment":
        outcomes = []
        for mu, w in sf.joint_support_over(node.sampling_vars):
            outcomes.append((w, h_at(cert, cfg, fname, node.target, apply_update(node, nu, mu))))
        return ("assignment", outcomes)
    if cls == "call":
        callee = cfg.function(node.callee)
        total = (h_at(cert, cfg, node.callee, callee.entry, pass_values(node, nu))
                 + h_at(cert, cfg, fname, node.target, nu))
        return ("one", total)
    if cls == "branching":
        target = node.yes if eval_pred(node.pred, nu) else node.no
        return ("one", h_at(cert, cfg, fname, target, nu))
    return ("pair", (h_at(cert, cfg, fname, node.then, nu),
                     h_at(cert, cfg, fname, node.orelse, nu)))


def point_conditions(kind, params, cert, cfg, sf, fname, label, nu):
    """(condition, holds, lhs, rhs, detail) for every condition of family
    `kind` at a covered point, from the paper's definitions in ExtReal.

    `params` maps eps/delta/zeta to Fractions.  A family other than
    ranking binds its difference conditions only where h is finite; a
    demonic label (call, branch, star) is judged by its worst successor;
    the per-outcome cap names the first outcome of the joint support that
    breaks it.
    """
    fn = cfg.function(fname)
    cls = fn.label_class(label)
    h = h_at(cert, cfg, fname, label, nu)
    eps, delta, zeta = (None if params.get(k) is None else ExtReal(params[k])
                        for k in ("eps", "delta", "zeta"))
    out = []
    if cls == "terminal":
        if kind in ("ranking", "super"):
            out.append(("terminal-zero", h == ZERO, str(h), "0", ""))
        return out
    if kind == "super":
        out.append(("nonterminal-nonzero", h != ZERO, str(h), "> 0", ""))
    if kind != "ranking" and h.is_infinite:
        return out
    _, data = successor_profile(cert, cfg, sf, fname, label, nu)

    if cls == "assignment":
        svars = fn.nodes[label].sampling_vars
        texts = [", ".join(f"{s}={mu[s]}" for s in svars)
                 for mu, _ in sf.joint_support_over(svars)]
        mean = ZERO
        for w, value in data:
            mean = mean + ExtReal(w) * value
        if kind == "ranking":
            out.append(("assign-expected-decrease", eps + mean <= h, str(eps + mean), str(h), ""))
            return out
        change = ZERO
        for w, value in data:
            change = change + ExtReal(w) * abs(value - h)
        cap = ("assign-jump-cap", True, "", "", "")
        for (_, value), text in zip(data, texts):
            if not abs(value - h) <= zeta:
                cap = ("assign-jump-cap", False, str(abs(value - h)), str(zeta),
                       f"outcome {{{text}}}")
                break
        if kind == "cdb":
            out.append(("assign-expected-drop-cap", h <= delta + mean, str(delta + mean),
                        str(h), ""))
            out.append(("assign-expected-jump-cap", change <= zeta, str(change), str(zeta), ""))
        elif kind == "db":
            out.append(cap)
        else:
            out.append(("assign-no-increase", mean <= h, str(mean), str(h), ""))
            out.append(cap)
            out.append(("assign-jump-floor", change >= delta, str(change), str(delta), ""))
        return out

    prefix = {"call": "call", "branching": "branch", "nondet": "nondet"}[cls]
    succs = list(data) if cls == "nondet" else [data]
    worst = succs[0]
    for value in succs[1:]:
        worst = extreal_max(worst, value)
    if kind == "ranking":
        out.append((f"{prefix}-decrease", eps + worst <= h, str(eps + worst), str(h), ""))
    elif kind == "cdb":
        out.append((f"{prefix}-drop-cap", h <= delta + worst, str(delta + worst), str(h), ""))
    else:
        if kind == "super":
            out.append((f"{prefix}-no-increase", worst <= h, str(worst), str(h), ""))
        jump = abs(succs[0] - h)
        for value in succs[1:]:
            jump = extreal_max(jump, abs(value - h))
        out.append((f"{prefix}-jump-cap", jump <= zeta, str(jump), str(zeta), ""))
    return out


def check_report(kind, params, cert, cfg, sf, intervals):
    """What a check of family `kind` over the box `intervals` (variable ->
    (lo, hi)) reports: verdict, point counts, and per (function, label,
    condition) the first failing point, scanning functions by name, labels
    in order and points lexicographically in the function's variable order.
    A point none of the stanza's guards covers is skipped (a terminal label
    without a stanza is 0).  An evaluation error ends the scan; its type is
    returned instead."""
    first = {}
    points = skipped = conditions = 0
    try:
        for fn in sorted(cfg.functions, key=lambda f: f.name):
            for label in fn.labels():
                ranges = [range(intervals[v][0], intervals[v][1] + 1) for v in fn.pvars]
                for combo in itertools.product(*ranges):
                    nu = Valuation(dict(zip(fn.pvars, combo)))
                    bare_exit = label == fn.exit and not cert.pieces(fn.name, label)
                    if not bare_exit and cert_match(cert, fn.name, label, nu) is None:
                        skipped += 1
                        continue
                    points += 1
                    for name, holds, lhs, rhs, detail in point_conditions(
                            kind, params, cert, cfg, sf, fn.name, label, nu):
                        conditions += 1
                        if not holds:
                            first.setdefault((fn.name, label, name), {
                                "function": fn.name, "label": label, "condition": name,
                                "point": dict(zip(fn.pvars, combo)),
                                "lhs": lhs, "rhs": rhs, "detail": detail})
    except (EvalError, CertificateError) as exc:
        return type(exc)
    return {
        "passed": not first,
        "points_checked": points,
        "points_skipped": skipped,
        "conditions_checked": conditions,
        "failures": [first[key] for key in sorted(first)],
    }


def brute_force_min_delta(cert, cfg, sf, box):
    """Smallest delta for which every expected-drop cap holds on the box."""
    worst = Fraction(0)
    for fn in cfg.functions:
        for label in fn.labels():
            for nu in box_points(box, fn.pvars):
                if cert_match(cert, fn.name, label, nu) is None:
                    continue
                h_here = h_at(cert, cfg, fn.name, label, nu)
                if h_here.is_infinite:
                    continue
                kind, data = successor_profile(cert, cfg, sf, fn.name, label, nu)
                if kind == "assignment":
                    succ = extreal_sum_weighted(data)
                elif kind == "one":
                    succ = data
                elif kind == "pair":
                    succ = data[0] if data[1] <= data[0] else data[1]
                else:
                    continue
                if succ.is_infinite:
                    continue
                worst = max(worst, h_here.fraction - succ.fraction)
    return worst


def brute_force_max_jump(cert, cfg, sf, box):
    """Largest per-outcome |h-change| over finite-valued box points."""
    worst = Fraction(0)
    saw_infinite = False
    for fn in cfg.functions:
        for label in fn.labels():
            for nu in box_points(box, fn.pvars):
                if cert_match(cert, fn.name, label, nu) is None:
                    continue
                h_here = h_at(cert, cfg, fn.name, label, nu)
                if h_here.is_infinite:
                    continue
                kind, data = successor_profile(cert, cfg, sf, fn.name, label, nu)
                if kind == "assignment":
                    values = [h for _, h in data]
                elif kind == "one":
                    values = [data]
                elif kind == "pair":
                    values = list(data)
                else:
                    values = []
                for value in values:
                    if value.is_infinite:
                        saw_infinite = True
                    else:
                        worst = max(worst, abs(value.fraction - h_here.fraction))
    return worst, saw_infinite


# ---------------------------------------------------------------------------
# Exact walk-termination law (loop variant of the symmetric random walk).
#
# From the loop head with counter 1, the run alternates guard and sampling
# steps, so hitting 0 after j walk steps means terminating after 2j+1
# machine steps: T = 2*tau + 1, with tau the walk's first passage to 0.
# ---------------------------------------------------------------------------

def walk_first_passage_survival_dp(max_steps: int) -> np.ndarray:
    """P(tau > m) for m = 0..max_steps by dynamic programming over
    (step, position), with absorption at 0."""
    mass = np.zeros(max_steps + 2, dtype=np.float64)
    mass[1] = 1.0
    survival = np.empty(max_steps + 1, dtype=np.float64)
    survival[0] = 1.0
    for m in range(1, max_steps + 1):
        nxt = np.zeros_like(mass)
        nxt[:-2] += mass[1:-1] / 2
        nxt[2:] += mass[1:-1] / 2
        nxt[0] = 0.0  # absorbed
        mass = nxt
        survival[m] = mass[1:].sum()
    return survival


def walk_first_passage_survival_exact(m: int) -> Fraction:
    """P(tau > m) in closed form: the chance a length-m path stays >= 0."""
    return Fraction(math.comb(m, m // 2), 2 ** m)


def walk_loop_tail_exact(k: int) -> Fraction:
    """P(T >= k) for the loop-variant machine-step count T = 2*tau + 1."""
    j = (k + 1) // 2  # T >= k  iff  tau >= ceil((k-1)/2) = j
    if j <= 0:
        return Fraction(1)
    return walk_first_passage_survival_exact(j - 1)


# ---------------------------------------------------------------------------
# Process lab: per-run scalar reference of `termcert.lab`'s vector kernels.
# Both read the draws in the layout the kernels were first written with:
# the random walk takes one (alive, block) int8 `integers` call per block,
# row i stepping the i-th run still alive; the two-point processes take one
# `random(alive)` call per step, entry i for the i-th run still alive.
# The laws themselves come from `lab.step_law` and `lab.initial_value`.
# ---------------------------------------------------------------------------

def walk_stopping_times(gen, runs: int, horizon: int) -> list:
    """T per run (0 = censored) of the +-1 walk from 1, absorbed at 0."""
    T, x = [0] * runs, [1] * runs
    alive, done = list(range(runs)), 0
    while alive and done < horizon:
        block = min(max(64, min(4096, 4_000_000 // len(alive))), horizon - done)
        still = []
        for i, row in zip(alive, gen.integers(0, 2, size=(len(alive), block),
                                              dtype=np.int8).tolist()):
            for j, up in enumerate(row):
                x[i] += 1 if up else -1
                if x[i] <= 0:
                    T[i] = done + j + 1
                    break
            else:
                still.append(i)
        alive, done = still, done + block
    return T


def two_point_stopping_times(gen, tag: str, alpha, runs: int, horizon: int) -> list:
    """T per run (0 = censored) of a two-point lab process."""
    T, x = [0] * runs, [initial_value(tag)] * runs
    alive = list(range(runs))
    for n in range(1, horizon + 1):
        if not alive:
            break
        (up, p_up), (down, _) = step_law(tag, n, alpha if tag == "noconcentration" else None)
        still = []
        for i, u in zip(alive, gen.random(len(alive)).tolist()):
            x[i] += up if u < p_up else down
            if x[i] <= 0:
                T[i] = n
            else:
                still.append(i)
        alive = still
    return T
