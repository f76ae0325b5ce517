"""The single evaluator of termcert: expressions, guards, certificate
stanzas, the checker's point loops and the simulator's run loop, compiled
to Python.

Everything that evaluates a program or a certificate goes through here.
`stanza_source` renders a certificate stanza, for `Certificate.value`, the
greedy schedulers and the checker.  The checker's `compile_successors`
renders the certificate values one step after a point of a label, and
`scan_source` the loop over a label's box points that tests a family's
conditions, written as rows of inequalities (`checker._KINDS`).
`compile_runner` emits one run loop over the node table's resume points.
The interpretive reference that the tests compare against lives in
`tests/oracles.py`.

Arithmetic stays exact: program values are Python ints, certificate values
ints or Fractions, and the helpers enforce the integer-arithmetic side
conditions (integer operands and a positive divisor for `div`, a
nonnegative integer exponent for `^`).  A certificate value is an int or
Fraction when finite and None for infinity, also at points none of a
stanza's guards cover, where the checker's stanza returns `MISS` instead.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Dict, Optional, Tuple

from .lang import (_PRECEDENCE, And, BinOp, Cmp, Const, EvalError, Expr, InfConst, Not, Or, Pow,
                   Pred, Var)

MISS = object()


def _idiv(a, b):
    if type(a) is int and type(b) is int and b > 0:
        return a // b
    if b <= 0:
        raise EvalError(f"floor division by non-positive value {b}")
    if isinstance(b, Fraction) and b.denominator != 1:
        raise EvalError(f"floor division by non-integer {b}")
    if isinstance(a, Fraction) and a.denominator != 1:
        raise EvalError(f"floor division of non-integer {a}")
    return a // b


def _ipow(a, b):
    if type(b) is int and b >= 0:
        return a ** b
    if b < 0 or (isinstance(b, Fraction) and b.denominator != 1):
        raise EvalError(f"exponent {b} is not a nonnegative integer")
    return a ** int(b)


def point_text(fname: str, label: int, pvars: Tuple[str, ...], vals: tuple) -> str:
    """A stack element as error messages name it: (f, 1, {n=3})."""
    point = ", ".join(f"{k}={val}" for k, val in zip(pvars, vals))
    return f"({fname}, {label}, {{{point}}})"


def _negative(x, v, fname, label, pvars):
    from .certificates import CertificateError

    raise CertificateError(
        f"certificate value {x} at {point_text(fname, label, pvars, v)} is negative")


VALUE_BITS = 4096  # a run loop value longer than this, made by `*` or `^`, censors its run


class Runaway(Exception):
    """A run loop's power is longer than VALUE_BITS bits: the run is censored."""


def _rpow(a, b):
    """`a ^ b` on ints, raising Runaway if longer than VALUE_BITS bits.  A
    power has at least (L-1)·b + 1 bits, L being a's length; when that is
    too long it is never computed, so none of 2·VALUE_BITS bits or more is."""
    if (abs(a).bit_length() - 1) * b >= VALUE_BITS or (x := _ipow(a, b)).bit_length() > VALUE_BITS:
        raise Runaway
    return x


def _cpow(a, b):
    """`a ^ b` in the checker's program code and in certificate stanzas,
    raising an EvalError, before computing it, where `_rpow`'s first test
    fails on the longer of `a`'s numerator and denominator (an int's are
    itself and 1), whose power is the numerator or denominator of a ^ b."""
    if b > 0 and b.denominator == 1 and (max(abs(a.numerator).bit_length(),
                                             a.denominator.bit_length()) - 1) * b >= VALUE_BITS:
        raise EvalError(f"power longer than {VALUE_BITS} bits")
    return _ipow(a, b)


_NAMESPACE = {"F": Fraction, "_idiv": _idiv, "_ipow": _ipow, "_rpow": _rpow, "_cpow": _cpow,
              "_negative": _negative, "MISS": MISS, "EvalError": EvalError,
              "Runaway": Runaway, "point_text": point_text, "mul": mul, "abs": abs,
              "max": max, "sum": sum, "map": map, "zip": zip, "__builtins__": {}}


def expr_code(expr: Expr, names: Dict[str, str], parent: int = 0,
              power: Optional[str] = None) -> str:
    """Render `expr` as Python source, each variable as `names` renders it,
    in parentheses only where the operator around it, of precedence
    `parent`, needs them; so a left-deep sum of any length has none for
    CPython's limit of 200 nested parentheses to count.  A program
    expression names its `power` helper, the checker's `_cpow` or the run
    loop's `_rpow`; as its values are ints, a `div` by a positive integer
    literal is `//`.  A certificate's (no `power`) keeps `_idiv`, and its
    powers are `_cpow`'s too."""
    if isinstance(expr, Const):
        value = expr.value
        if value.denominator == 1:
            return repr(value.numerator)
        return f"F({value.numerator}, {value.denominator})"
    if isinstance(expr, Var):
        if expr.name in names:
            return names[expr.name]
        raise EvalError(f"unbound variable {expr.name!r}")
    if isinstance(expr, BinOp):
        op, right = expr.op, expr.right
        if op == "div":
            if not (power and isinstance(right, Const) and right.value.denominator == 1
                    and right.value > 0):
                return (f"_idiv({expr_code(expr.left, names, 0, power)}, "
                        f"{expr_code(right, names, 0, power)})")
            op = "//"
        prec = _PRECEDENCE[expr.op]
        text = (f"{expr_code(expr.left, names, prec, power)} {op} "
                f"{expr_code(right, names, prec + 1, power)}")
        return f"({text})" if prec < parent else text
    if isinstance(expr, Pow):
        return (f"{power or '_cpow'}({expr_code(expr.base, names, 0, power)}, "
                f"{expr_code(expr.exponent, names, 0, power)})")
    if isinstance(expr, InfConst):
        raise EvalError("inf cannot appear inside an arithmetic expression")
    raise TypeError(f"not an expression: {expr!r}")


def pred_code(pred: Pred, names: Dict[str, str], power: Optional[str] = None) -> str:
    if isinstance(pred, Cmp):
        return (f"({expr_code(pred.left, names, 0, power)} {pred.op} "
                f"{expr_code(pred.right, names, 0, power)})")
    if isinstance(pred, Not):
        return f"(not {pred_code(pred.inner, names, power)})"
    if isinstance(pred, And):
        return f"({pred_code(pred.left, names, power)} and {pred_code(pred.right, names, power)})"
    if isinstance(pred, Or):
        return f"({pred_code(pred.left, names, power)} or {pred_code(pred.right, names, power)})"
    raise TypeError(f"not a predicate: {pred!r}")


@lru_cache(maxsize=2048)
def compile_lambda(source: str) -> Callable:
    """The function that `source`, a lambda or one `def`, makes; random and
    repeated programs share many.  Code that Python cannot compile, such as
    an operator chain the parser accepts that nests more than 200
    parentheses deep, raises an EvalError."""
    scope: Dict[str, Callable] = {}
    try:
        exec(source if source.startswith("def ") else f"_ = {source}", _NAMESPACE, scope)
    except (SyntaxError, RecursionError) as exc:
        raise EvalError("expression nested too deeply to compile: Python allows 200 nested"
                        f" parentheses ({getattr(exc, 'msg', exc)})") from None
    return scope.popitem()[1]


def _slots(names: Tuple[str, ...], seq: str) -> Dict[str, str]:
    """Each name rendered as its slot of the tuple `seq`."""
    return {name: f"{seq}[{i}]" for i, name in enumerate(names)}


def _tuple(items) -> str:
    return f"({''.join(item + ', ' for item in items)})"


def _args_code(site, names: Dict[str, str], power: str) -> list:
    """The code of each value of the callee at a call node (`cfg.CallSite`):
    parameters bound, locals zero."""
    by_param = dict(zip(site.params, site.args))
    return [expr_code(by_param[name], names, 0, power) if name in by_param else "0"
            for name in site.callee_vars]


_BOTH = "return (None if a is MISS else a, None if b is MISS else b)"  # two stanzas' values


def compile_successors(cert, cfg, sf, fn, label: int) -> Tuple[Callable, tuple, tuple]:
    """(succ, W, outs) at a label of `fn`: `succ(v)` is the certificate
    values one step after the point `v`, each an int, Fraction or None (inf,
    also where no guard covers the point).  An assignment's are one per
    outcome of its joint support, whose weights are `W` and texts `outs`; a
    call's the callee entry's and the return label's, whose sum is its
    successor's; a branch's its taken target's, and a star's its targets'.
    The node's code is compiled first, then the stanzas, each expression as
    deep in brackets as in a lambda of its own.  At the exit, `succ` is None."""
    if label == fn.exit:
        return None, (), ()
    node, names, args, weights, outs = fn.nodes[label], _slots(fn.pvars, "v"), [], (), ()
    targets = [(fn.name, target) for target in node.targets]
    if node.kind == "assignment":
        svars, support = node.sampling_vars, list(sf.joint_support_over(node.sampling_vars))
        update = "v" if node.var is None else _tuple(
            expr_code(node.expr, {**_slots(svars, "m"), **names}, 0, "_cpow")
            if name == node.var else code for name, code in names.items())
        body = ["xs = []", "for m in moves:", f"    x = after({update})" if update == "v" else
                f"    u = {update}; x = after(u)", "    xs.append(None if x is MISS else x)",
                "return xs"]
        args = [[tuple(mu[s] for s in svars) for mu, _ in support]]
        weights = tuple(w for _, w in support)
        outs = tuple("outcome {" + ", ".join(f"{s}={mu[s]}" for s in svars) + "}"
                     for mu, _ in support)
    elif node.kind == "call":
        body = [f"u = {_tuple(_args_code(node, names, '_cpow'))}", "a, b = enter(u), back(v)",
                _BOTH]
        targets.insert(0, (node.callee, cfg.function(node.callee).entry))
    elif node.kind == "branching":
        body = [f"x = yes(v) if {pred_code(node.pred, names, '_cpow')} else no(v)",
                "return (None if x is MISS else x,)"]
    else:
        body = ["a, b = yes(v), no(v)", _BOTH]
    params = "enter, back" if node.kind == "call" else "moves, after" if args else "yes, no"
    make = compile_lambda(f"def make({params}):\n    def succ(v):\n"
                          + "".join(f"        {line}\n" for line in body) + "    return succ\n")
    stanzas = (cert._stanza(f, t, cfg.function(f).pvars, t == cfg.function(f).exit)
               for f, t in targets)
    return make(*args, *stanzas), weights, outs


_MEANS = {  # label class -> E and D over its successor values xs (scan_source)
    "assignment": ("sum(map(mul, W, xs))", "sum([w * abs(x - h) for w, x in zip(W, xs)])"),
    "call": ("xs[0] + xs[1]", "abs(xs[0] + xs[1] - h)"),
    "branching": ("xs[0]", "abs(xs[0] - h)"),
    "nondet": ("max(xs)", "max(abs(xs[0] - h), abs(xs[1] - h))"),
}


def scan_source(label_class: str, rows, finite_only: bool, plain: bool) -> str:
    """Source of the checker's point loop at a label of `label_class`:
    `scan(points, here, succ, W, outs, eps, delta, zeta, seen, unit)`
    returns (points checked, skipped, infinite).  It skips a point where
    the stanza `here` returns MISS; at a covered point, with value `h`, each
    condition that fails there and that `seen` lacks sets `seen[name] =
    (point, lhs, rhs, detail)`.  They are `terminal-zero` at the exit or
    `nonterminal-nonzero` elsewhere, if `plain`, then, unless `h` is inf and
    `finite_only`, each row `(name, lhs, op, rhs)` (`checker._Kind`), inf
    (None) being largest, with `E` and `D` over the successor values
    `succ(v)` as `_MEANS` has them and `J` each outcome's change at an
    assignment, naming the first of `outs` to fail, and `D` elsewhere.  An
    EvalError is raised again naming the point, `unit` being its (function,
    label, variables)."""
    names = {code: {word for word in "".join(c if c.isalnum() else " " for c in code).split()
                    if word in ("h", "E", "D", "J")}  # the values an operand reads
             for _, lhs, _, rhs in rows for code in (lhs, rhs)}
    used, assign = set().union(*names.values()), label_class == "assignment"

    def operand(code):  # None (inf) where a value in it is
        return code if code in names[code] or not names[code] else \
            f"None if {' or '.join(n + ' is None' for n in sorted(names[code]))} else {code}"

    def fails(op):  # not (small <= big), None (inf) being largest
        small, big = ("l", "r") if op == "<=" else ("r", "l")
        return f"{big} is not None and ({small} is None or {small} > {big})"

    pad = " " * 12
    lines = ["def scan(points, here, succ, W, outs, eps, delta, zeta, seen, unit):",
             "    checked = skipped = infinite = 0", "    try:", "        for v in points:",
             pad + "h = here(v)", pad + "if h is MISS:", pad + "    skipped += 1",
             pad + "    continue", pad + "checked += 1"]
    if plain:
        name, test, rhs = (("terminal-zero", "h != 0", "0") if label_class == "terminal"
                           else ("nonterminal-nonzero", "h == 0", "'> 0'"))
        lines.append(pad + f"if {test} and {name!r} not in seen: "
                     f"seen[{name!r}] = (v, h, {rhs}, '')")
    if rows:
        lines += [pad + "if h is None:", pad + "    infinite += 1",
                  pad + "    continue"] * finite_only + [pad + "xs = succ(v)"]
        spread = "D" in used or "J" in used and not assign
        if "E" in used or spread:
            mean, change = _MEANS[label_class]
            lines += [pad + "if None in xs:", pad + "    E = D = J = None", pad + "else:"]
            lines += [pad + "    E = " + mean] * ("E" in used)
            lines += [pad + "    D = J = " + change] * spread
        for name, lhs, op, rhs in rows:
            test, record = fails(op), f"{name!r} not in seen: seen[{name!r}]"
            if assign and "J" in names[lhs] | names[rhs]:
                lines += [pad + "for x, o in zip(xs, outs):",
                          pad + "    J = None if x is None else abs(x - h)",
                          pad + f"    l = {operand(lhs)}; r = {operand(rhs)}",
                          pad + f"    if {test}:",
                          pad + f"        if {record} = (v, l, r, o)", pad + "        break"]
            else:
                lines += [pad + f"l = {operand(lhs)}; r = {operand(rhs)}",
                          pad + f"if ({test}) and {record} = (v, l, r, '')"]
    return "\n".join(lines + [
        "    except EvalError as e:",
        '        raise EvalError(f"{e} at {point_text(*unit, v)}") from None',
        "    return checked, skipped, infinite", ""])


_NESTING = 40  # branch levels per block; deeper code starts a block of its own
_DRAW = "pop() if dr else nxt()"  # the run's next uniform draw (compile_runner)


def _censor_long(pad: str, values) -> list:
    """The lines that censor the run when a value just computed is longer
    than VALUE_BITS bits, for each (value, code) pair of `values` whose code
    multiplies: `_rpow` bounds a power, and no other operation adds more
    than a bit."""
    return [pad + f"if {value}.bit_length() > {VALUE_BITS}: return"
            for value, code in values if "*" in code]


def compile_runner(cfg, sf, kind: str, entry: Tuple[str, int]) -> Tuple[Callable, list, tuple]:
    """(make, stars, cuts): `make(nxt, dr, cap, *choosers)` returns `run(v)`,
    which runs from `entry` with the values `v` and returns its steps, or
    None if it is censored; `stars` lists each chooser's (function, then,
    else), and `cuts` the constants `run` compares draws with, in order.

    `run` is one loop over the resume points (a function's entry, a call's
    return label, a label with more than one predecessor, `entry`, a branch
    target nested _NESTING deep), each a `pc` found by a balanced tree of
    `pc < k` tests.  A resume point's block unpacks `v`, censors the run if
    its steps `st` have reached the cap `cap`, and runs its function's
    labels, branching as they do, until a call, the exit or another resume
    point, and loops at its own label.  Each path through a block adds its
    number of labels to `st` once, at its end; a label's ill-defined
    arithmetic (an EvalError, raised again naming its label) censors the run
    instead where the label lies past the cap, and a greedy star tests the
    cap before its chooser, whose EvalError is raised again naming the point
    and which can raise CertificateError.  A call pushes
    (return pc, values) on the run's frame stack, unless it is its
    function's last step, and enters the callee; the exit pops a frame, or
    ends the run, censored if `st` passed the cap, when none is left.  An
    assignment or call argument that `*` makes longer than VALUE_BITS bits
    censors the run, and so does any `^` longer than that (`_rpow`).  Stars
    follow the scheduler `kind`: always-then, always-else, a uniform draw
    below 0.5 (uniform) or a chooser (greedy-*).  A sampling variable maps a
    uniform draw u to the first value whose cumulative threshold exceeds u,
    or else the last value.  A uniform draw pops the list `dr` (the run's
    next draws, last first) and calls `nxt()`, which refills it and returns
    the next draw, only when `dr` is empty.
    """
    todo = []  # the resume points by pc; grows while it is read, by the deeply nested targets
    for fn in cfg.functions:
        indegree = Counter(t for node in fn.nodes.values() for t in node.targets)
        starts = {fn.entry, *(node.target for node in fn.nodes.values() if node.kind == "call"),
                  *(label for label, n in indegree.items() if n > 1)}
        if fn.name == entry[0]:
            starts.add(entry[1])
        todo += ((fn.name, label) for label in sorted(starts - {fn.exit}))
    pcs, stars, cuts = {point: pc for pc, point in enumerate(todo)}, [], set()
    blocks = [_block(cfg, sf, cfg.function(fname), start, pcs, todo, kind, stars, cuts)
              for fname, start in todo]
    free = ["nxt", "dr", "cap", *(f"c{k}" for k in range(len(stars)))]
    lines = [f"def make({', '.join(free)}):",  # their values, and dr.pop, as run's own locals
             f"    def run(v, pop=dr.pop, {', '.join(f'{n}={n}' for n in free)}):",
             f"        pc, st, stk = {pcs[entry]}, 0, []", "        try:",
             "          while True:"]

    def tree(lo, hi, pad):  # the blocks of pcs lo..hi-1
        if hi - lo == 1:
            return lines.extend(pad + line for line in blocks[lo])
        mid = (lo + hi) // 2
        lines.append(f"{pad}if pc < {mid}:")
        tree(lo, mid, pad + "    ")
        lines.append(f"{pad}else:")
        tree(mid, hi, pad + "    ")

    tree(0, len(blocks), "            ")
    del tree  # it calls itself through a closure cell: a cycle, as in `_block`
    lines.append("        except Runaway: return")
    return compile_lambda("\n".join([*lines, "    return run", ""])), stars, tuple(sorted(cuts))


def _block(cfg, sf, fn, start, pcs, todo, kind, stars, cuts) -> list:
    """The source lines of the block of `fn` at `start` (compile_runner)."""
    names = {var: f"x{i}" for i, var in enumerate(fn.pvars)}
    fresh = _tuple(names.values())
    lines = [f"{fresh} = v", "while True:", "    if st >= cap: return"]

    def inline(label):
        return label != fn.exit and label != start and (fn.name, label) not in pcs

    def run(label, pad, vals, k):
        """Emit `label`, after k labels of its path, and the labels after it
        up to the jump ending the path."""
        while True:
            at = f"st + {k}" if k else "st"  # the steps before `label`
            where = [pad + "except EvalError as e:", pad + f"    if {at} >= cap: return",
                     pad + f'    raise EvalError(f"{{e}} at ({fn.name}, {label})") from None']
            node = fn.nodes[label]
            if node.kind == "nondet" and kind.startswith("always"):
                target = node.orelse if kind == "always-else" else node.then
            elif node.kind in ("branching", "nondet"):
                yes, no = node.targets
                if node.kind == "branching":
                    test = pred_code(node.pred, names, "_rpow")
                elif kind == "uniform":
                    test = f"({_DRAW}) < 0.5"
                    cuts.add(0.5)
                else:
                    test = f"c{len(stars)}({', '.join(names.values())})"
                    stars.append((fn, yes, no))
                    lines.append(pad + f"if {at} >= cap: return")
                    point = f"{{point_text({fn.name!r}, {label}, {fn.pvars!r}, {fresh})}}"
                    where = [where[0], pad + f'    raise EvalError(f"{{e}} at {point}") from None']
                lines.extend([pad + f"try: b = {test}", *where, pad + "if b:"])
                goto(yes, pad + "    ", vals, k + 1)
                lines.append(pad + "else:")
                goto(no, pad + "    ", vals, k + 1)
                return
            elif node.kind == "call":
                if node.target != fn.exit:
                    lines.append(pad + f"stk.append(({pcs[fn.name, node.target]}, {vals}))")
                args = _args_code(node, names, "_rpow")
                lines.extend([pad + f"try: v = {_tuple(args)}", *where,
                              *_censor_long(pad, ((f"v[{i}]", a) for i, a in enumerate(args))),
                              pad + f"st += {k + 1}; "
                              f"pc = {pcs[node.callee, cfg.function(node.callee).entry]}; break"])
                return
            else:
                drawn = {}
                for j, svar in enumerate(node.sampling_vars):
                    *below, (_, last) = sf.dist(svar).thresholds()
                    cuts.update(cut for cut, _ in below)
                    chain = "".join(f"{value!r} if u < {cut!r} else " for cut, value in below)
                    lines.append(pad + f"u = {_DRAW}; m{j} = {chain}{last!r}")
                    drawn[svar] = f"m{j}"
                if node.var is not None:
                    code = expr_code(node.expr, {**drawn, **names}, 0, "_rpow")
                    lines.extend([pad + f"try: {names[node.var]} = {code}", *where,
                                  *_censor_long(pad, [(names[node.var], code)])])
                    vals = fresh
                target = node.target
            k += 1
            if not inline(target):
                return goto(target, pad, vals, k)
            label = target

    def goto(label, pad, vals, k):
        """The code at `label`, after k labels of its path, or the jump there
        that ends the path and counts its labels."""
        if inline(label) and len(pad) > 4 * _NESTING:  # too deep: a block of its own
            pcs[fn.name, label] = len(todo)
            todo.append((fn.name, label))
        if inline(label):
            run(label, pad, vals, k)
        elif label == fn.exit:
            lines.extend([pad + f"st += {k}", pad + "if not stk: return st if st <= cap else None",
                          pad + "pc, v = stk.pop(); break"])
        elif label == start:
            lines.append(f"{pad}st += {k}; {'' if vals == 'v' else f'v = {vals}; '}continue")
        else:
            lines.append(pad + f"st += {k}; pc, v = {pcs[fn.name, label]}, {vals}; break")

    run(start, "    ", "v", 0)
    del run, goto  # each holds the other, and `cfg`, in a cycle only the collector frees
    return lines


def stanza_source(pieces, fname: str, label: int, pvars: Tuple[str, ...],
                  is_terminal: bool) -> str:
    """Source of fn(v) -> the first matching piece's value (None for `inf`),
    or MISS, for `compile_lambda`.

    A terminal label with no stanza at all is 0.  A negative value raises
    CertificateError naming the point.
    """
    if not pieces:
        return "lambda v: 0" if is_terminal else "lambda v: MISS"
    pidx = _slots(pvars, "v")
    code = "MISS"
    for piece in reversed(pieces):
        if isinstance(piece.expr, InfConst):
            value = "None"
        elif isinstance(piece.expr, Const) and piece.expr.value >= 0:
            value = expr_code(piece.expr, pidx)
        else:
            value = (f"(x if (x := {expr_code(piece.expr, pidx)}) >= 0 "
                     f"else _negative(x, v, {fname!r}, {label!r}, {pvars!r}))")
        if piece.guard is None:
            code = value
        else:
            code = f"({value} if {pred_code(piece.guard, pidx)} else {code})"
    return f"lambda v: {code}"


def cert_value(stanza: Callable, vals: tuple):
    """Value of a compiled stanza at `vals`; uncovered points are infinite."""
    value = stanza(vals)
    return None if value is MISS else value


def value_le(a, b) -> bool:
    """a <= b over certificate values, None being infinity."""
    return b is None or (a is not None and a <= b)


def format_value(x) -> str:
    return "inf" if x is None else str(x)
