"""Exhaustive certificate checking over finite verification boxes.

Each certificate family is one row of the `_KINDS` table: its parameters
and its inequalities between the value here and the one-step
pre-expectation that the label's successor law (`_Law`) supplies.

The universally quantified valuation ranges over a user-declared box; the
certificate stays symbolic, so successor valuations are evaluated wherever
they land, including outside the box.  Points where no stanza guard matches
are treated as outside the certificate's declared invariant and skipped;
when such a point shows up as a *successor* its value is infinity.  Ranking's
conditions hold vacuously where the value is infinite.

All arithmetic is exact (integers and rationals), so verdicts are
reproducible bit for bit; a label's guard, update or argument passing and
its certificate stanzas are compiled when the scan reaches the label (see
`_compile`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import mul
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import InputError
from ._compile import (MISS, cert_value, compile_call_args, compile_pred, compile_update,
                       point_text)
from ._compile import format_value as _fmt
from ._compile import value_le as _le
from ._lex import ParseError, TokenStream, parse_integer, parse_items, tokenize
from ._pool import fan_out
from ._record import record
from .certificates import CHECK_KINDS, Certificate, CertParams
from .cfg import Cfg, CfgFunction
from .distributions import SamplingFunction
from .lang import EvalError

_SERIAL_CONDITIONS = 10_000  # `fan_out`'s budget: 100-230k conditions/s in the sweep


class CheckerError(InputError, ValueError):
    pass


# ---------------------------------------------------------------------------
# Verification boxes
# ---------------------------------------------------------------------------

@record(frozen=True)
class VerifyBox:
    """Inclusive integer intervals, one per program variable."""

    bounds: Tuple[Tuple[str, int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for name, lo, hi in self.bounds:
            if name in seen:
                raise CheckerError(f"duplicate box entry for {name!r}")
            seen.add(name)
            if lo > hi:
                raise CheckerError(f"empty interval for {name!r}: [{lo}, {hi}]")
        object.__setattr__(self, "bounds", tuple(sorted(self.bounds)))

    @classmethod
    def parse(cls, *specs: str) -> "VerifyBox":
        """Parse entries like ``n=-100..100``, separated by commas or spaces."""
        def entry(ts: TokenStream) -> Tuple[str, int, int]:
            name = ts.expect("ident", "a variable name").text
            ts.expect("=")
            lo = parse_integer(ts)
            ts.expect("..")
            return name, lo, parse_integer(ts)
        try:
            return cls(tuple(bound for spec in specs
                             for bound in parse_items(TokenStream(tokenize(spec)), entry)))
        except ParseError as exc:
            raise CheckerError(f"bad --box: {exc}") from None

    def interval(self, name: str) -> Tuple[int, int]:
        for n, lo, hi in self.bounds:
            if n == name:
                return lo, hi
        raise CheckerError(f"box does not bound variable {name!r}")

    def tuples(self, variables: Sequence[str]) -> Iterator[Tuple[int, ...]]:
        """Raw value tuples over `variables` (in the given order), scanning
        lexicographically."""
        ranges = [range(self.interval(n)[0], self.interval(n)[1] + 1)
                  for n in variables]
        return product(*ranges)

    def size(self, variables: Sequence[str]) -> int:
        total = 1
        for name in variables:
            lo, hi = self.interval(name)
            total *= hi - lo + 1
        return total

    def render(self) -> str:
        return ", ".join(f"{n}={lo}..{hi}" for n, lo, hi in self.bounds)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@record(frozen=True)
class ConditionFailure:
    fname: str
    label: int
    condition: str
    point: Tuple[Tuple[str, int], ...]
    lhs: str
    rhs: str
    detail: str = ""

    def render(self) -> str:
        point = ", ".join(f"{k}={v}" for k, v in self.point)
        text = (f"{self.condition} fails at ({self.fname}, {self.label}) "
                f"with {{{point}}}: {self.lhs} vs {self.rhs}")
        if self.detail:
            text += f" ({self.detail})"
        return text


@record(frozen=True)
class CheckReport:
    kind: str
    passed: bool
    box: str
    params: CertParams
    failures: Tuple[ConditionFailure, ...]
    points_checked: int
    points_skipped: int
    conditions_checked: int
    cert_digest: str = ""

    @property
    def first_failure(self) -> Optional[ConditionFailure]:
        return self.failures[0] if self.failures else None

    def render(self) -> str:
        head = (f"check kind={self.kind} verdict={'pass' if self.passed else 'fail'} "
                f"box=[{self.box}] points={self.points_checked} "
                f"skipped={self.points_skipped} conditions={self.conditions_checked}")
        lines = [head]
        for f in self.failures:
            lines.append("  counterexample: " + f.render())
        return "\n".join(lines)

    def to_json_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "box": self.box,
            "params": {
                "eps": str(self.params.eps) if self.params.eps is not None else None,
                "delta": str(self.params.delta) if self.params.delta is not None else None,
                "zeta": str(self.params.zeta) if self.params.zeta is not None else None,
            },
            "points_checked": self.points_checked,
            "points_skipped": self.points_skipped,
            "conditions_checked": self.conditions_checked,
            "cert_digest": self.cert_digest,
            "failures": [
                {
                    "function": f.fname,
                    "label": f.label,
                    "condition": f.condition,
                    "point": dict(f.point),
                    "lhs": f.lhs,
                    "rhs": f.rhs,
                    "detail": f.detail,
                }
                for f in self.failures
            ],
        }


# ---------------------------------------------------------------------------
# Condition engine.  A certificate value is an int or Fraction, or None for
# inf; a condition maps (law, value here, params) to (ok, lhs, rhs, detail).
# ---------------------------------------------------------------------------

def _plus(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    return None if a is None or b is None else a + b


def _at_most(lhs, rhs):
    return _le(lhs, rhs), lhs, rhs, ""


def _at_least(lhs, rhs):
    return _le(rhs, lhs), lhs, rhs, ""


class _Law:
    """The certificate values one step after a label's current point and how
    they combine: an assignment's (weight, value, outcome) triples over the
    joint support by their mean; a call's or branch's one successor, or a
    star's two, by the worst (weights None: the scheduler is demonic)."""

    __slots__ = ("successors", "weights", "outcomes", "values")

    def __init__(self, successors: Callable, weights=None, outcomes=None):
        self.successors, self.weights, self.outcomes = successors, weights, outcomes

    def load(self, vals: tuple) -> None:
        self.values = self.successors(vals)

    def combine(self, xs) -> Optional[Fraction]:
        if None in xs:
            return None
        return max(xs) if self.weights is None else sum(map(mul, self.weights, xs))

    @property
    def value(self) -> Optional[Fraction]:
        """The pre-expectation of the certificate value."""
        return self.combine(self.values)

    def change(self, h: Fraction) -> Optional[Fraction]:
        """The pre-expectation of the absolute change from `h`."""
        return self.combine([None if x is None else abs(x - h) for x in self.values])

    def capped(self, h: Fraction, cap: Fraction):
        """Every successor within `cap` of `h`; a failure names the worst
        successor, or at an assignment the first outcome beyond `cap`."""
        if self.weights is None:
            return _at_most(self.change(h), cap)
        for x, outcome in zip(self.values, self.outcomes):
            diff = None if x is None else abs(x - h)
            if not _le(diff, cap):
                return False, diff, cap, f"outcome {{{outcome}}}"
        return True, None, cap, ""


def _stanza(cert: Certificate, fn: CfgFunction, label: int) -> Callable:
    return cert._stanza(fn.name, label, fn.pvars, label == fn.exit)


def _law(cert: Certificate, cfg: Cfg, sf: SamplingFunction, fn: CfgFunction,
         label: int) -> Optional[_Law]:
    """The successor law at a label of `fn`, from its node; None at the exit."""
    if label == fn.exit:
        return None
    node = fn.nodes[label]
    if node.kind == "assignment":
        update = compile_update(node.var, node.expr, fn.pvars, node.sampling_vars)
        after, svars = _stanza(cert, fn, node.target), node.sampling_vars
        support = list(sf.joint_support_over(svars))
        moves = [tuple(mu[s] for s in svars) for mu, _ in support]
        return _Law(lambda vals: [cert_value(after, update(vals, m)) for m in moves],
                    [w for _, w in support],
                    [", ".join(f"{s}={mu[s]}" for s in svars) for mu, _ in support])
    if node.kind == "call":
        args_fn, callee = compile_call_args(node, fn.pvars), cfg.function(node.callee)
        enter, back = _stanza(cert, callee, callee.entry), _stanza(cert, fn, node.target)
        return _Law(lambda vals: (_plus(cert_value(enter, args_fn(vals)),
                                        cert_value(back, vals)),))
    if node.kind == "branching":
        pred_fn = compile_pred(node.pred, fn.pvars)
        yes, no = _stanza(cert, fn, node.yes), _stanza(cert, fn, node.no)
        return _Law(lambda vals: (cert_value(yes if pred_fn(vals) else no, vals),))
    then, other = _stanza(cert, fn, node.then), _stanza(cert, fn, node.orelse)
    return _Law(lambda vals: (cert_value(then, vals), cert_value(other, vals)))


@record(frozen=True)
class _Kind:
    """One certificate family.  A condition is (its name at an assignment,
    its name after `call-`, `branch-` or `nondet-`, or None to bind at
    assignments only, the condition); where the value here is infinite,
    a `finite_only` family binds only `zero_at_exit` and `nonzero`."""

    carries: Tuple[str, ...]  # parameters its report carries
    requires: Tuple[str, ...]  # parameters it needs
    conditions: Tuple[Tuple[str, Optional[str], Callable], ...]
    zero_at_exit: bool = False  # value 0 at the terminal label
    nonzero: bool = False  # nonzero value at the other labels
    finite_only: bool = True


_KINDS = {  # a row per family of CHECK_KINDS, in its order
    "ranking": _Kind(("eps",), ("eps",), (
        ("assign-expected-decrease", "decrease",
         lambda law, h, p: _at_most(_plus(p.eps, law.value), h)),
    ), zero_at_exit=True, finite_only=False),
    # cdb carries eps only so that CertParams enforces eps <= delta
    "cdb": _Kind(("eps", "delta", "zeta"), ("delta", "zeta"), (
        ("assign-expected-drop-cap", "drop-cap",
         lambda law, h, p: _at_least(_plus(p.delta, law.value), h)),
        ("assign-expected-jump-cap", None, lambda law, h, p: _at_most(law.change(h), p.zeta)),
    )),
    "db": _Kind(("zeta",), ("zeta",), (
        ("assign-jump-cap", "jump-cap", lambda law, h, p: law.capped(h, p.zeta)),
    )),
    "super": _Kind(("delta", "zeta"), ("delta", "zeta"), (
        ("assign-no-increase", "no-increase", lambda law, h, p: _at_most(law.value, h)),
        ("assign-jump-cap", "jump-cap", lambda law, h, p: law.capped(h, p.zeta)),
        ("assign-jump-floor", None, lambda law, h, p: _at_least(law.change(h), p.delta)),
    ), zero_at_exit=True, nonzero=True),
}

_TERMINAL_ZERO = ("terminal-zero", lambda law, h, p: (h == 0, h, 0, ""))
_NONZERO = ("nonterminal-nonzero", lambda law, h, p: (h != 0, h, "> 0", ""))
_PREFIX = {"call": "call-", "branching": "branch-", "nondet": "nondet-"}


def _label_conditions(kind: _Kind, label_class: str):
    """(name, condition) pairs binding at every covered point, and all."""
    if label_class == "terminal":
        plain = (_TERMINAL_ZERO,) if kind.zero_at_exit else ()
        return plain, plain
    plain = (_NONZERO,) if kind.nonzero else ()
    assign = label_class == "assignment"
    return plain, plain + tuple((name if assign else _PREFIX[label_class] + suffix, cond)
                                for name, suffix, cond in kind.conditions
                                if assign or suffix)


def _kind_params(kind: str, cert: Certificate, **overrides) -> CertParams:
    """The certificate's parameters that `kind` carries, overridden where an
    override is given."""
    return CertParams(**{
        name: overrides[name] if overrides.get(name) is not None else getattr(cert.params, name)
        for name in _KINDS[kind].carries
    })


def _check_labels(kind: str, cert: Certificate, params: CertParams, cfg: Cfg,
                  sf: SamplingFunction, box: VerifyBox, units: Tuple[Tuple[str, int], ...],
                  lo: int, hi: int, budget: float) -> Tuple[tuple, int]:
    """Scan the (fname, label) units lo..hi-1 in order, stopping before the
    first unit that would start once `conditions` reaches `budget`.  Returns
    (failures, points, skipped, conditions) and the first unit not scanned;
    an evaluation error stops the scan and is raised, naming its point.  A
    unit's stanza and successor law are built when the scan reaches it."""
    row = _KINDS[kind]
    failures: List[ConditionFailure] = []
    checked = skipped = conditions = 0
    end = hi
    for at in range(lo, hi):
        if conditions >= budget:
            end = at
            break
        fname, label = units[at]
        fn = cfg.function(fname)
        pvars = fn.pvars
        stanza, law = _stanza(cert, fn, label), _law(cert, cfg, sf, fn, label)
        plain, every = _label_conditions(row, fn.label_class(label))
        seen_failed: set = set()
        try:
            for vals in box.tuples(pvars):
                h_here = stanza(vals)
                if h_here is MISS:
                    skipped += 1
                    continue
                checked += 1
                full = h_here is not None or not row.finite_only
                todo = every if full else plain
                if full and law is not None:
                    law.load(vals)
                conditions += len(todo)
                for name, cond in todo:
                    ok, lhs, rhs, detail = cond(law, h_here, params)
                    if not ok and name not in seen_failed:
                        seen_failed.add(name)
                        failures.append(ConditionFailure(
                            fname, label, name, tuple(zip(pvars, vals)),
                            _fmt(lhs), _fmt(rhs), detail))
        except EvalError as exc:  # a CertificateError names its point already
            raise EvalError(f"{exc} at {point_text(fname, label, pvars, vals)}") from None
    return (failures, checked, skipped, conditions), end


def run_check(kind: str, cert: Certificate, cfg: Cfg, sf: SamplingFunction,
              box: VerifyBox, params: Optional[CertParams] = None,
              workers: int = 1) -> CheckReport:
    """Check one condition family over the box.

    `params` overrides the parameters the family carries from the
    certificate file (`_kind_params`), as `check_<kind>` and the CLI do.  The
    report contains, per (function, label, condition), the first failing box
    point in lexicographic order; verdicts do not depend on `workers`, and
    neither does which evaluation error is raised: the first in scan order,
    naming the point whose conditions raised it.  `_pool.fan_out` spreads
    the labels over at most `workers` processes (0: one per core) in
    contiguous ranges, after a head of labels in this process whose
    conditions reach _SERIAL_CONDITIONS.
    """
    if kind not in CHECK_KINDS:
        raise CheckerError(f"unknown check kind {kind!r}; choose from {CHECK_KINDS}")
    params = params if params is not None else _kind_params(kind, cert)
    params.require(*_KINDS[kind].requires)
    missing = [s for s in cfg.sampling_vars if s not in sf.variables]
    if missing:
        raise CheckerError(f"no distribution for sampling variables {missing}")
    for fn in cfg.functions:
        for name in fn.pvars:
            box.interval(name)  # raises if the box misses a variable

    units = tuple((fn.name, label)
                  for fn in sorted(cfg.functions, key=lambda f: f.name)
                  for label in fn.labels())
    parts = fan_out(_check_labels, (kind, cert, params, cfg, sf, box, units), len(units),
                    workers, _SERIAL_CONDITIONS)
    found, points, skipped, conditions = zip(*parts)
    failures = sorted(
        (f for part in found for f in part),
        key=lambda f: (f.fname, f.label, f.condition),
    )
    return CheckReport(
        kind=kind,
        passed=not failures,
        box=box.render(),
        params=params,
        failures=tuple(failures),
        points_checked=sum(points),
        points_skipped=sum(skipped),
        conditions_checked=sum(conditions),
        cert_digest=cert.digest(),
    )


def check_ranking(cert: Certificate, cfg: Cfg, sf: SamplingFunction, box: VerifyBox,
                  eps: Optional[Fraction] = None, workers: int = 1) -> CheckReport:
    return run_check("ranking", cert, cfg, sf, box, _kind_params("ranking", cert, eps=eps),
                     workers)


def check_cdb(cert: Certificate, cfg: Cfg, sf: SamplingFunction, box: VerifyBox,
              delta: Optional[Fraction] = None, zeta: Optional[Fraction] = None,
              workers: int = 1) -> CheckReport:
    params = _kind_params("cdb", cert, delta=delta, zeta=zeta)
    return run_check("cdb", cert, cfg, sf, box, params, workers)


def check_db(cert: Certificate, cfg: Cfg, sf: SamplingFunction, box: VerifyBox,
             zeta: Optional[Fraction] = None, workers: int = 1) -> CheckReport:
    return run_check("db", cert, cfg, sf, box, _kind_params("db", cert, zeta=zeta), workers)


def check_super(cert: Certificate, cfg: Cfg, sf: SamplingFunction, box: VerifyBox,
                delta: Optional[Fraction] = None, zeta: Optional[Fraction] = None,
                workers: int = 1) -> CheckReport:
    params = _kind_params("super", cert, delta=delta, zeta=zeta)
    return run_check("super", cert, cfg, sf, box, params, workers)
