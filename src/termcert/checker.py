"""Exhaustive certificate checking over finite verification boxes.

Each certificate family is one entry of the `_KINDS` table: its parameters
and its conditions, each one row `(name, suffix, lhs, op, rhs)`, an
inequality between the value here and the one-step pre-expectation.
`_compile` renders a family's rows into one point loop per label class and
compiles each label's successor values, when the scan reaches the label.

The universally quantified valuation ranges over a user-declared box; the
certificate stays symbolic, so successor valuations are evaluated wherever
they land, including outside the box.  Points where no stanza guard matches
are treated as outside the certificate's declared invariant and skipped;
when such a point shows up as a *successor* its value is infinity.  Ranking's
conditions hold vacuously where the value is infinite.  All arithmetic is
exact (integers and rationals), so verdicts are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import InputError
from ._compile import compile_lambda, compile_successors, scan_source
from ._compile import format_value as _fmt
from ._lex import ParseError, TokenStream, parse_integer, parse_items, tokenize
from ._pool import fan_out
from ._record import record
from .certificates import CHECK_KINDS, Certificate, CertParams
from .cfg import Cfg
from .distributions import SamplingFunction

_SERIAL_CONDITIONS = 8_000  # `fan_out`'s budget: one pool start-up, 25-36 ms, of the slowest
# kind's sweep (halving game, 2-core VM): cdb 228k conditions/s; ranking 317k, db 398k, super 674k


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
        return product(*(range(lo, hi + 1) for lo, hi in map(self.interval, variables)))

    def size(self, variables: Sequence[str]) -> int:
        return prod(hi - lo + 1 for lo, hi in map(self.interval, variables))

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
        params = {name: getattr(self.params, name) for name in ("eps", "delta", "zeta")}
        return {
            "kind": self.kind, "passed": self.passed, "box": self.box,
            "params": {name: None if x is None else str(x) for name, x in params.items()},
            "points_checked": self.points_checked, "points_skipped": self.points_skipped,
            "conditions_checked": self.conditions_checked, "cert_digest": self.cert_digest,
            "failures": [{"function": f.fname, "label": f.label, "condition": f.condition,
                          "point": dict(f.point), "lhs": f.lhs, "rhs": f.rhs,
                          "detail": f.detail} for f in self.failures],
        }


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

@record(frozen=True)
class _Kind:
    """One certificate family.  A row (name at an assignment, name after
    `call-`, `branch-` or `nondet-` or None to bind at assignments only,
    lhs, op, rhs) is the condition `lhs op rhs`, in code over the value here
    `h`, the pre-expectation `E` of the value one step on (the mean at an
    assignment, the worst at a call, branch or star), the expected or worst
    change `D`, each outcome's change `J` and the parameters, inf being
    largest (`_compile.scan_source`).  Where the value here is infinite a
    `finite_only` family binds only `zero_at_exit` and `nonzero`."""

    carries: Tuple[str, ...]  # parameters its report carries
    requires: Tuple[str, ...]  # parameters it needs
    rows: Tuple[Tuple[str, Optional[str], str, str, str], ...]
    zero_at_exit: bool = False  # value 0 at the terminal label
    nonzero: bool = False  # nonzero value at the other labels
    finite_only: bool = True


_KINDS = {  # a row per family of CHECK_KINDS, in its order
    "ranking": _Kind(("eps",), ("eps",), (
        ("assign-expected-decrease", "decrease", "eps + E", "<=", "h"),
    ), zero_at_exit=True, finite_only=False),
    # cdb carries eps only so that CertParams enforces eps <= delta
    "cdb": _Kind(("eps", "delta", "zeta"), ("delta", "zeta"), (
        ("assign-expected-drop-cap", "drop-cap", "delta + E", ">=", "h"),
        ("assign-expected-jump-cap", None, "D", "<=", "zeta"),
    )),
    "db": _Kind(("zeta",), ("zeta",), (
        ("assign-jump-cap", "jump-cap", "J", "<=", "zeta"),
    )),
    "super": _Kind(("delta", "zeta"), ("delta", "zeta"), (
        ("assign-no-increase", "no-increase", "E", "<=", "h"),
        ("assign-jump-cap", "jump-cap", "J", "<=", "zeta"),
        ("assign-jump-floor", None, "D", ">=", "delta"),
    ), zero_at_exit=True, nonzero=True),
}

_PREFIX = {"call": "call-", "branching": "branch-", "nondet": "nondet-"}


@lru_cache(maxsize=None)
def _scan(kind: str, label_class: str) -> Tuple[Callable, int, int]:
    """The point loop of `kind` at a label of `label_class`, compiled once
    per process, and its conditions per finite and per infinite point."""
    row, assign = _KINDS[kind], label_class == "assignment"
    rows = () if label_class == "terminal" else tuple(
        (name if assign else _PREFIX[label_class] + suffix, lhs, op, rhs)
        for name, suffix, lhs, op, rhs in row.rows if assign or suffix)
    plain = row.zero_at_exit if label_class == "terminal" else row.nonzero
    scan = compile_lambda(scan_source(label_class, rows, row.finite_only, plain))
    return scan, plain + len(rows), plain + len(rows) * (not row.finite_only)


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
    unit's stanzas and successor values are compiled when the scan reaches
    it."""
    failures: List[ConditionFailure] = []
    checked = skipped = conditions = 0
    end = hi
    for at in range(lo, hi):
        if conditions >= budget:
            end = at
            break
        fname, label = units[at]
        fn = cfg.function(fname)
        here = cert._stanza(fname, label, fn.pvars, label == fn.exit)
        succ, weights, outs = compile_successors(cert, cfg, sf, fn, label)
        scan, finite, infinite = _scan(kind, fn.label_class(label))
        seen: Dict[str, tuple] = {}
        points, missed, inf = scan(box.tuples(fn.pvars), here, succ, weights, outs, params.eps,
                                   params.delta, params.zeta, seen, (fname, label, fn.pvars))
        checked, skipped = checked + points, skipped + missed
        conditions += finite * (points - inf) + infinite * inf
        failures += [ConditionFailure(fname, label, name, tuple(zip(fn.pvars, vals)),
                                      _fmt(lhs), _fmt(rhs), detail)
                     for name, (vals, lhs, rhs, detail) in seen.items()]
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
    cert.require_labels(cfg)
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
    failures = tuple(sorted((f for part in found for f in part),
                            key=lambda f: (f.fname, f.label, f.condition)))
    return CheckReport(kind=kind, passed=not failures, box=box.render(), params=params,
                       failures=failures, points_checked=sum(points),
                       points_skipped=sum(skipped), conditions_checked=sum(conditions),
                       cert_digest=cert.digest())


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
