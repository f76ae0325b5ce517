"""Exhaustive certificate checking over finite verification boxes.

Four condition families are supported, all sharing one evaluation engine:

    ranking   expected decrease by at least eps per step; terminal value 0
    cdb       additionally: expected decrease at most delta per step, and
              expected absolute change at most zeta at assignment labels
    db        per-outcome absolute change at most zeta everywhere
    super     never increasing (in expectation at assignment labels), with
              per-outcome changes at most zeta and expected absolute change
              at least delta at assignment labels; value 0 exactly at
              terminal labels

The universally quantified valuation ranges over a user-declared box; the
certificate stays symbolic, so successor valuations are evaluated wherever
they land, including outside the box.  Points where no stanza guard matches
are treated as outside the certificate's declared invariant and skipped;
when such a point shows up as a *successor* its value is infinity.  Decrease
and difference conditions are only enforced at points with finite value.

All arithmetic is exact (machine integers never overflow, probabilities and
certificate values are rationals), so verdicts are reproducible bit for bit;
guards, update functions, and certificate pieces are compiled to Python
callables once per label to keep full-box sweeps fast.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ._compile import MISS, OP_ASSIGN, OP_BRANCH, OP_CALL, OP_EXIT, cert_value, point_text
from ._compile import format_value as _fmt
from ._compile import value_le as _le
from .certificates import Certificate, CertificateError, CertParams
from .cfg import Cfg, branch_targets, single_edge, star_targets
from .distributions import SamplingFunction
from .lang import EvalError
from .valuation import Valuation

# kind -> (parameters its report carries, parameters it requires).  cdb
# carries eps only so that CertParams enforces eps <= delta.
_KIND_PARAMS = {
    "ranking": (("eps",), ("eps",)),
    "cdb": (("eps", "delta", "zeta"), ("delta", "zeta")),
    "db": (("zeta",), ("zeta",)),
    "super": (("delta", "zeta"), ("delta", "zeta")),
}
CHECK_KINDS = tuple(_KIND_PARAMS)


class CheckerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Verification boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    def from_dict(cls, mapping: Dict[str, Tuple[int, int]]) -> "VerifyBox":
        return cls(tuple((k, int(lo), int(hi)) for k, (lo, hi) in mapping.items()))

    @classmethod
    def parse(cls, *specs: str) -> "VerifyBox":
        """Parse entries like ``n=-100..100`` (comma-separable)."""
        bounds = []
        for spec in specs:
            for part in spec.split(","):
                part = part.strip()
                if not part:
                    continue
                m = re.fullmatch(r"(\w+)\s*=\s*(-?\d+)\s*\.\.\s*(-?\d+)", part)
                if not m:
                    raise CheckerError(f"bad box entry {part!r}; expected var=lo..hi")
                bounds.append((m.group(1), int(m.group(2)), int(m.group(3))))
        return cls(tuple(bounds))

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

    def points(self, variables: Sequence[str]) -> Iterator[Valuation]:
        """All box valuations over `variables`, lexicographic in sorted order."""
        names = tuple(sorted(variables))
        for combo in self.tuples(names):
            yield Valuation.from_tuples(names, combo)

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

@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
# Condition engine over the compiled CFG table and certificate stanzas (see
# `_compile`): a certificate value is an int or Fraction, or None for inf.
# ---------------------------------------------------------------------------

def _worse(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    return b if _le(a, b) else a


def _absdiff(value: Optional[Fraction], base: Fraction) -> Optional[Fraction]:
    if value is None:
        return None
    return abs(value - base)


def _expect(succs, base: Optional[Fraction] = None) -> Optional[Fraction]:
    """Weighted sum over (weight, value, _) outcomes of the value, or of its
    distance to `base` when given; None (inf) if any term is infinite."""
    total = Fraction(0)
    for w, h, _ in succs:
        x = h if base is None else _absdiff(h, base)
        if x is None:
            return None
        total += w * x
    return total


class _Engine:
    def __init__(self, kind: str, cert: Certificate, params: CertParams,
                 cfg: Cfg, sf: SamplingFunction):
        self.kind = kind
        self.params = params
        self.ops = cfg._ops
        self.stanzas = {
            (fn.name, label): cert._stanza(fn.name, label, fn.pvars, label == fn.exit)
            for fn in cfg.functions for label in fn.labels()
        }
        self.outcomes = {}
        for key in self.stanzas:
            op = self.ops[key]
            if op[0] == OP_ASSIGN:
                svars = op[2]
                self.outcomes[key] = tuple(
                    (weight, tuple(mu[s] for s in svars),
                     ", ".join(f"{s}={mu[s]}" for s in svars))
                    for mu, weight in sf.joint_support_over(svars))

    def h_value(self, fname: str, label: int, vals: tuple) -> Optional[Fraction]:
        return cert_value(self.stanzas[(fname, label)], vals)

    # -- conditions per label class, yielding (name, ok, lhs, rhs, detail) --

    def conditions(self, fname: str, label: int, vals: tuple,
                   h_here: Optional[Fraction]):
        op = self.ops[(fname, label)]
        code = op[0]
        kind = self.kind
        if code == OP_EXIT:
            if kind in ("ranking", "super"):
                yield ("terminal-zero", h_here == 0, _fmt(h_here), "0", "")
            return
        if kind == "super":
            yield ("nonterminal-nonzero", h_here != 0, _fmt(h_here), "> 0", "")
        if kind in ("cdb", "db", "super") and h_here is None:
            return  # conditions apply only where the certificate is finite

        if code == OP_ASSIGN:
            _, update, _, target = op
            succs = [(w, self.h_value(fname, target, update(vals, m)), text)
                     for w, m, text in self.outcomes[(fname, label)]]
            yield from self._assignment(succs, h_here)
        elif code == OP_CALL:
            _, args_fn, callee, callee_entry, target = op
            h_callee = self.h_value(callee, callee_entry, args_fn(vals))
            h_return = self.h_value(fname, target, vals)
            total = None if (h_callee is None or h_return is None) else h_callee + h_return
            yield from self._successors("call", [total], h_here)
        elif code == OP_BRANCH:
            _, pred_fn, t1, t2 = op
            succ = self.h_value(fname, t1 if pred_fn(vals) else t2, vals)
            yield from self._successors("branch", [succ], h_here)
        else:  # OP_NONDET
            _, t1, t2 = op
            hs = [self.h_value(fname, t1, vals), self.h_value(fname, t2, vals)]
            yield from self._successors("nondet", hs, h_here)

    def _assignment(self, succs, h_here):
        kind, params = self.kind, self.params
        if kind == "ranking":
            expected = _expect(succs)
            lhs = None if expected is None else params.eps + expected
            yield ("assign-expected-decrease", _le(lhs, h_here), _fmt(lhs), _fmt(h_here), "")
        elif kind == "cdb":
            expected = _expect(succs)
            lhs = None if expected is None else params.delta + expected
            yield ("assign-expected-drop-cap", _le(h_here, lhs), _fmt(lhs), _fmt(h_here), "")
            jump = _expect(succs, h_here)
            yield ("assign-expected-jump-cap", _le(jump, params.zeta),
                   _fmt(jump), _fmt(params.zeta), "")
        elif kind == "db":
            yield self._outcome_cap(succs, h_here)
        else:  # super
            expected = _expect(succs)
            yield ("assign-no-increase", _le(expected, h_here),
                   _fmt(expected), _fmt(h_here), "")
            yield self._outcome_cap(succs, h_here)
            floor = _expect(succs, h_here)
            yield ("assign-jump-floor", floor is None or floor >= params.delta,
                   _fmt(floor), _fmt(params.delta), "")

    def _outcome_cap(self, succs, h_here):
        zeta = self.params.zeta
        for _, h_succ, text in succs:
            diff = _absdiff(h_succ, h_here)
            if not _le(diff, zeta):
                return ("assign-jump-cap", False, _fmt(diff), _fmt(zeta), f"outcome {{{text}}}")
        return ("assign-jump-cap", True, "", "", "")

    def _successors(self, prefix, hs, h_here):
        """Conditions against the worst of the successor values `hs` (one, or
        the two a nondeterministic label chooses between)."""
        kind, params = self.kind, self.params
        worst = reduce(_worse, hs)
        if kind == "ranking":
            lhs = None if worst is None else params.eps + worst
            yield (f"{prefix}-decrease", _le(lhs, h_here), _fmt(lhs), _fmt(h_here), "")
        elif kind == "cdb":
            lhs = None if worst is None else params.delta + worst
            yield (f"{prefix}-drop-cap", _le(h_here, lhs), _fmt(lhs), _fmt(h_here), "")
        else:
            if kind == "super":
                yield (f"{prefix}-no-increase", _le(worst, h_here),
                       _fmt(worst), _fmt(h_here), "")
            diff = reduce(_worse, [_absdiff(h, h_here) for h in hs])
            yield (f"{prefix}-jump-cap", _le(diff, params.zeta),
                   _fmt(diff), _fmt(params.zeta), "")


def _kind_params(kind: str, cert: Certificate, **overrides) -> CertParams:
    """The certificate's parameters that `kind` carries, overridden where an
    override is given."""
    return CertParams(**{
        name: overrides[name] if overrides.get(name) is not None else getattr(cert.params, name)
        for name in _KIND_PARAMS[kind][0]
    })


def _check_labels(kind: str, cert: Certificate, params: CertParams, cfg: Cfg,
                  sf: SamplingFunction, box: VerifyBox,
                  units: Tuple[Tuple[int, Tuple[str, int]], ...]) -> Dict:
    """Scan the (index, (fname, label)) units in order.  An evaluation error
    stops the scan and is returned with its unit index."""
    engine = _Engine(kind, cert, params, cfg, sf)
    failures: List[ConditionFailure] = []
    checked = skipped = conditions = 0
    error = None
    pvars_by_fn = {fn.name: fn.pvars for fn in cfg.functions}
    for index, (fname, label) in units:
        pvars = pvars_by_fn[fname]
        stanza = engine.stanzas[(fname, label)]
        seen_failed: set = set()
        try:
            for vals in box.tuples(pvars):
                h_here = stanza(vals)
                if h_here is MISS:
                    skipped += 1
                    continue
                checked += 1
                for name, ok, lhs, rhs, detail in engine.conditions(fname, label, vals, h_here):
                    conditions += 1
                    if not ok and name not in seen_failed:
                        seen_failed.add(name)
                        failures.append(ConditionFailure(
                            fname, label, name, tuple(zip(pvars, vals)),
                            lhs, rhs, detail))
        except EvalError as exc:
            error = (index, EvalError(f"{exc} at {point_text(fname, label, pvars, vals)}"))
            break
        except CertificateError as exc:  # names its point already
            error = (index, exc)
            break
    return {
        "failures": failures,
        "checked": checked,
        "skipped": skipped,
        "conditions": conditions,
        "error": error,
    }


def run_check(kind: str, cert: Certificate, cfg: Cfg, sf: SamplingFunction,
              box: VerifyBox, params: Optional[CertParams] = None,
              workers: int = 1) -> CheckReport:
    """Check one condition family over the box.

    `params` overrides the parameters carried in the certificate file.  The
    report contains, per (function, label, condition), the first failing box
    point in lexicographic order; verdicts do not depend on `workers`, and
    neither does which evaluation error is raised: the first in scan order,
    naming the point whose conditions raised it.  At most `workers`
    processes run, and never more than the labels or the machine's cores.
    """
    if kind not in CHECK_KINDS:
        raise CheckerError(f"unknown check kind {kind!r}; choose from {CHECK_KINDS}")
    params = params if params is not None else cert.params
    params.require(*_KIND_PARAMS[kind][1])
    for fn in cfg.functions:
        for name in fn.pvars:
            box.interval(name)  # raises if the box misses a variable

    units = tuple(enumerate(
        (fn.name, label)
        for fn in sorted(cfg.functions, key=lambda f: f.name)
        for label in fn.labels()
    ))
    workers = min(workers, len(units), os.cpu_count() or 1)
    if workers <= 1:
        parts = [_check_labels(kind, cert, params, cfg, sf, box, units)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_check_labels, kind, cert, params, cfg, sf, box, units[i::workers])
                for i in range(workers)
            ]
            parts = [f.result() for f in futures]
    errors = [p["error"] for p in parts if p["error"] is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]

    failures = sorted(
        (f for part in parts for f in part["failures"]),
        key=lambda f: (f.fname, f.label, f.condition),
    )
    return CheckReport(
        kind=kind,
        passed=not failures,
        box=box.render(),
        params=params,
        failures=tuple(failures),
        points_checked=sum(p["checked"] for p in parts),
        points_skipped=sum(p["skipped"] for p in parts),
        conditions_checked=sum(p["conditions"] for p in parts),
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


# ---------------------------------------------------------------------------
# Reachability-of-assignment fixpoint
# ---------------------------------------------------------------------------

@dataclass
class ThetaIndex:
    """Least fixpoint of labels that reach an assignment label or the
    terminal label within a bounded number of deterministic-progress steps,
    with that bound per label."""

    members: frozenset
    K: Dict[Tuple[str, int], int]
    m_star: int
    all_covered: bool
    K_max: int
    K_max_by_function: Dict[str, int] = field(default_factory=dict)

    def covered(self, fname: str, label: int) -> bool:
        return (fname, label) in self.members


def theta_fixpoint(cfg: Cfg) -> ThetaIndex:
    """Iterate the closure; stabilizes within the total label count.

    Base set: assignment labels and the terminal label, at distance 0.  A
    call label joins once its continuation and the callee's entry are in,
    at the sum of their distances plus one; a branching or nondeterministic
    label joins once both its targets are in, one past the larger distance.
    """
    members = set()
    K: Dict[Tuple[str, int], int] = {}
    for fn in cfg.functions:
        for label in fn.assignment | {fn.exit}:
            members.add((fn.name, label))
            K[(fn.name, label)] = 0

    m_star = 0
    while True:
        added = []
        for fn in cfg.functions:
            for label in sorted(fn.call):
                if (fn.name, label) in members:
                    continue
                edge = single_edge(fn, label)
                payload = edge.payload
                callee = cfg.function(payload.callee)
                if ((fn.name, edge.target) in members
                        and (payload.callee, callee.entry) in members):
                    added.append((fn.name, label))
                    K[(fn.name, label)] = (K[(fn.name, edge.target)]
                                           + K[(payload.callee, callee.entry)] + 1)
            for label in sorted(fn.branching | fn.nondet):
                if (fn.name, label) in members:
                    continue
                if label in fn.branching:
                    _, t1, t2 = branch_targets(fn, label)
                else:
                    t1, t2 = star_targets(fn, label)
                if (fn.name, t1) in members and (fn.name, t2) in members:
                    added.append((fn.name, label))
                    K[(fn.name, label)] = 1 + max(K[(fn.name, t1)], K[(fn.name, t2)])
        if not added:
            break
        members.update(added)
        m_star += 1

    all_labels = [(fn.name, label) for fn in cfg.functions for label in fn.labels()]
    all_covered = all(pair in members for pair in all_labels)
    k_values = [K[pair] for pair in members]
    by_function: Dict[str, int] = {}
    for fn in cfg.functions:
        ks = [K[(fn.name, label)] for label in fn.labels() if (fn.name, label) in members]
        by_function[fn.name] = max(ks) if ks else 0
    return ThetaIndex(
        members=frozenset(members),
        K=K,
        m_star=m_star,
        all_covered=all_covered,
        K_max=max(k_values) if k_values else 0,
        K_max_by_function=by_function,
    )
