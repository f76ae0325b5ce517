"""Lowering labelled programs to control-flow graphs.

Each function body becomes a label set partitioned into branching,
assignment, call, and nondeterministic labels, plus a terminal label with
no outgoing edges, and a transition relation of (label, payload, label')
triples:

    branching label     two edges guarded by a predicate and its negation
    assignment label    one edge carrying an update function
    call label          one edge carrying (callee, value-passing function)
    nondeterministic    two star edges with a recorded then/else orientation

The statement labels assigned by the frontend are reused verbatim, so the
graphs line up with the labelled listings that certificates refer to.  A
`StackElement` is a point of these graphs, and `theta_fixpoint` an analysis
of them alone, which the `super` family's bounds need.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from ._record import field, record
from .lang import (
    Assign,
    Call,
    Expr,
    FunctionEntity,
    IfBool,
    IfStar,
    Pred,
    Program,
    Seq,
    Skip,
    Stmt,
    While,
    _seq_items,
    expr_variables,
    format_expr,
    format_pred,
    program_variables,
)
from .valuation import Valuation


class CfgError(ValueError):
    pass


@record(frozen=True)
class StackElement:
    fname: str
    label: int
    valuation: Valuation


@record(frozen=True)
class PredPayload:
    """Guard of one branching edge; `negated` marks the complement edge."""

    pred: Pred
    negated: bool = False

    def render(self) -> str:
        text = format_pred(self.pred)
        return f"not ({text})" if self.negated else text


@record(frozen=True)
class UpdatePayload:
    """Update function of an assignment edge; identity when var is None."""

    var: Optional[str]
    expr: Optional[Expr]
    sampling_vars: Tuple[str, ...] = ()

    def render(self) -> str:
        if self.var is None:
            return "id"
        return f"{self.var} := {format_expr(self.expr)}"


@record(frozen=True)
class CallPayload:
    """Callee plus the value-passing function of a call edge."""

    callee: str
    params: Tuple[str, ...]
    args: Tuple[Expr, ...]
    callee_vars: Tuple[str, ...]

    def render(self) -> str:
        inner = ", ".join(f"{p} := {format_expr(a)}" for p, a in zip(self.params, self.args))
        return f"call {self.callee}({inner})"


@record(frozen=True)
class StarPayload:
    branch: str  # "then" or "else"

    def render(self) -> str:
        return f"star:{self.branch}"


Payload = Union[PredPayload, UpdatePayload, CallPayload, StarPayload]


@record(frozen=True)
class Transition:
    source: int
    payload: Payload
    target: int


@record(frozen=True)
class CfgFunction:
    name: str
    pvars: Tuple[str, ...]
    entry: int
    exit: int
    branching: frozenset
    assignment: frozenset
    call: frozenset
    nondet: frozenset
    transitions: Tuple[Transition, ...]

    def labels(self) -> Tuple[int, ...]:
        return tuple(sorted(self.branching | self.assignment | self.call
                            | self.nondet | {self.exit}))

    def out_edges(self, label: int) -> Tuple[Transition, ...]:
        return self._out_edges.get(label, ())

    @cached_property
    def _out_edges(self) -> Dict[int, Tuple[Transition, ...]]:
        """label -> its edges, indexed once: a scan per lookup is quadratic
        in the length of a function."""
        out: Dict[int, Tuple[Transition, ...]] = {}
        for t in self.transitions:
            out[t.source] = out.get(t.source, ()) + (t,)
        return out

    def label_class(self, label: int) -> str:
        if label == self.exit:
            return "terminal"
        if label in self.branching:
            return "branching"
        if label in self.assignment:
            return "assignment"
        if label in self.call:
            return "call"
        if label in self.nondet:
            return "nondet"
        raise CfgError(f"{self.name} has no label {label}")


@record(frozen=True)
class Cfg:
    functions: Tuple[CfgFunction, ...]
    sampling_vars: Tuple[str, ...]
    builtin_dists: Tuple = ()

    def function(self, name: str) -> CfgFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def function_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.functions)

    @cached_property
    def _ops(self):
        """Per-label ops (`_compile.OpTable`), each compiled once."""
        from ._compile import OpTable  # here, so that the `cfg` command compiles nothing
        return OpTable(self)

    def __getstate__(self):
        # lambdas do not pickle; a pool worker compiles its own copy
        return {k: v for k, v in self.__dict__.items() if k != "_ops"}


def build_cfg(prog: Program) -> Cfg:
    """Lower a labelled program; every labelled program lowers."""
    pvars = {f.name: program_variables(prog, f.name) for f in prog.functions}
    params = {f.name: f.params for f in prog.functions}
    sampling = set(prog.sampling_variables())

    functions = []
    for f in prog.functions:
        if f.terminal_label is None:
            raise CfgError(f"function {f.name!r} is not labelled")
        builder = _FunctionBuilder(f, pvars, params, sampling)
        functions.append(builder.build())
    return Cfg(tuple(functions), tuple(sorted(sampling)), prog.builtin_dists)


class _FunctionBuilder:
    def __init__(self, f: FunctionEntity, pvars, params, sampling):
        self.f = f
        self.pvars = pvars
        self.params = params
        self.sampling = sampling
        self.transitions: List[Transition] = []
        self.branching: set = set()
        self.assignment: set = set()
        self.call: set = set()
        self.nondet: set = set()

    def build(self) -> CfgFunction:
        exit_label = self.f.terminal_label
        self.lower(self.f.body, exit_label)
        return CfgFunction(
            name=self.f.name,
            pvars=self.pvars[self.f.name],
            entry=_first_label(self.f.body),
            exit=exit_label,
            branching=frozenset(self.branching),
            assignment=frozenset(self.assignment),
            call=frozenset(self.call),
            nondet=frozenset(self.nondet),
            transitions=tuple(sorted(self.transitions, key=_edge_sort_key)),
        )

    def lower(self, stmt: Stmt, next_label: int) -> None:
        """Emit edges for `stmt`, with control flowing to `next_label` after."""
        if isinstance(stmt, Seq):
            items = list(_seq_items(stmt))
            for item, after in zip(items, items[1:]):
                self.lower(item, after.label)
            self.lower(items[-1], next_label)
            return
        lab = stmt.label
        if isinstance(stmt, Skip):
            self.assignment.add(lab)
            self.transitions.append(Transition(lab, UpdatePayload(None, None), next_label))
        elif isinstance(stmt, Assign):
            self.assignment.add(lab)
            used = tuple(sorted(expr_variables(stmt.expr) & self.sampling))
            self.transitions.append(
                Transition(lab, UpdatePayload(stmt.var, stmt.expr, used), next_label))
        elif isinstance(stmt, Call):
            self.call.add(lab)
            payload = CallPayload(
                callee=stmt.fname,
                params=self.params[stmt.fname],
                args=stmt.args,
                callee_vars=self.pvars[stmt.fname],
            )
            self.transitions.append(Transition(lab, payload, next_label))
        elif isinstance(stmt, IfBool):
            self.branching.add(lab)
            self.transitions.append(
                Transition(lab, PredPayload(stmt.cond), _first_label(stmt.then)))
            self.transitions.append(
                Transition(lab, PredPayload(stmt.cond, negated=True), _first_label(stmt.orelse)))
            self.lower(stmt.then, next_label)
            self.lower(stmt.orelse, next_label)
        elif isinstance(stmt, IfStar):
            self.nondet.add(lab)
            self.transitions.append(
                Transition(lab, StarPayload("then"), _first_label(stmt.then)))
            self.transitions.append(
                Transition(lab, StarPayload("else"), _first_label(stmt.orelse)))
            self.lower(stmt.then, next_label)
            self.lower(stmt.orelse, next_label)
        elif isinstance(stmt, While):
            # The loop head doubles as the body's continuation.
            self.branching.add(lab)
            self.transitions.append(
                Transition(lab, PredPayload(stmt.cond), _first_label(stmt.body)))
            self.transitions.append(
                Transition(lab, PredPayload(stmt.cond, negated=True), next_label))
            self.lower(stmt.body, lab)
        else:
            raise CfgError(f"cannot lower {stmt!r}")


def _first_label(stmt: Stmt) -> int:
    while isinstance(stmt, Seq):
        stmt = stmt.first
    return stmt.label


def _edge_sort_key(t: Transition):
    if isinstance(t.payload, PredPayload):
        branch_rank = 1 if t.payload.negated else 0
    elif isinstance(t.payload, StarPayload):
        branch_rank = 0 if t.payload.branch == "then" else 1
    else:
        branch_rank = 0
    return (t.source, branch_rank, t.target)


def star_targets(fn: CfgFunction, label: int) -> Tuple[int, int]:
    """(then-target, else-target) of a nondeterministic label."""
    then = orelse = None
    for t in fn.out_edges(label):
        if isinstance(t.payload, StarPayload):
            if t.payload.branch == "then":
                then = t.target
            else:
                orelse = t.target
    if then is None or orelse is None:
        raise CfgError(f"label {label} of {fn.name} is not nondeterministic")
    return then, orelse


def branch_targets(fn: CfgFunction, label: int) -> Tuple[Pred, int, int]:
    """(predicate, true-target, false-target) of a branching label."""
    pred = true_t = false_t = None
    for t in fn.out_edges(label):
        if isinstance(t.payload, PredPayload):
            if t.payload.negated:
                false_t = t.target
            else:
                pred = t.payload.pred
                true_t = t.target
    if pred is None or true_t is None or false_t is None:
        raise CfgError(f"label {label} of {fn.name} is not branching")
    return pred, true_t, false_t


def single_edge(fn: CfgFunction, label: int) -> Transition:
    edges = fn.out_edges(label)
    if len(edges) != 1:
        raise CfgError(f"label {label} of {fn.name} has {len(edges)} edges, expected 1")
    return edges[0]


def dump_cfg(cfg: Cfg) -> str:
    """Deterministic edge list: functions by name, labels ascending."""
    lines = []
    for fn in sorted(cfg.functions, key=lambda f: f.name):
        lines.append(
            f"function {fn.name} (vars: {', '.join(fn.pvars)}) "
            f"entry={fn.entry} exit={fn.exit}"
        )
        for t in fn.transitions:
            lines.append(f"  {t.source} --[{t.payload.render()}]--> {t.target}")
    return "\n".join(lines) + "\n"


@record
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
