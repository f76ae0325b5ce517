"""Lowering labelled programs to control-flow graphs.

Each function body becomes a table with one node per label, the terminal
label aside; a node is what its label does, and its successors:

    Branch(pred, yes, no)        a branching label: to `yes` where `pred`
                                 holds, to `no` where it does not
    Update(var, expr, ...)       an assignment label: one update function,
                                 the identity for `skip`
    CallSite(callee, ...)        a call label: the callee, its value-passing
                                 function and the label returned to
    Star(then, orelse)           a nondeterministic label: two branches with
                                 a recorded then/else orientation

A sequence adds no node: its items lower in order, each flowing to the
next item's label and the last to what follows the sequence.  A node's
`kind` is its label class, `targets` its successor labels in the
function, and `edges()` its outgoing edges as `dump_cfg` renders them.  The
statement labels assigned by the frontend are reused verbatim, so the
graphs line up with the labelled listings that certificates refer to.  A
`StackElement` is a point of these graphs, and `theta_fixpoint` an analysis
of them alone, which the `super` family's bounds need.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

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
class Branch:
    """A branching label: to `yes` where `pred` holds, else to `no`."""

    kind = "branching"
    pred: Pred
    yes: int
    no: int

    @property
    def targets(self) -> Tuple[int, int]:
        return self.yes, self.no

    def edges(self) -> Iterator[Tuple[str, int]]:
        text = format_pred(self.pred)
        yield text, self.yes
        yield f"not ({text})", self.no


@record(frozen=True)
class Update:
    """An assignment label: `var := expr`, the identity when var is None;
    `sampling_vars` are the sampling variables that `expr` reads."""

    kind = "assignment"
    var: Optional[str]
    expr: Optional[Expr]
    sampling_vars: Tuple[str, ...]
    target: int

    @property
    def targets(self) -> Tuple[int]:
        return (self.target,)

    def edges(self) -> Iterator[Tuple[str, int]]:
        yield ("id" if self.var is None else f"{self.var} := {format_expr(self.expr)}",
               self.target)


@record(frozen=True)
class CallSite:
    """A call label: the callee's parameters get the arguments and its other
    variables (`callee_vars` lists them all) zero; `target` is the label
    returned to."""

    kind = "call"
    callee: str
    params: Tuple[str, ...]
    args: Tuple[Expr, ...]
    callee_vars: Tuple[str, ...]
    target: int

    @property
    def targets(self) -> Tuple[int]:
        return (self.target,)

    def edges(self) -> Iterator[Tuple[str, int]]:
        inner = ", ".join(f"{p} := {format_expr(a)}" for p, a in zip(self.params, self.args))
        yield f"call {self.callee}({inner})", self.target


@record(frozen=True)
class Star:
    """A nondeterministic label: the scheduler picks `then` or `orelse`."""

    kind = "nondet"
    then: int
    orelse: int

    @property
    def targets(self) -> Tuple[int, int]:
        return self.then, self.orelse

    def edges(self) -> Iterator[Tuple[str, int]]:
        yield "star:then", self.then
        yield "star:else", self.orelse


Node = Union[Branch, Update, CallSite, Star]


@record(frozen=True)
class CfgFunction:
    """`nodes` maps every label but the exit to its node, labels ascending."""

    name: str
    pvars: Tuple[str, ...]
    entry: int
    exit: int
    nodes: Dict[int, Node]

    def labels(self) -> Tuple[int, ...]:
        return tuple(sorted([*self.nodes, self.exit]))

    def label_class(self, label: int) -> str:
        return "terminal" if label == self.exit else self.nodes[label].kind

    def edges(self) -> Iterator[Tuple[int, str, int]]:
        """(source, payload text, target) of every edge, by source and with
        the true or then edge first."""
        for label, node in self.nodes.items():
            for text, target in node.edges():
                yield label, text, target


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


def build_cfg(prog: Program) -> Cfg:
    """Lower a labelled program; every labelled program lowers."""
    pvars = {f.name: program_variables(prog, f.name) for f in prog.functions}
    params = {f.name: f.params for f in prog.functions}
    sampling = set(prog.sampling_variables())

    functions = []
    for f in prog.functions:
        if f.terminal_label is None:
            raise CfgError(f"function {f.name!r} is not labelled")
        functions.append(_lower_function(f, pvars, params, sampling))
    return Cfg(tuple(functions), tuple(sorted(sampling)), prog.builtin_dists)


def _lower_function(f: FunctionEntity, pvars, params, sampling) -> CfgFunction:
    nodes: Dict[int, Node] = {}

    def lower(block: Stmt, next_label: int) -> None:
        """Add the nodes of `block`, a statement or a sequence, with control
        flowing to `next_label` after it: one Python frame per nesting level."""
        items = _seq_items(block)
        for stmt, after in zip(items, [item.label for item in items[1:]] + [next_label]):
            lab = stmt.label
            if isinstance(stmt, Skip):
                nodes[lab] = Update(None, None, (), after)
            elif isinstance(stmt, Assign):
                used = tuple(sorted(expr_variables(stmt.expr) & sampling))
                nodes[lab] = Update(stmt.var, stmt.expr, used, after)
            elif isinstance(stmt, Call):
                nodes[lab] = CallSite(stmt.fname, params[stmt.fname], stmt.args,
                                      pvars[stmt.fname], after)
            elif isinstance(stmt, (IfBool, IfStar)):
                yes, no = _first_label(stmt.then), _first_label(stmt.orelse)
                nodes[lab] = (Branch(stmt.cond, yes, no) if isinstance(stmt, IfBool)
                              else Star(yes, no))
                lower(stmt.then, after)
                lower(stmt.orelse, after)
            elif isinstance(stmt, While):
                # The loop head doubles as the body's continuation.
                nodes[lab] = Branch(stmt.cond, _first_label(stmt.body), after)
                lower(stmt.body, lab)
            else:
                raise CfgError(f"cannot lower {stmt!r}")

    lower(f.body, f.terminal_label)
    return CfgFunction(f.name, pvars[f.name], _first_label(f.body), f.terminal_label,
                       dict(sorted(nodes.items())))


def _first_label(stmt: Stmt) -> int:
    return _seq_items(stmt)[0].label


def dump_cfg(cfg: Cfg) -> str:
    """Deterministic edge list: functions by name, labels ascending."""
    lines = []
    for fn in sorted(cfg.functions, key=lambda f: f.name):
        lines.append(
            f"function {fn.name} (vars: {', '.join(fn.pvars)}) "
            f"entry={fn.entry} exit={fn.exit}"
        )
        lines.extend(f"  {source} --[{text}]--> {target}" for source, text, target in fn.edges())
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


def theta_fixpoint(cfg: Cfg) -> ThetaIndex:
    """Iterate the closure; stabilizes within the total label count.

    Base set: assignment labels and the terminal label, at distance 0.  A
    call label joins once its continuation and the callee's entry are in,
    at the sum of their distances plus one; a branching or nondeterministic
    label joins once both its targets are in, one past the larger distance.
    """
    K: Dict[Tuple[str, int], int] = {}
    for fn in cfg.functions:
        K[(fn.name, fn.exit)] = 0
        K.update(((fn.name, label), 0) for label, node in fn.nodes.items()
                 if isinstance(node, Update))
    members = set(K)

    m_star = 0
    while True:
        added = {}
        for fn in cfg.functions:
            for label, node in fn.nodes.items():
                if (fn.name, label) in members:
                    continue
                if isinstance(node, CallSite):
                    parts = ((fn.name, node.target),
                             (node.callee, cfg.function(node.callee).entry))
                    combine = sum
                else:
                    parts, combine = tuple((fn.name, t) for t in node.targets), max
                if all(part in members for part in parts):
                    added[(fn.name, label)] = 1 + combine(K[part] for part in parts)
        if not added:
            break
        K.update(added)
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
