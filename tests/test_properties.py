"""Randomized invariants.

The four load-bearing families (expected-decrease monotonicity, per-outcome
caps dominating expected caps, stack discipline, distribution normalization)
run at 1000 cases each; the acceptance suite calls them directly.

Programs and certificates are generated from a single drawn seed (cheap for
the example engine, reproducible under derandomized settings); the seed is
reported on failure.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from extreal import ExtReal
from termcert import InputError
from termcert.certificates import (CertPiece, Certificate, CertificateError, CertParams,
                                   parse_certificate)
from termcert.cfg import build_cfg, theta_fixpoint
from termcert.checker import VerifyBox, check_cdb, check_db, check_ranking, check_super
from termcert.distributions import (DiscreteDist, DistributionError, SamplingFunction,
                                    parse_distributions)
from termcert.lang import (
    And,
    Assign,
    BinOp,
    Call,
    Cmp,
    Const,
    EvalError,
    FunctionEntity,
    IfBool,
    IfStar,
    InfConst,
    Pow,
    Program,
    Seq,
    Skip,
    Var,
    While,
    label_program,
    pretty_print,
)
from termcert.parser import _KEYWORDS, parse_program
from termcert.semantics import StackElement
from termcert.valuation import Valuation

PVARS = ("m", "n")
BOX = VerifyBox.parse("m=-2..2, n=-2..2")


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def rand_expr(rnd: random.Random, depth: int = 2):
    roll = rnd.random()
    if depth == 0 or roll < 0.4:
        if rnd.random() < 0.5:
            return Const(Fraction(rnd.randint(-4, 4)))
        return Var(rnd.choice(PVARS))
    if roll < 0.85:
        op = rnd.choice("+-*")
        return BinOp(op, rand_expr(rnd, depth - 1), rand_expr(rnd, depth - 1))
    return BinOp("div", rand_expr(rnd, depth - 1), Const(Fraction(rnd.randint(2, 3))))


def rand_pred(rnd: random.Random):
    def cmp():
        return Cmp(rnd.choice(("<", "<=", ">", ">=")),
                   rand_expr(rnd, 1), rand_expr(rnd, 1))

    if rnd.random() < 0.3:
        return And(cmp(), cmp())
    return cmp()


def rand_stmt(rnd: random.Random, depth: int = 2, allow_call: bool = False):
    roll = rnd.random()
    if depth == 0 or roll < 0.35:
        if rnd.random() < 0.25:
            return Skip()
        return Assign(rnd.choice(PVARS), rand_expr(rnd))
    if allow_call and roll < 0.45:
        return Call("g", (rand_expr(rnd, 1), rand_expr(rnd, 1)))
    if roll < 0.6:
        return IfBool(rand_pred(rnd), rand_stmt(rnd, depth - 1, allow_call),
                      rand_stmt(rnd, depth - 1, allow_call))
    if roll < 0.75:
        return IfStar(rand_stmt(rnd, depth - 1, allow_call),
                      rand_stmt(rnd, depth - 1, allow_call))
    if roll < 0.9:
        return While(rand_pred(rnd), rand_stmt(rnd, depth - 1, allow_call))
    return Seq((rand_stmt(rnd, depth - 1, allow_call),
                rand_stmt(rnd, depth - 1, allow_call)))


def _chain(parts):
    return parts[0] if len(parts) == 1 else Seq(tuple(parts))


def rand_program(seed: int) -> Program:
    rnd = random.Random(seed)
    f_parts = [rand_stmt(rnd, 2, allow_call=True) for _ in range(rnd.randint(1, 2))]
    g_parts = [rand_stmt(rnd, 1, allow_call=False) for _ in range(rnd.randint(1, 2))]
    if rnd.random() < 0.6:
        victim = rnd.choice(PVARS)
        stmt = Assign(victim, BinOp("+", Var(victim), Var("r")))
        (f_parts if rnd.random() < 0.5 else g_parts).append(stmt)
    prog = Program((
        FunctionEntity("f", PVARS, _chain(f_parts)),
        FunctionEntity("g", PVARS, _chain(g_parts)),
    ))
    return label_program(prog)


def rand_certificate(seed: int, cfg) -> Certificate:
    rnd = random.Random(seed)
    stanzas = []
    for fn in cfg.functions:
        for label in fn.labels():
            if label == fn.exit:
                stanzas.append(((fn.name, label), (CertPiece(None, Const(Fraction(0))),)))
                continue
            slope_m = rnd.randint(0, 2)
            slope_n = rnd.randint(0, 2)
            offset = rnd.randint(0, 8)
            fallback = rnd.randint(0, 8)
            guarded = CertPiece(
                And(Cmp(">=", Var("m"), Const(Fraction(0))),
                    Cmp(">=", Var("n"), Const(Fraction(0)))),
                BinOp("+", BinOp("+", BinOp("*", Const(Fraction(slope_m)), Var("m")),
                                 BinOp("*", Const(Fraction(slope_n)), Var("n"))),
                      Const(Fraction(offset))),
            )
            stanzas.append(((fn.name, label),
                            (guarded, CertPiece(None, Const(Fraction(fallback))))))
    return Certificate(tuple(stanzas), CertParams())


def rand_rich_certificate(seed: int, cfg, hazards: bool = True) -> Certificate:
    """Random guards, explicit inf, rational constants, `div` and `^`,
    partial and missing stanzas; with `hazards`, some values are negative or
    ill-defined."""
    rnd = random.Random(seed)

    def value():
        roll = rnd.random()
        if roll < 0.15:
            return InfConst()
        rational = Const(Fraction(rnd.randint(0, 9), rnd.choice((1, 2, 3))))
        if roll < 0.35:
            return rational
        if not hazards:  # squares of integers: defined and nonnegative
            expr = rand_expr(rnd)
            square = Pow(expr, Const(Fraction(2))) if roll < 0.45 else BinOp("*", expr, expr)
            if roll < 0.6:
                return BinOp("div", square, Const(Fraction(rnd.randint(1, 2))))
            return BinOp("+", square, rational)
        if roll < 0.5:  # a non-integer dividend raises
            return BinOp("div", BinOp("*", rational, Var(rnd.choice(PVARS))),
                         Const(Fraction(rnd.randint(1, 2))))
        if roll < 0.6:  # a negative exponent raises
            return BinOp("+", Pow(Const(Fraction(2)), Var(rnd.choice(PVARS))), rational)
        return BinOp("+", rand_expr(rnd), rational)

    stanzas = []
    for fn in cfg.functions:
        for label in fn.labels():
            if rnd.random() < 0.15:
                continue  # no stanza: inf, or 0 at the terminal label
            pieces = [CertPiece(rand_pred(rnd), value()) for _ in range(rnd.randint(0, 2))]
            if not pieces or rnd.random() < 0.6:
                pieces.append(CertPiece(None, value()))
            stanzas.append(((fn.name, label), tuple(pieces)))
    return Certificate(tuple(stanzas))


def make_sampling_function() -> SamplingFunction:
    return SamplingFunction.from_mapping({
        "r": DiscreteDist.from_pairs([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]),
    })


# ---------------------------------------------------------------------------
# the four 1000-case properties
# ---------------------------------------------------------------------------

@settings(max_examples=1000)
@given(seed=st.integers(0, 2**48))
def test_expected_decrease_is_monotone_in_eps(seed):
    cfg = build_cfg(rand_program(seed))
    cert = rand_certificate(seed ^ 0x9E3779B9, cfg)
    sf = make_sampling_function()
    verdicts = [
        check_ranking(cert, cfg, sf, BOX, eps=eps).passed
        for eps in (Fraction(2), Fraction(1), Fraction(1, 2))
    ]
    # passing at a larger decrease implies passing at every smaller one
    for stronger, weaker in zip(verdicts, verdicts[1:]):
        assert not stronger or weaker


@settings(max_examples=1000)
@given(seed=st.integers(0, 2**48), zeta_num=st.integers(1, 6))
def test_per_outcome_cap_implies_expected_caps(seed, zeta_num):
    cfg = build_cfg(rand_program(seed))
    cert = rand_certificate(seed ^ 0x51A3B2C1, cfg)
    sf = make_sampling_function()
    zeta = Fraction(zeta_num)
    if check_db(cert, cfg, sf, BOX, zeta=zeta).passed:
        assert check_cdb(cert, cfg, sf, BOX, delta=zeta, zeta=zeta).passed


@settings(max_examples=1000)
@given(seed=st.integers(0, 2**48))
def test_stack_discipline(seed):
    cfg = build_cfg(rand_program(seed))
    rnd = random.Random(seed)
    entry = StackElement("f", cfg.function("f").entry,
                         Valuation({"m": rnd.randint(-2, 2), "n": rnd.randint(-2, 2)}))
    states = oracles.coin_run(cfg, make_sampling_function(), entry, seed & 0xFFFF, 60)
    for before, after in zip(states, states[1:]):
        delta = len(after.config) - len(before.config)
        assert delta in (-1, 0, 1)
        if delta == 1:
            top = before.config[0]
            assert cfg.function(top.fname).label_class(top.label) == "call"


@settings(max_examples=1000)
@given(data=st.data())
def test_distribution_normalization(data):
    weights = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    values = data.draw(st.lists(st.integers(-10, 10), min_size=len(weights),
                                max_size=len(weights), unique=True))
    total = sum(weights)
    pairs = [(v, Fraction(w, total)) for v, w in zip(values, weights)]
    dist = DiscreteDist.from_pairs(pairs)
    assert sum(p for _, p in dist.support) == 1
    if len(pairs) > 1:
        broken = pairs[:-1]  # drops positive mass, so the sum is short
        with pytest.raises(DistributionError):
            DiscreteDist.from_pairs(broken)
    sf = SamplingFunction.from_mapping({"a": dist, "b": dist})
    assert sum(w for _, w in sf.joint_support_over(sf.variables)) == 1


# ---------------------------------------------------------------------------
# further randomized invariants
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(seed=st.integers(0, 2**48))
def test_round_trip_random_programs(seed):
    prog = rand_program(seed)
    assert parse_program(pretty_print(prog)) == prog


@settings(max_examples=300)
@given(seed=st.integers(0, 2**48))
def test_labelling_deterministic_and_distinct(seed):
    prog = rand_program(seed)
    a = label_program(prog)
    b = label_program(prog)
    for fa, fb in zip(a.functions, b.functions):
        la, lb = oracles.labels_of(fa), oracles.labels_of(fb)
        assert list(la) == list(lb)
        labels = sorted(la) + [fa.terminal_label]
        assert labels == sorted(set(labels))
        assert fa.terminal_label == max(labels)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**48))
def test_cfg_out_degree_invariant(seed):
    cfg = build_cfg(rand_program(seed))
    for fn in cfg.functions:
        for label in fn.labels():
            out = len(list(fn.nodes[label].edges())) if label in fn.nodes else 0
            cls = fn.label_class(label)
            expected = {"assignment": 1, "call": 1, "branching": 2,
                        "nondet": 2, "terminal": 0}[cls]
            assert out == expected


@settings(max_examples=300)
@given(seed=st.integers(0, 2**48))
def test_theta_stabilizes_within_label_count(seed):
    cfg = build_cfg(rand_program(seed))
    theta = theta_fixpoint(cfg)
    total_labels = sum(len(fn.labels()) for fn in cfg.functions)
    assert theta.m_star <= total_labels
    for fn in cfg.functions:
        for label in fn.labels():
            if fn.label_class(label) not in ("assignment", "terminal"):
                continue
            assert (fn.name, label) in theta.members
            assert theta.K[(fn.name, label)] == 0


# the pieces of the three text formats: identifiers, digits, keywords,
# newlines and symbols.  A line starts with one of the formats' heads, or
# none, so that many lines get past the head, then has up to four pieces
# with or without spaces between them.
_FORMAT_ALPHABET = ("f", "g", "n", "r", "eps", "zeta", "0", "1", "12", *sorted(_KEYWORDS),
                    "\n", " ", *"@:;[]=<>-+*/^().#{},")
_FORMAT_LINE = st.tuples(st.sampled_from(("", "f@1:", "r:", "eps=")),
                         st.lists(st.sampled_from(_FORMAT_ALPHABET), max_size=4),
                         st.sampled_from(("", " "))).map(lambda t: t[0] + t[2].join(t[1]))


@settings(max_examples=200)
@given(text=st.lists(_FORMAT_LINE, min_size=1, max_size=2).map("\n".join))
def test_parsers_raise_only_input_errors(text):
    for parse in (parse_program, parse_certificate, parse_distributions):
        try:
            parse(text)
        except InputError:
            pass


def _value_or_error(value, *args, **kwargs):
    try:
        return value(*args, **kwargs)
    except (EvalError, CertificateError) as exc:
        return type(exc)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**48))
def test_compiled_certificate_value_matches_interpretive_reference(seed):
    # at every box point and each of its successors, the compiled certificate
    # value (or the error it raises) equals the interpretive oracle's
    cfg = build_cfg(rand_program(seed))
    cert = rand_rich_certificate(seed ^ 0x0D1FF, cfg)
    sf = make_sampling_function()

    def kernel_value(*args, **kwargs):
        return ExtReal(cert.value(*args, **kwargs))  # None is inf

    for fn in cfg.functions:
        for label in fn.labels():
            for nu in oracles.box_points(BOX, fn.pvars):
                points = [(fn.name, label, nu)]
                cls, node = fn.label_class(label), fn.nodes.get(label)
                if cls == "assignment":
                    points += [(fn.name, node.target, oracles.apply_update(node, nu, mu))
                               for mu, _ in sf.joint_support_over(node.sampling_vars)]
                elif cls == "call":
                    callee = cfg.function(node.callee)
                    points += [(callee.name, callee.entry, oracles.pass_values(node, nu)),
                               (fn.name, node.target, nu)]
                elif cls != "terminal":
                    points += [(fn.name, target, nu) for target in node.targets]
                for fname, lab, point in points:
                    terminal = lab == cfg.function(fname).exit
                    assert (_value_or_error(kernel_value, fname, lab, point, is_terminal=terminal)
                            == _value_or_error(oracles.cert_value, cert, fname, lab, point,
                                               is_terminal=terminal)), (fname, lab, point)


def rand_program_with_every_label_class(seed: int) -> Program:
    """f reaches an assignment drawing two sampling variables, a call, a
    branch and a star, in random order around random statements."""
    rnd = random.Random(seed)
    victim = rnd.choice(PVARS)
    parts = [
        rand_stmt(rnd, 2, allow_call=True),
        Assign(victim, BinOp("+", Var(victim), BinOp("*", Var("r"), Var("s")))),
        Call("g", (rand_expr(rnd, 1), rand_expr(rnd, 1))),
        IfBool(rand_pred(rnd), rand_stmt(rnd, 1), rand_stmt(rnd, 1)),
        IfStar(rand_stmt(rnd, 1), rand_stmt(rnd, 1)),
    ]
    rnd.shuffle(parts)
    g_parts = [rand_stmt(rnd, 1) for _ in range(rnd.randint(1, 2))]
    return label_program(Program((
        FunctionEntity("f", PVARS, _chain(parts)),
        FunctionEntity("g", PVARS, _chain(g_parts)),
    )))


CHECKS = {
    "ranking": lambda cert, cfg, sf, p: check_ranking(cert, cfg, sf, BOX, eps=p["eps"]),
    "cdb": lambda cert, cfg, sf, p: check_cdb(cert, cfg, sf, BOX, delta=p["delta"],
                                              zeta=p["zeta"]),
    "db": lambda cert, cfg, sf, p: check_db(cert, cfg, sf, BOX, zeta=p["zeta"]),
    "super": lambda cert, cfg, sf, p: check_super(cert, cfg, sf, BOX, delta=p["delta"],
                                                  zeta=p["zeta"]),
}
RATIONALS = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                             Fraction(4), Fraction(13, 3)])


@settings(max_examples=40)
@given(seed=st.integers(0, 2**48), certs=st.sampled_from(("plain", "rich", "hazards")),
       eps=RATIONALS, delta=RATIONALS, zeta=RATIONALS)
def test_checker_conditions_match_the_oracle(seed, certs, eps, delta, zeta):
    # every family's report (verdict, counts, and per condition the first
    # failing point with its lhs/rhs/detail) or the type of the error it
    # raises equals the point-by-point oracle's
    cfg = build_cfg(rand_program_with_every_label_class(seed))
    if certs == "plain":
        cert = rand_certificate(seed ^ 0xC0DE, cfg)
    else:
        cert = rand_rich_certificate(seed ^ 0xC0DE, cfg, hazards=certs == "hazards")
    sf = SamplingFunction.from_mapping({
        "r": DiscreteDist.from_pairs([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]),
        "s": DiscreteDist.from_pairs([(1, Fraction(1, 3)), (3, Fraction(2, 3))]),
    })
    params = {"eps": eps, "delta": delta, "zeta": zeta}
    intervals = {name: BOX.interval(name) for name in PVARS}
    for kind, check in CHECKS.items():
        expected = oracles.check_report(kind, params, cert, cfg, sf, intervals)
        try:
            report = check(cert, cfg, sf, params).to_json_dict()
        except (EvalError, CertificateError) as exc:
            assert type(exc) is expected, (kind, exc)
            continue
        assert {key: report[key] for key in expected} == expected, kind
