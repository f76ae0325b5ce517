"""Metamorphic relations of the condition sweep.

Each condition compares a certificate value with a one-step pre-expectation
plus at most one parameter, so it is homogeneous of degree 1 in (h, eps,
delta, zeta): scaling every stanza and parameter by k > 0 changes no verdict.
Labels are numbered per function and units scanned in function-name order,
so the order of function declarations does not matter; points are scanned
in the order of the variables' names, so an order-preserving renaming
changes only the names; and a sub-box sees its own points in the same
order.  The corpus is the property tests' programs and certificates, and
the three fixtures on small boxes.
"""

import re
from fractions import Fraction
from functools import lru_cache

import pytest

from test_golden_checkreports import GENERATORS, OVERRIDES, PARAMS, SF
from test_properties import BOX, check_overriding, rand_certificate, rand_rich_certificate

from termcert import InputError
from termcert.certificates import (CHECK_KINDS, CertParams, CertPiece, Certificate,
                                   parse_certificate)
from termcert.cfg import build_cfg
from termcert.checker import VerifyBox
from termcert.fixtures import coin_loops, halving_game, load_program_fixture, random_walk
from termcert.lang import BinOp, Const, InfConst, Program, label_program, pretty_print
from termcert.parser import parse_program

FIXTURES = (  # fixture, its box, a sub-box, an order-preserving renaming
    (halving_game, "n=-30..30", "n=-10..5", {"n": "x"}),
    (random_walk, "n=-20..20", "n=-5..5", {"n": "x"}),
    (coin_loops, "c=-1..1, i=-1..6, n=-1..6", "c=0..1, i=0..4, n=-1..3",
     {"c": "a", "i": "b", "n": "d"}),
)
SUB_BOX = ("m=-1..2, n=-2..1", "m=-2..0, n=0..2")


def _cases():
    """(name, program, certificate, sampling function, box, sub-boxes,
    renaming, parameter overrides) for every case."""
    for gen, program in GENERATORS.items():
        for seed in range(6):
            prog = program(seed)
            cfg = build_cfg(prog)
            for certs in ("plain", "rich", "hazards"):
                cert = (rand_certificate(seed ^ 0xC0DE, cfg) if certs == "plain" else
                        rand_rich_certificate(seed ^ 0xC0DE, cfg, hazards=certs == "hazards"))
                yield (f"{gen} {seed} {certs}", prog, cert, SF, BOX.render(), SUB_BOX,
                       {"m": "a", "n": "b"}, PARAMS[seed % len(PARAMS)])
    for fixture, box, sub, renaming in FIXTURES:
        _, sf, cert = fixture()
        prog = load_program_fixture(fixture.__name__)
        for i, params in enumerate(OVERRIDES):
            yield (f"{fixture.__name__} {i}", prog, cert, sf, box, (sub,), renaming, params)


CASES = list(_cases())
IDS = [case[0] for case in CASES]


def _check(kind, prog, cert, sf, box, params):
    """The report's JSON form, or the class and text of the error raised."""
    try:
        return check_overriding(kind, cert, build_cfg(prog), sf, VerifyBox.parse(box),
                                params).to_json_dict()
    except InputError as exc:
        return {"error": type(exc).__name__, "text": str(exc)}


@lru_cache(maxsize=None)
def _base(index, kind, box=None):
    _, prog, cert, sf, full, _, _, params = CASES[index]
    return _check(kind, prog, cert, sf, box or full, params)


def _failing(report):
    return [(f["function"], f["label"], f["condition"], f["point"], f["detail"])
            for f in report["failures"]]


def _scaled_cert(cert, k):
    """Every stanza value times k (inf stays inf), every parameter too."""
    def scale(piece):
        if isinstance(piece.expr, InfConst):
            return piece
        return CertPiece(piece.guard, BinOp("*", Const(k), piece.expr))

    params = {name: getattr(cert.params, name) for name in ("eps", "delta", "zeta")}
    return Certificate(tuple((key, tuple(map(scale, pieces))) for key, pieces in cert.stanzas),
                       CertParams(**{n: v and v * k for n, v in params.items()}))


def _scaled_side(text, k):
    return text if text in ("inf", "> 0") else str(Fraction(text) * k)


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_scaling_certificate_and_parameters_keeps_every_verdict(index):
    _, prog, cert, sf, box, _, _, params = CASES[index]
    for k in (Fraction(3), Fraction(2, 7)):
        scaled = _scaled_cert(cert, k)
        for kind in CHECK_KINDS:
            base = _base(index, kind)
            got = _check(kind, prog, scaled, sf, box, {n: v * k for n, v in params.items()})
            if "error" in base:
                assert got.get("error") == base["error"], (kind, k)
                continue
            assert got["passed"] == base["passed"], (kind, k)
            for count in ("points_checked", "points_skipped", "conditions_checked"):
                assert got[count] == base[count], (kind, k, count)
            assert _failing(got) == _failing(base), (kind, k)
            for want, have in zip(base["failures"], got["failures"]):
                assert have["lhs"] == _scaled_side(want["lhs"], k), (kind, k, want)
                assert have["rhs"] == _scaled_side(want["rhs"], k), (kind, k, want)


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_permuting_function_declarations_keeps_the_report(index):
    _, prog, cert, sf, box, _, _, params = CASES[index]
    swapped = label_program(Program(prog.functions[::-1], prog.builtin_dists))
    for kind in CHECK_KINDS:
        assert _check(kind, swapped, cert, sf, box, params) == _base(index, kind), kind


def _renamed(text, renaming, then=r"\b"):
    """`text` with each word `old` that `then` follows renamed `new`."""
    for old, new in renaming.items():
        text = re.sub(rf"\b{old}(?={then})", new, text)
    return text


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_an_order_preserving_renaming_changes_only_the_names(index):
    _, prog, cert, sf, box, _, renaming, params = CASES[index]
    assert sorted(renaming) == sorted(renaming, key=renaming.get)
    back = {new: old for old, new in renaming.items()}
    renamed_prog = label_program(parse_program(_renamed(pretty_print(prog), renaming)))
    renamed_cert = parse_certificate(_renamed(cert.render(), renaming))
    for kind in CHECK_KINDS:
        got = _check(kind, renamed_prog, renamed_cert, sf, _renamed(box, renaming), params)
        want = _base(index, kind)
        if "error" in want:
            assert got["error"] == want["error"], kind
            assert _renamed(got["text"], back, "=") == want["text"], kind
            continue
        assert got["box"] == _renamed(want["box"], renaming), kind
        for failure in got["failures"]:
            failure["point"] = {back[name]: value for name, value in failure["point"].items()}
        assert ({k: v for k, v in got.items() if k not in ("box", "cert_digest")}
                == {k: v for k, v in want.items() if k not in ("box", "cert_digest")}), kind


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_a_sub_box_keeps_passes_and_first_failures_inside_it(index):
    _, _, _, _, box, subs, _, _ = CASES[index]
    for sub in subs:
        inside = VerifyBox.parse(sub)
        for kind in CHECK_KINDS:
            base, got = _base(index, kind), _base(index, kind, sub)
            if "error" in base:
                continue
            assert "error" not in got, (kind, sub)
            assert got["passed"] or not base["passed"], (kind, sub)
            firsts = {(f["function"], f["label"], f["condition"]): f for f in got["failures"]}
            for failure in base["failures"]:
                if all(lo <= failure["point"][n] <= hi for n, lo, hi in inside.bounds):
                    key = (failure["function"], failure["label"], failure["condition"])
                    assert firsts.get(key) == failure, (kind, sub, key)
