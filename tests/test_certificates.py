import hashlib
from fractions import Fraction

import pytest

from termcert.certificates import Certificate, CertificateError, CertParams, parse_certificate
from termcert.valuation import Valuation


def test_eval_running_example_values(halving):
    # an int or Fraction, None for inf
    cfg, _, cert = halving
    exit_label = cfg.function("f").exit
    assert cert.value("f", 1, Valuation({"n": 5})) == 56
    assert cert.value("f", exit_label, Valuation({"n": -3}), is_terminal=True) == 0
    assert cert.value("f", 2, Valuation({"n": 0})) is None
    # fractional coordinate: value at the handoff label for n = 2
    assert cert.value("f", 5, Valuation({"n": 2})) == Fraction(21, 2)


def test_first_matching_guard_wins():
    cert = parse_certificate("f@1: [n >= 0] 1 ; [n >= 0] 2 ; 3\n")
    assert cert.value("f", 1, Valuation({"n": 0})) == 1
    assert cert.value("f", 1, Valuation({"n": -1})) == 3


def test_unmatched_point_is_infinite():
    cert = parse_certificate("f@1: [n >= 1] n\n")
    assert cert.value("f", 1, Valuation({"n": 0})) is None


def test_terminal_without_stanza_defaults_to_zero():
    cert = parse_certificate("f@1: 5\n")
    assert cert.value("f", 9, Valuation({"n": 3}), is_terminal=True) == 0
    assert cert.value("f", 9, Valuation({"n": 3}), is_terminal=False) is None


def test_negative_value_is_a_format_error():
    cert = parse_certificate("f@1: 2*n - 4\n")
    with pytest.raises(CertificateError):
        cert.value("f", 1, Valuation({"n": 0}))


def test_power_expressions_use_exact_big_integers():
    cert = parse_certificate("f@1: [n >= 0] 2^(n+1) + 4\n")
    got = cert.value("f", 1, Valuation({"n": 100}))
    assert got == 2**101 + 4


def test_decimal_and_fraction_literals_are_exact():
    cert = parse_certificate("f@1: 13.5 ; 2\nf@2: 27/2\n")
    assert cert.value("f", 1, Valuation({})) == Fraction(27, 2)
    assert cert.value("f", 2, Valuation({})) == Fraction(27, 2)


def test_ill_defined_arithmetic_raises():
    from termcert.cfg import build_cfg
    from termcert.checker import VerifyBox, run_check
    from termcert.fixtures import sampling_function_for
    from termcert.lang import EvalError, label_program
    from termcert.parser import parse_program

    cert = parse_certificate("f@1: 2 ^ (n - 5)\nf@2: n div (n - n)\nf@3: 1/2 * n div 1\n")
    with pytest.raises(EvalError):
        cert.value("f", 1, Valuation({"n": 0}))  # negative exponent
    with pytest.raises(EvalError):
        cert.value("f", 2, Valuation({"n": 3}))  # division by zero
    with pytest.raises(EvalError):
        cert.value("f", 3, Valuation({"n": 3}))  # non-integer dividend
    assert cert.value("f", 1, Valuation({"n": 7})) == 4
    assert cert.value("f", 3, Valuation({"n": 4})) == 2

    # the checker evaluates through the same rule
    cfg = build_cfg(label_program(parse_program("f(n) { skip }")))
    sf = sampling_function_for(cfg)
    cert = parse_certificate("f@1: 1/2 * n div 1\n")
    with pytest.raises(EvalError):
        run_check("ranking", cert, cfg, sf, VerifyBox.parse("n=3..3"), CertParams(eps=1))
    assert run_check("ranking", cert, cfg, sf, VerifyBox.parse("n=4..4"),
                     CertParams(eps=1)).passed


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def test_div_and_power_helpers_match_the_oracle():
    # int operands take the helpers' fast path, Fractions their general one:
    # values and error types agree with the interpretive oracle, and an int
    # pair gives the value, type and message of the same pair as Fractions
    import oracles
    from termcert._compile import _idiv, _ipow
    from termcert.lang import BinOp, Const, Pow

    ints = [-7, -3, -1, 0, 1, 2, 3, 7, 12, 2**70 + 3, -(2**70)]
    rationals = [Fraction(7, 2), Fraction(-1, 3), Fraction(0), Fraction(-6), Fraction(12)]
    cases = [(_idiv, "div", a, b) for a in ints + rationals for b in ints + rationals]
    cases += [(_ipow, "^", a, b) for a in ints + rationals
              for b in [-2, -1, 0, 1, 2, 5, Fraction(1, 2), Fraction(-3), Fraction(3)]]
    for helper, op, a, b in cases:
        node = BinOp("div", Const(a), Const(b)) if op == "div" else Pow(Const(a), Const(b))
        got, want = _outcome(helper, a, b), _outcome(oracles.eval_expr, node)
        assert got[0] == want[0], (op, a, b)
        if got[0] == "value":
            assert got[1] == want[1], (op, a, b)
        if type(a) is int and type(b) is int:
            assert got == _outcome(helper, Fraction(a), Fraction(b)), (op, a, b)


def test_compiled_expressions_keep_the_grouping_they_need():
    # expr_code drops the parentheses an operator does not need; every
    # grouping below differs in value from its unparenthesised reading
    import oracles
    from termcert._compile import compile_lambda, expr_code
    from termcert.parser import TokenStream, parse_expr, tokenize

    for text in ("a - (b - c)", "(a - b) - c", "a - (b + c)", "(a + b) * c", "a * (b - c)",
                 "a * (b * c) - c", "-3 * a - -3", "(a - b) div c", "2 ^ (b - c) * c",
                 "a - b * c", "a * b - c"):
        expr = parse_expr(TokenStream(tokenize(text)))
        code = expr_code(expr, {"a": "a", "b": "b", "c": "c"}, 0, "_ipow")
        update = compile_lambda(f"lambda a, b, c: {code}")
        for vals in ((7, 2, 1), (-5, 3, 2), (4, 4, 3)):
            nu = Valuation(dict(zip("abc", vals)))
            assert update(*vals) == oracles.eval_expr(expr, nu), (text, vals)


def test_a_literal_divisor_is_floor_division_in_program_code():
    # in a program expression, whose values are ints, `div` by a positive
    # integer literal is Python's `//`, grouped as `div` is, in the checker
    # (`_ipow`) as in the run loop (`_rpow`); any other divisor, and every
    # certificate expression, keeps `_idiv` and its checks.  Values and
    # error types agree with the interpretive oracle
    import oracles
    from termcert._compile import compile_lambda, expr_code
    from termcert.parser import TokenStream, parse_expr, tokenize

    names = {"a": "a", "b": "b"}
    for text, code in [("a div 2", "a // 2"), ("(a - b) div 3", "(a - b) // 3"),
                       ("a div 2 div 3", "a // 2 // 3"), ("a * b div 2", "a * b // 2"),
                       ("a - b div 2", "a - b // 2"), ("b * (a div 2)", "b * (a // 2)"),
                       ("a div b", "_idiv(a, b)"), ("a div 0", "_idiv(a, 0)"),
                       ("a div -2", "_idiv(a, -2)"), ("(a div 2) ^ 2", "_rpow(a // 2, 2)")]:
        expr = parse_expr(TokenStream(tokenize(text)))
        assert expr_code(expr, names, 0, "_rpow") == code, text
        assert expr_code(expr, names, 0, "_ipow") == code.replace("_rpow", "_ipow"), text
        assert "//" not in expr_code(expr, names) and "_rpow" not in expr_code(expr, names)
        fn = compile_lambda(f"lambda a, b: {code}")
        for a in (-7, -2, 0, 3, 8, 2**70 + 1):
            for b in (-3, 0, 1, 2, 5):
                got = _outcome(fn, a, b)
                want = _outcome(oracles.eval_expr, expr, Valuation({"a": a, "b": b}))
                assert got[0] == want[0] and (got[0] != "value" or got[1] == want[1]), (text, a, b)


def test_digest_renders_once_per_certificate(halving, monkeypatch):
    # a certificate without source text is digested from render(), which a
    # check of it runs once however often the certificate is checked
    from termcert.checker import VerifyBox, run_check

    cfg, sf, cert = halving
    bare = Certificate(cert.stanzas, cert.params)
    want = hashlib.sha256(bare.render().encode("utf-8")).hexdigest()[:16]
    calls = []
    render = Certificate.render
    monkeypatch.setattr(Certificate, "render", lambda self: calls.append(self) or render(self))
    for _ in range(3):
        assert run_check("ranking", bare, cfg, sf, VerifyBox.parse("n=0..3")).cert_digest == want
    assert bare.digest() == want and len(calls) == 1
    assert cert.digest() == hashlib.sha256(cert.source_text.encode("utf-8")).hexdigest()[:16]


def test_params_header_parses():
    cert = parse_certificate("eps=1 delta=13 zeta=13\nf@1: 0\n")
    assert cert.params == CertParams(Fraction(1), Fraction(13), Fraction(13))


def test_params_reject_expected_decrease_window_inversion():
    with pytest.raises(CertificateError):
        CertParams(eps=Fraction(3), delta=Fraction(2))
    with pytest.raises(CertificateError):
        CertParams(eps=Fraction(0))


def test_duplicate_stanza_rejected():
    with pytest.raises(CertificateError):
        parse_certificate("f@1: 0\nf@1: 1\n")


def test_render_round_trips():
    text = "eps=1 delta=13 zeta=13\nf@1: [n >= 1] 12*n - 4 ; [n <= 0] 2\nf@7: 0\n"
    cert = parse_certificate(text)
    again = parse_certificate(cert.render())
    assert again.stanzas == cert.stanzas
    assert again.params == cert.params


def test_digest_is_stable(halving):
    _, _, cert = halving
    assert cert.digest() == cert.digest()
    other = parse_certificate("f@1: 1\n")
    assert cert.digest() != other.digest()


def _error(text):
    with pytest.raises(CertificateError) as exc:
        parse_certificate(text)
    return str(exc.value)


def test_a_stanza_ends_at_the_end_of_its_line():
    # read as one expression, the two lines would be 12*n - 4
    assert _error("f@1: 12*n\n- 4\n").startswith("2:1: ")


def test_a_trailing_separator_and_a_true_guard_parse():
    cert = parse_certificate("f@1: [true] 3 ; [n >= 0] n ;\n")
    assert [p.guard is None for p in cert.pieces("f", 1)] == [True, False]
    assert cert.value("f", 1, Valuation({"n": -1})) == 3


def test_bad_labels_and_parameters_are_named_by_line_and_column():
    assert _error("eps=1\nf@x: 1\n") == "2:3: expected a label number, found 'x'"
    assert _error("# header\neps=1 tau=2\n") == "2:7: unknown parameter 'tau'"
    assert _error("f@1: 1/0\n") == "1:6: zero denominator in '1/0'"


def test_a_bare_carriage_return_ends_a_line():
    from termcert.distributions import parse_distributions

    cert = parse_certificate("eps=1\rf@1: 2\r\nf@2: 3 # a comment\rf@3: 4\r")
    assert cert.params.eps == 1 and [k for k, _ in cert.stanzas] == [("f", 1), ("f", 2), ("f", 3)]
    assert set(parse_distributions("r: 1 1/2; -1 1/2\rs: 0 1\r")) == {"r", "s"}
    assert _error("f@1: 1\rf@2: x y\r") == "2:8: expected ';' or the end of the line, found 'y'"
