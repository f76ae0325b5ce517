"""The one token grammar (`termcert._lex`) that programs, certificates,
distributions and every command-line value are read with."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termcert._lex import ParseError, TokenStream, parse_integer, parse_items, tokenize
from termcert.checker import CheckerError, VerifyBox
from termcert.cli import CliError, _entry_element
from termcert.lang import Const
from termcert.parser import _KEYWORDS, parse_program

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda name: name not in _KEYWORDS)
LIMIT = 10 ** 4300 - 1  # 4,300 digits, the most int() converts from a string
BOUNDS = st.one_of(st.integers(-1000, 1000), st.integers(-LIMIT, LIMIT))


@settings(max_examples=200)
@given(st.dictionaries(NAMES, st.tuples(BOUNDS, BOUNDS).map(sorted), max_size=4))
@example({"n": (-LIMIT, LIMIT), "m": (-1, -1)})
def test_a_rendered_box_parses_back_to_itself(intervals):
    box = VerifyBox(tuple((name, lo, hi) for name, (lo, hi) in intervals.items()))
    assert VerifyBox.parse(box.render()) == box


def test_box_entries_separate_by_commas_or_spaces_and_across_specs():
    box = VerifyBox(((("c", -1, 1), ("i", 0, 11), ("n", 0, 62))))
    for specs in (["c=-1..1, i=0..11, n=0..62"], ["c=-1..1 i=0..11,n=0..62,"],
                  ["c = -1 .. 1", "i=0..11", ",n=0..62"]):
        assert VerifyBox.parse(*specs) == box
    with pytest.raises(CheckerError, match=r"^bad --box: 1:1: expected a variable name, "
                                           r"found 'do'$"):
        VerifyBox.parse("do=0..1")
    with pytest.raises(CheckerError, match=r"^duplicate box entry for 'n'$"):
        VerifyBox.parse("n=0..1", "n=2..3")


# Spellings of a literal: integers, and strings over digits (an Arabic-Indic
# one among them), signs, `_`, `.`, `/`, spaces and two letters, which are
# either integer literals or not literals at all in both places.
LITERALS = st.one_of(st.integers(-10 ** 60, 10 ** 60).map(str),
                     st.text("0123456789٣_ex+-./ ", max_size=8))


def program_literal(value: str):
    """The integer that `n := value` assigns, or None if the program is
    rejected or assigns something other than an integer literal."""
    try:
        stmt = parse_program(f"f(n) {{ n := {value} }}").functions[0].body
    except ParseError:
        return None
    if isinstance(stmt.expr, Const) and stmt.expr.value.denominator == 1:
        return int(stmt.expr.value)
    return None


def args_binding(cfg, value: str):
    """The integer that `--args n=value` binds, or None if it is rejected."""
    try:
        return _entry_element(cfg, "f", f"n={value}").valuation["n"]
    except CliError:
        return None


@settings(max_examples=500)
@given(value=LITERALS)
@example("٣")
@example("1_0")
@example("+3")
@example("- 3")
@example("1e3")
def test_args_bind_the_integer_a_program_literal_gives(halving, value):
    assert args_binding(halving[0], value) == program_literal(value)


def test_the_differential_sees_accepted_and_rejected_spellings(halving):
    cfg = halving[0]
    for value, integer in (("12", 12), ("-12", -12), ("- 12", -12), (" 7 ", 7),
                           ("٣", None), ("1_0", None), ("+3", None), ("1e3", None),
                           ("1.5", None), ("1/2", None), ("x", None), ("", None)):
        assert (args_binding(cfg, value), program_literal(value)) == (integer, integer), value


def test_digits_are_ascii_and_dots_make_one_symbol():
    assert [t.kind for t in tokenize("0..11")] == ["int", "..", "int", "eof"]
    assert [t.kind for t in tokenize("n=-1..2.5")] == ["ident", "=", "-", "int", "..", "dec",
                                                       "eof"]
    with pytest.raises(ParseError, match=r"^1:2: unexpected character '٣'$"):
        tokenize("1٣")


@pytest.mark.parametrize("text, message", [
    ("1e-3", "1:1: bad number literal '1e'"),
    ("1_000", "1:1: bad number literal '1_000'"),
    ("0x10", "1:1: bad number literal '0x10'"),
    ("2 3", "1:3: expected the end of the value, found '3'"),
    ("-", "1:2: expected an integer, found 'end of input'"),
    ("1.5", "1:1: expected an integer, found '1.5'"),
])
def test_one_integer_value(text, message):
    with pytest.raises(ParseError) as exc:
        parse_items(TokenStream(tokenize(text)), parse_integer, one=True)
    assert str(exc.value) == message


def test_integer_lists_and_keywords_after_a_number():
    assert parse_items(TokenStream(tokenize("3, -4 ,,5 - 6")), parse_integer) == [3, -4, 5, -6]
    assert parse_items(TokenStream(tokenize(" ")), parse_integer) == []
    # a keyword may follow a number with no space, as a name may not
    spaced = parse_program("f(n) { while n > 10 do n := n - 1 od }")
    assert parse_program("f(n) { while n > 10do n := n - 1 od }") == spaced
    with pytest.raises(ParseError, match=r"^1:18: bad number literal '10n'$"):
        parse_program("f(n) { while n > 10n do n := n - 1 od }")
