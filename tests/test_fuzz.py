"""Front-end fuzzing: fixture programs mutated by deleting characters,
inserting tokens and duplicating spans, run through in-process `cli.main`
for `parse`, `parse --format json` and `cfg`.  Each mutant either parses,
and then every command prints it and exits 0, or is rejected with exit 2
and a one-line error; no exception escapes."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termcert.cli import main
from termcert.fixtures import fixture_text

# The fixtures, and a small program whose whole-program checks (sampling
# variables, coins, calls, names) a few edits can break.
SOURCES = (*(fixture_text(f"{name}.prob") for name in ("halving_game", "random_walk",
                                                       "coin_loops")),
           "f(n, m) { n := n + r; m := bernoulli(1/2); g(m) }\ng(m) { m := m - s * t }\n")
TOKENS = ("r", "n", "m", "_bern1", "0", "1", "-1", "1/2", "inf", "+", "-", "*", "div", "^",
          "+ r", "- s", "(", ")", "{", "}", ",", ";", ":=", "<", ">=", "not", "and", "or",
          "if", "then", "else", "fi", "while", "do", "od", "star", "skip", "bernoulli(1/2)",
          "f(n)", "g(n)", "n := r;", "m := n + s;", "_bern1 := 1;", "g(n);", "h(n) { skip }",
          "#", "\n")
EDITS = st.tuples(st.sampled_from(("delete", "insert", "duplicate")), st.integers(0, 2**16),
                  st.integers(1, 20), st.sampled_from(TOKENS))


@pytest.fixture(scope="module")
def program_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.prob"


def mutate(text, edits):
    """Deletions cut anywhere; insertions and duplicated spans start and
    end at white space, so that more mutants still parse."""
    for kind, at, size, token in edits:
        if kind == "delete":
            at %= len(text) + 1
            text = text[:at] + text[at + size:]
            continue
        spaces = [i for i, ch in enumerate(text) if ch.isspace()] or [0]
        start = spaces[at % len(spaces)]
        if kind == "insert":
            text = f"{text[:start]} {token}{text[start:]}"
        else:
            end = spaces[min(at % len(spaces) + size, len(spaces) - 1)]
            text = text[:end] + text[start:end] + text[end:]
    return text


@settings(max_examples=200)
@given(source=st.sampled_from(SOURCES), edits=st.lists(EDITS, min_size=1, max_size=4))
def test_a_mutated_program_exits_zero_or_two_on_every_front_end_command(program_file, source,
                                                                        edits):
    text = mutate(source, edits)
    program_file.write_text(text)
    codes = []
    for argv in (["parse"], ["parse", "--format", "json"], ["cfg"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes.append(main([argv[0], str(program_file), *argv[1:]]))
        if codes[-1] == 0:
            assert out.getvalue() and not err.getvalue(), (text, argv)
        else:
            assert codes[-1] == 2, (text, argv)
            assert not out.getvalue() and err.getvalue().startswith("error: "), (text, argv)
            assert err.getvalue().count("\n") == 1, (text, argv)
    # every program that parses lowers, so the three commands agree
    assert len(set(codes)) == 1, (text, codes)
