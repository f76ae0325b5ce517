import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import termcert
from oracles import labels_of
from termcert.cli import main
from termcert.fixtures import fixture_text, load_program_fixture
from termcert.lang import (
    Assign,
    Call,
    IfBool,
    IfStar,
    Seq,
    Skip,
    While,
    label_program,
    pretty_print,
    program_variables,
)
from termcert.parser import ParseError, parse_program


def test_two_function_program_structure():
    prog = parse_program(fixture_text("halving_game.prob"))
    assert prog.function_names() == ("f", "g")
    f = prog.function("f")
    outer = f.body
    assert isinstance(outer, IfBool)
    inner = outer.then
    assert isinstance(inner, IfStar)
    # the then-branch of the demonic choice holds two recursive calls
    assert isinstance(inner.then, Seq) and len(inner.then.items) == 2
    assert all(isinstance(call, Call) and call.fname == "f" for call in inner.then.items)
    assert isinstance(inner.orelse, Call) and inner.orelse.fname == "g"
    assert isinstance(outer.orelse, Skip)


def test_minimal_program():
    prog = parse_program("f(n) { skip }")
    assert len(prog.functions) == 1
    assert isinstance(prog.function("f").body, Skip)


def test_loop_variant_structure():
    prog = parse_program(fixture_text("random_walk.prob"))
    g = prog.function("g")
    assert isinstance(g.body, While)
    assert isinstance(g.body.body, Assign)


def test_labelling_matches_source_listing_two_functions():
    prog = load_program_fixture("halving_game")
    f = prog.function("f")
    by_label = labels_of(f)
    assert sorted(by_label) == [1, 2, 3, 4, 5, 6]
    assert isinstance(by_label[1], IfBool)
    assert isinstance(by_label[2], IfStar)
    assert isinstance(by_label[3], Call) and by_label[3].fname == "f"
    assert isinstance(by_label[4], Call) and by_label[4].fname == "f"
    assert isinstance(by_label[5], Call) and by_label[5].fname == "g"
    assert isinstance(by_label[6], Skip)
    assert f.terminal_label == 7

    g = prog.function("g")
    by_label = labels_of(g)
    assert isinstance(by_label[1], IfBool)
    assert isinstance(by_label[2], Assign)
    assert isinstance(by_label[3], Call)
    assert isinstance(by_label[4], Skip)
    assert g.terminal_label == 5


def test_labelling_single_statement_body():
    prog = label_program(parse_program("f(n) { n := n + 1 }"))
    f = prog.function("f")
    assert list(labels_of(f)) == [1]
    assert f.terminal_label == 2


def test_labelling_coin_loops_listing():
    prog = load_program_fixture("coin_loops")
    main = prog.function("main")
    by_label = labels_of(main)
    assert sorted(by_label) == list(range(1, 14))
    assert main.terminal_label == 14
    assert isinstance(by_label[4], While)
    assert isinstance(by_label[5], IfStar)
    assert isinstance(by_label[6], Assign)  # desugared coin flip
    assert isinstance(by_label[12], While)
    assert isinstance(by_label[13], Assign)


def test_bernoulli_desugars_to_fresh_sampling_variable():
    prog = parse_program("f(x) { x := bernoulli(1/2) }")
    assert len(prog.builtin_dists) == 1
    coin, dist = prog.builtin_dists[0]
    assert prog.sampling_variables() == (coin,)
    assert dist.prob(0) == Fraction(1, 2)
    assert dist.prob(1) == Fraction(1, 2)


def test_sampling_variable_classification():
    prog = parse_program(fixture_text("halving_game.prob"))
    assert prog.sampling_variables() == ("r",)
    assert program_variables(prog, "f") == ("n",)
    assert program_variables(prog, "g") == ("n",)
    with pytest.raises(KeyError, match="no function named 'h'"):
        program_variables(prog, "h")


def test_every_binding_position_makes_a_program_variable_everywhere():
    # a parameter, an assignment target, and a name read anywhere in a
    # predicate or a call argument bind; w, assigned in f, is a program
    # variable in g too, and x, s and t, read only by assignments, sample
    prog = parse_program("f(n) { if not (a >= 0) and (b < 0 or c ^ d > 0) then g(e * k) "
                         "else w := x + s fi; while h > 0 do skip od } g(m) { m := w + t }")
    assert prog.sampling_variables() == ("s", "x", "t")
    assert program_variables(prog, "f") == ("a", "b", "c", "d", "e", "h", "k", "n", "w")
    assert program_variables(prog, "g") == ("m", "w")


def test_round_trip_fixtures():
    for name in ("halving_game", "random_walk", "coin_loops"):
        prog = parse_program(fixture_text(f"{name}.prob"))
        assert parse_program(pretty_print(prog)) == prog
        # labels are excluded from equality, so labelled programs round-trip too
        labelled = label_program(prog)
        assert parse_program(pretty_print(labelled)) == prog


def test_long_sequences_compare_hash_print_and_pickle():
    # 5,000 statements in a row: one flat node, whose equality, hashing,
    # repr and pickling walk a tuple; nested sequences are spliced in, so
    # they compare by statements
    import pickle

    source = "f(n) {\n" + ";\n".join(["  n := n + 1"] * 5000) + ";\n  skip\n}\n"
    p, q = parse_program(source), parse_program(source)
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) and repr(p).count("Seq(items=") == 1
    assert len(p.functions[0].body.items) == 5001
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == hash(p)
    assert p != parse_program(source.replace("skip", "n := n - 1"))
    a, b, c = Skip(), Call("g", ()), Skip()
    assert Seq((Seq((a, b)), c)) == Seq((a, Seq((b, c)))) == Seq((a, b, c)) != Seq((a, b))
    assert hash(Seq((Seq((a, b)), c))) == hash(Seq((a, Seq((b, c)))))
    assert Seq((Seq((a, b)), c)).items == (a, b, c)
    assert repr(Seq((a, b))) == f"Seq(items=({a!r}, {b!r}))"


def test_labelling_is_deterministic():
    prog = parse_program(fixture_text("halving_game.prob"))
    a = label_program(prog)
    b = label_program(prog)
    for fa, fb in zip(a.functions, b.functions):
        assert labels_of(fa).keys() == labels_of(fb).keys()
        assert fa.terminal_label == fb.terminal_label


@pytest.mark.parametrize(
    "source, message_part",
    [
        ("f(n) { skip } f(n) { skip }", "duplicate function"),
        ("f(n) { g(n) }", "undeclared function"),
        ("f(n, n) { skip }", "duplicate parameter"),
        ("f(n) { n := r + r }", "appears 2 times"),
        ("f(n) { n := r } g(m) { m := r }", "appears 2 times"),
        ("f(n) { n := bernoulli(1/2); _bern1 := 3 }",
         "internal coin variable '_bern1' is shadowed by the program"),
    ],
)
def test_validation_errors(source, message_part):
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert message_part in str(exc.value)


def test_read_only_identifier_is_a_sampling_variable():
    prog = parse_program("f(n) { n := n + noise }")
    assert prog.sampling_variables() == ("noise",)


def test_sampling_variables_one_assignment_reads_come_sorted(tmp_path, capsys):
    source = "f(n) { n := n + s + r }"
    assert parse_program(source).sampling_variables() == ("r", "s")
    path = tmp_path / "sorted.prob"
    path.write_text(source)
    assert main(["parse", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sampling_variables"] == ["r", "s"]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_the_exactly_once_error_names_the_first_offender_under_any_string_hashing(hash_seed):
    # r and s both appear twice; the error names r, first in source order,
    # whatever order a set of the two names would iterate in
    source = "f(n, m) { n := r + r; m := s + s + m; if n >= m then skip else skip fi }"
    code = ("from termcert.parser import ParseError, parse_program\n"
            f"try: parse_program({source!r})\n"
            "except ParseError as e: print(e)")
    src = str(Path(termcert.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout == ("sampling variable 'r' appears 2 times; "
                           "each sampling variable must appear exactly once\n"), proc.stderr


def test_call_arity_checked():
    with pytest.raises(ParseError):
        parse_program("f(n) { g(n, n) } g(m) { skip }")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("f(n) {\n  n := ;\n}")
    assert exc.value.line == 2


def test_non_integer_literals_rejected_in_programs():
    with pytest.raises(ParseError):
        parse_program("f(n) { n := 1/2 }")
    with pytest.raises(ParseError):
        parse_program("f(n) { n := inf }")
