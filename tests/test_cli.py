import json

import pytest

from termcert.cli import main
from termcert.fixtures import fixture_path

HALVING = fixture_path("halving_game.prob")
HALVING_CERT = fixture_path("halving_game.cert")
HALVING_DIST = fixture_path("halving_game.dist")
WALK = fixture_path("random_walk.prob")
WALK_CERT = fixture_path("random_walk_super.cert")
WALK_DIST = fixture_path("random_walk.dist")
COINS = fixture_path("coin_loops.prob")
COINS_CERT = fixture_path("coin_loops.cert")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_round_trips_through_stdout(capsys):
    code, out, _ = run_cli(capsys, "parse", HALVING)
    assert code == 0
    assert "if star then" in out


def test_cfg_dump(capsys):
    code, out, _ = run_cli(capsys, "cfg", HALVING)
    assert code == 0
    assert "3 --[call f(n := n div 2)]--> 4" in out


def test_check_pass_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", HALVING_DIST, "--box", "n=-20..20")
    assert code == 0
    assert "verdict=pass" in out


def test_check_fail_exits_one_and_prints_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "check", WALK, "--cert", WALK_CERT, "--kind", "ranking",
        "--eps", "1", "--dist", WALK_DIST, "--box", "n=-10..10")
    assert code == 1
    assert "verdict=fail" in out
    assert "counterexample" in out
    assert "at (g, 1)" in out  # the loop head is among the reported failures


def test_usage_error_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "check", HALVING, "--cert", "/nonexistent.cert",
        "--kind", "ranking", "--box", "n=0..1")
    assert code == 2
    assert "error" in err


def test_bad_parameter_override_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", HALVING_DIST, "--box", "n=0..1", "--eps", "abc")
    assert code == 2
    assert "error" in err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("f( {")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 2
    assert "error" in err


def test_bounds_table_lists_lower_and_upper(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", HALVING, "--cert", HALVING_CERT, "--kind", "cdb",
        "--entry", "f", "--args", "n=5", "--k", "112")
    assert code == 0
    assert "56/13" in out
    assert "56" in out
    assert "1/2" in out


def test_bounds_warns_that_eps_rows_need_a_ranking_check(capsys):
    argv = ("bounds", HALVING, "--cert", HALVING_CERT, "--entry", "f", "--args", "n=5",
            "--k", "112", "--n", "100", "--format", "csv")
    code, ranking, err = run_cli(capsys, *argv, "--kind", "ranking")
    assert (code, err) == (0, "")
    header_and_eps_rows = ranking.splitlines()
    assert len(header_and_eps_rows) == 3
    for kind in ("cdb", "db"):
        code, out, err = run_cli(capsys, *argv, "--kind", kind)
        assert code == 0
        assert out.splitlines()[:3] == header_and_eps_rows  # stdout as without the warning
        assert err == (f"warning: the eps rows of --kind {kind} hold only if "
                       "check --kind ranking also passes on this certificate\n")


def test_bounds_super_uses_fixpoint_period(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", WALK, "--cert", WALK_CERT, "--kind", "super",
        "--entry", "g", "--args", "n=1", "--k", "10000")
    assert code == 0
    assert "tail-sqrt" in out
    assert "as-termination" in out


def test_bounds_at_an_infinite_entry_value(capsys):
    # the halving game's certificate is inf at (f, 2, n=0): the ranking rows
    # print it as inf, and the bounds that need a finite value refuse it
    argv = ("bounds", HALVING, "--cert", HALVING_CERT, "--entry", "f@2", "--args", "n=0")
    code, table, _ = run_cli(capsys, *argv, "--kind", "ranking", "--k", "5")
    assert code == 0
    assert [line.rstrip() for line in table.splitlines()[2:]] == [
        "expected-time-upper  (f, 2, {n=0})  eps=1 value=inf      inf",
        "tail-markov          (f, 2, {n=0})  eps=1 k=5 value=inf  1      any k >= 1"]
    code, out, _ = run_cli(capsys, *argv, "--kind", "ranking", "--k", "5", "--format", "json")
    assert code == 0
    assert [(r["rule"], r["params"], r["value"]) for r in json.loads(out)["rows"]] == [
        ("expected-time-upper", "eps=1 value=inf", "inf"),
        ("tail-markov", "eps=1 k=5 value=inf", "1")]
    for extra, message in (
            (("--kind", "cdb", "--k", "5"),
             "lower bound requires a finite certificate value at the entry"),
            (("--kind", "db", "--n", "100"),
             "concentration bound requires a finite certificate value")):
        assert run_cli(capsys, *argv, *extra) == (2, "", f"error: {message}\n")


def test_a_long_statement_sequence_passes_every_command(tmp_path, capsys):
    # 5,000 assignments in a row: no walker may recurse once per statement.
    # The printed program is compared with the source by its CFG dump
    n = 5000
    prog, printed, cert = (tmp_path / name for name in ("long.prob", "printed.prob", "long.cert"))
    prog.write_text("f(n) {\n" + ";\n".join(["  n := n + 1"] * n) + "\n}\n")
    cert.write_text("eps=1\n" + "".join(f"f@{i}: {n + 1 - i}\n" for i in range(1, n + 1)))
    code, text, _ = run_cli(capsys, "parse", str(prog))
    assert code == 0
    printed.write_text(text)
    code, dump, _ = run_cli(capsys, "cfg", str(prog))
    assert code == 0 and dump.count("--[n := n + 1]-->") == n
    assert run_cli(capsys, "cfg", str(printed)) == (0, dump, "")
    code, out, _ = run_cli(capsys, "simulate", str(prog), "--entry", "f", "--runs", "2",
                           "--workers", "1")
    assert code == 0 and "mean_T      5000" in out
    code, out, _ = run_cli(capsys, "check", str(prog), "--cert", str(cert), "--kind", "ranking",
                           "--box", "n=0..1")
    assert code == 0 and "verdict=pass" in out


def test_a_long_sum_passes_simulate_and_check(tmp_path, capsys):
    # 250-term sums, left-deep, in an update and a certificate piece: past
    # CPython's 200 nested parentheses if every term had its own
    prog, cert = tmp_path / "sum.prob", tmp_path / "sum.cert"
    prog.write_text("f(n) {\n  n := n" + " + 1" * 249 + ";\n"
                    "  while n > 0 do\n    n := n - 1\n  od\n}\n")
    cert.write_text("eps=1\nf@1: [n >= 0] 2*n" + " + 2" * 250 + "\n"
                    "f@2: [n >= 0] 2*n + 1\nf@3: [n >= 1] 2*n\nf@4: 0\n")
    code, out, _ = run_cli(capsys, "simulate", str(prog), "--entry", "f", "--runs", "3",
                           "--workers", "1")
    assert code == 0 and "mean_T      500 " in out  # n = 249, then 249 loop rounds
    code, out, _ = run_cli(capsys, "check", str(prog), "--cert", str(cert), "--kind", "ranking",
                           "--box", "n=0..2")
    assert code == 0 and "verdict=pass" in out  # tight: 2n + 500 = 1 + (2(n + 249) + 1)


@pytest.mark.parametrize("expr, col", [
    ("n" + " + 1" * 1499, 8),  # 1,499 operators deep; reported where it starts
    ("(" * 300 + "n" + ")" * 300, 8 + 256),  # reported at the 257th parenthesis
], ids=["sum-of-1500-terms", "parentheses-300-deep"])
def test_nesting_beyond_the_limit_exits_two_naming_it(tmp_path, capsys, expr, col):
    prog = tmp_path / "deep.prob"
    prog.write_text(f"f(n) {{\n  n := {expr}\n}}\n")
    for command in ("parse", "cfg"):
        code, out, err = run_cli(capsys, command, str(prog))
        assert (code, out) == (2, "")
        assert err == f"error: 2:{col}: expression nested more than 256 levels deep\n"
        assert "Traceback" not in err


def _nested(levels):
    """`levels` nested `if`, `while` and `if star` bodies, each a `skip` and
    the next level, around the deepest sum the parser accepts."""
    text = "n := n" + " + 1" * 256  # 256 operators deep
    for level in range(levels):
        text = ("if n >= 0 then skip; {} else skip fi", "while n < 1 do skip; {} od",
                "if star then skip; {} else skip fi")[level % 3].format(text)
    return f"f(n) {{\n  {text}\n}}\n"


def test_statements_nested_to_the_limit_pass_every_command(tmp_path, capsys):
    prog, cert = tmp_path / "deep.prob", tmp_path / "deep.cert"
    prog.write_text(_nested(256))
    cert.write_text("eps=1\nf@1: 0\n")
    for want, argv in ((0, ("parse",)), (0, ("cfg",)),
                       (1, ("check", "--cert", str(cert), "--kind", "ranking", "--box", "n=0..1")),
                       (0, ("simulate", "--entry", "f", "--args", "n=0", "--runs", "5",
                            "--max-steps", "2000", "--workers", "1"))):
        code, out, err = run_cli(capsys, argv[0], str(prog), *argv[1:])
        assert (code, err) == (want, "") and out, argv
    source = _nested(257)
    prog.write_text(source)
    col = source.splitlines()[1].rindex("if ") + 1  # the innermost `if`, 257th level
    for command in ("parse", "cfg"):
        code, out, err = run_cli(capsys, command, str(prog))
        assert (code, out) == (2, "")
        assert err == f"error: 2:{col}: statement nested more than 256 levels deep\n"


_DEEP = 250  # within the parser's 256 levels, past Python's 200 parentheses
_HALF = _DEEP // 2


@pytest.mark.parametrize("update, guard", [
    ("n" + " - (n" * _DEEP + ")" * _DEEP, "n > 0"),
    ("n" + " div n" * _DEEP, "n > 0"),  # a literal divisor is a flat `//` (below)
    ("1" + " ^ 1" * _DEEP, "n > 0"),
    ("-" * _DEEP + "n", "n > 0"),
    ("n - 1", " and ".join(["n > 0"] * _HALF) + " or n > 1" * _HALF),
    ("n - 1", "not " * _DEEP + "n <= 0"),
], ids=["right-nested-minus", "div-chain", "pow-chain", "unary-minus", "and-or", "not"])
def test_nesting_past_python_parentheses_exits_two_naming_it(tmp_path, capsys, update, guard):
    prog, cert = tmp_path / "deep.prob", tmp_path / "deep.cert"
    prog.write_text(f"f(n) {{\n  while {guard} do\n    n := {update}\n  od\n}}\n")
    cert.write_text("eps=1\nf@1: 0\nf@2: 0\nf@3: 0\n")
    for argv in (("simulate", str(prog), "--entry", "f", "--args", "n=1", "--runs", "2",
                  "--workers", "1"),
                 ("simulate", str(prog), "--entry", "f", "--args", "n=1", "--runs", "0"),
                 ("check", str(prog), "--cert", str(cert), "--kind", "ranking",
                  "--box", "n=0..1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: expression nested too deeply to compile: Python allows 200"
                       " nested parentheses (too many nested parentheses)\n")


def test_a_chain_of_literal_divisions_compiles_for_every_command(tmp_path, capsys):
    # `div` by a positive literal is `//`, which a left-deep chain of any
    # length writes with no parentheses, in the checker as in the run loop
    prog, cert = tmp_path / "chain.prob", tmp_path / "chain.cert"
    prog.write_text(f"f(n) {{\n  while n > 0 do\n    n := n{' div 1' * _DEEP} - 1\n  od\n}}\n")
    cert.write_text("eps=1\nf@1: [n >= 0] 2*n + 1\nf@2: [n >= 1] 2*n\nf@3: 0\n")
    code, out, err = run_cli(capsys, "simulate", str(prog), "--entry", "f", "--args", "n=3",
                             "--runs", "2", "--workers", "1")
    assert (code, err) == (0, "") and "\nmean_T      7 " in out
    code, out, err = run_cli(capsys, "check", str(prog), "--cert", str(cert), "--kind",
                             "ranking", "--box", "n=0..3")
    assert (code, err) == (0, "") and "verdict=pass" in out


def test_simulate_table_and_determinism(capsys):
    argv = ("simulate", HALVING, "--entry", "f", "--args", "n=5",
            "--dist", HALVING_DIST, "--scheduler", "uniform",
            "--runs", "400", "--max-steps", "10000", "--tail", "30",
            "--seed", "3", "--workers", "1")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert "mean_T" in out1


def test_simulate_greedy_requires_cert(capsys):
    code, _, err = run_cli(
        capsys, "simulate", HALVING, "--entry", "f", "--dist", HALVING_DIST,
        "--scheduler", "greedy-max", "--runs", "10")
    assert code == 2
    assert "requires --cert" in err


@pytest.mark.parametrize("kind", ["ranking", "cdb", "db", "super"])
def test_run_check_reports_what_check_kind_and_the_cli_report(capsys, halving, kind):
    # one rule for the parameters a report carries: the family's own
    from termcert import checker
    from termcert.checker import VerifyBox, run_check

    cfg, sf, cert = halving
    box = VerifyBox.parse("n=-3..3")
    report = run_check(kind, cert, cfg, sf, box).to_json_dict()
    assert getattr(checker, f"check_{kind}")(cert, cfg, sf, box).to_json_dict() == report
    _, out, _ = run_cli(capsys, "check", HALVING, "--cert", HALVING_CERT, "--dist", HALVING_DIST,
                        "--kind", kind, "--box", "n=-3..3", "--format", "json")
    assert json.loads(out)["report"] == report


def test_json_output_mirrors_table(capsys):
    argv_base = ("bounds", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
                 "--entry", "f", "--args", "n=5", "--k", "112,224")
    code, table_out, _ = run_cli(capsys, *argv_base, "--format", "table")
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv_base, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["version"]
    assert payload["cert_digest"]
    rows = payload["rows"]
    assert len(rows) == 3  # upper bound + two tail rows
    for row in rows:
        assert str(row["value"]) in table_out


def test_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", HALVING, "--entry", "f", "--args", "n=5",
        "--dist", HALVING_DIST, "--scheduler", "always-then", "--runs", "50",
        "--max-steps", "1000", "--seed", "1", "--workers", "1",
        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "statistic,value,ci95_lo,ci95_hi"
    assert any(line.startswith("mean_T,44") for line in lines)


def test_lab_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "lab", "--example", "cbounded", "--runs", "5000",
        "--horizon", "100", "--seed", "2", "--tail", "1")
    assert code == 0
    assert "expected_T" in out
    code, out_json, _ = run_cli(
        capsys, "lab", "--example", "cbounded", "--runs", "5000",
        "--horizon", "100", "--seed", "2", "--tail", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out_json)
    assert payload["seed"] == 2
    assert any(r["query"] == "expected_T" for r in payload["rows"])


def test_lab_with_no_runs_prints_zero_survival(capsys):
    code, out, err = run_cli(
        capsys, "lab", "--example", "noconcentration", "--alpha", "2", "--runs", "0",
        "--horizon", "10", "--tail", "9", "--format", "csv")
    assert (code, err) == (0, "")
    assert "tail P(T > 9),0.01,closed form,0,0.5" in out.splitlines()


@pytest.mark.parametrize("alpha", ["nan", "1"])
def test_lab_rejects_alpha_not_above_one(capsys, alpha):
    assert run_cli(
        capsys, "lab", "--example", "noconcentration", "--alpha", alpha, "--runs", "100",
        "--horizon", "10") == (2, "", "error: noconcentration needs alpha > 1\n")


def test_lab_accepts_infinite_alpha(capsys):
    # every up-step has probability 1, so T = 1 and every tail is 0
    code, out, err = run_cli(
        capsys, "lab", "--example", "noconcentration", "--alpha", "inf", "--runs", "100",
        "--horizon", "10", "--tail", "1", "--format", "csv")
    assert (code, err) == (0, "")
    assert "expected_T,1,closed form,1,0" in out.splitlines()
    assert "tail P(T > 1),0,closed form,0,0.0185" in out.splitlines()


def test_lab_infinite_alpha_tail_at_zero_is_one(capsys):
    # T >= 1, so P(T > 0) = (0 + 1)^-inf = 1
    code, out, err = run_cli(
        capsys, "lab", "--example", "noconcentration", "--alpha", "inf", "--runs", "100",
        "--horizon", "10", "--tail", "0,1", "--format", "csv")
    assert (code, err) == (0, "")
    assert "tail P(T > 0),1,closed form,1,0.0185" in out.splitlines()


def test_coin_loop_check_without_dist_file(capsys):
    # the only sampling variable is the desugared coin, so no --dist needed
    code, out, _ = run_cli(
        capsys, "check", COINS, "--cert", COINS_CERT, "--kind", "ranking",
        "--box", "i=0..8", "--box", "n=0..8", "--box", "c=0..1")
    assert code == 0


def test_check_evaluation_error_does_not_depend_on_workers(tmp_path, capsys):
    # both stanzas are negative on the box; the first in scan order, (f, 6),
    # is reported whatever the worker count
    cert = tmp_path / "negative.cert"
    cert.write_text("eps=1\nf@6: 0 - 1\ng@4: 0 - 2\n")
    errs = []
    for workers in ("1", "2"):
        code, _, err = run_cli(
            capsys, "check", HALVING, "--cert", str(cert), "--kind", "ranking",
            "--dist", HALVING_DIST, "--box", "n=1..2", "--workers", workers)
        assert code == 2
        errs.append(err)
    assert errs[0] == errs[1]
    assert "(f, 6, {n=1})" in errs[0]


def test_ill_defined_division_names_where_it_happened(tmp_path, capsys):
    # check, bounds and a greedy simulate's chooser name the point; check
    # reports the first point in scan order whatever the worker count
    cert = tmp_path / "divzero.cert"
    cert.write_text("eps=1\nf@1: n div (n - n)\n")
    for workers in ("1", "2"):
        code, _, err = run_cli(
            capsys, "check", HALVING, "--cert", str(cert), "--kind", "ranking",
            "--dist", HALVING_DIST, "--box", "n=-3..3", "--workers", workers)
        assert code == 2
        assert err == "error: floor division by non-positive value 0 at (f, 1, {n=-3})\n"
    code, _, err = run_cli(
        capsys, "bounds", HALVING, "--cert", str(cert), "--kind", "ranking",
        "--entry", "f", "--args", "n=1")
    assert code == 2
    assert err == "error: floor division by non-positive value 0 at (f, 1, {n=1})\n"
    greedy = tmp_path / "greedy.cert"
    greedy.write_text("f@3: n div (n - n)\n")
    for workers in ("1", "2"):
        code, _, err = run_cli(
            capsys, "simulate", HALVING, "--entry", "f", "--args", "n=5",
            "--dist", HALVING_DIST, "--scheduler", "greedy-max", "--cert", str(greedy),
            "--runs", "4", "--workers", workers)
        assert code == 2
        assert err == "error: floor division by non-positive value 0 at (f, 2, {n=5})\n"


def test_bad_entry_and_missing_distribution_messages(capsys):
    cases = [
        (("--entry", "h", "--dist", HALVING_DIST), "no function named 'h'"),
        (("--entry", "f@99", "--dist", HALVING_DIST), "function 'f' has no label 99"),
        (("--entry", "f@x", "--dist", HALVING_DIST),
         "bad --entry: 1:3: expected an integer, found 'x'"),
        (("--entry", "f"), "no distribution for sampling variables ['r']; pass --dist"),
        (("--entry", "f", "--args", "n=5,n=6", "--dist", HALVING_DIST),
         "duplicate --args entry for 'n'"),
    ]
    for extra, message in cases:
        code, out, err = run_cli(capsys, "simulate", HALVING, "--runs", "3", *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
    code, _, err = run_cli(
        capsys, "bounds", HALVING, "--cert", HALVING_CERT, "--kind", "cdb",
        "--entry", "g@9")
    assert code == 2
    assert err == "error: function 'g' has no label 9\n"
    code, out, err = run_cli(
        capsys, "bounds", HALVING, "--cert", HALVING_CERT, "--kind", "cdb",
        "--entry", "f", "--args", "n=5 n=6", "--k", "112")
    assert (code, out) == (2, "")
    assert err == "error: duplicate --args entry for 'n'\n"


def test_distribution_defined_twice_exits_two(capsys, tmp_path):
    # the parser names bernoulli(1/2)'s coin _bern1; a file defining it too clashes
    prog = tmp_path / "coin.prob"
    prog.write_text("f(x) { x := bernoulli(1/2) }\n")
    dist = tmp_path / "coin.dist"
    dist.write_text("_bern1: 0 1/2; 1 1/2\n")
    cert = tmp_path / "coin.cert"
    cert.write_text("eps=1\nf@1: 1\n")
    for argv in (("simulate", str(prog), "--entry", "f", "--runs", "3"),
                 ("check", str(prog), "--cert", str(cert), "--kind", "ranking",
                  "--box", "x=0..1")):
        code, out, err = run_cli(capsys, *argv, "--dist", str(dist))
        assert (code, out) == (2, "")
        assert err == "error: distribution for '_bern1' defined twice\n"


def test_negative_run_count_exits_two(capsys):
    for argv in (("simulate", HALVING, "--dist", HALVING_DIST, "--entry", "f",
                  "--args", "n=5", "--tail", "10"),
                 ("lab", "--example", "noconcentration", "--alpha", "2", "--horizon", "10")):
        code, out, err = run_cli(capsys, *argv, "--runs", "-5")
        assert (code, out, err) == (2, "", "error: runs must be nonnegative, got -5\n")


def test_a_runaway_value_censors_its_run(capsys, tmp_path, inline_pool):
    # squaring from 3 passes 4096 bits at the 12th loop turn, well within
    # the step cap: the run is censored there instead of squaring on
    import time

    inline_pool()
    program = tmp_path / "square.prob"
    program.write_text("f(x) { while x >= 2 do x := x * x od }\n", encoding="utf-8")
    outs = []
    for workers in ("1", "2"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", str(program), "--entry", "f", "--args",
                                 "x=3", "--runs", "1", "--max-steps", "100", "--workers", workers)
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        assert "\ncensored    1 " in out and "\nterminated  0 " in out
        outs.append(out)
    assert outs[0] == outs[1]


def test_a_runaway_power_censors_its_run(capsys, tmp_path, inline_pool, monkeypatch):
    # `x := 2 ^ x` from 3 reaches 2 ^ 256 at its third loop turn, and its
    # fourth would compute 2 ^ (2 ^ 256): the run is censored there.  A
    # power of more than 2 * VALUE_BITS bits fails the test instead of being
    # computed, through the run loop's helper or the checker's
    import time

    from termcert import _compile

    inline_pool()
    ipow = _compile._ipow

    def bounded(a, b):
        assert abs(a) <= 1 or abs(a).bit_length() * b <= 2 * _compile.VALUE_BITS, (a, b)
        return ipow(a, b)

    monkeypatch.setattr(_compile, "_ipow", bounded)
    monkeypatch.setitem(_compile._NAMESPACE, "_ipow", bounded)
    program = tmp_path / "tower.prob"
    program.write_text("f(x) { while x >= 2 do x := 2 ^ x od }\n", encoding="utf-8")
    outs = []
    for workers in ("1", "2"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", str(program), "--entry", "f", "--args",
                                 "x=3", "--runs", "1", "--max-steps", "100", "--workers", workers)
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        assert "\ncensored    1 " in out and "\nterminated  0 " in out
        outs.append(out)
    assert outs[0] == outs[1]


def test_a_runaway_power_in_the_checker_exits_two(capsys, tmp_path, monkeypatch):
    # 2 ^ n at n = 10^10 would take 1.25 GB: the checker's program code
    # tests a power's length as the run loop does, before computing it, and
    # names the point.  2 ^ 4095 (4096 bits) is computed; 2 ^ 4096 is not
    from termcert import _compile

    ipow = _compile._ipow

    def bounded(a, b):
        assert abs(a) <= 1 or abs(a).bit_length() * b <= 2 * _compile.VALUE_BITS, (a, b)
        return ipow(a, b)

    monkeypatch.setattr(_compile, "_ipow", bounded)
    monkeypatch.setitem(_compile._NAMESPACE, "_ipow", bounded)
    program, cert = tmp_path / "power.prob", tmp_path / "power.cert"
    program.write_text("f(n) { if n >= 1 then n := 2 ^ n else skip fi }\n", encoding="utf-8")
    cert.write_text("eps=1\nf@1: 3\nf@2: 2\nf@3: 2\nf@4: 0\n", encoding="utf-8")
    check = ("check", str(program), "--cert", str(cert), "--kind", "ranking", "--box")
    code, out, err = run_cli(capsys, *check, "n=4095..4095")
    assert (code, err) == (0, "") and "verdict=pass" in out
    for box, n in (("n=10000000000..10000000000", 10**10), ("n=4094..4096", 4096)):
        assert run_cli(capsys, *check, box) == (
            2, "", f"error: power longer than 4096 bits at (f, 2, {{n={n}}})\n")


@pytest.mark.parametrize("power", ["2 ^ n", "1/2 ^ n", "1.5 ^ n"])
def test_a_runaway_power_in_a_certificate_exits_two(capsys, tmp_path, monkeypatch, power):
    # a stanza's power, of an int or of a Fraction, is tested for length as
    # the program's are, before it is computed: check, bounds and a greedy
    # simulate name the point where they met it and exit 2.  At n = 4095 the powers,
    # whose longest parts have 4096, 4096 and 6491 bits, are computed
    from termcert import _compile

    ipow = _compile._ipow

    def bounded(a, b):
        bits = max(abs(a.numerator).bit_length(), a.denominator.bit_length())
        assert bits <= 1 or bits * b <= 2 * _compile.VALUE_BITS, (a, b)
        return ipow(a, b)

    monkeypatch.setattr(_compile, "_ipow", bounded)
    program, cert = tmp_path / "star.prob", tmp_path / "star.cert"
    program.write_text("f(n) { if star then n := n - 1 else skip fi }\n", encoding="utf-8")
    cert.write_text(f"eps=1 delta=2 zeta=2\nf@1: {power} + 2\nf@2: {power} + 1\n"
                    f"f@3: {power} + 1\nf@4: 0\n", encoding="utf-8")
    files = (str(program), "--cert", str(cert))
    check = ("check", *files, "--kind", "ranking", "--box")
    code, out, err = run_cli(capsys, *check, "n=4095..4095")
    assert (code, err) == (0, "") and "verdict=pass" in out
    for n in (4096, 10**10):
        point = f"(f, 1, {{n={n}}})"
        for argv, where in ((check + (f"n={n}..{n}",), point),
                            (("bounds", *files, "--kind", "cdb", "--entry", "f", "--args",
                              f"n={n}", "--k", "1"), point),
                            (("simulate", str(program), "--entry", "f", "--args", f"n={n}",
                              "--scheduler", "greedy-max", "--cert", str(cert), "--runs", "3"),
                             point)):
            assert run_cli(capsys, *argv) == (
                2, "", f"error: power longer than 4096 bits at {where}\n"), (argv, power)


def test_a_greedy_chooser_names_the_point_of_a_runaway_power(capsys, tmp_path, inline_pool,
                                                             monkeypatch):
    # the star at (f, 2) weighs its branches' stanzas 2 ^ n at (f, 3) and
    # (f, 4): simulate names the star's point, with the values, as bounds
    # names the stanza's, while a program's own ill-defined arithmetic still
    # names its label
    from termcert import _compile

    inline_pool()
    ipow = _compile._ipow

    def bounded(a, b):
        assert abs(a) <= 1 or abs(a).bit_length() * b <= 2 * _compile.VALUE_BITS, (a, b)
        return ipow(a, b)

    monkeypatch.setattr(_compile, "_ipow", bounded)
    monkeypatch.setitem(_compile._NAMESPACE, "_ipow", bounded)
    program, cert = tmp_path / "star.prob", tmp_path / "star.cert"
    program.write_text("f(n) { if n >= 1 then if star then n := n - 1 else n := n - 2 fi "
                       "else skip fi }\n", encoding="utf-8")
    cert.write_text("eps=1\nf@1: 1\nf@2: 1\nf@3: 2 ^ n\nf@4: 2 ^ n\nf@5: 1\nf@6: 0\n",
                    encoding="utf-8")
    files = (str(program), "--cert", str(cert))
    for workers in ("1", "2"):
        assert run_cli(capsys, "simulate", *files, "--scheduler", "greedy-max", "--entry", "f",
                       "--args", "n=10000000000", "--runs", "10", "--workers", workers) == (
            2, "", "error: power longer than 4096 bits at (f, 2, {n=10000000000})\n")
    assert run_cli(capsys, "bounds", *files, "--kind", "cdb", "--entry", "f@3", "--args",
                   "n=10000000000", "--k", "1") == (
        2, "", "error: power longer than 4096 bits at (f, 3, {n=10000000000})\n")
    program.write_text("f(n) { if star then n := n div 0 else skip fi }\n", encoding="utf-8")
    cert.write_text("eps=1\nf@1: 1\nf@2: 1\nf@3: 1\nf@4: 0\n", encoding="utf-8")
    assert run_cli(capsys, "simulate", *files, "--scheduler", "greedy-max", "--entry", "f",
                   "--args", "n=3", "--runs", "1", "--workers", "1") == (
        2, "", "error: floor division by non-positive value 0 at (f, 2)\n")


OUTSIDE_64_BITS = ["18446744073709551616", "18446744073709551617", "-18446744073709551615",
                   "-1"]  # rng keys a stream by the seed's low 64 bits: each would run another's


@pytest.mark.parametrize("seed", OUTSIDE_64_BITS)
def test_simulate_rejects_a_seed_outside_64_bits(capsys, halving, seed):
    from termcert.semantics import Scheduler, SemanticsError, StackElement, simulate
    from termcert.valuation import Valuation

    code, out, err = run_cli(capsys, "simulate", HALVING, "--dist", HALVING_DIST, "--entry",
                             "f", "--args", "n=5", "--runs", "5", "--seed", seed)
    assert (code, out, err) == (2, "", f"error: seed must be in [0, 2^64), got {seed}\n")
    cfg, sf, _ = halving
    with pytest.raises(SemanticsError):
        simulate(cfg, sf, StackElement("f", 1, Valuation({"n": 5})), Scheduler("uniform"),
                 runs=5, max_steps=100, seed=int(seed))


@pytest.mark.parametrize("seed", OUTSIDE_64_BITS)
def test_lab_rejects_a_seed_outside_64_bits(capsys, seed):
    from termcert.lab import LabError, simulate_lab

    code, out, err = run_cli(capsys, "lab", "--example", "randomwalk", "--runs", "5",
                             "--horizon", "10", "--seed", seed)
    assert (code, out, err) == (2, "", f"error: seed must be in [0, 2^64), got {seed}\n")
    with pytest.raises(LabError):
        simulate_lab("randomwalk", runs=5, horizon=10, seed=int(seed))


def test_check_rejects_negative_workers(capsys, inline_pool):
    sizes = inline_pool()
    code, out, err = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", HALVING_DIST, "--box", "n=0..3", "--workers", "-4")
    assert (code, out) == (2, "")
    assert err == "error: bad --workers -4; expected a nonnegative integer\n"
    assert sizes == []


def test_simulate_rejects_negative_workers(capsys, inline_pool):
    sizes = inline_pool()
    code, out, err = run_cli(
        capsys, "simulate", HALVING, "--dist", HALVING_DIST, "--entry", "f",
        "--args", "n=5", "--runs", "10", "--workers", "-7")
    assert (code, out) == (2, "")
    assert err == "error: bad --workers -7; expected a nonnegative integer\n"
    assert sizes == []


def test_zero_workers_means_every_core(capsys, halving, inline_pool, monkeypatch):
    # in the CLI and the library alike: min(3 cores, labels or runs left)
    # workers, this process and a pool of the others
    import os

    from termcert import Scheduler, StackElement, Valuation, simulate

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, _, _ = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", HALVING_DIST, "--box", "n=-20..20", "--workers", "0")
    assert code == 0
    cfg, sf, _ = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    for runs in (2, 50):
        simulate(cfg, sf, entry, Scheduler("uniform"), runs=runs, max_steps=1000, workers=0)
    code, _, _ = run_cli(
        capsys, "simulate", HALVING, "--dist", HALVING_DIST, "--entry", "f",
        "--args", "n=5", "--runs", "10", "--workers", "0")
    assert code == 0
    assert sizes == [2, 1, 2, 2]


def test_a_non_integer_distribution_value_exits_two_naming_its_position(capsys, tmp_path):
    dist = tmp_path / "bad.dist"
    dist.write_text("# a value must be an integer\nr: 1.5 1/2; -1 1/2\n")
    code, out, err = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", str(dist), "--box", "n=0..1")
    assert (code, out) == (2, "")
    assert err == "error: 2:4: expected an integer value, found '1.5'\n"


@pytest.mark.parametrize("bad", ["directory", "not-utf-8"])
@pytest.mark.parametrize("which", ["program", "cert", "dist"])
def test_an_unreadable_input_file_exits_two(capsys, tmp_path, which, bad):
    path = tmp_path / f"input.{which}"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\n")  # not UTF-8
    files = {"program": HALVING, "cert": HALVING_CERT, "dist": HALVING_DIST, which: str(path)}
    code, out, err = run_cli(
        capsys, "check", files["program"], "--cert", files["cert"], "--kind", "ranking",
        "--dist", files["dist"], "--box", "n=0..1")
    assert (code, out) == (2, "")
    reason = "Is a directory" if bad == "directory" else "can't decode byte 0xff in position 0"
    assert err.startswith(f"error: cannot read {path}: ") and reason in err


@pytest.mark.parametrize("where", ["program constant", "cert parameter", "cert label",
                                   "dist probability", "dist value", "--eps"])
def test_a_number_too_long_for_python_exits_two(capsys, tmp_path, where):
    digits = "1" * 5000  # past the 4,300 digits int() converts
    files = {"program": HALVING, "cert": HALVING_CERT, "dist": HALVING_DIST}
    texts = {"program constant": f"f(n) {{\n  n := {digits}\n}}\n",
             "cert parameter": f"eps={digits}\nf@1: 0\n", "cert label": f"f@{digits}: 0\n",
             "dist probability": f"r: 1 {digits}\n", "dist value": f"r: {digits} 1\n"}
    if where in texts:
        files[where.split()[0]] = tmp_path / "bad"
        files[where.split()[0]].write_text(texts[where])
    extra = ["--eps", digits] if where == "--eps" else []
    code, out, err = run_cli(
        capsys, "check", str(files["program"]), "--cert", str(files["cert"]), "--kind", "ranking",
        "--dist", str(files["dist"]), "--box", "n=0..1", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("number too long (5000 characters)\n")


@pytest.mark.parametrize("box, message", [
    ("n=0.." + "1" * 5000, "bad --box: 1:6: number too long (5000 characters)"),  # past int()'s
    ("n=0..\u0663", "bad --box: 1:6: unexpected character '\u0663'"),  # an Arabic-Indic 3
], ids=["5000 digits", "non-ASCII digit"])
def test_a_box_bound_that_is_not_a_convertible_ascii_integer_exits_two(capsys, box, message):
    code, out, err = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", HALVING_DIST, "--box", box)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["1e-3", "+1", "1_000", ".5"])
def test_parameter_overrides_take_the_certificate_number_grammar(capsys, value):
    from termcert.certificates import CertificateError, parse_certificate

    with pytest.raises(CertificateError):
        parse_certificate(f"eps={value}\n")
    code, out, err = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", HALVING_DIST, "--box", "n=0..1", f"--eps={value}")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --eps: 1:")


ARABIC_3 = "٣"  # an Arabic-Indic digit three, which int() reads as 3
SIMULATE = ("simulate", HALVING, "--dist", HALVING_DIST, "--runs", "3")
FILE_PROBES = {  # a probe's cert or dist file text, and the command that reads it
    "cert": lambda path: ("check", HALVING, "--cert", path, "--kind", "ranking",
                          "--dist", HALVING_DIST, "--box", "n=0..1"),
    "dist": lambda path: ("check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
                          "--dist", path, "--box", "n=0..1"),
    "prob": lambda path: ("parse", path),
}


@pytest.mark.parametrize("argv, message", [
    ((*SIMULATE, "--entry", "f", "--args", f"n={ARABIC_3}"),
     f"bad --args: 1:3: unexpected character '{ARABIC_3}'"),
    ((*SIMULATE, "--entry", "f", "--args", "n=1_0"), "bad --args: 1:3: bad number literal '1_0'"),
    ((*SIMULATE, "--entry", "f", "--args", "n=+3"),
     "bad --args: 1:3: expected an integer, found '+'"),
    ((*SIMULATE, "--entry", "f@"), "bad --entry: 1:3: expected an integer, found 'end of input'"),
    ((*SIMULATE, "--entry", "f@1 g"),
     "bad --entry: 1:5: expected the end of the value, found 'g'"),
    ((*SIMULATE, "--entry", "f", "--args", "n=5", "--tail", f"1{ARABIC_3}"),
     f"bad --tail: 1:2: unexpected character '{ARABIC_3}'"),
    (("bounds", HALVING, "--cert", HALVING_CERT, "--kind", "cdb", "--entry", "f", "--k", "1_12"),
     "bad --k: 1:1: bad number literal '1_12'"),
    (("bounds", HALVING, "--cert", HALVING_CERT, "--kind", "cdb", "--entry", "f", "--n", ARABIC_3),
     f"bad --n: 1:1: unexpected character '{ARABIC_3}'"),
    (("check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking", "--dist", HALVING_DIST,
      "--box", "n=0..3", "--eps", "1e-3"), "bad --eps: 1:1: bad number literal '1e'"),
    (("check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking", "--dist", HALVING_DIST,
      "--box", "n=0..3 n"), "bad --box: 1:9: expected '=', found 'end of input'"),
], ids=["--args digit", "--args groups", "--args plus", "--entry f@", "--entry two items",
        "--tail digit", "--k groups", "--n digit", "--eps exponent", "--box short"])
def test_a_value_outside_the_token_grammar_exits_two_naming_its_position(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("option, value, message", [
    ("--seed", ARABIC_3, f"1:1: unexpected character '{ARABIC_3}'"),
    ("--runs", "1_0", "1:1: bad number literal '1_0'"),
    ("--max-steps", "+100", "1:1: expected an integer, found '+'"),
    ("--workers", " 2 3", "1:4: expected the end of the value, found '3'"),
])
def test_an_integer_option_outside_the_token_grammar_is_a_usage_error(capsys, option, value,
                                                                      message):
    import argparse

    from termcert.cli import _build_parser
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    argv = [*SIMULATE, "--entry", "f", "--runs", "3", option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        commands.choices["simulate"].format_usage()
        + f"termcert simulate: error: argument {option}: bad integer: {message}\n")


@pytest.mark.parametrize("kind, text, message", [
    ("cert", "eps=1e-3\nf@1: 0\n", "1:5: bad number literal '1e'"),
    ("cert", "eps=1delta=13\nf@1: 0\n", "1:5: bad number literal '1delta'"),
    ("cert", f"eps=1\nf@1: {ARABIC_3}\n", f"2:6: unexpected character '{ARABIC_3}'"),
    ("cert", "eps=1\nf@1: 0\n  f@1: 1\n", "3:3: duplicate certificate stanza f@1"),
    ("cert", "eps=3 delta=2\nf@1: 0\n", "1:1: eps=3 exceeds delta=2; the expected decrease "
                                        "cannot be both at least eps and at most delta"),
    ("dist", "r: 1 1/4\n", "1:1: probabilities sum to 1/4, not 1"),
    ("dist", f"r: {ARABIC_3} 1\n", f"1:4: unexpected character '{ARABIC_3}'"),
    ("prob", f"f(n) {{\n  n := n - {ARABIC_3}\n}}\n", f"2:12: unexpected character '{ARABIC_3}'"),
], ids=["cert exponent", "cert run-on", "cert digit", "cert duplicate", "cert eps above delta",
        "dist sum", "dist digit", "prob digit"])
def test_a_file_outside_the_token_grammar_exits_two_naming_its_position(capsys, tmp_path, kind,
                                                                       text, message):
    path = tmp_path / f"probe.{kind}"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, *FILE_PROBES[kind](str(path))) == (2, "", f"error: {message}\n")


def test_spaces_around_the_signs_of_a_value_are_allowed(capsys):
    argv = (*SIMULATE, "--entry", "f", "--tail", "2 ,3", "--workers", "1")
    assert run_cli(capsys, *argv, "--args", "n = 5") == run_cli(capsys, *argv, "--args", "n=5")
    code, out, err = run_cli(
        capsys, "check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking",
        "--dist", HALVING_DIST, "--box", "n = - 3 .. 3")
    assert (code, err) == (0, "") and "box=n=-3..3" in out


# a stanza for a label the halving game lacks (f@99), and one for a function
# it lacks (zz@1): each command rejects the certificate at the first of them
STRAY = "eps=1\nf@99: 0\nzz@1: 3\n"
STRAY_ERR = "error: 2:1: certificate stanza f@99 names no label of the program\n"


def test_check_rejects_a_stanza_for_a_label_the_program_lacks(tmp_path, capsys):
    cert = tmp_path / "stray.cert"
    cert.write_text(STRAY)
    assert run_cli(capsys, "check", HALVING, "--cert", str(cert), "--kind", "ranking",
                   "--dist", HALVING_DIST, "--box", "n=-1..0") == (2, "", STRAY_ERR)
    cert.write_text("eps=1\nf@1: 1\n# a function the program lacks\n  zz@1: 3\n")
    assert run_cli(capsys, "check", HALVING, "--cert", str(cert), "--kind", "ranking",
                   "--dist", HALVING_DIST, "--box", "n=-1..0") == (
        2, "", "error: 4:3: certificate stanza zz@1 names no label of the program\n")


def test_bounds_rejects_a_stanza_for_a_label_the_program_lacks(tmp_path, capsys):
    cert = tmp_path / "stray.cert"
    cert.write_text(STRAY)
    assert run_cli(capsys, "bounds", HALVING, "--cert", str(cert), "--kind", "ranking",
                   "--entry", "f", "--args", "n=5") == (2, "", STRAY_ERR)


def test_simulate_rejects_a_stanza_for_a_label_the_program_lacks(tmp_path, capsys):
    cert = tmp_path / "stray.cert"
    cert.write_text(STRAY)
    assert run_cli(capsys, "simulate", HALVING, "--cert", str(cert), "--entry", "f",
                   "--args", "n=5", "--dist", HALVING_DIST, "--scheduler", "greedy-max",
                   "--runs", "10", "--workers", "1") == (2, "", STRAY_ERR)
