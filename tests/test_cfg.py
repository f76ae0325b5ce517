from pathlib import Path

from termcert._compile import _args_code, compile_lambda
from termcert.cfg import Branch, CallSite, Star, Update, build_cfg, dump_cfg
from termcert.fixtures import load_cfg_fixture
from termcert.lang import label_program
from termcert.parser import parse_program
from termcert.valuation import Valuation

GOLDEN = Path(__file__).parent / "golden" / "halving_game_cfg.txt"


def value_passing(site, nu):
    """Callee entry valuation through the compiled call: parameters from
    arguments, all else zero."""
    args = _args_code(site, {name: f"v[{i}]" for i, name in enumerate(nu.variables)}, "_ipow")
    values = compile_lambda(f"lambda v: ({''.join(arg + ', ' for arg in args)})")(nu.values)
    return Valuation(dict(zip(site.callee_vars, values)))


def edge_set(fn):
    return set(fn.edges())


def test_halving_game_exact_edges(halving):
    cfg, _, _ = halving
    f = cfg.function("f")
    assert edge_set(f) == {
        (1, "n >= 1", 2),
        (1, "not (n >= 1)", 6),
        (2, "star:then", 3),
        (2, "star:else", 5),
        (3, "call f(n := n div 2)", 4),
        (4, "call f(n := n div 2)", 7),
        (5, "call g(n := n - 1)", 7),
        (6, "id", 7),
    }
    assert f.entry == 1 and f.exit == 7
    assert [f.label_class(label) for label in f.labels()] == [
        "branching", "nondet", "call", "call", "call", "assignment", "terminal"]

    g = cfg.function("g")
    assert edge_set(g) == {
        (1, "n >= 1", 2),
        (1, "not (n >= 1)", 4),
        (2, "n := n + r", 3),
        (3, "call f(n := n)", 5),
        (4, "id", 5),
    }
    assert g.entry == 1 and g.exit == 5


def test_skip_program_lowers_to_identity_edge():
    cfg = build_cfg(label_program(parse_program("f(n) { skip }")))
    fn = cfg.function("f")
    assert edge_set(fn) == {(1, "id", 2)}
    assert fn.exit == 2
    assert fn.label_class(1) == "assignment"
    assert fn.nodes == {1: Update(None, None, (), 2)}


def test_while_loop_head_doubles_as_body_continuation(walk):
    # derived by hand from the loop lowering rule: the body's single edge
    # flows back into the guard label, which is both entry and loop head
    cfg, _, _ = walk
    g = cfg.function("g")
    assert edge_set(g) == {
        (1, "n >= 1", 2),
        (1, "not (n >= 1)", 3),
        (2, "n := n + s", 1),
    }
    assert g.entry == 1 and g.exit == 3
    assert isinstance(g.nodes[2], Update) and g.nodes[2].target == 1


def test_out_degree_invariant_per_label_class(halving, walk, coins):
    # one node per label but the exit, whose targets are its edges' targets
    for cfg in (halving[0], walk[0], coins[0]):
        for fn in cfg.functions:
            assert sorted(fn.nodes) == [label for label in fn.labels() if label != fn.exit]
            for label, node in fn.nodes.items():
                assert node.kind == fn.label_class(label)
                assert len(node.targets) == (2 if node.kind in ("branching", "nondet") else 1)
                assert [target for _, target in node.edges()] == list(node.targets)
            assert fn.label_class(fn.exit) == "terminal"


def test_branching_predicates_are_exact_complements(halving):
    cfg, _, _ = halving
    node = cfg.function("f").nodes[1]
    assert isinstance(node, Branch) and (node.yes, node.no) == (2, 6)
    (pos, _), (neg, _) = node.edges()
    assert neg == f"not ({pos})"


def test_star_orientation_recorded(halving):
    cfg, _, _ = halving
    node = cfg.function("f").nodes[2]
    assert node == Star(3, 5) and node.targets == (3, 5)
    assert list(node.edges()) == [("star:then", 3), ("star:else", 5)]


def test_value_passing_examples(halving):
    cfg, _, _ = halving
    f = cfg.function("f")
    call_at_3 = f.nodes[3]
    assert isinstance(call_at_3, CallSite)
    assert value_passing(call_at_3, Valuation({"n": 5})) == Valuation({"n": 2})
    call_at_5 = f.nodes[5]
    assert value_passing(call_at_5, Valuation({"n": 1})) == Valuation({"n": 0})


def test_value_passing_defaults_locals_to_zero():
    prog = label_program(parse_program(
        "f(n) { g(n + 1) } g(m) { x := m; x := x + 1 }"))
    cfg = build_cfg(prog)
    passed = value_passing(cfg.function("f").nodes[1], Valuation({"n": 4}))
    assert passed == Valuation({"m": 5, "x": 0})


def test_every_label_reachable(halving, walk, coins):
    # a walk from the entry along every edge, ignoring guards
    for cfg in (halving[0], walk[0], coins[0]):
        for fn in cfg.functions:
            seen, frontier = {fn.entry}, [fn.entry]
            while frontier:
                label = frontier.pop()
                for target in fn.nodes[label].targets if label != fn.exit else ():
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
            assert seen == set(fn.labels())


def test_dump_matches_golden(halving):
    cfg, _, _ = halving
    assert dump_cfg(cfg) == GOLDEN.read_text()


def test_dump_is_deterministic(halving):
    cfg, _, _ = halving
    assert dump_cfg(cfg) == dump_cfg(cfg)


def test_floor_division_rounds_toward_negative_infinity():
    cfg = load_cfg_fixture("halving_game")
    assert value_passing(cfg.function("f").nodes[3], Valuation({"n": -3})) == Valuation({"n": -2})


def test_build_cfg_classifies_program_variables_once(monkeypatch):
    # which identifiers are program variables is a whole-program question;
    # asking it once per function made lowering quadratic in the functions,
    # and each further walk over the statements re-derived the same answer
    from functools import cached_property

    from termcert import lang

    prog = label_program(parse_program(
        "\n".join(f"f{i}(n) {{ n := n - r{i} }}" for i in range(50))))
    names, walks = lang.Program._names.func, []
    hook = cached_property(lambda p: walks.append(p) or names(p))
    hook.__set_name__(lang.Program, "_names")
    monkeypatch.setattr(lang.Program, "_names", hook)
    iterate, statement_walks = lang.iter_statements, []
    monkeypatch.setattr(lang, "iter_statements",
                        lambda s: statement_walks.append(s) or iterate(s))
    cfg = build_cfg(prog)
    assert walks == [prog]
    assert len(statement_walks) == 50  # one per function body, all in that walk
    assert cfg.sampling_vars == tuple(sorted(f"r{i}" for i in range(50)))
    assert {fn.pvars for fn in cfg.functions} == {("n",)}
