from fractions import Fraction

import pytest

from oracles import (
    box_points,
    brute_force_max_jump,
    brute_force_min_delta,
    cert_match,
    h_at,
    successor_profile,
)

from termcert.certificates import parse_certificate
from termcert.checker import (
    CheckerError,
    VerifyBox,
    check_cdb,
    check_db,
    check_ranking,
    check_super,
    run_check,
)
from termcert.cfg import build_cfg, theta_fixpoint
from termcert.distributions import SamplingFunction
from termcert.fixtures import sampling_function_for
from termcert.lang import label_program
from termcert.parser import parse_program

BOX100 = VerifyBox.parse("n=-100..100")
BOX50 = VerifyBox.parse("n=-50..50")


# ---------------------------------------------------------------------------
# ranking conditions
# ---------------------------------------------------------------------------

def test_the_condition_table_has_a_row_per_certificate_family():
    # the CLI offers CHECK_KINDS for --kind without loading the checker
    from termcert.certificates import CHECK_KINDS
    from termcert.checker import _KINDS

    assert tuple(_KINDS) == CHECK_KINDS


def test_ranking_passes_for_halving_game(halving):
    cfg, sf, cert = halving
    report = check_ranking(cert, cfg, sf, BOX100)
    assert report.passed
    assert report.points_checked == 201 * 12
    assert report.points_skipped == 0


def test_ranking_fails_for_never_decreasing_certificate(walk):
    # the walk certificate never shrinks along branch edges, so an
    # expected-decrease check must fail; first failing point for the loop
    # head is n=1 where successor+1 = 3 exceeds 2
    cfg, sf, cert = walk
    report = check_ranking(cert, cfg, sf, BOX50, eps=Fraction(1))
    assert not report.passed
    by_key = {(f.fname, f.label): f for f in report.failures}
    g1 = by_key[("g", 1)]
    assert g1.condition == "branch-decrease"
    assert dict(g1.point) == {"n": 1}
    assert g1.lhs == "3" and g1.rhs == "2"


def test_ranking_passes_for_coin_loops(coins):
    cfg, sf, cert = coins
    box = VerifyBox.parse("i=0..30, n=0..30, c=0..1")
    report = check_ranking(cert, cfg, sf, box)
    assert report.passed


def test_ranking_infinite_points_pass_vacuously(halving):
    cfg, sf, cert = halving
    box = VerifyBox.parse("n=-3..0")
    report = check_ranking(cert, cfg, sf, box)
    assert report.passed  # the nondet/call stanzas are inf below 1


# ---------------------------------------------------------------------------
# conditionally difference-bounded conditions
# ---------------------------------------------------------------------------

def test_cdb_passes_at_declared_parameters(halving):
    cfg, sf, cert = halving
    assert check_cdb(cert, cfg, sf, BOX100).passed


def test_cdb_minimal_delta_is_sharp(halving):
    cfg, sf, cert = halving
    min_delta = brute_force_min_delta(cert, cfg, sf, BOX100)
    assert min_delta == Fraction(13)
    assert check_cdb(cert, cfg, sf, BOX100, delta=min_delta).passed
    below = min_delta - Fraction(1, 100)
    report = check_cdb(cert, cfg, sf, BOX100, delta=below)
    assert not report.passed
    first = report.first_failure
    assert (first.fname, first.label) == ("f", 3)
    assert dict(first.point) == {"n": 3}


def test_expected_value_conditions_enumerate_multi_variable_joints():
    # an update reading two sampling variables sums over their product
    # support; the certificate below is tight exactly at the true joint
    # expectation E[a + 2b] = 3/4 + 1 = 7/4
    from termcert.distributions import DiscreteDist, SamplingFunction

    prog = label_program(parse_program("f(n) { n := n + a + 2*b }"))
    cfg = build_cfg(prog)
    sf = SamplingFunction.from_mapping({
        "a": DiscreteDist.from_pairs([(0, Fraction(1, 4)), (1, Fraction(3, 4))]),
        "b": DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
    })
    box = VerifyBox.parse("n=-4..4")
    # the assignment pops straight to the terminal (value 0), so the tight
    # decrease equals the whole starting value
    cert = parse_certificate("f@1: 1\n")
    assert check_ranking(cert, cfg, sf, box, eps=Fraction(1)).passed
    report = check_ranking(cert, cfg, sf, box, eps=Fraction(101, 100))
    assert not report.passed

    # with a successor label in the body, a sloped certificate pins the
    # joint expectation itself: drop = 8 - 4*E[a + 2b] = 8 - 7 = 1 on n >= 0
    prog = label_program(parse_program("f(n) { n := n + a + 2*b; skip }"))
    cfg = build_cfg(prog)
    cert = parse_certificate(
        "f@1: [n >= 0] 4*n + 100 ; 100\nf@2: [n >= 0] 4*n + 92 ; 92\n")
    assert check_ranking(cert, cfg, sf, box, eps=Fraction(1)).passed
    assert not check_ranking(cert, cfg, sf, box, eps=Fraction(101, 100)).passed


def test_cdb_vacuous_for_terminal_only_program():
    prog = label_program(parse_program("f(n) { skip }"))
    cfg = build_cfg(prog)
    sf = sampling_function_for(cfg)
    cert = parse_certificate("delta=1 zeta=1\nf@1: 1\nf@2: 0\n")
    box = VerifyBox.parse("n=0..3")
    assert check_cdb(cert, cfg, sf, box).passed


def test_cdb_expected_jump_cap_binds(halving):
    # expected |change| at the sampling assignment reaches 11.75, so a cap
    # below that must produce a counterexample there
    cfg, sf, cert = halving
    report = check_cdb(cert, cfg, sf, BOX100, delta=Fraction(13), zeta=Fraction(11))
    assert not report.passed
    assert any(f.condition == "assign-expected-jump-cap" and f.fname == "g"
               for f in report.failures)
    assert check_cdb(cert, cfg, sf, BOX100, delta=Fraction(13),
                     zeta=Fraction(47, 4)).passed


# ---------------------------------------------------------------------------
# per-outcome difference-bounded conditions
# ---------------------------------------------------------------------------

def test_db_passes_for_walk_certificate_with_unit_cap(walk):
    cfg, sf, cert = walk
    assert check_db(cert, cfg, sf, BOX50, zeta=Fraction(1)).passed


def test_db_sharp_for_halving_game(halving):
    cfg, sf, cert = halving
    max_jump, saw_inf = brute_force_max_jump(cert, cfg, sf, BOX100)
    assert max_jump == Fraction(13)
    assert not saw_inf
    assert check_db(cert, cfg, sf, BOX100, zeta=Fraction(13)).passed
    report = check_db(cert, cfg, sf, BOX100, zeta=Fraction(13) - Fraction(1, 100))
    assert not report.passed


def test_db_fails_for_exponential_jumps(coins):
    cfg, sf, cert = coins
    box = VerifyBox.parse("i=0..30, n=0..30, c=0..1")
    max_jump, _ = brute_force_max_jump(cert, cfg, sf, box)
    assert max_jump == Fraction(2**31 + 8)
    report = check_db(cert, cfg, sf, box, zeta=Fraction(2**29 - 1))
    assert not report.passed
    assert report.first_failure.fname == "main"
    assert report.first_failure.condition == "assign-jump-cap"
    assert check_db(cert, cfg, sf, box, zeta=max_jump).passed


def test_zeta_monotone_and_delta_antitone(halving):
    # relaxing the jump cap keeps db passing; tightening the expected-jump
    # floor upward eventually breaks the super family
    cfg, sf, cert = halving
    assert check_db(cert, cfg, sf, BOX100, zeta=Fraction(13)).passed
    for zeta in (Fraction(14), Fraction(100), Fraction(10**6)):
        assert check_db(cert, cfg, sf, BOX100, zeta=zeta).passed
    assert check_super(cert, cfg, sf, BOX100, delta=Fraction(1), zeta=Fraction(13)).passed
    for delta in (Fraction(1, 2), Fraction(1, 100)):
        assert check_super(cert, cfg, sf, BOX100, delta=delta, zeta=Fraction(13)).passed
    assert not check_super(cert, cfg, sf, BOX100, delta=Fraction(2),
                           zeta=Fraction(13)).passed


def test_db_counts_infinite_successor_as_failure():
    prog = label_program(parse_program("f(n) { n := n - 1 }"))
    cfg = build_cfg(prog)
    sf = sampling_function_for(cfg)
    # finite at the assignment, but the terminal stanza is partial, so the
    # successor at n=0 lands on the implicit infinity
    cert = parse_certificate("zeta=5\nf@1: 1\nf@2: [n >= 0] 0\n")
    report = check_db(cert, cfg, sf, VerifyBox.parse("n=0..0"))
    assert not report.passed
    assert report.first_failure.lhs == "inf"


# ---------------------------------------------------------------------------
# super-measure conditions
# ---------------------------------------------------------------------------

def test_super_passes_for_walk_certificate(walk):
    cfg, sf, cert = walk
    report = check_super(cert, cfg, sf, BOX50)
    assert report.passed


def test_super_conditions_hold_for_halving_certificate_too(halving):
    # verified independently: the halving-game certificate never increases,
    # its jumps stay within 13, and every sampling assignment moves the
    # value by at least 1 in expectation, so the family's conditions hold
    # with floor 1 and cap 13 on this box
    cfg, sf, cert = halving
    report = check_super(cert, cfg, sf, BOX100, delta=Fraction(1), zeta=Fraction(13))
    assert report.passed

    # oracle for the floor: expected |change| at every finite assignment point
    floor = None
    for fn in cfg.functions:
        for label in fn.labels():
            if fn.label_class(label) != "assignment":
                continue
            for nu in box_points(BOX100, fn.pvars):
                if cert_match(cert, fn.name, label, nu) is None:
                    continue
                h_here = h_at(cert, cfg, fn.name, label, nu)
                if h_here.is_infinite:
                    continue
                kind, data = successor_profile(cert, cfg, sf, fn.name, label, nu)
                spread = sum(w * abs(h.fraction - h_here.fraction) for w, h in data)
                floor = spread if floor is None else min(floor, spread)
    assert floor == Fraction(1)
    # and a floor just above it must fail
    report = check_super(cert, cfg, sf, BOX100, delta=floor + Fraction(1, 100),
                         zeta=Fraction(13))
    assert not report.passed
    assert any(f.condition == "assign-jump-floor" for f in report.failures)


def test_super_zero_at_nonterminal_fails():
    prog = label_program(parse_program("f(n) { skip }"))
    cfg = build_cfg(prog)
    sf = sampling_function_for(cfg)
    cert = parse_certificate("delta=1 zeta=1\nf@1: 0\nf@2: 0\n")
    report = check_super(cert, cfg, sf, VerifyBox.parse("n=0..0"))
    assert not report.passed
    assert any(f.condition == "nonterminal-nonzero" and f.label == 1
               for f in report.failures)


def test_super_single_skip_program_passes():
    prog = label_program(parse_program("f(n) { skip }"))
    cfg = build_cfg(prog)
    sf = sampling_function_for(cfg)
    cert = parse_certificate("delta=1 zeta=1\nf@1: 1\nf@2: 0\n")
    assert check_super(cert, cfg, sf, VerifyBox.parse("n=-5..5")).passed


def test_super_nonzero_terminal_fails():
    prog = label_program(parse_program("f(n) { skip }"))
    cfg = build_cfg(prog)
    sf = sampling_function_for(cfg)
    cert = parse_certificate("delta=1 zeta=1\nf@1: 1\nf@2: 1\n")
    report = check_super(cert, cfg, sf, VerifyBox.parse("n=0..0"))
    assert not report.passed
    assert any(f.condition == "terminal-zero" and f.label == 2
               for f in report.failures)


# ---------------------------------------------------------------------------
# report/engine mechanics
# ---------------------------------------------------------------------------

def test_unknown_kind_rejected(halving):
    cfg, sf, cert = halving
    with pytest.raises(CheckerError):
        run_check("nope", cert, cfg, sf, BOX100)


def test_missing_distribution_rejected_by_name(halving):
    cfg, _, cert = halving
    with pytest.raises(CheckerError, match=r"no distribution for sampling variables \['r'\]"):
        run_check("ranking", cert, cfg, SamplingFunction(()), BOX100)


def test_missing_parameter_rejected(walk):
    from termcert.certificates import CertificateError

    cfg, sf, cert = walk  # the walk certificate carries no eps
    with pytest.raises(CertificateError):
        run_check("ranking", cert, cfg, sf, BOX50)


def test_box_must_cover_all_program_variables(coins):
    cfg, sf, cert = coins
    with pytest.raises(CheckerError):
        check_ranking(cert, cfg, sf, VerifyBox.parse("i=0..30, n=0..30"))


def test_a_negative_worker_count_is_rejected_before_any_label(halving, monkeypatch):
    from termcert import InputError, checker

    cfg, sf, cert = halving
    monkeypatch.setattr(checker, "_check_labels", lambda *args: pytest.fail("a label ran"))
    with pytest.raises(InputError, match="^workers must be nonnegative, got -1$"):
        run_check("ranking", cert, cfg, sf, BOX50, workers=-1)


def test_box_parsing():
    box = VerifyBox.parse("n=-100..100", "c=0..1,i=0..3")
    assert box.interval("n") == (-100, 100)
    assert box.interval("c") == (0, 1)
    assert box.size(("c", "i")) == 8
    with pytest.raises(CheckerError):
        VerifyBox.parse("n=5..1")
    with pytest.raises(CheckerError):
        VerifyBox.parse("oops")


def test_reports_identical_across_workers_and_reruns(halving, monkeypatch):
    from termcert import checker

    monkeypatch.setattr(checker, "_SERIAL_CONDITIONS", 0)  # a real pool checks every label
    cfg, sf, cert = halving
    box = VerifyBox.parse("n=-20..20")
    a = check_ranking(cert, cfg, sf, box)
    b = check_ranking(cert, cfg, sf, box)
    c = check_ranking(cert, cfg, sf, box, workers=8)
    assert a == b == c
    bad = check_cdb(cert, cfg, sf, box, delta=Fraction(2))
    bad8 = check_cdb(cert, cfg, sf, box, delta=Fraction(2), workers=8)
    assert bad == bad8
    assert not bad.passed


def test_process_count_is_clamped_to_cores_and_labels(halving, inline_pool, monkeypatch):
    import os

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg, sf, cert = halving
    box = VerifyBox.parse("n=-5..5")
    assert check_ranking(cert, cfg, sf, box, workers=5000) == check_ranking(cert, cfg, sf, box)
    skip = build_cfg(label_program(parse_program("f(n) { skip }")))
    unit = parse_certificate("eps=1\nf@1: 1\n")
    skip_sf = sampling_function_for(skip)
    assert check_ranking(unit, skip, skip_sf, box, workers=5000) == \
        check_ranking(unit, skip, skip_sf, box)
    # a pool of the other workers: two of three cores, one for the skip
    # program's two labels
    assert sizes == [2, 1]


def test_serial_head_may_end_at_any_label(halving, inline_pool, monkeypatch):
    # budgets from each label's conditions in scan order stop the head
    # before label 0, 1, 6 (the last of f), 11 (the last) or after all of
    # them; the report (failures included) is that of one worker, and the
    # labels left go in contiguous ranges to this process (the first range)
    # and a pool of the other workers.  An evaluation error in the head, at
    # (f, 6), starts no pool; with a zero budget both ranges raise and the
    # first error in scan order is raised.  The inline pool runs a range
    # when it is submitted, before this process runs its own
    import math
    import os
    from itertools import accumulate

    from termcert import checker
    from termcert.certificates import CertificateError

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg, sf, cert = halving
    box = VerifyBox.parse("n=-20..20")
    params = checker._kind_params("cdb", cert, delta=Fraction(2))
    units = tuple((fn.name, label) for fn in cfg.functions for label in fn.labels())
    assert len(units) == 12
    job = ("cdb", cert, params, cfg, sf, box, units)
    spent = list(accumulate(
        (checker._check_labels(*job, i, i + 1, math.inf)[0][3] for i in range(len(units))),
        initial=0))
    serial = run_check("cdb", cert, cfg, sf, box, params)
    assert not serial.passed

    check_labels, ranges = checker._check_labels, []

    def recorded(*args):  # the job's 7 arguments, then lo, hi and the budget
        try:
            part, end = check_labels(*args)
        except CertificateError:
            ranges.append((args[7], None))
            raise
        ranges.append((args[7], end))
        return part, end

    monkeypatch.setattr(checker, "_check_labels", recorded)
    for head in (0, 1, 6, 11, 12):  # g's exit label has no cdb conditions
        monkeypatch.setattr(checker, "_SERIAL_CONDITIONS", spent[head] if head < 12 else math.inf)
        for workers in (2, 3):
            sizes.clear()
            ranges.clear()
            assert run_check("cdb", cert, cfg, sf, box, params, workers=workers) == serial
            rest = min(workers, len(units) - head)
            assert sizes == ([rest - 1] if rest > 1 else []), (head, workers)
            assert ranges[0] == (0, head)
            ranges.sort(key=lambda r: r[0])  # stable: the head stays first
            assert [lo for lo, _ in ranges[1:]] == [end for _, end in ranges[:-1]]
            assert ranges[-1][1] == len(units)
            assert len(ranges) == 1 + rest

    negative = parse_certificate("eps=1\nf@6: 0 - 1\ng@4: 0 - 2\n")
    for budget, pools, raised in ((1000, [], [(0, None)]),  # (f, 6) is reached within 1000
                                  (0, [1], [(0, 0), (6, None), (0, None)])):
        monkeypatch.setattr(checker, "_SERIAL_CONDITIONS", budget)
        sizes.clear()
        ranges.clear()
        with pytest.raises(CertificateError) as exc:
            check_ranking(negative, cfg, sf, box, workers=2)
        assert str(exc.value) == "certificate value -1 at (f, 6, {n=-20}) is negative"
        assert sizes == pools
        assert ranges == raised


# ---------------------------------------------------------------------------
# reach-an-assignment fixpoint
# ---------------------------------------------------------------------------

def test_theta_on_walk_program(walk):
    # derived by hand from the closure rules: the branch label enters at
    # round 1 via its two settled children, the recursive call at round 2
    cfg, _, _ = walk
    theta = theta_fixpoint(cfg)
    assert theta.all_covered
    assert theta.K[("f", 1)] == 1
    assert theta.K[("f", 3)] == 2
    assert theta.K_max == 2
    assert theta.K_max_by_function == {"f": 2, "g": 1}
    assert theta.m_star <= sum(len(fn.labels()) for fn in cfg.functions)


def test_theta_on_loop_with_assignment_body():
    cfg = build_cfg(label_program(parse_program("f(n) { while n >= 1 do skip od }")))
    theta = theta_fixpoint(cfg)
    assert theta.all_covered
    assert theta.K_max == 1


def test_theta_uncovered_for_branching_only_cycle():
    cfg = build_cfg(label_program(parse_program(
        "f(n) { while n >= 1 do while n >= 2 do skip od od }")))
    theta = theta_fixpoint(cfg)
    assert not theta.all_covered
    assert ("f", 1) not in theta.members
    assert ("f", 2) not in theta.members
    assert ("f", 3) in theta.members


def test_run_check_rejects_a_stanza_for_a_label_the_program_lacks(halving):
    # f@99 names a label the halving game lacks, zz@1 a function it lacks:
    # without the test, the check would pass on n=-1..0 with 4 points
    # checked and 20 skipped
    from termcert.certificates import CertificateError

    cfg, sf, _ = halving
    with pytest.raises(CertificateError, match="^2:1: certificate stanza f@99 names no label"):
        run_check("ranking", parse_certificate("eps=1\nf@99: 0\nzz@1: 3\n"), cfg, sf,
                  VerifyBox.parse("n=-1..0"))
