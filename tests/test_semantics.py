import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from oracles import ACTION_ELSE, ACTION_TAU, ACTION_THEN, MdpState, sample_from_uniform, step
from termcert.certificates import CertificateError
from termcert.lang import EvalError
from termcert.rng import make_generator
from termcert.semantics import (SCHEDULER_KINDS, Scheduler, SemanticsError, StackElement, Z95,
                                simulate, wilson_interval)
from termcert.valuation import Valuation


def mu(r):
    return Valuation({"r": r})


def test_assignment_step_consumes_fresh_sample(halving):
    cfg, sf, _ = halving
    state = MdpState((StackElement("g", 2, Valuation({"n": 3})),), mu(0))
    out = step(state, ACTION_TAU, mu(-1), cfg)
    assert out.config == (StackElement("g", 3, Valuation({"n": 2})),)
    assert out.sample == mu(-1)


def test_call_step_pushes_callee_over_return_frame(halving):
    cfg, _, _ = halving
    below = StackElement("g", 1, Valuation({"n": 9}))
    state = MdpState((StackElement("f", 3, Valuation({"n": 5})), below), mu(1))
    out = step(state, ACTION_TAU, mu(1), cfg)
    assert out.config == (
        StackElement("f", 1, Valuation({"n": 2})),
        StackElement("f", 4, Valuation({"n": 5})),
        below,
    )


def test_call_step_replaces_frame_when_continuation_is_terminal(halving):
    cfg, _, _ = halving
    state = MdpState((StackElement("f", 4, Valuation({"n": 5})),), mu(1))
    out = step(state, ACTION_TAU, mu(1), cfg)
    assert out.config == (StackElement("f", 1, Valuation({"n": 2})),)


def test_branching_step_follows_the_failing_guard(halving):
    cfg, _, _ = halving
    state = MdpState((StackElement("f", 1, Valuation({"n": 0})),), mu(0))
    out = step(state, ACTION_TAU, mu(1), cfg)
    assert out.config == (StackElement("f", 6, Valuation({"n": 0})),)


def test_pop_to_empty_configuration_and_absorption(halving):
    cfg, _, _ = halving
    state = MdpState((StackElement("f", 6, Valuation({"n": 0})),), mu(0))
    out = step(state, ACTION_TAU, mu(1), cfg)
    assert out.terminated
    # the empty configuration absorbs under every action
    for action in (ACTION_TAU, ACTION_THEN, ACTION_ELSE):
        again = step(out, action, mu(-1), cfg)
        assert again.terminated and again.sample == mu(-1)


def test_nondet_step_follows_action(halving):
    cfg, _, _ = halving
    state = MdpState((StackElement("f", 2, Valuation({"n": 3})),), mu(0))
    assert step(state, ACTION_THEN, mu(1), cfg).config[0].label == 3
    assert step(state, ACTION_ELSE, mu(1), cfg).config[0].label == 5


def test_one_step_probability_law(halving):
    # empirical frequency of each successor of a fixed assignment state over
    # a million single steps matches the joint sampling weight within 3 sigma.
    # A step is a function of its sample, so each distinct sample is stepped
    # once and counted as often as it was drawn
    cfg, sf, _ = halving
    state = MdpState((StackElement("g", 2, Valuation({"n": 3})),), mu(0))
    n = 1_000_000
    counts = Counter()
    for drawn, times in Counter(oracles.draws(sf.dist("r"), 99, 0, n)).items():
        out = step(state, ACTION_TAU, mu(drawn), cfg)
        counts[out.config[0].valuation["n"]] += times
    assert set(counts) == {2, 4} and counts[2] + counts[4] == n
    p = Fraction(1, 4)
    sigma = math.sqrt(float(p * (1 - p)) / n)
    assert abs(counts[4] / n - 0.25) <= 3 * sigma


def test_simulate_rejects_terminal_entry(halving):
    cfg, sf, _ = halving
    with pytest.raises(SemanticsError):
        simulate(cfg, sf, StackElement("f", 7, Valuation({"n": 0})),
                 Scheduler("uniform"), runs=1, max_steps=10, seed=0)


def test_simulate_rejects_tail_threshold_beyond_cap(halving):
    cfg, sf, _ = halving
    with pytest.raises(SemanticsError):
        simulate(cfg, sf, StackElement("f", 1, Valuation({"n": 1})),
                 Scheduler("uniform"), runs=1, max_steps=10, k_list=[11], seed=0)


def test_simulate_rejects_negative_run_count(halving):
    cfg, sf, _ = halving
    entry = StackElement("f", 1, Valuation({"n": 1}))
    with pytest.raises(SemanticsError, match="runs must be nonnegative, got -5"):
        simulate(cfg, sf, entry, Scheduler("uniform"), runs=-5, max_steps=10, seed=0)
    stats = simulate(cfg, sf, entry, Scheduler("uniform"), runs=0, max_steps=10, seed=0)
    assert (stats.runs, stats.terminated, stats.censored) == (0, 0, 0)


def test_simulate_rejects_an_entry_the_cfg_lacks(halving):
    # with the CLI's wording, not an IndexError or KeyError from the run loop
    cfg, sf, _ = halving
    cases = [(StackElement("f", 99, Valuation({"n": 1})), "function 'f' has no label 99"),
             (StackElement("h", 1, Valuation({"n": 1})), "no function named 'h'"),
             (StackElement("f", 1, Valuation({})), "entry valuation binds no value to ['n']")]
    for entry, message in cases:
        with pytest.raises(SemanticsError) as exc:
            simulate(cfg, sf, entry, Scheduler("uniform"), runs=1, max_steps=10)
        assert str(exc.value) == message


def test_simulate_rejects_a_negative_worker_count_before_any_run(halving, monkeypatch):
    # an InputError from the fan-out, not concurrent.futures' ValueError
    # after the runs of this process
    from termcert import InputError, semantics

    cfg, sf, _ = halving
    monkeypatch.setattr(semantics, "_run_range", lambda *args: pytest.fail("a run ran"))
    with pytest.raises(InputError, match="^workers must be nonnegative, got -1$"):
        simulate(cfg, sf, StackElement("f", 1, Valuation({"n": 1})), Scheduler("uniform"),
                 runs=10, max_steps=10, workers=-1)


def test_greedy_max_mean_is_deterministic_for_halving_game(halving):
    # under the greedy-max policy the run from n=5 is deterministic: 44 steps
    cfg, sf, cert = halving
    stats = simulate(cfg, sf, StackElement("f", 1, Valuation({"n": 5})),
                     Scheduler("greedy-max", cert), runs=300, max_steps=10_000,
                     seed=5)
    assert stats.mean == 44.0
    assert stats.mean_halfwidth == 0.0
    assert stats.censored == 0


def test_always_then_equals_greedy_max_here(halving):
    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    a = simulate(cfg, sf, entry, Scheduler("always-then"), runs=200,
                 max_steps=10_000, seed=6)
    b = simulate(cfg, sf, entry, Scheduler("greedy-max", cert), runs=200,
                 max_steps=10_000, seed=6)
    assert a.mean == b.mean == 44.0


def test_simulate_deterministic_under_fixed_seed(halving):
    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    kw = dict(runs=400, max_steps=10_000, k_list=[30], seed=12)
    a = simulate(cfg, sf, entry, Scheduler("uniform"), **kw)
    b = simulate(cfg, sf, entry, Scheduler("uniform"), **kw)
    assert a == b
    c = simulate(cfg, sf, entry, Scheduler("uniform"), runs=400,
                 max_steps=10_000, k_list=[30], seed=13)
    assert a != c


def _recorded_ranges(monkeypatch) -> list:
    """The (lo, end) of every `_run_range` call from now on, in call order."""
    from termcert import semantics

    run_range, ranges = semantics._run_range, []

    def recorded(*args):  # the job's 9 arguments, then lo, hi and the budget
        part, end = run_range(*args)
        ranges.append((args[9], end))
        return part, end

    monkeypatch.setattr(semantics, "_run_range", recorded)
    return ranges


def test_worker_count_does_not_change_results(halving, inline_pool, monkeypatch):
    # on 8 cores, a serial head that a budget of 1,000 steps stops inside
    # its first block of rows, then 8 ranges of the rest, 7 through the
    # (inline) pool: each range's first run decides that it draws, and its
    # blocks end at the range's end
    import os

    from termcert import semantics

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(semantics, "_SERIAL_STEPS", 1000)
    ranges = _recorded_ranges(monkeypatch)
    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    kw = dict(runs=300, max_steps=10_000, k_list=[30, 112], seed=21)
    serial = simulate(cfg, sf, entry, Scheduler("uniform"), workers=1, **kw)
    assert ranges == [(0, 300)] and sizes == []
    ranges.clear()
    parallel = simulate(cfg, sf, entry, Scheduler("uniform"), workers=8, **kw)
    assert serial == parallel
    assert sizes == [7]
    ranges.sort()
    assert len(ranges) == 9 and ranges[0][0] == 0 and 1 < ranges[0][1] < 100
    assert [lo for lo, _ in ranges[1:]] == [end for _, end in ranges[:-1]]
    assert ranges[-1][1] == 300


def test_censoring_consistent_with_expected_time_tail(halving):
    # with a capped run count, the censored fraction stays within the
    # inverse-linear tail implied by value/eps at the entry, plus 3 sigma
    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    cap = 64
    stats = simulate(cfg, sf, entry, Scheduler("uniform"), runs=4000,
                     max_steps=cap, seed=31)
    markov = 56 / cap
    p = stats.censored / stats.runs
    sigma = math.sqrt(markov * (1 - markov) / stats.runs)
    assert p <= markov + 3 * sigma


def test_stack_length_changes_by_at_most_one(halving):
    cfg, sf, _ = halving
    states = oracles.coin_run(cfg, sf, StackElement("f", 1, Valuation({"n": 6})), 77, 400)
    for before, after in zip(states, states[1:]):
        assert abs(len(after.config) - len(before.config)) <= 1


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12)
    assert hi0 < 0.05


def _reference_run(cfg, sf, entry, scheduler, max_steps, seed, run_index, gen=None):
    """Termination time via the interpretive single step of `oracles`,
    consuming the same uniform stream as the compiled runner: one draw per
    sampling variable read by the executed assignment, one draw per
    coin-flip decision.  Greedy choices go through the oracle's certificate
    value, not the scheduler's compiled stanzas.  An assignment or call
    argument computed with `*` whose value is longer than VALUE_BITS bits
    censors the run, and so does any power longer than that.  An
    error raised at a step carries the step's number as `step`.  The draws
    come from `gen`, if given, instead of the stream (seed, run_index)."""
    gen = make_generator(seed, run_index) if gen is None else gen
    state = MdpState((entry,), Valuation({}))
    for steps in range(max_steps):
        if state.terminated:
            return steps
        try:
            state = _reference_step(cfg, sf, state, scheduler, gen)
        except oracles.Runaway:
            return None
        except (EvalError, CertificateError) as exc:
            exc.step = steps + 1
            raise
        if state is None:
            return None
    return max_steps if state.terminated else None  # None: censored


def _reference_step(cfg, sf, state, scheduler, gen):
    """The reference run's next state, drawing from `gen`; None when a value
    computed grows past VALUE_BITS bits (`_reference_run`)."""
    top = state.config[0]
    fn = cfg.function(top.fname)
    cls = fn.label_class(top.label)
    drawn = {}
    if cls == "assignment":
        for svar in fn.nodes[top.label].sampling_vars:
            u = float(gen.random())
            drawn[svar] = sample_from_uniform(sf.dist(svar).thresholds(), u)
    action = ACTION_TAU
    if cls == "nondet":
        if scheduler.kind == "uniform":
            take_then = float(gen.random()) < 0.5
        elif scheduler.kind.startswith("greedy"):
            take_then = oracles.greedy_takes_then(scheduler.cert, scheduler.kind, cfg, top)
        else:
            take_then = scheduler.kind == "always-then"
        action = ACTION_THEN if take_then else ACTION_ELSE
    node = fn.nodes[top.label]
    computed = (node.args if cls == "call" else
                (node.expr,) if cls == "assignment" and node.var is not None else ())
    bits = oracles.VALUE_BITS
    if any(oracles.grows(expr) and oracles.eval_expr(expr, top.valuation, drawn, bits=bits)
           .numerator.bit_length() > bits for expr in computed):
        return None
    return oracles.step(state, action, Valuation(drawn), cfg, bits)


@pytest.mark.parametrize("gen_seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_compiled_runner_matches_single_step_reference(gen_seed):
    # run random two-variable programs through both execution paths with the
    # same per-run streams; termination times must agree run for run.  The
    # second program is the first one from seed 100 * (gen_seed + 1) on with a
    # nondeterministic label, so that every scheduler's choices are exercised
    from itertools import count

    from test_properties import make_sampling_function, rand_certificate, rand_program
    from termcert.cfg import build_cfg

    nondet_seed = next(s for s in count(100 * gen_seed + 100)
                       if any(node.kind == "nondet" for fn in build_cfg(rand_program(s)).functions
                              for node in fn.nodes.values()))
    sf = make_sampling_function()
    for prog_seed in (gen_seed, nondet_seed):
        cfg = build_cfg(rand_program(prog_seed))
        cert = rand_certificate(prog_seed ^ 0x5EED, cfg)
        entry = StackElement("f", cfg.function("f").entry,
                             Valuation({"m": 1, "n": 2}))
        for kind in SCHEDULER_KINDS:
            sched = Scheduler(kind, cert)
            cap = 300
            stats = simulate(cfg, sf, entry, sched, runs=40, max_steps=cap, seed=99)
            ref = [_reference_run(cfg, sf, entry, sched, cap, 99, run)
                   for run in range(40)]
            ref_terminated = [t for t in ref if t is not None]
            assert stats.terminated == len(ref_terminated)
            assert stats.sum_steps == sum(ref_terminated)
            assert stats.sumsq_steps == sum(t * t for t in ref_terminated)


FOUR_FUNCTIONS = """
f(n, m) {
  while n >= 1 do
    if star then g(n - 1, m) else h(n - 1, m + 1) fi;
    n := n - 1 - r;
    if m >= n then m := m - 1 else m := m + 1 fi;
    k(m);
    k(n);
    if star then skip else m := m - 1 fi
  od;
  if m >= 3 then k(m - 3) else skip fi
}
g(a, b) {
  if a >= 2 then
    f(a div 2, b);
    if star then k(b) else skip fi
  else
    b := b + s
  fi;
  while b >= 4 do b := b - 2 od;
  k(b);
  if b >= 1 then b := b - 1 else skip fi;
  if star then b := b * 2 else skip fi
}
h(a, b) {
  while a >= 3 do
    if b >= a then a := a - 2 else a := a - 1 - t fi;
    k(a)
  od;
  if b >= 2 then k(b - 2) else skip fi;
  g(a, b - 1)
}
k(c) {
  if c >= 6 then c := c div 2 else skip fi;
  while c >= 1 do
    if star then c := c - 1 else c := c - w - 1 fi;
    if c >= 3 then c := c - 1 else skip fi
  od
}
"""
FOUR_CERT = """f@3: n * n + m * m
f@4: (n - m) * (n - m) + 2
f@12: m * m
f@13: n * n
g@4: a * a
g@5: b * b + 1
g@14: (a - b) * (a - b)
g@15: a * a + 1
k@6: c * c
k@7: (c - 2) * (c - 2)
"""


def test_a_four_level_pc_tree_matches_the_reference(monkeypatch):
    # 4 functions with 16 resume points between them, so the run loop finds
    # a block by a tree of pc tests 4 levels deep; calls, tail calls,
    # returns, joins and loop heads jump between blocks of every function.
    # Caps 1, 2, 3 and 7 stop runs inside blocks and at jumps
    from termcert import _compile
    from termcert.certificates import parse_certificate
    from termcert.cfg import build_cfg
    from termcert.distributions import DiscreteDist, SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    sources, compile_lambda = [], _compile.compile_lambda
    monkeypatch.setattr(_compile, "compile_lambda",
                        lambda source: sources.append(source) or compile_lambda(source))
    cfg = build_cfg(label_program(parse_program(FOUR_FUNCTIONS)))
    half = DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    sf = SamplingFunction.from_mapping({name: half for name in cfg.sampling_vars})
    cert = parse_certificate(FOUR_CERT)
    entry = StackElement("f", 1, Valuation({"n": 6, "m": 2}))
    terminated = set()
    for kind, cap in itertools.product(SCHEDULER_KINDS, (300, 1, 2, 3, 7)):
        sched = Scheduler(kind, cert)
        stats = simulate(cfg, sf, entry, sched, runs=30, max_steps=cap, k_list=[cap], seed=5)
        ref = [_reference_run(cfg, sf, entry, sched, cap, 5, run) for run in range(30)]
        done = [t for t in ref if t is not None]
        assert stats.terminated == len(done), (kind, cap)
        assert stats.sum_steps == sum(done)
        assert stats.sumsq_steps == sum(t * t for t in done)
        assert stats.tail(cap).count == sum(t is None or t >= cap for t in ref)
        if cap == 300:
            terminated.add(stats.terminated)
    assert len(terminated) > 1  # the schedulers do not all end alike
    runner = next(source for source in sources if source.startswith("def make("))
    tests = [line for line in runner.splitlines() if line.lstrip().startswith("if pc < ")]
    assert len(tests) + 1 == 16
    depths = {len(line) - len(line.lstrip()) for line in tests}
    assert len(depths) == 4


def test_runaway_values_censor_as_in_the_reference():
    # x squares on some loop turns, and a call passes x ^ 2; a run whose x
    # outgrows 4096 bits is censored at the assignment or the call that made
    # it, however few steps it took, and the other runs end
    from termcert.cfg import build_cfg
    from termcert.distributions import SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    cfg = build_cfg(label_program(parse_program(
        "f(n, x) { while n >= 1 do if star then x := x * x else g(x ^ 2); n := n - 1 fi od }\n"
        "g(y) { skip }")))
    sf = SamplingFunction.from_mapping({})
    entry = StackElement("f", 1, Valuation({"n": 12, "x": 3}))
    for kind in ("uniform", "always-then"):
        sched = Scheduler(kind)
        stats = simulate(cfg, sf, entry, sched, runs=200, max_steps=10_000, k_list=[1], seed=4)
        ref = [_reference_run(cfg, sf, entry, sched, 10_000, 4, run) for run in range(200)]
        done = [t for t in ref if t is not None]
        assert (stats.terminated, stats.censored) == (len(done), 200 - len(done))
        assert stats.sum_steps == sum(done)
        assert stats.sumsq_steps == sum(t * t for t in done)
        assert 0 < stats.censored < 200 if kind == "uniform" else stats.censored == 200
    # at the bound: 2^4095 has 4096 bits and ends its run, 2^4096 censors it
    cfg = build_cfg(label_program(parse_program(
        "f(n, x) { while n >= 1 do x := 2 * x; n := n - 1 od }")))
    for n in (5, 6):
        entry = StackElement("f", 1, Valuation({"n": n, "x": 2**4090}))
        stats = simulate(cfg, sf, entry, Scheduler("uniform"), runs=3, max_steps=100)
        assert stats.censored == (3 if n == 6 else 0)
        assert _reference_run(cfg, sf, entry, Scheduler("uniform"), 100, 0, 0) == (
            None if n == 6 else stats.mean)


def _program(source):
    from termcert.cfg import build_cfg
    from termcert.lang import label_program
    from termcert.parser import parse_program

    return build_cfg(label_program(parse_program(source)))


def test_runaway_powers_censor_before_they_are_computed():
    # `x := 2 ^ x` from 3 reaches 2 ^ 256 at its third turn and would compute
    # 2 ^ (2 ^ 256) at its fourth: the run is censored there instead, as in
    # the reference, which decides from the exponent alone.  A power in a
    # guard or inside a sum censors too.  At the bound, 2 ^ 4095 (4096 bits)
    # runs on and 2 ^ 4096 censors, in an assignment and in a guard
    from termcert.distributions import SamplingFunction

    sf = SamplingFunction.from_mapping({})
    assign = "f(n, x) { while n >= 1 do x := %s; n := n - 1 od }"
    guard = "f(n, x) { while n >= 1 and 2 ^ x >= 0 do n := n - 1 od }"
    # (program, x, the loop turn whose power censors the run, or None)
    cases = [(assign % "2 ^ x", 3, 4), (assign % "2 ^ x", 4095, None),
             (assign % "2 ^ x", 4096, 1), (assign % "1 + 2 ^ x - 2 ^ x", 4096, 1),
             (guard, 4095, None), (guard, 4096, 1),
             (assign % "(-3) ^ x", 2584, None), (assign % "(-3) ^ x", 2585, 1)]
    for source, x, turn in cases:
        cfg = _program(source)
        for n in (1,) if turn is None else (turn - 1, turn):
            entry = StackElement("f", 1, Valuation({"n": n, "x": x}))
            for kind in ("uniform", "always-then"):
                stats = simulate(cfg, sf, entry, Scheduler(kind), runs=2, max_steps=100)
                assert stats.censored == (2 if n == turn else 0), (source, x, n)
                assert _reference_run(cfg, sf, entry, Scheduler(kind), 100, 0, 0) == stats.mean


ERRORS = "f(n, m) { while n >= 1 do if star then m := m - 1; n := n div m else n := n - 1 fi od }"
ERRORS_CERT = "f@3: m - 2\nf@5: 0\n"  # f@3 starts the then-branch, f@5 the else-branch


def _outcome(cfg, sf, entry, sched, runs, cap):
    """simulate's statistics, or the type of the error it raised."""
    try:
        stats = simulate(cfg, sf, entry, sched, runs=runs, max_steps=cap, seed=3)
    except (EvalError, CertificateError) as exc:
        if isinstance(exc, EvalError):
            assert exc.args[0].endswith(" at (f, 4)"), exc
        return type(exc)
    return stats.terminated, stats.sum_steps, stats.sumsq_steps


def _reference_outcome(cfg, sf, entry, sched, runs, cap):
    """`_outcome` as the reference has it, run by run in order."""
    done = []
    try:
        for run in range(runs):
            done.append(_reference_run(cfg, sf, entry, sched, cap, 3, run))
    except (EvalError, CertificateError) as exc:
        return type(exc)
    done = [t for t in done if t is not None]
    return len(done), sum(done), sum(t * t for t in done)


def test_a_step_count_per_path_censors_and_raises_as_one_per_label():
    # the run loop counts steps once per path, so an error at a label past
    # the cap must censor the run, and one within it raise.  m reaches 0 at
    # the third then-branch, where `n div m` raises at the path's 4th label;
    # greedy-max's chooser meets f@3's value -1 at m = 1 on the path's 2nd.
    # Against the reference at caps 1-3 and within 1 of each run's error
    from termcert.certificates import parse_certificate
    from termcert.distributions import SamplingFunction

    cfg, sf = _program(ERRORS), SamplingFunction.from_mapping({})
    cert = parse_certificate(ERRORS_CERT)
    entry = StackElement("f", 1, Valuation({"n": 40, "m": 3}))
    runs, raised = 12, set()
    for kind in SCHEDULER_KINDS:
        sched = Scheduler(kind, cert)
        steps = set()
        for run in range(runs):
            try:
                _reference_run(cfg, sf, entry, sched, 10_000, 3, run)
            except (EvalError, CertificateError) as exc:
                steps.add(exc.step)
        caps = {1, 2, 3, *(s + d for s in steps for d in (-1, 0, 1))}
        for cap in sorted(caps):
            got = _outcome(cfg, sf, entry, sched, runs, cap)
            assert got == _reference_outcome(cfg, sf, entry, sched, runs, cap), (kind, cap)
            if not isinstance(got, tuple):
                raised.add((kind, got))
        if kind == "always-then":  # n div 0 at step 12: cap 12 raises, cap 11 censors
            assert steps == {12}
            assert _outcome(cfg, sf, entry, sched, 1, 11) == (0, 0, 0)
            assert _outcome(cfg, sf, entry, sched, 1, 12) is EvalError
        if kind == "greedy-max":  # the chooser at m = 1 is step 10
            assert steps == {10}
            assert _outcome(cfg, sf, entry, sched, 1, 9) == (0, 0, 0)
            assert _outcome(cfg, sf, entry, sched, 1, 10) is CertificateError
    assert raised == {("always-then", EvalError), ("uniform", EvalError),
                      ("greedy-max", CertificateError)}


def test_the_run_loop_tests_the_cap_once_per_block_and_greedy_star(monkeypatch):
    # one `st >= cap` test at the top of each resume point's block and one
    # before each greedy chooser; every other label tests the cap only in
    # its EvalError handler, and each path counts its labels once
    from termcert import _compile
    from termcert.distributions import DiscreteDist, SamplingFunction

    sources, compile_lambda = [], _compile.compile_lambda
    monkeypatch.setattr(_compile, "compile_lambda",
                        lambda source: sources.append(source) or compile_lambda(source))
    cfg = _program(FOUR_FUNCTIONS)
    half = DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    sf = SamplingFunction.from_mapping({name: half for name in cfg.sampling_vars})
    stars = sum(node.kind == "nondet" for fn in cfg.functions for node in fn.nodes.values())
    for kind in ("greedy-min", "uniform"):
        sources.clear()
        _compile.compile_runner(cfg, sf, kind, ("f", 1))
        lines = [line.strip() for line in sources[-1].splitlines()]
        blocks = sum(line.startswith("(x") and line.endswith(" = v") for line in lines)
        assert blocks == 16
        tests = [i for i, line in enumerate(lines) if "cap" in line and "st" in line]
        tops = [i for i in tests
                if lines[i] == "if st >= cap: return" and lines[i - 1] == "while True:"]
        assert len(tops) == blocks
        handled = [i for i in tests if lines[i - 1] == "except EvalError as e:"]
        greedy = [i for i in tests if lines[i + 1].startswith("try: b = c")]
        assert len(greedy) == (stars if kind == "greedy-min" else 0)
        exit_test = "if not stk: return st if st <= cap else None"
        exits = [i for i in tests if lines[i] == exit_test]
        assert len(tests) == len(tops) + len(handled) + len(greedy) + len(exits)
        counts = [i for i, line in enumerate(lines) if "st += " in line]  # each ends a path
        assert counts and all("; break" in lines[i] or "; continue" in lines[i]
                              or lines[i + 1] == exit_test for i in counts)


def test_long_runs_draw_the_streams_of_the_reference():
    # every run draws more than 320 uniforms (a coin per iteration, at least
    # 330 iterations, plus r on the then-branch), so each run draws past its
    # row of 8 and refills from the worker's re-keyed generator at least
    # twice; every run must still get the stream (seed, run)
    from termcert.cfg import build_cfg
    from termcert.distributions import DiscreteDist, SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    cfg = build_cfg(label_program(parse_program(
        "f(n) { while n >= 1 do if star then n := n - r else n := n - 1 fi od }")))
    sf = SamplingFunction.from_mapping({
        "r": DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])})
    entry = StackElement("f", cfg.function("f").entry, Valuation({"n": 330}))
    sched = Scheduler("uniform")
    cap = 10_000
    for seed in (7, 2**64 - 1):
        stats = simulate(cfg, sf, entry, sched, runs=6, max_steps=cap, seed=seed)
        ref = [_reference_run(cfg, sf, entry, sched, cap, seed, run) for run in range(6)]
        assert None not in ref
        assert stats.terminated == 6
        assert stats.sum_steps == sum(ref)
        assert stats.sumsq_steps == sum(t * t for t in ref)
        assert simulate(cfg, sf, entry, sched, runs=6, max_steps=cap, seed=seed,
                        workers=2) == stats


def test_runs_across_draw_blocks_match_the_reference(halving, inline_pool, monkeypatch):
    # 2 * _BLOCK + 3 runs cross two block boundaries on one worker and
    # others on two, where the second worker's blocks start at run 1025;
    # about one uniform run in ten draws past its row.  Then serial heads
    # ending at each run around a block boundary and at both ends: the
    # budget is the steps of the runs before that run, so the head stops
    # there and the rest goes in contiguous ranges to this process (the
    # first) and a pool of the other workers (the inline pool runs them as
    # they are submitted, before this process runs its own)
    from termcert.semantics import _BLOCK

    _across_blocks(Scheduler("uniform"), (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 2,
                                          2 * _BLOCK + 3), halving, inline_pool, monkeypatch)


@pytest.mark.parametrize("kind", ["always-else", "greedy-min"])
def test_shared_classes_stop_serial_heads_where_the_reference_does(kind, halving, inline_pool,
                                                                   monkeypatch):
    # as above, where most rows of a block take the steps of an earlier run
    # whose draws fell in the same classes (2,009 of these 2,051 under
    # either), not a run of their own; with heads also ending among them
    from termcert.semantics import _BLOCK

    heads = (0, 1, 2, 300, 301, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 600, 2 * _BLOCK + 3)
    _across_blocks(Scheduler(kind, halving[2]), heads, halving, inline_pool, monkeypatch)


def _across_blocks(sched, heads, halving, inline_pool, monkeypatch):
    """The statistics of 2 * _BLOCK + 3 runs of `sched` on the halving game
    from n = 5 against the reference, at 1 and 2 workers, and then with a
    serial head ending at each run of `heads` (see above)."""
    import os
    from itertools import accumulate

    from termcert import semantics
    from termcert.semantics import _BLOCK

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg, sf, _ = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    runs, cap, seed = 2 * _BLOCK + 3, 100_000, 1105
    stats = simulate(cfg, sf, entry, sched, runs=runs, max_steps=cap, k_list=[30], seed=seed)
    assert simulate(cfg, sf, entry, sched, runs=runs, max_steps=cap, k_list=[30], seed=seed,
                    workers=2) == stats
    assert sizes == [1]
    ref = [_reference_run(cfg, sf, entry, sched, cap, seed, run) for run in range(runs)]
    assert stats.terminated == runs
    assert stats.sum_steps == sum(ref)
    assert stats.sumsq_steps == sum(t * t for t in ref)
    assert stats.tail(30).count == sum(t >= 30 for t in ref)

    ranges = _recorded_ranges(monkeypatch)
    spent = list(accumulate(ref, initial=0))  # spent[h]: steps of runs 0..h-1
    for head in heads:
        monkeypatch.setattr(semantics, "_SERIAL_STEPS", spent[head])
        for workers in (2, 3):
            sizes.clear()
            ranges.clear()
            assert simulate(cfg, sf, entry, sched, runs=runs, max_steps=cap, k_list=[30],
                            seed=seed, workers=workers) == stats, (head, workers)
            rest = min(workers, runs - head)
            assert sizes == ([rest - 1] if rest > 1 else []), (head, workers)
            assert ranges[0] == (0, head)
            ranges.sort(key=lambda r: r[0])  # stable: the head stays first
            assert [lo for lo, _ in ranges[1:]] == [end for _, end in ranges[:-1]]
            assert ranges[-1][1] == runs
            assert len(ranges) == 1 + rest


def _loop_program(then_branch="n := n - r"):
    """A `while` loop around a star; r is a fair coin, a is 1 with
    probability 3/4, b a fair coin."""
    from termcert.cfg import build_cfg
    from termcert.distributions import DiscreteDist, SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    cfg = build_cfg(label_program(parse_program(
        f"f(n) {{ while n >= 1 do if star then {then_branch} else n := n - 1 fi od }}")))
    half = DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    dists = {"r": half, "b": half,
             "a": DiscreteDist.from_pairs([(0, Fraction(1, 4)), (1, Fraction(3, 4))])}
    return cfg, SamplingFunction.from_mapping(
        {name: dists[name] for name in cfg.sampling_vars})


@pytest.mark.parametrize("kind", ["always-then", "always-else", "uniform",
                                  "greedy-max", "greedy-min"])
def test_censored_runs_at_small_caps_match_the_reference(kind, halving):
    # caps 1, 2 and 3 (on the halving game, step 3 is always a call), and
    # the final step of run 0 and the one before it: every run stops at
    # exactly the cap the single-step reference stops at.  The third program
    # draws two sampling variables in one assignment, in their sorted order
    from termcert.certificates import parse_certificate

    loop_cert = parse_certificate("f@1: 3*n + 1\nf@2: 3*n\nf@3: 3*n - 1\nf@4: 3*n - 1\nf@5: 0\n")
    programs = [(*halving, 5), (*_loop_program(), loop_cert, 6),
                (*_loop_program("n := n + a - 2 * b"), loop_cert, 6)]
    for cfg, sf, cert, n in programs:
        entry = StackElement("f", 1, Valuation({"n": n}))
        sched = Scheduler(kind, cert)
        final = _reference_run(cfg, sf, entry, sched, 10_000, 8, 0)
        for cap in (1, 2, 3, final - 1, final):
            stats = simulate(cfg, sf, entry, sched, runs=30, max_steps=cap, k_list=[cap],
                             seed=8)
            ref = [_reference_run(cfg, sf, entry, sched, cap, 8, run) for run in range(30)]
            done = [t for t in ref if t is not None]
            assert stats.terminated == len(done), cap
            assert stats.sum_steps == sum(done)
            assert stats.sumsq_steps == sum(t * t for t in done)
            assert stats.tail(cap).count == sum(t is None or t >= cap for t in ref)


class _Drawn:
    """A run's draws for `_reference_run`: the row `first`, then its stream
    (seed, run) past as many draws, as the run loop reads them."""

    def __init__(self, first, seed, run):
        self.first, self.gen = list(first), make_generator(seed, run)
        self.gen.random(len(self.first))

    def random(self):
        return self.first.pop(0) if self.first else self.gen.random()


def _inject(monkeypatch, rows):
    """Give each run of `rows` (run -> its first 8 draws) those draws in the
    row that `philox_doubles` computes for it; other runs keep theirs.  A
    range's first run reads no row, so it must not be among them."""
    from termcert import semantics

    kernel = semantics.philox_doubles

    def injected(seed, lo, n, blocks):
        out = kernel(seed, lo, n, blocks)
        for run, row in rows.items():
            if lo <= run < lo + n:
                out[run - lo] = row
        return out

    monkeypatch.setattr(semantics, "philox_doubles", injected)


def _runs_taken(monkeypatch) -> list:
    """A one-item list counting the calls of every run loop made from now on."""
    from termcert import semantics

    runner, taken = semantics._runner, [0]

    def counted(*args):
        make, stars, cuts = runner(*args)

        def counting_make(*free):
            run = make(*free)

            def counting_run(v):
                taken[0] += 1
                return run(v)
            return counting_run
        return counting_make, stars, cuts

    monkeypatch.setattr(semantics, "_runner", counted)
    return taken


def _against_reference(cfg, sf, entry, sched, runs, cap, seed, rows=None):
    """(simulate's outcome, the reference's run by run in order), each the
    statistics or the first error's type and what it did (`division` or
    `exponent`), for runs whose first draws `rows` gives (`_inject`)."""
    rows = rows or {}

    def error(exc):
        return type(exc), "division" if "division" in str(exc) else "exponent"
    try:
        stats = simulate(cfg, sf, entry, sched, runs=runs, max_steps=cap, k_list=[cap],
                         seed=seed)
        got = stats.terminated, stats.sum_steps, stats.sumsq_steps, stats.tail(cap).count
    except (EvalError, CertificateError) as exc:
        got = error(exc)
    try:
        ref = [_reference_run(cfg, sf, entry, sched, cap, seed, run,
                              _Drawn(rows[run], seed, run) if run in rows else None)
               for run in range(runs)]
        done = [t for t in ref if t is not None]
        want = (len(done), sum(done), sum(t * t for t in done),
                sum(t is None or t >= cap for t in ref))
    except (EvalError, CertificateError) as exc:
        want = error(exc)
    return got, want


def _dist(*pairs):
    from termcert.distributions import DiscreteDist

    return DiscreteDist.from_pairs([(v, Fraction(p)) for v, p in pairs])


def test_a_draw_equal_to_a_cut_falls_in_the_class_above_it(monkeypatch):
    # `u < cut` is false at u = cut, so a draw at a cut shares the class of
    # the draws above it, not below: each row with a draw just below a cut,
    # read first, has other steps than the row with that draw at the cut,
    # for r's cuts 1/4 and 1/2 and for the star's 0.5
    from termcert.distributions import SamplingFunction
    from termcert.semantics import _SHARED

    cfg = _program("f(n) { n := r; if star then skip else n := 0 - n fi; "
                   "while n >= 1 do n := n - 1 od }")
    sf = SamplingFunction.from_mapping({"r": _dist((0, "1/4"), (1, "1/4"), (2, "1/2"))})
    half, quarter = 0.5 - 2 ** -53, 0.25 - 2 ** -54  # the doubles just below 1/2 and 1/4
    pairs = [((quarter, 0.1), (0.25, 0.1)), ((half, 0.1), (0.5, 0.1)), ((0.9, half), (0.9, 0.5))]
    rows = {10 + 2 * k + j: [*draws, *[0.7] * 6]
            for k, pair in enumerate(pairs) for j, draws in enumerate(pair)}
    taken = _runs_taken(monkeypatch)
    _inject(monkeypatch, rows)
    entry = StackElement("f", 1, Valuation({"n": 0}))
    for kind in ("uniform", "always-then", "always-else"):
        taken[0] = 0
        got, want = _against_reference(cfg, sf, entry, Scheduler(kind), _SHARED + 50, 100, 2,
                                       rows)
        assert got == want, kind
        assert taken[0] <= 10, kind  # the first run, then 3 classes a draw


@pytest.mark.parametrize("n", [1, 3, 7])
def test_a_variable_of_300_values_shares_by_all_its_classes(n, monkeypatch):
    # 300 values make 300 classes, more than 8 bits tell apart: a class
    # above 255 must not share with the class 256 below it.  A run reading
    # 7 draws reads more than a row's key holds (5 classes of 9 bits), and
    # shares nothing
    from termcert.distributions import SamplingFunction

    cfg = _program("f(n, m) { while n >= 1 do m := m + s; n := n - 1 od; "
                   "while m >= 10 do m := m - 10 od }")
    sf = SamplingFunction.from_mapping({"s": _dist(*((v, "1/300") for v in range(300)))})
    taken = _runs_taken(monkeypatch)
    entry = StackElement("f", 1, Valuation({"n": n, "m": 0}))
    got, want = _against_reference(cfg, sf, entry, Scheduler("uniform"), 1100, 1000, 7)
    assert got == want
    assert (taken[0] < 1100) == (n == 1)


def test_runs_reading_8_draws_share_and_runs_reading_9_do_not(monkeypatch):
    # n fair coins summed into m, then m loop turns: n = 8 reads the whole
    # row, and rows whose 8 coins are alike share; at n = 9 rows alike in
    # their 8 coins differ in the 9th, each run's own, and none shares
    from termcert.distributions import SamplingFunction

    cfg = _program("f(n, m) { while n >= 1 do m := m + r; n := n - 1 od; "
                   "while m >= 1 do m := m - 1 od }")
    sf = SamplingFunction.from_mapping({"r": _dist((0, "1/2"), (1, "1/2"))})
    taken = _runs_taken(monkeypatch)
    for n, most in ((7, 129), (8, 257), (9, 1025)):  # the first run, then 2^n classes
        taken[0] = 0
        entry = StackElement("f", 1, Valuation({"n": n, "m": 0}))
        got, want = _against_reference(cfg, sf, entry, Scheduler("uniform"), 1025, 1000, 5)
        assert got == want, n
        assert taken[0] <= most, n


def test_the_first_error_in_run_order_wins_over_shared_classes(monkeypatch):
    # r = 0 ends; r = 1 computes 2 ^ -1 and r = 2 divides by 0.  Every row
    # holds r = 0 but two, which raise, in either order, in the first block
    # or the second: the first of them raises, as run by run
    from termcert.distributions import SamplingFunction

    cfg = _program("f(n) { n := r; if n >= 2 then n := n div (n - 2) else "
                   "if n >= 1 then n := 2 ^ (n - 2) else skip fi fi }")
    sf = SamplingFunction.from_mapping({"r": _dist((0, "1/2"), (1, "1/4"), (2, "1/4"))})
    seed = next(s for s in itertools.count() if make_generator(s, 0).random() < 0.5)
    entry = StackElement("f", 1, Valuation({"n": 0}))
    for at, (first, second) in itertools.product((600, 1500), ((0.6, 0.9), (0.9, 0.6))):
        rows = {run: [0.1] * 8 for run in range(1, 1600)}
        rows[at], rows[at + 1] = [first] * 8, [second] * 8
        with monkeypatch.context() as m:
            _inject(m, rows)
            got, want = _against_reference(cfg, sf, entry, Scheduler("uniform"), 1600, 100,
                                           seed, rows)
        assert got == want == (EvalError, "exponent" if first == 0.6 else "division")


@pytest.mark.parametrize("kind", ["uniform", "always-else", "greedy-min"])
def test_censored_classes_share_at_small_caps(kind, halving):
    # 300 runs, so that their classes share: caps 1-3 censor every run,
    # later ones some, and a censored run's class is censored
    from termcert.semantics import _SHARED

    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    for cap in (1, 2, 3, 10, 30):
        got, want = _against_reference(cfg, sf, entry, Scheduler(kind, cert), _SHARED + 44,
                                       cap, 8)
        assert got == want, cap


ILL_DEFINED = [  # (program, its error from the entry f(n=3))
    ("f(n) { if n div (n - n) >= 1 then skip else skip fi }",
     "floor division by non-positive value 0 at (f, 1)"),
    ("f(n) { n := n - 1; n := n div (n - n) }",
     "floor division by non-positive value 0 at (f, 2)"),
    ("f(n) { n := n - 5; n := 2 ^ n }",
     "exponent -2 is not a nonnegative integer at (f, 2)"),
    ("f(n) { if n >= 1 then g(n div (n - n)) else skip fi }\ng(n) { skip }",
     "floor division by non-positive value 0 at (f, 2)"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_ill_defined_arithmetic_names_the_label_it_happened_at(workers, halving, inline_pool,
                                                               monkeypatch):
    # in a guard, an update and call arguments, and a greedy stanza read at a
    # star, which names the star's point; the ILL_DEFINED programs draw
    # nothing, so their first run is every run
    import os

    from termcert import semantics
    from termcert.cfg import build_cfg
    from termcert.certificates import CertificateError, parse_certificate
    from termcert.distributions import SamplingFunction
    from termcert.lang import EvalError, label_program
    from termcert.parser import parse_program

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sf = SamplingFunction.from_mapping({})
    for (text, message), runs in itertools.product(ILL_DEFINED, (4, 100_000)):
        cfg = build_cfg(label_program(parse_program(text)))
        entry = StackElement("f", 1, Valuation({"n": 3}))
        with pytest.raises(EvalError) as exc:
            simulate(cfg, sf, entry, Scheduler("uniform"), runs=runs, max_steps=100,
                     workers=workers)
        assert str(exc.value) == message
    cfg, sf, _ = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    for kind in ("greedy-max", "greedy-min"):
        sched = Scheduler(kind, parse_certificate("f@3: n div (n - n)\n"))
        with pytest.raises(EvalError) as exc:
            simulate(cfg, sf, entry, sched, runs=4, max_steps=100, workers=workers)
        assert str(exc.value) == "floor division by non-positive value 0 at (f, 2, {n=5})"
        # negative only at n=1, which every run reaches after choices at larger
        # n were remembered; the same scheduler raises again in every later
        # simulation
        sched = Scheduler(kind, parse_certificate("f@3: n - 2\nf@5: 0\n"))
        for runs in (1, 4, 4):
            with pytest.raises(CertificateError) as exc:
                simulate(cfg, sf, entry, sched, runs=runs, max_steps=100, workers=workers)
            assert str(exc.value) == "certificate value -1 at (f, 3, {n=1}) is negative"

    # with seed 0, runs 0-2 take the then-branch in 2 steps and run 3 divides
    # by 0: in the serial head (which then starts no pool), and in the pool
    # after a head of run 0 alone
    cfg = build_cfg(label_program(parse_program(
        "f(n) { if star then skip else n := n div (n - n) fi }")))
    entry = StackElement("f", 1, Valuation({"n": 3}))
    for budget, pools in ((100, []), (2, [1])):
        monkeypatch.setattr(semantics, "_SERIAL_STEPS", budget)
        sizes.clear()
        with pytest.raises(EvalError) as exc:
            simulate(cfg, SamplingFunction.from_mapping({}), entry, Scheduler("uniform"),
                     runs=4, max_steps=100, seed=0, workers=workers)
        assert str(exc.value) == "floor division by non-positive value 0 at (f, 3)"
        assert sizes == (pools if workers > 1 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_a_draw_free_run_that_never_ends_is_run_once(workers, inline_pool, monkeypatch):
    # every run is censored at 10^6 steps, 10^11 steps if run one by one.
    # With no serial budget each range simulates one run; with a budget of 1
    # the head's one run is every run, and no pool starts
    import os
    import time

    from termcert import semantics
    from termcert.cfg import build_cfg
    from termcert.distributions import SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = build_cfg(label_program(parse_program("f(n) { while n >= 0 do n := n + 1 od }")))
    entry = StackElement("f", 1, Valuation({"n": 0}))
    runs, cap = 100_000, 1_000_000
    for budget in (0, 1):
        monkeypatch.setattr(semantics, "_SERIAL_STEPS", budget)
        sizes.clear()
        start = time.perf_counter()
        stats = simulate(cfg, SamplingFunction.from_mapping({}), entry, Scheduler("uniform"),
                         runs=runs, max_steps=cap, k_list=[1, 2, cap], workers=workers)
        assert time.perf_counter() - start < 1.0
        assert (stats.terminated, stats.censored, stats.mean) == (0, runs, None)
        assert [t.count for t in stats.tails] == [runs] * 3
        assert sizes == ([1] if workers > 1 and not budget else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_draw_free_runs_match_the_reference(workers, inline_pool, monkeypatch):
    # no star and no sampling variable: a uniform run draws nothing, and the
    # one run simulated gives every run's statistics, terminated (a
    # recursion, then a loop) or censored
    import os

    from termcert.cfg import build_cfg
    from termcert.distributions import SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sf = SamplingFunction.from_mapping({})
    sched, runs, seed = Scheduler("uniform"), 50, 3
    recursion = "f(n) { if n >= 2 then f(n - 1); f(n - 2) else skip fi }"
    loop = "f(n) { while n >= 1 do if n >= 3 then n := n - 2 else n := n - 1 fi od }"
    for text, cap in ((recursion, 10_000), (loop, 10_000), (loop, 5)):
        cfg = build_cfg(label_program(parse_program(text)))
        entry = StackElement("f", 1, Valuation({"n": 9}))
        ks = sorted({1, cap // 2, cap})
        stats = simulate(cfg, sf, entry, sched, runs=runs, max_steps=cap, k_list=ks, seed=seed,
                         workers=workers)
        ref = [_reference_run(cfg, sf, entry, sched, cap, seed, run) for run in range(runs)]
        done = [t for t in ref if t is not None]
        assert (stats.terminated, stats.censored) == (len(done), runs - len(done)), text
        assert stats.sum_steps == sum(done)
        assert stats.sumsq_steps == sum(t * t for t in done)
        assert [t.count for t in stats.tails] == [sum(t is None or t >= k for t in ref)
                                                  for k in ks]


def test_deep_nesting_and_long_straight_lines_run():
    # 150 nested ifs exceed Python's indentation limit unless the compiled
    # run loop splits them; 600 assignments in a row must not recurse per label
    from termcert.cfg import build_cfg
    from termcert.distributions import SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    nested = ("f(n) { " + "".join(f"if n >= {i} then " for i in range(150))
              + "n := n + 1" + " else skip fi" * 150 + " }")
    straight = "f(n) { " + "; ".join(["n := n + 1"] * 600) + " }"
    for text, n, steps in ((nested, 200, 151), (nested, 70, 73), (straight, 0, 600)):
        cfg = build_cfg(label_program(parse_program(text)))
        entry = StackElement("f", 1, Valuation({"n": n}))
        stats = simulate(cfg, SamplingFunction.from_mapping({}), entry, Scheduler("uniform"),
                         runs=2, max_steps=1000)
        assert stats.mean == steps


def test_call_to_a_function_without_variables():
    # the callee's valuation is the empty tuple, in the run loop and in the
    # reference step
    from termcert.cfg import build_cfg
    from termcert.distributions import SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    cfg = build_cfg(label_program(parse_program(
        "f(n) { if n >= 1 then g() else skip fi }\ng() { skip }")))
    entry = StackElement("f", 1, Valuation({"n": 2}))
    stats = simulate(cfg, SamplingFunction.from_mapping({}), entry, Scheduler("uniform"),
                     runs=2, max_steps=10)
    assert stats.mean == 3  # guard, call, g's skip
    state = step(MdpState((StackElement("f", 2, Valuation({"n": 2})),), mu(0)),
                 ACTION_TAU, mu(0), cfg)
    assert state.config == (StackElement("g", 1, Valuation({})),)


def test_process_count_is_clamped_to_cores_and_runs(halving, inline_pool, monkeypatch):
    import os

    sizes = inline_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg, sf, _ = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    kw = dict(max_steps=10_000, k_list=[30], seed=4)
    serial = simulate(cfg, sf, entry, Scheduler("uniform"), runs=50, **kw)
    assert simulate(cfg, sf, entry, Scheduler("uniform"), runs=50, workers=5000, **kw) == serial
    assert simulate(cfg, sf, entry, Scheduler("uniform"), runs=2, workers=5000, **kw) == \
        simulate(cfg, sf, entry, Scheduler("uniform"), runs=2, **kw)
    assert sizes == [2, 1]  # a pool of the other workers


def test_multi_variable_joint_sampling_in_one_update():
    # an update reading two sampling variables consumes one draw for each;
    # successor frequencies follow the product law
    from termcert.cfg import build_cfg
    from termcert.distributions import DiscreteDist, SamplingFunction
    from termcert.lang import label_program
    from termcert.parser import parse_program

    prog = label_program(parse_program(
        "f(n) { while n >= 1 do n := n - a - b od }"))
    cfg = build_cfg(prog)
    sf = SamplingFunction.from_mapping({
        "a": DiscreteDist.from_pairs([(0, Fraction(1, 4)), (1, Fraction(3, 4))]),
        "b": DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
    })
    # P(a+b = 0) = 1/8, so from n=1 the one-iteration termination chance is
    # 7/8 and T is geometric in iteration pairs; check the mean: each loop
    # iteration costs two steps (guard + assignment), plus the exit guard
    # E[iterations] = 8/7, so E[T] = 2 * 8/7 + 1
    entry = StackElement("f", 1, Valuation({"n": 1}))
    stats = simulate(cfg, sf, entry, Scheduler("uniform"), runs=40_000,
                     max_steps=10_000, seed=123)
    expected = 2 * 8 / 7 + 1
    assert stats.censored == 0
    assert abs(stats.mean - expected) <= 3.5 * (stats.mean_halfwidth / Z95)


def test_tail_estimates_monotone_nonincreasing(halving):
    cfg, sf, _ = halving
    entry = StackElement("f", 1, Valuation({"n": 5}))
    stats = simulate(cfg, sf, entry, Scheduler("uniform"), runs=2_000,
                     max_steps=10**4, k_list=[5, 20, 40, 80], seed=2)
    assert stats.terminated + stats.censored == stats.runs
    p_hats = [t.p_hat for t in stats.tails]
    assert all(0.0 <= p <= 1.0 for p in p_hats)
    assert p_hats == sorted(p_hats, reverse=True)


def test_a_greedy_scheduler_rejects_a_stanza_for_a_label_the_program_lacks(halving):
    # f@99 names a label the halving game lacks, zz@1 a function it lacks;
    # a scheduler that reads no certificate runs whatever it carries
    from termcert.certificates import parse_certificate

    cfg, sf, _ = halving
    stray = parse_certificate("eps=1\nf@99: 0\nzz@1: 3\n")
    entry = StackElement("f", 1, Valuation({"n": 5}))
    for kind in ("greedy-max", "greedy-min"):
        with pytest.raises(CertificateError, match="^2:1: certificate stanza f@99 names no label"):
            simulate(cfg, sf, entry, Scheduler(kind, stray), runs=10, max_steps=1000)
    stats = simulate(cfg, sf, entry, Scheduler("always-then", stray), runs=10, max_steps=1000)
    assert stats.mean == 44


def _outcome_of(call):
    """call()'s result, or the type and text of what it raised."""
    try:
        return call()
    except (EvalError, CertificateError, SemanticsError) as exc:
        return type(exc), str(exc)


def test_the_runner_memo_never_runs_one_program_for_another(monkeypatch):
    # programs of one shape, each its own step k, built, simulated under
    # every scheduler and dropped in turn with one sampling function, five
    # times as many runners as the memo keeps: entries are evicted, and new
    # programs take the ids of dropped ones (a few in 32, in CPython).  Each
    # outcome is that of a runner compiled afresh.  Then forked workers,
    # which inherit the memo, give the same statistics at any worker count
    from test_properties import rand_certificate
    from termcert import semantics
    from termcert._compile import compile_runner

    def fresh(*args):
        with monkeypatch.context() as m:
            m.setattr(semantics, "_runner", compile_runner)
            return _outcome_of(lambda: simulate(*args))

    sf = _loop_program()[1]
    for k in range(1, semantics._MAX_RUNNERS + 1):
        cfg = _loop_program(f"n := n - {k} * r")[0]
        entry = StackElement("f", 1, Valuation({"n": 40}))
        for kind in SCHEDULER_KINDS:
            args = (cfg, sf, entry, Scheduler(kind, rand_certificate(k, cfg)), 30, 300, (5,), k)
            assert _outcome_of(lambda: simulate(*args)) == fresh(*args), (k, kind)
            assert len(semantics._RUNNERS) <= semantics._MAX_RUNNERS
        del cfg, args

    monkeypatch.setattr(semantics, "_SERIAL_STEPS", 0)  # every worker count starts a pool
    cfg, sf = _loop_program()
    args = (cfg, sf, StackElement("f", 1, Valuation({"n": 20})), Scheduler("uniform"), 400,
            10_000, (25,), 3)
    want = fresh(*args)
    assert want.terminated == 400
    for workers in (1, 2, 8, 0):
        assert simulate(*args, workers=workers) == want, workers


def test_a_dropped_runner_leaves_no_cycle_holding_its_program(halving):
    # compile_runner's nested helpers, which call each other, hold no
    # reference once it returns: with the cyclic collector off, dropping
    # its result gives the program and its functions back their counts
    import gc
    import sys

    from termcert._compile import compile_runner

    cfg, sf, _ = halving

    def counts():
        return [sys.getrefcount(cfg), *map(sys.getrefcount, cfg.functions)]

    enabled = gc.isenabled()
    gc.disable()
    try:
        for kind in SCHEDULER_KINDS:
            before = counts()
            compile_runner(cfg, sf, kind, ("f", 1))
            assert counts() == before, kind
    finally:
        if enabled:
            gc.enable()


def test_the_runner_memo_checks_the_program_it_holds(halving):
    # an entry under the ids of the halving game that holds another program
    # is compiled again, not run
    from termcert import semantics
    from termcert._compile import compile_runner

    cfg, sf, _ = halving
    other, other_sf = _loop_program()
    key = (id(cfg), id(sf), "always-then", ("f", 1))
    semantics._RUNNERS[key] = (other, other_sf, compile_runner(other, other_sf, "always-then",
                                                               ("f", 1)))
    stats = simulate(cfg, sf, StackElement("f", 1, Valuation({"n": 5})),
                     Scheduler("always-then"), runs=10, max_steps=1000)
    assert stats.mean == 44
    held, held_sf, _ = semantics._RUNNERS[key]
    assert held is cfg and held_sf is sf


def test_threads_simulating_at_once_get_the_statistics_of_one(halving):
    # threads share the runner memo; each has its own kernel buffers and
    # generator for the draws past a run's row, which runs from n = 20 read.
    # With a thread switch every microsecond, four threads give the
    # statistics that one thread gives
    import sys
    from concurrent.futures import ThreadPoolExecutor

    cfg, sf, cert = halving
    entry = StackElement("f", 1, Valuation({"n": 20}))
    jobs = [(kind, seed) for kind in ("uniform", "always-else", "greedy-min") for seed in (1, 2)]

    def run(job):
        return simulate(cfg, sf, entry, Scheduler(job[0], cert), runs=200, max_steps=10_000,
                        k_list=(100,), seed=job[1], workers=1)

    want = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(run, jobs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2
