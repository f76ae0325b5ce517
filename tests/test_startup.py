"""Start-up: which termcert and heavy modules a command loads, and the real
entry point.

These tests start fresh interpreters, because this process has long since
loaded numpy, mpmath and the process-pool module through other tests.
"""

import ast
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import termcert
from termcert.cli import main
from termcert.fixtures import fixture_path

HALVING = fixture_path("halving_game.prob")
HALVING_CERT = fixture_path("halving_game.cert")
HALVING_DIST = fixture_path("halving_game.dist")
SRC = str(Path(termcert.__file__).resolve().parent.parent)
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))

HEAVY = ("numpy", "mpmath", "concurrent.futures.process")

# Runs each step in one interpreter and prints, per step, the modules of
# HEAVY loaded after it.  The `--workers 2` steps see two cores on any
# machine; the recording pool of the last mode runs its tasks in process.
PROBE = """
import concurrent.futures, contextlib, io, json, os, sys
from concurrent.futures import Future

HEAVY = {heavy!r}
os.cpu_count = lambda: 2
seen = {{}}

def note(step):
    seen[step] = [m for m in HEAVY if m in sys.modules]

def cli(step, *argv):
    from termcert.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(list(argv))
    note(step)

class RecordingPool:
    def __init__(self, max_workers):
        note("pool constructed")
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

prog, cert, dist = sys.argv[1:4]
if sys.argv[4] == "commands":
    import termcert
    note("import termcert")
    import termcert.cli
    note("import termcert.cli")
    cli("parse", "parse", prog)
    cli("cfg", "cfg", prog)
    cli("check", "check", prog, "--cert", cert, "--kind", "ranking", "--dist", dist,
        "--box", "n=-20..20")
    cli("bounds --k", "bounds", prog, "--cert", cert, "--kind", "cdb", "--entry", "f",
        "--args", "n=5", "--k", "112,224")
    cli("bounds --n", "bounds", prog, "--cert", cert, "--kind", "db", "--entry", "f",
        "--args", "n=5", "--n", "100")
    cli("lab", "lab", "--example", "randomwalk", "--runs", "100", "--horizon", "50",
        "--tail", "9")
    cli("check --workers 2", "check", prog, "--cert", cert, "--kind", "ranking",
        "--dist", dist, "--box", "n=-5..5", "--workers", "2")
elif sys.argv[4] == "draws":
    for sched in ("always-then", "uniform"):  # always-then never reaches g's draw of r
        cli("simulate " + sched, "simulate", prog, "--entry", "f", "--args", "n=5",
            "--dist", dist, "--runs", "20", "--workers", "1", "--scheduler", sched)
else:  # the README's simulate at 200 and 20000 runs; then uniform, whose head is run 0 alone
    concurrent.futures.ProcessPoolExecutor = RecordingPool
    for runs in ("200", "20000"):
        cli("simulate greedy-max " + runs, "simulate", prog, "--entry", "f", "--args", "n=5",
            "--dist", dist, "--scheduler", "greedy-max", "--cert", cert, "--runs", runs,
            "--max-steps", "100000", "--tail", "112", "--seed", "1105", "--workers", "2")
    seen["greedy-max started a pool"] = "pool constructed" in seen
    import termcert.semantics
    termcert.semantics._SERIAL_STEPS = 1
    cli("simulate uniform", "simulate", prog, "--entry", "f", "--args", "n=5",
        "--dist", dist, "--runs", "200", "--workers", "2")
print(json.dumps(seen))
"""


def probe(mode):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=HEAVY), HALVING, HALVING_CERT,
         HALVING_DIST, mode],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_load_numpy_mpmath_and_the_pool_only_when_used():
    seen = probe("commands")
    for step in ("import termcert", "import termcert.cli", "parse", "cfg", "check",
                 "bounds --k"):
        assert seen[step] == [], step
    assert seen["bounds --n"] == []  # the float concentration rows
    assert seen["lab"] == ["numpy"]
    assert seen["check --workers 2"] == ["numpy"]  # lab's: 132 conditions start no pool


def test_simulate_loads_numpy_at_the_first_draw():
    seen = probe("draws")
    assert seen["simulate always-then"] == []
    assert seen["simulate uniform"] == ["numpy"]


def test_small_simulations_start_no_pool_and_forked_workers_inherit_numpy():
    # the README's greedy-max simulation never draws, so its first run is
    # every run: at 200 runs and at the README's 20000 (880k steps, past the
    # serial budget) it starts no pool; a head that drew loaded numpy before
    # the pool
    seen = probe("simulate")
    assert seen["simulate greedy-max 200"] == []
    assert seen["simulate greedy-max 20000"] == []
    assert seen["greedy-max started a pool"] is False
    assert seen["pool constructed"] == ["numpy"]


README_COMMANDS = [
    ["parse", HALVING],
    ["cfg", HALVING],
    ["check", HALVING, "--cert", HALVING_CERT, "--kind", "ranking", "--dist", HALVING_DIST,
     "--box", "n=-100..100"],
    ["check", HALVING, "--cert", HALVING_CERT, "--kind", "cdb", "--dist", HALVING_DIST,
     "--box", "n=-100..100", "--delta", "12.99"],
    ["bounds", HALVING, "--cert", HALVING_CERT, "--kind", "cdb", "--entry", "f",
     "--args", "n=5", "--k", "112,224"],
    # the README's simulate and lab at 200 runs (20000 and 100000 there),
    # simulate on two workers (all cores there)
    ["simulate", HALVING, "--entry", "f", "--args", "n=5", "--dist", HALVING_DIST,
     "--scheduler", "greedy-max", "--cert", HALVING_CERT, "--runs", "200",
     "--max-steps", "100000", "--tail", "112", "--seed", "1105", "--workers", "2"],
    ["lab", "--example", "noconcentration", "--alpha", "2", "--runs", "200",
     "--horizon", "1000", "--seed", "12", "--tail", "9,99,999"],
]


def test_entry_point_matches_in_process_main(capsys):
    for argv in README_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "termcert.cli", *argv],
                              env=ENV, capture_output=True, text=True, timeout=120)
        code = main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out), argv[0]
        assert code == (1 if "12.99" in argv else 0)


def test_one_module_decides_how_work_is_spread_over_processes():
    # the simulator and the checker both go through _pool.fan_out
    package = Path(termcert.__file__).resolve().parent
    for path in package.rglob("*.py"):
        if path.name != "_pool.py":
            text = path.read_text(encoding="utf-8")
            assert "concurrent.futures" not in text and "cpu_count" not in text, path.name


def test_one_module_holds_the_token_grammar():
    # _lex alone uses regular expressions, and it stays a leaf: of termcert it
    # imports only the package's InputError and _record
    package = Path(termcert.__file__).resolve().parent
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        modules = {alias.name for node in imports if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in imports
                    if isinstance(node, ast.ImportFrom) and node.level == 0}
        if path.name != "_lex.py":
            assert "re" not in modules, path.name
            continue
        ours = {(node.module, alias.name) for node in imports
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
        assert ours == {(None, "InputError"), ("_record", "record")}
        assert not {m for m in modules if m.split(".")[0] == "termcert"}


# Runs one command in a fresh interpreter (no command at all for "-") and
# prints every module loaded after it.
LOADED = """
import contextlib, io, sys
import termcert, termcert.cli
if sys.argv[1:] != ["-"]:
    with contextlib.redirect_stdout(io.StringIO()):
        termcert.cli.main(sys.argv[1:])
print(*sorted(sys.modules))
"""


@lru_cache(maxsize=None)
def loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def termcert_modules(argv):
    """The termcert modules loaded after `argv`, without the package's name."""
    return {m[len("termcert."):] for m in loaded_modules(tuple(argv)) if m.startswith("termcert.")}


def test_importing_the_package_and_the_cli_loads_no_other_module():
    assert termcert_modules(["-"]) == {"cli"}


def test_each_command_loads_only_the_modules_it_runs():
    parse, cfg, check, check_cdb, bounds, simulate, lab = map(termcert_modules, README_COMMANDS)
    assert not parse & {"cfg", "_compile", "checker", "semantics", "bounds", "lab"}
    assert not cfg & {"_compile", "certificates", "checker", "semantics", "bounds", "lab"}
    for checked in (check, check_cdb):
        assert "checker" in checked and not checked & {"semantics", "bounds", "lab"}
    assert "bounds" in bounds and not bounds & {"checker", "semantics", "lab"}
    assert "semantics" in simulate and not simulate & {"checker", "bounds", "lab"}
    assert "lab" in lab and not lab & {"lang", "parser", "cfg", "semantics"}


def test_commands_load_no_dataclasses_and_json_or_csv_only_for_their_format():
    for argv in README_COMMANDS:
        loaded = loaded_modules(tuple(argv))
        assert not loaded & {"dataclasses", "json", "csv"}, argv[0]
        # numpy, which lab loads, imports inspect itself
        assert argv[0] == "lab" or "inspect" not in loaded, argv[0]
    for argv, fmt in ((README_COMMANDS[0], "json"), (README_COMMANDS[2], "json"),
                      (README_COMMANDS[2], "csv"), (README_COMMANDS[4], "csv")):
        loaded = loaded_modules((*argv, "--format", fmt))
        assert not loaded & {"dataclasses", "json", "csv"} - {fmt}, (argv[0], fmt)
        assert fmt in loaded, (argv[0], fmt)


def test_no_module_imports_dataclasses():
    package = Path(termcert.__file__).resolve().parent
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import) dataclasses\b", text, re.M), path.name


def test_every_public_name_resolves():
    assert termcert.__all__ == sorted(set(termcert.__all__)) and len(termcert.__all__) > 50
    for name in termcert.__all__:
        value = getattr(termcert, name)
        assert name in dir(termcert)
        assert getattr(sys.modules[f"termcert.{termcert._HOME[name]}"], name) is value, name
    with pytest.raises(AttributeError):
        termcert.no_such_name


KINDS = "'ranking', 'cdb', 'db', 'super'"


@pytest.mark.parametrize("argv, bad, choices", [
    (["check", HALVING, "--cert", HALVING_CERT, "--kind", "rank", "--box", "n=0..1"],
     "rank", KINDS),
    (["bounds", HALVING, "--cert", HALVING_CERT, "--kind", "rank", "--entry", "f"],
     "rank", KINDS),
    (["simulate", HALVING, "--entry", "f", "--runs", "1", "--scheduler", "greedy"], "greedy",
     "'greedy-max', 'greedy-min', 'always-then', 'always-else', 'uniform'"),
    (["lab", "--example", "walk", "--runs", "1", "--horizon", "1"], "walk",
     "'nonnegativity', 'cbounded', 'noconcentration', 'randomwalk', 'positivity'"),
])
def test_an_invalid_option_value_exits_two_naming_the_choices(argv, bad, choices, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid choice: {bad!r} (choose from {choices})" in capsys.readouterr().err
