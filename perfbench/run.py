"""termcert benchmark: one workload per run, checked outputs, one JSON result.

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; termcert is imported from ./src and
the CLI runs as `python -m termcert.cli` with the same path.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md).  The lines before it name every metric of
the workload, and a fuller record (machine, versions, source digest, spans)
goes to .perfbench_out/.  Exit status is 0 when the run completed, whether
or not outputs matched their references ("correct" says which), and 1 when
it could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("sweep-wide", "many-programs", "simulate-halving", "cli-readme")
LAYERS = ("parser", "lang", "cfg", "compile", "checker", "semantics", "lab", "bounds",
          "pool", "cli", "bench")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "termcert" / "__init__.py").is_file():
        print(f"error: no termcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import termcert  # noqa: E402

    if not Path(termcert.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported termcert from {termcert.__file__}", file=sys.stderr)
        return 1
    from spans import Tracer
    from workloads import WORKLOADS, Checks

    tr = Tracer(enabled=bool(args.trace))
    workload = WORKLOADS[args.workload](ROOT, args.seed, tr)
    tr.enabled = False
    workload.warm_up()
    checked = [workload]
    if args.trace:
        untraced = measure(workload, tr, args.seconds / 2)
        tr.enabled = True
        traced = measure(workload, tr, args.seconds / 2)
        metrics, owners = layer_metrics(workload, tr, untraced, traced)
        checked += owners
    else:
        measure(workload, tr, args.seconds)
        rss = peak_rss_mb()  # before the set-up interpreters below become children
        setup = [setup_seconds(args) for _ in range(SETUP_REPEATS)]
        metrics = end_to_end(workload, setup, rss)

    checks = Checks()
    for each in checked:
        each.verify(checks)
    for problem in checks.problems:
        print(f"mismatch: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "provenance": provenance(),
        "attempted": checks.attempted, "failed": checks.failed,
        "failed_frac": checks.failed / max(checks.attempted, 1),
        "metrics": metrics, "samples": workload.samples,
    }
    if not args.trace:
        record["workload_metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in workload.named_metrics().items()}
        record["workload_metrics"]["failed_frac"] = {"value": record["failed_frac"],
                                                     "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tr.dump(str(OUT / f"{stem}-spans.json"))

    for name, entry in {**record.get("workload_metrics", {}), **metrics}.items():
        print(f"{args.workload:16s} {name:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def measure(workload, tr, seconds: float):
    """Rounds until `seconds` pass; a round is not started when, at the
    median round time so far, more than half of it would fall past the end."""
    end = time.perf_counter() + seconds
    times = []
    while True:
        tr.round += 1
        t = time.perf_counter()
        workload.round()
        times.append(time.perf_counter() - t)
        if time.perf_counter() + statistics.median(times) / 2 > end:
            return times


SETUP = """\
import sys, time
from pathlib import Path
root, name, seed = sys.argv[1:]
start = time.perf_counter()
sys.path[:0] = [root + "/src", root + "/perfbench"]
import termcert
from spans import Tracer
from workloads import WORKLOADS
WORKLOADS[name](Path(root), int(seed), Tracer(False))
print(time.perf_counter() - start)
"""


def setup_seconds(args) -> float:
    """Import of termcert plus the workload's set-up, timed inside a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP, str(ROOT), args.workload, str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    """This process's peak plus the largest peak among its waited-for
    children: the workload's pool workers or CLI subprocesses.  Pages a
    forked worker shares with this process count in both."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(workload, setup, rss):
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (workload.round_s(), "s"),
        "work_per_s": (workload.work_per_s(), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_metrics(workload, tr, untraced, traced):
    from spans import median_seconds, rate
    from suite import run_missing, tokenized
    from workloads import fastest

    first = tr.round - len(traced) + 1  # the first traced round
    tokenized(tr, workload.texts)
    ran, owners = run_missing(tr, workload)
    print(f"layer suite parts run: {', '.join(ran) or 'none'}", file=sys.stderr)

    def med(layer, name, where=lambda s: True):
        return median_seconds(tr.select(layer, name, where))

    def count(layer, key, where=lambda s: True):
        """An exact count over the set-up and first traced round (or the suite)."""
        spans = tr.select(layer, None, lambda s: key in s.counts and where(s)
                          and (s.source != "workload" or s.round in (0, first)))
        return sum(s.counts[key] for s in spans)

    def w1(s):
        return s.counts.get("workers", 1) == 1

    def pair(s):
        return "w2pair" in s.counts

    values = {
        "parser.parse_s": (med("parser", "parse_program"), "s"),
        "parser.tokens_per_s": (rate(tr.select("parser", "tokenize"), "tokens"), "1/s"),
        "parser.cert_parse_s": (med("parser", "parse_certificate"), "s"),
        "lang.label_s": (med("lang", "label_program"), "s"),
        "cfg.build_s": (med("cfg", "build_cfg"), "s"),
        "cfg.labels": (count("cfg", "labels"), "count"),
        "compile.first_check_s": (med("compile", "first_check"), "s"),
        "compile.first_sim_s": (med("compile", "first_sim"), "s"),
    }
    for kind in ("ranking", "cdb", "db", "super", "fail"):
        values[f"checker.{kind}.conditions_per_s"] = (
            rate(tr.select("checker", kind), "conditions"), "1/s")
    for key in ("points", "skipped", "conditions", "failures"):
        values[f"checker.{key}"] = (count("checker", key, w1), "count")
    values["checker.theta_s"] = (med("checker", "theta_fixpoint"), "s")
    values["checker.w2_speedup"] = (
        med("checker", "ranking", pair) / med("checker", "ranking@w2"), "ratio")
    values["pool.startup_s"] = (med("pool", "point@w2") - med("pool", "point@w1"), "s")
    for scheduler in ("always-then", "always-else", "uniform", "greedy-max", "greedy-min"):
        values[f"semantics.{scheduler}.steps_per_s"] = (
            rate(tr.select("semantics", scheduler), "steps"), "1/s")
    for key in ("steps", "censored"):
        values[f"semantics.{key}"] = (count("semantics", key, w1), "count")
    values["semantics.w2_speedup"] = (
        med("semantics", "greedy-max", pair) / med("semantics", "greedy-max@w2"), "ratio")
    for tag in ("randomwalk", "noconcentration"):
        values[f"lab.{tag}.runs_per_s"] = (rate(tr.select("lab", tag), "runs"), "1/s")
    values["bounds.rows_s"] = (med("bounds", "rows"), "s")
    values["cli.import_s"] = (statistics.median(
        s.counts["import_ns"] for s in tr.select("cli", "import")) / 1e9, "s")
    for command in ("parse", "cfg", "check", "bounds", "simulate", "lab"):
        values[f"cli.{command}_s"] = (med("cli", command), "s")

    # self time per traced round, from the workload's spans in those rounds;
    # a layer the rounds never entered gets its set-up and layer-suite total
    rounds = tr.self_seconds(lambda s: s.source == "workload" and s.round >= first)
    rest = tr.self_seconds(lambda s: s.source != "workload" or s.round == 0)
    for layer in LAYERS:
        value = rounds[layer] / len(traced) if layer in rounds else rest.get(layer, 0.0)
        values[f"{layer}.self_s"] = (value, "s")
    overhead = fastest(traced) - fastest(untraced)
    values["trace.overhead_s"] = (overhead, "s")
    values["trace.overhead_frac"] = (overhead / fastest(untraced), "ratio")
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
            owners)


def provenance():
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "git_revision": rev or "unknown: not a git checkout",
        "source_sha256": digest.hexdigest(),
        "note": ("CPUs are not pinned and caches are not dropped; the run measures only "
                 "its own processes. Worker scaling is as measured on this nproc."),
    }


if __name__ == "__main__":
    sys.exit(main())
