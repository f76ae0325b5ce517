"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep-wide cli-readme --seeds 10 --save a.json
    python3 perfbench/spread.py --compare a.json b.json

For every workload and end-to-end metric this prints the median of the runs
and the distance between their first and third quartiles as a share of the
median (statistics.quantiles, n=4), next to the metric's bound from
BENCHMARK.json.  Runs go one after another, never in parallel, so they do
not compete for the cores they measure.  `--save` keeps every run's values;
`--compare` prints, for two saved sets, both medians and how far the second
is from the first, in the metric's worse direction, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="write every run's metric values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two files written by --save, and run nothing")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    if args.compare:
        compare(spec, *args.compare)
        return
    saved = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            runs.append(result["metrics"])
        saved[workload] = {name: [r[name]["value"] for r in runs] for name in runs[0]}
        if args.save:
            Path(args.save).write_text(json.dumps(saved, indent=1), encoding="utf-8")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"{workload:16s} {name:34s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        sys.stdout.flush()


def compare(spec, first: str, second: str) -> None:
    a, b = (json.loads(Path(f).read_text(encoding="utf-8")) for f in (first, second))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload in a:
        for name, values in a[workload].items():
            if workload not in b or name not in b[workload]:
                continue
            m1, m2 = statistics.median(values), statistics.median(b[workload][name])
            worse = (m2 - m1) / m1 if metrics.get(name, {}).get("better") == "lower" \
                else (m1 - m2) / m1
            bound = metrics.get(name, {}).get("bound")
            flag = "" if bound is None or worse <= bound else "  <-- worse than bound"
            print(f"{workload:16s} {name:34s} {m1:12.6g} -> {m2:12.6g}  worse by {worse:+7.4f}"
                  f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
