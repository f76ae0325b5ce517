"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They check that the generator's reference model agrees with termcert, that
the exact counts a traced run reports repeat from run to run and between
workers=1 and workers=2, and that the runner keeps its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Checks, ManyPrograms, SimulateHalving, SweepWide  # noqa: E402


def _one_round(cls, seed):
    tr = Tracer(True)
    workload = cls(ROOT, seed, tr)
    tr.round = 1
    workload.round()
    checks = Checks()
    workload.verify(checks)
    assert checks.failed == 0, checks.problems
    return tr


def _counts(tr, layer):
    return [(s.name, s.counts) for s in tr.spans if s.layer == layer and s.round == 1]


def test_reference_model_agrees_with_termcert():
    tr = Tracer(False)
    workload = ManyPrograms(ROOT, 20240601, tr)
    workload.round()
    checks = Checks()
    workload.verify(checks)
    assert checks.attempted == ManyPrograms.BATCH and checks.failed == 0, checks.problems


@pytest.mark.parametrize("cls, layer, twin", [
    (SweepWide, "checker", "ranking"),
    (SimulateHalving, "semantics", "greedy-max"),
])
def test_exact_counts_repeat_across_runs_and_workers(cls, layer, twin):
    first = _counts(_one_round(cls, 7), layer)
    assert first == _counts(_one_round(cls, 7), layer)
    by_name = {}
    for name, counts in first:
        by_name.setdefault(name, []).append(counts)
    w1 = [c for c in by_name[twin] if "w2pair" in c][0]
    w2 = by_name[f"{twin}@w2"][0]
    strip = ("workers", "w2pair")
    assert {k: v for k, v in w1.items() if k not in strip} == \
        {k: v for k, v in w2.items() if k not in strip}


def test_many_programs_counts_repeat():
    assert _counts(_one_round(ManyPrograms, 3), "checker") == \
        _counts(_one_round(ManyPrograms, 3), "checker")


def test_layer_spans_come_from_one_source():
    tr = Tracer(True)
    for source in ("suite:sweep-wide", "suite:many-programs"):
        tr.source = source
        with tr.span("checker", "ranking"):
            pass
    assert {s.source for s in tr.select("checker", "ranking")} == {"suite:sweep-wide"}
    tr.source = "workload"
    with tr.span("checker", "ranking"):
        pass
    assert {s.source for s in tr.select("checker", "ranking")} == {"workload"}


def test_generated_programs_depend_only_on_seed_and_index():
    a = gen.generate(5, 3, start=10)
    b = gen.generate(5, 13)[10:]
    assert [c.program_text for c in a] == [c.program_text for c in b]
    assert a[0].program_text != gen.generate(6, 1, start=10)[0].program_text


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "many-programs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
