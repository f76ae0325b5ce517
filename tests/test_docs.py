"""Docs as tests: the README's Library snippet and demos 01-04 print, byte
for byte, what `tests/golden/docs/` holds.  Each runs in its own
interpreter, as a reader would run it.  Demo 05 only exercises `lab` and
takes seconds, so it is left out."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "docs"
DEMOS = ["01_parse_label_cfg", "02_check_certificates", "03_bounds_vs_simulation",
         "04_almost_sure_termination"]


def library_snippet() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)


@pytest.mark.parametrize("name", ["readme_library", *DEMOS])
def test_output_matches_golden(name):
    argv = ["-c", library_snippet()] if name == "readme_library" else [f"demos/{name}.py"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_the_serial_budgets_are_stated_as_the_program_sets_them(capsys):
    # the work that `simulate` (steps) and `check` (conditions) do in their
    # own process before they start a pool, as the README and each
    # command's `--workers` help state it
    from termcert import checker, semantics
    from termcert.cli import main

    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    for command, budget, unit, prose in (
            ("simulate", semantics._SERIAL_STEPS, "steps", "have taken about"),
            ("check", checker._SERIAL_CONDITIONS, "conditions", "checks labels until about")):
        stated = re.search(rf"{prose} ([\d,]+) {unit}", readme).group(1)
        assert int(stated.replace(",", "")) == budget, command
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert re.search(rf"within about (\d+)k {unit}", text).group(1) == str(budget // 1000)
