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
