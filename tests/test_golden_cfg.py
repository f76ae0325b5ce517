"""CFG dumps pinned byte for byte.

`golden/cfg_dumps.json` holds, for every program of the corpus below, the
stdout of `termcert cfg` in its text and its JSON format, written by the
lowering this file was first committed against.  Any later change to how
the CFG is stored must reproduce it.  To rewrite it (only when a change of
the dumps is intended): `PYTHONPATH=src python tests/test_golden_cfg.py`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from test_properties import rand_program, rand_program_with_every_label_class
from termcert.cli import main
from termcert.fixtures import fixture_path
from termcert.lang import pretty_print

GOLDEN = Path(__file__).parent / "golden" / "cfg_dumps.json"

FIXTURES = ("halving_game", "random_walk", "coin_loops")


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def corpus(folder: Path):
    """(key, {"text": ..., "json": ...}) for the fixtures and the random
    programs, each random program written to `folder` as the parser reads it."""
    paths = [(name, fixture_path(f"{name}.prob")) for name in FIXTURES]
    generators = ((rand_program, range(50)), (rand_program_with_every_label_class, range(10)))
    for make, seeds in generators:
        for seed in seeds:
            path = folder / f"{make.__name__}_{seed}.prob"
            path.write_text(pretty_print(make(seed)), encoding="utf-8")
            paths.append((f"{make.__name__} {seed}", str(path)))
    for key, path in paths:
        yield key, {"text": _stdout("cfg", path),
                    "json": _stdout("cfg", path, "--format", "json")}


def test_cfg_dumps_match_the_golden_corpus(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = dict(corpus(tmp_path))
    assert got.keys() == golden.keys()
    for key, dumps in golden.items():
        assert got[key] == dumps, key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        GOLDEN.write_text(json.dumps(dict(corpus(Path(folder))), indent=1) + "\n",
                          encoding="utf-8")
