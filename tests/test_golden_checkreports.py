"""Check reports pinned byte for byte.

`golden/checkreports.json` holds, for every case of the corpus below,
`CheckReport.to_json_dict()`, or the class and text of the error the check
raises, as the checker wrote them while it still interpreted each
condition, before the conditions were compiled from rows.  Any later
change to the condition sweep must reproduce them at every worker count.
To rewrite the file (only when a change of the reports is intended):
`PYTHONPATH=src python tests/test_golden_checkreports.py`.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from test_properties import (BOX, rand_certificate, rand_program,
                             rand_program_with_every_label_class, rand_rich_certificate)

from termcert import InputError
from termcert.cfg import build_cfg
from termcert.checker import VerifyBox, check_cdb, check_db, check_ranking, check_super
from termcert.distributions import DiscreteDist, SamplingFunction
from termcert.fixtures import coin_loops, halving_game, random_walk

GOLDEN = Path(__file__).parent / "golden" / "checkreports.json"

CHECKS = {  # kind -> check with the overrides in `p` (None: the certificate's own)
    "ranking": lambda cert, cfg, sf, box, p, w: check_ranking(
        cert, cfg, sf, box, eps=p.get("eps"), workers=w),
    "cdb": lambda cert, cfg, sf, box, p, w: check_cdb(
        cert, cfg, sf, box, delta=p.get("delta"), zeta=p.get("zeta"), workers=w),
    "db": lambda cert, cfg, sf, box, p, w: check_db(
        cert, cfg, sf, box, zeta=p.get("zeta"), workers=w),
    "super": lambda cert, cfg, sf, box, p, w: check_super(
        cert, cfg, sf, box, delta=p.get("delta"), zeta=p.get("zeta"), workers=w),
}
GENERATORS = {"rand": rand_program, "every-class": rand_program_with_every_label_class}
SEEDS = range(20)
PARAMS = tuple(dict(zip(("eps", "delta", "zeta"), map(Fraction, triple))) for triple in (
    (1, 1, 1), ("1/2", "3/2", 2), (2, "13/3", 4), ("3/2", 2, "1/2"), (1, 4, "13/3")))
FIXTURES = (  # (fixture, its README or demo box, a box with uncovered or infinite points)
    (halving_game, "n=-100..100", "n=-3..0"),
    (random_walk, "n=-50..50", "n=-4..2"),
    (coin_loops, "c=0..1, i=0..30, n=0..30", "c=-1..1, i=-2..3, n=-2..3"),
)
OVERRIDES = ({}, {"eps": Fraction(3, 2), "delta": Fraction(1299, 100), "zeta": Fraction(11)})
SF = SamplingFunction.from_mapping({
    "r": DiscreteDist.from_pairs([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]),
    "s": DiscreteDist.from_pairs([(1, Fraction(1, 3)), (3, Fraction(2, 3))]),
})


def _report(kind, cert, cfg, sf, box, params, workers):
    try:
        return CHECKS[kind](cert, cfg, sf, box, params, workers).to_json_dict()
    except InputError as exc:
        return {"error": type(exc).__name__, "text": str(exc)}


def corpus(workers=1):
    """(key, report or error) for every case."""
    for gen, program in GENERATORS.items():
        for seed in SEEDS:
            cfg = build_cfg(program(seed))
            params = PARAMS[seed % len(PARAMS)]
            for certs in ("plain", "rich", "hazards"):
                if certs == "plain":
                    cert = rand_certificate(seed ^ 0xC0DE, cfg)
                else:
                    cert = rand_rich_certificate(seed ^ 0xC0DE, cfg, hazards=certs == "hazards")
                for kind in CHECKS:
                    yield (f"{gen} {seed} {certs} {kind}",
                           _report(kind, cert, cfg, SF, BOX, params, workers))
    for fixture, *boxes in FIXTURES:
        cfg, sf, cert = fixture()
        for spec in boxes:
            for i, params in enumerate(OVERRIDES):
                for kind in CHECKS:
                    yield (f"{fixture.__name__} {spec} {i} {kind}",
                           _report(kind, cert, cfg, sf, VerifyBox.parse(spec), params, workers))


@pytest.mark.parametrize("workers", [1, 2])
def test_check_reports_match_the_golden_corpus(workers, inline_pool):
    inline_pool()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = dict(corpus(workers))
    assert got.keys() == golden.keys()
    for key, report in golden.items():
        assert got[key] == report, key


if __name__ == "__main__":  # one line per case
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(report)}"
                                          for key, report in corpus()) + "\n}\n",
                      encoding="utf-8")
