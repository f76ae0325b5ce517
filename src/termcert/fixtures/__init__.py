"""Bundled example programs, distributions, and certificates.

These are the workhorses of the test-suite and the demo scripts:

    halving_game    nondeterministic mutual recursion with a biased step;
                    its certificate witnesses expected termination time
                    between value/13 and value/1 from any entry
    random_walk     symmetric random walk (recursive and loop variants);
                    its never-increasing certificate witnesses almost-sure
                    termination with inverse-square-root tails
    coin_loops      coin-driven loop pair whose certificate shows that a
                    demonic coin game still admits an expected-decrease
                    witness
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, Tuple

from ..certificates import Certificate, parse_certificate
from ..cfg import Cfg, build_cfg
from ..distributions import (DiscreteDist, SamplingFunction, merge_distributions,
                             parse_distributions)
from ..lang import Program, label_program
from ..parser import parse_program

_NAMES = ("halving_game", "random_walk", "coin_loops")


def fixture_text(filename: str) -> str:
    return resources.files(__package__).joinpath(filename).read_text(encoding="utf-8")


def fixture_path(filename: str) -> str:
    return str(resources.files(__package__).joinpath(filename))


def load_program_fixture(name: str) -> Program:
    return label_program(parse_program(fixture_text(f"{name}.prob")))


def load_cfg_fixture(name: str) -> Cfg:
    return build_cfg(load_program_fixture(name))


def load_cert_fixture(name: str) -> Certificate:
    return parse_certificate(fixture_text(f"{name}.cert"))


def load_dist_fixture(name: str) -> Dict[str, DiscreteDist]:
    return parse_distributions(fixture_text(f"{name}.dist"))


def sampling_function_for(cfg: Cfg, file_dists: Dict[str, DiscreteDist] | None = None) -> SamplingFunction:
    """Combine file-provided and parser-builtin (bernoulli) distributions."""
    return SamplingFunction.from_mapping(merge_distributions(cfg.builtin_dists, file_dists or {}))


def halving_game() -> Tuple[Cfg, SamplingFunction, Certificate]:
    cfg = load_cfg_fixture("halving_game")
    sf = sampling_function_for(cfg, load_dist_fixture("halving_game"))
    return cfg, sf, load_cert_fixture("halving_game")


def random_walk() -> Tuple[Cfg, SamplingFunction, Certificate]:
    cfg = load_cfg_fixture("random_walk")
    sf = sampling_function_for(cfg, load_dist_fixture("random_walk"))
    return cfg, sf, load_cert_fixture("random_walk_super")


def coin_loops() -> Tuple[Cfg, SamplingFunction, Certificate]:
    cfg = load_cfg_fixture("coin_loops")
    sf = sampling_function_for(cfg, None)
    return cfg, sf, load_cert_fixture("coin_loops")
