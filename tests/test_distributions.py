from fractions import Fraction

import pytest

from oracles import draws
from termcert.distributions import (
    DiscreteDist,
    DistributionError,
    SamplingFunction,
    parse_distributions,
)


def biased() -> DiscreteDist:
    return DiscreteDist.from_pairs([(1, Fraction(1, 4)), (-1, Fraction(3, 4))])


def test_probabilities_must_sum_to_one():
    with pytest.raises(DistributionError):
        DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 3))])
    with pytest.raises(DistributionError):
        DiscreteDist.from_pairs([(0, Fraction(1, 2)), (0, Fraction(1, 2))])
    with pytest.raises(DistributionError):
        DiscreteDist.from_pairs([])
    with pytest.raises(DistributionError):
        DiscreteDist.from_pairs([(0, Fraction(0)), (1, Fraction(1))])


def test_point_mass_always_returns_its_value():
    assert draws(DiscreteDist.point(1), 123, 0, 100) == [1] * 100


def test_biased_frequencies_converge():
    # up-probability 1/4: over 1e6 draws the empirical rate lands within 0.003
    dist = biased()
    assert dist.thresholds()[0][1] == -1  # support sorted ascending
    ups = draws(dist, 2024, 0, 1_000_000).count(1)
    assert abs(ups / 1_000_000 - 0.25) < 0.003


def test_symmetric_empirical_mean_near_zero():
    dist = DiscreteDist.from_pairs([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    total = sum(draws(dist, 7, 3, 200_000))
    assert abs(total / 200_000) < 0.011  # 3 sigma for n=2e5 is ~0.0067


def test_sampling_is_reproducible_per_stream():
    dist = biased()
    assert draws(dist, 5, 9, 50) == draws(dist, 5, 9, 50)
    assert draws(dist, 5, 9, 50) != draws(dist, 5, 10, 50)


def test_joint_support_sums_to_one():
    half = DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    sf = SamplingFunction.from_mapping({"a": half, "b": biased(), "c": half})
    total = sum(w for _, w in sf.joint_support_over(sf.variables))
    assert total == 1


def test_joint_support_over_subset_is_marginal():
    half = DiscreteDist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    sf = SamplingFunction.from_mapping({"a": half, "b": biased()})
    marginal = dict()
    for mu, w in sf.joint_support_over(("b",)):
        marginal[mu["b"]] = marginal.get(mu["b"], Fraction(0)) + w
    assert marginal == {1: Fraction(1, 4), -1: Fraction(3, 4)}


def test_large_joint_support_warns():
    import warnings

    wide = DiscreteDist.from_pairs([(v, Fraction(1, 30)) for v in range(30)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SamplingFunction.from_mapping({"a": wide, "b": wide, "c": wide})
    assert any("joint sampling support" in str(w.message) for w in caught)


def test_parse_distribution_file():
    dists = parse_distributions("# comment\nr: 1 1/4; -1 3/4\ns: 0 0.5; 1 1/2\n")
    assert dists["r"].prob(1) == Fraction(1, 4)
    assert dists["s"].prob(0) == Fraction(1, 2)
    with pytest.raises(DistributionError):
        parse_distributions("r: 1 1/4; -1 3/4\nr: 0 1\n")
    with pytest.raises(DistributionError):
        parse_distributions("r 1 1/4\n")
