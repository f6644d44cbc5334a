"""Contraction factors, bound constants, and log averages."""

import math
from fractions import Fraction

import pytest

from collatzmc.contraction import (
    RAW_FACTORS,
    birkhoff_alpha,
    bound_factors,
    bounded_geometric_mean,
    build_report,
    domination_scan,
    orbit_log_average,
    raw_geometric_mean,
)
from collatzmc.markov import build_matrix, stationary_distribution
from collatzmc.measure import nu

BOUND_FACTORS_AT_3 = (
    Fraction(1, 8),
    Fraction(5, 6),
    Fraction(11, 12),
    Fraction(16, 3),
    Fraction(13, 12),
    Fraction(5, 6),
    Fraction(11, 12),
    Fraction(16, 3),
)


def test_raw_factors():
    assert RAW_FACTORS == tuple(
        Fraction(m, 8) for m in (1, 6, 6, 36, 6, 6, 6, 36)
    )


def test_raw_geometric_mean_exact():
    assert raw_geometric_mean() == Fraction(3, 4)
    # the sixth-power identity behind it
    product = Fraction(1, 8) * Fraction(3, 4) ** 4 * Fraction(9, 2)
    assert product == Fraction(729, 4096) == Fraction(3, 4) ** 6


def test_bound_factors_at_three():
    assert bound_factors(3) == BOUND_FACTORS_AT_3


def test_bound_factors_rejects_zero():
    with pytest.raises(ValueError):
        bound_factors(0)


def test_bound_factors_limit():
    large = bound_factors(10**6)
    assert large[0] == Fraction(1, 8)
    for i in range(1, 8):
        assert abs(float(large[i]) - float(RAW_FACTORS[i])) < 1e-5


def test_bounded_geometric_mean_value():
    assert abs(bounded_geometric_mean(3) - 0.8926) < 5e-4


def test_bounded_geometric_mean_monotone():
    values = [bounded_geometric_mean(n) for n in (3, 5, 10, 100, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0.75 for v in values)
    assert abs(values[-1] - 0.75) < 1e-5


def test_birkhoff_alpha_level1():
    alpha, beta = birkhoff_alpha()
    assert abs(alpha - (-0.1136)) < 1e-3
    assert abs(beta - 0.944) < 1e-3
    assert alpha < 0 and beta < 1
    assert beta == math.exp(alpha / 2)
    # alpha is the log of the bound mean (same stationary weights, same factors)
    assert abs(alpha - math.log(bounded_geometric_mean(3))) < 1e-14


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_birkhoff_alpha_level_independent(level):
    # alpha weights each base residue by nu; at every level the stationary
    # mass of the classes over base residue sigma is exactly nu(sigma)
    weights = list(stationary_distribution(build_matrix(level))) * (8**level // 2)
    assert [sum(weights[sigma::8]) for sigma in range(8)] == [nu(sigma) for sigma in range(8)]


def test_birkhoff_alpha_n_min_is_keyword_only():
    with pytest.raises(TypeError):
        birkhoff_alpha(1)
    assert birkhoff_alpha(n_min=9)[0] < birkhoff_alpha()[0]


class TestDomination:
    def test_scan_clean_up_to_10k(self):
        scan = domination_scan(3, 10_000)
        assert scan.ok
        assert scan.strict_failures == ()
        # the single boundary equality: the factor at n_min is by construction
        # the exact image-to-argument ratio there
        assert scan.equality_points == (3,)

    def test_scan_above_boundary_is_strict(self):
        scan = domination_scan(4, 10_000)
        assert scan.strict_failures == () and scan.equality_points == ()

    def test_scan_range_guard(self):
        with pytest.raises(ValueError):
            domination_scan(2, 100)


class TestOrbitLogAverage:
    def test_absorbed_start(self):
        outcome = orbit_log_average(1, 10)
        assert not outcome.applicable and outcome.mean is None

    def test_famous_orbit_27(self):
        # 111 Collatz steps reach 1, so 37 steps of the third iterate
        outcome = orbit_log_average(27, 10**6)
        assert outcome.applicable and outcome.steps == 37

    def test_class0_start(self):
        outcome = orbit_log_average(8, 10**6)
        assert outcome.applicable
        assert outcome.mean < 0

    def test_population_average_is_negative(self):
        means = [
            o.mean
            for o in (orbit_log_average(n0, 10**6) for n0 in range(5, 10_001))
            if o.applicable
        ]
        assert sum(means) / len(means) < 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            orbit_log_average(0, 5)
        with pytest.raises(ValueError):
            orbit_log_average(5, 0)


def test_report_fields():
    report = build_report()
    assert report.level == 1 and report.n_min == 3
    assert report.raw_mean == Fraction(3, 4)
    assert report.bound_factors == BOUND_FACTORS_AT_3
    assert report.alpha < 0 < report.beta < 1
    assert abs(report.bound_mean - math.exp(report.alpha)) < 1e-15


def test_report_rejects_bad_level():
    with pytest.raises(ValueError, match="level must be >= 1"):
        build_report(level=0)
