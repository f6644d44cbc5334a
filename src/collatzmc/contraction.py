"""Contraction and expansion factors of the third iterate, exactly and in bound form.

Each residue class multiplies its members by m/8 up to an additive constant:
1/8 on class 0, 3/4 on classes 1,2,4,5,6, 9/2 on classes 3,7.  Folding the
additive constants into class-wise factors c_i(n_min) gives pointwise upper
bounds valid from n_min up, and the stationary-weighted log averages of both
families quantify the average contraction per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError
from .maps import BRANCHES, CYCLE, third_iterate
from .measure import nu

#: Leading factor of each branch: multiplier / 8, keyed by residue mod 8.
RAW_FACTORS: tuple[Fraction, ...] = tuple(Fraction(b.multiplier, 8) for b in BRANCHES)


def _weights_by_factor(factors: tuple[Fraction, ...]) -> dict[Fraction, Fraction]:
    """Stationary mass nu of the residues sharing each factor, in residue order."""
    weights: dict[Fraction, Fraction] = {}
    for sigma, factor in enumerate(factors):
        weights[factor] = weights.get(factor, Fraction(0)) + nu(sigma)
    return weights


def raw_geometric_mean() -> Fraction:
    """Stationary-weighted geometric mean of the raw factors: exactly 3/4.

    The weights (1/6 on the 1/8 factor, 2/3 on 3/4, 1/6 on 9/2) have common
    denominator 6, so the identity is checked on sixth powers, avoiding
    irrational intermediates: (1/8) * (3/4)^4 * (9/2) must equal (3/4)^6.
    """
    weights = _weights_by_factor(RAW_FACTORS)
    if sum(weights.values()) != 1:
        raise ConsistencyError("stationary weights do not sum to 1")
    sixth_power = Fraction(1)
    for factor, weight in weights.items():
        exponent = weight * 6
        if exponent.denominator != 1:
            raise ConsistencyError("weights are not sixths")
        sixth_power *= factor ** int(exponent)
    mean = Fraction(3, 4)
    if mean**6 != sixth_power:
        raise ConsistencyError(f"sixth-power identity failed: {sixth_power}")
    return mean


def bound_factors(n_min: int) -> tuple[Fraction, ...]:
    """Class-wise upper-bound factors c_i(n_min), exact rationals.

    c_i(n_min) = (multiplier_i * n_min + offset_i) / (8 * n_min), i.e. the
    image of n_min under branch i divided by n_min; for class 0 this is 1/8
    independent of n_min.
    """
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    return tuple(Fraction(b.multiplier * n_min + b.offset, 8 * n_min) for b in BRANCHES)


def bounded_geometric_mean(n_min: int) -> float:
    """Stationary-weighted geometric mean of the bound factors.

    Classes 5..7 repeat the factors of 1, 2 and 3, so the weights over the
    distinct factors c_0..c_4 are (1/6, 1/6, 1/3, 1/6, 1/6).  Decreases with
    n_min toward the exact 3/4.
    """
    weights = _weights_by_factor(bound_factors(n_min))
    return math.exp(sum(float(w) * math.log(c) for c, w in weights.items()))


def birkhoff_alpha(*, n_min: int = 3) -> tuple[float, float]:
    """Average log-factor per step under the stationary distribution, and e^{alpha/2}.

    At level m each of the 8 base residues is shared by 8^{m-1} classes of
    stationary weight 1/(6*8^{m-1}) or 1/(12*8^{m-1}), whose masses sum to
    nu(sigma), so the weighted sum is the level-1 value at every level.
    Negative alpha (hence beta < 1) means orbits contract on average.
    """
    c = bound_factors(n_min)
    alpha = sum(float(nu(sigma)) * math.log(c[sigma]) for sigma in range(8))
    return alpha, math.exp(alpha / 2)


@dataclass(frozen=True)
class DominationScan:
    """Outcome of the exhaustive pointwise bound scan over a range."""

    lo: int
    hi: int
    n_min: int
    strict_failures: tuple[int, ...]  # n with image strictly above the bound
    equality_points: tuple[int, ...]  # n (class != 0) where image == bound exactly

    @property
    def ok(self) -> bool:
        return not self.strict_failures


def domination_scan(lo: int, hi: int, n_min: int = 3) -> DominationScan:
    """Exact integer check of image <= c_i(n_min) * n over [lo, hi].

    Comparisons are cross-multiplied, no rounding.  For class 0 the bound is
    an identity (image * 8 == n, checked).  For other classes the inequality
    is strict except at n == n_min itself, where the factor is by construction
    the image-to-argument ratio; such equality points are reported, not hidden.
    """
    if lo < n_min:
        raise ValueError(f"scan must start at or above n_min={n_min}, got {lo}")
    strict_failures, equality_points = [], []
    for n in range(lo, hi + 1):
        branch = BRANCHES[n & 7]
        image = third_iterate(n)
        if branch.index == 0:
            if image * 8 != n:
                raise ConsistencyError(f"class-0 identity failed at n={n}")
            continue
        # image <=> c*n  with  c = (mult*n_min + off)/(8*n_min)
        lhs = image * 8 * n_min
        rhs = (branch.multiplier * n_min + branch.offset) * n
        if lhs > rhs:
            strict_failures.append(n)
        elif lhs == rhs:
            equality_points.append(n)
    return DominationScan(lo, hi, n_min, tuple(strict_failures), tuple(equality_points))


@dataclass(frozen=True)
class OrbitLogAverage:
    """Running mean of log bound-factors along one orbit, before absorption."""

    start: int
    applicable: bool
    mean: float | None
    steps: int


def orbit_log_average(n0: int, steps: int, n_min: int = 3) -> OrbitLogAverage:
    """Mean of log c over the classes an orbit visits before reaching the cycle.

    Iterates the third iterate at most `steps` times from n0, accumulating
    log c_{n mod 8}(n_min) for each visited value, and checks the per-step
    bound image <= c * n exactly whenever n >= n_min (strict above n_min).
    Starts inside the cycle are reported as not applicable.
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    c = bound_factors(n_min)
    if n0 in CYCLE:
        return OrbitLogAverage(n0, False, None, 0)
    total, taken, n = 0.0, 0, n0
    while taken < steps and n not in CYCLE:
        sigma = n & 7
        total += math.log(c[sigma])
        nxt = third_iterate(n)
        if n >= n_min and sigma != 0:
            lhs = nxt * c[sigma].denominator
            rhs = c[sigma].numerator * n
            if lhs > rhs or (lhs == rhs and n != n_min):
                raise ConsistencyError(f"per-step bound failed at n={n}")
        taken += 1
        n = nxt
    return OrbitLogAverage(n0, True, total / taken, taken)


@dataclass(frozen=True)
class ContractionReport:
    level: int
    n_min: int
    raw_factors: tuple[Fraction, ...]
    bound_factors: tuple[Fraction, ...]
    raw_mean: Fraction
    bound_mean: float
    alpha: float
    beta: float


def build_report(n_min: int = 3, level: int = 1) -> ContractionReport:
    """Assemble the full contraction summary at a given level and n_min."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    alpha, beta = birkhoff_alpha(n_min=n_min)
    return ContractionReport(
        level=level,
        n_min=n_min,
        raw_factors=RAW_FACTORS,
        bound_factors=bound_factors(n_min),
        raw_mean=raw_geometric_mean(),
        bound_mean=bounded_geometric_mean(n_min),
        alpha=alpha,
        beta=beta,
    )
