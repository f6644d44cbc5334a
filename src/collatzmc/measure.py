"""The exact invariant probability measure on residue classes mod 8^m.

Even base residues carry weight 1/6, odd ones 1/12, scaled by 8^{-(m-1)} at
level m.  The measure of every class equals the measure of its preimage; this
module verifies that equality exactly, with no floating point anywhere: in units
of 1/(12*8^m), even and odd classes mod 8^m weigh 16 and 8, finer ones 2 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import ClassUnion, CongruenceClass, preimage_targets
from .errors import CapacityError

#: Highest level of the measure check and of the class chain, which imports
#: it as markov.MAX_LEVEL: 8^5 = 32768 classes.
MAX_CHECK_LEVEL = 5


def nu(sigma: int) -> Fraction:
    """Base weight of a residue mod 8: 1/6 when even, 1/12 when odd."""
    if not 0 <= sigma <= 7:
        raise ValueError(f"residue {sigma} out of range 0..7")
    return Fraction(1, 6) if sigma % 2 == 0 else Fraction(1, 12)


def measure_class(cls: CongruenceClass) -> Fraction:
    """Measure of B(i, 8^m): nu(i mod 8) / 8^{m-1}."""
    return nu(cls.base_residue) / 8 ** (cls.level - 1)


def measure_integer(n: int, level: int) -> Fraction:
    """Measure of the single integer n at level m.

    Writing n = i + k*8^m with 0 <= i < 8^m, the weight is
    nu(n mod 8) / (2^{k+1} * 8^{m-1}); summed over a class these form a
    geometric series totalling the class measure.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    k = n >> (3 * level)
    return nu(n & 7) / (2 ** (k + 1) * 8 ** (level - 1))


def measure_union(union: ClassUnion) -> Fraction:
    """Measure of a disjoint union: the exact sum of member measures."""
    return sum((measure_class(c) for c in union), Fraction(0))


def alternating_weights(level: int) -> tuple[Fraction, Fraction]:
    """The invariant measure of the classes mod 8^level as (even, odd) values:
    1/(6*8^{m-1}) on every even class, half that on every odd one."""
    return measure_class(CongruenceClass(0, level)), measure_class(CongruenceClass(1, level))


@dataclass(frozen=True)
class InvarianceReport:
    """Per class mod 8^level, its preimage's measure and its own, in units of 1/(12*8^level)."""

    level: int
    preimage: np.ndarray
    measure: np.ndarray

    @property
    def exact(self) -> np.ndarray:
        return self.preimage == self.measure

    @property
    def passed(self) -> bool:
        return bool(self.exact.all())


def check_invariance(level: int) -> InvarianceReport:
    """Compare measure(preimage(B(j,8^m))) with measure(B(j,8^m)) for every j.

    Exact integer equality per class; levels above MAX_CHECK_LEVEL are refused
    before the preimage map is built.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level > MAX_CHECK_LEVEL:
        raise CapacityError(
            f"level {level} enumerates 8^{level} classes; the measure check stops at "
            f"level {MAX_CHECK_LEVEL}"
        )
    size = 8**level
    targets = preimage_targets(level)
    even, odd = (np.bincount(targets[start::2], minlength=size) for start in (0, 1))
    return InvarianceReport(level, 2 * even + odd, np.tile((16, 8), size // 2))
