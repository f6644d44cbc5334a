"""The exact invariant probability measure on residue classes mod 8^m.

Even base residues carry weight 1/6, odd ones 1/12, scaled by 8^{-(m-1)} at
level m.  The measure of every class equals the measure of its preimage; this
module verifies that equality exactly, with no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .congruence import ClassUnion, CongruenceClass, preimage_class
from .errors import CapacityError

#: Levels above this need an explicit opt-in (8^level classes are enumerated).
DEFAULT_MAX_CHECK_LEVEL = 3

#: Levels above this are refused even with the opt-in; the class chain stops
#: at the same level (markov.MAX_LEVEL).
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


@dataclass(frozen=True)
class InvarianceRow:
    target: CongruenceClass
    preimage_measure: Fraction
    class_measure: Fraction

    @property
    def ok(self) -> bool:
        return self.preimage_measure == self.class_measure


@dataclass(frozen=True)
class InvarianceReport:
    level: int
    rows: tuple[InvarianceRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def failures(self) -> tuple[InvarianceRow, ...]:
        return tuple(row for row in self.rows if not row.ok)


def check_invariance(level: int, allow_large: bool = False) -> InvarianceReport:
    """Compare measure(preimage(B(j,8^m))) with measure(B(j,8^m)) for every j.

    Exact rational equality per class; levels above DEFAULT_MAX_CHECK_LEVEL
    enumerate more than 512 preimages and require allow_large=True, and levels
    above MAX_CHECK_LEVEL are refused.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level > MAX_CHECK_LEVEL:
        raise CapacityError(
            f"level {level} enumerates 8^{level} classes; the measure check stops at "
            f"level {MAX_CHECK_LEVEL}"
        )
    if level > DEFAULT_MAX_CHECK_LEVEL and not allow_large:
        raise CapacityError(
            f"level {level} enumerates 8^{level} classes; pass allow_large=True to force"
        )
    rows = []
    for j in range(8**level):
        target = CongruenceClass(j, level)
        rows.append(
            InvarianceRow(
                target=target,
                preimage_measure=measure_union(preimage_class(target)),
                class_measure=measure_class(target),
            )
        )
    return InvarianceReport(level, tuple(rows))
