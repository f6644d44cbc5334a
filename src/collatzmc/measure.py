"""The exact invariant probability measure on residue classes mod 8^m.

Even base residues carry weight 1/6, odd ones 1/12, scaled by 8^{-(m-1)} at
level m.  The measure of every class equals the measure of its preimage; this
module verifies that equality exactly, with no floating point anywhere: in units
of 1/(12*8^m), even and odd classes mod 8^m weigh 16 and 8, finer ones 2 and 1.
weigh_fibres applies it to a class map mod 8^(m+1) -> 8^m: the solved preimage
map here, and the class chain's image columns in markov as its P*Q = P test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import ClassUnion, CongruenceClass, preimage_targets
from .errors import CapacityError

#: Every exact chain array holds 8^e class indices or entries: the preimage
#: map and Q(m) 8^(m+1), a k-step power 8^(m+k), dense rows 8^(2m).  It is
#: refused when e exceeds this: at most 16 MiB of indices.
MAX_CELL_EXPONENT = 7


def refuse_cells(exponent: int, subject: str) -> None:
    """Raise CapacityError for an array of 8^exponent cells above the cap,
    deciding on the exponent, so 8^exponent is never formed."""
    if exponent > MAX_CELL_EXPONENT:
        raise CapacityError(f"{subject}: 8^{exponent} cells, cap 8^{MAX_CELL_EXPONENT}")


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
    """Per class mod 8^m, its preimage's measure and its own, in units of 1/(12*8^m)."""

    preimage: np.ndarray
    measure: np.ndarray

    @property
    def exact(self) -> np.ndarray:
        return self.preimage == self.measure

    @property
    def passed(self) -> bool:
        return bool(self.exact.all())


def weigh_fibres(targets: np.ndarray) -> InvarianceReport:
    """Weigh each class mod 8^m's fibre under a class map against the class.

    Entry r of `targets`, which has 8^(m+1) entries, is the class mod 8^m
    that B(r, 8^(m+1)) maps into.  In units of 1/(12*8^m) residue r weighs 2
    when even and 1 when odd, and a class 16 when even and 8 when odd, so the
    measure is invariant under the map exactly when every fibre weighs what
    its class does.
    """
    size = len(targets) // 8
    even, odd = (np.bincount(targets[start::2], minlength=size) for start in (0, 1))
    return InvarianceReport(2 * even + odd, np.tile((16, 8), size // 2))


def preimage_map(level: int) -> np.ndarray:
    """preimage_targets(level), refused past the cell cap before it is built."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    refuse_cells(level + 1, f"level {level} preimage map")
    return preimage_targets(level)


def check_invariance(level: int, targets: np.ndarray | None = None) -> InvarianceReport:
    """Compare measure(preimage(B(j,8^m))) with measure(B(j,8^m)) for every j.

    Exact integer equality per class, weigh_fibres on the level's preimage
    map: targets when the caller has built it (verify builds it once for this
    check and the stochasticity check), else preimage_map(level).
    """
    return weigh_fibres(preimage_map(level) if targets is None else targets)
