"""The Collatz map, its third iterate, and the mod-8 branch table.

The third iterate of the Collatz map acts on a positive integer n as an
affine map (multiplier*n + offset) / 8 whose coefficients depend only on
n mod 8.  Everything downstream (preimages, measures, transition matrices)
is driven by that branch table.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The only values the third iterate can fix; also the 3-cycle of the Collatz map.
CYCLE = frozenset({1, 2, 4})


@dataclass(frozen=True)
class AffineBranch:
    """One branch of the third-iterate map: n -> (multiplier*n + offset) / 8."""

    index: int
    multiplier: int
    offset: int

    @property
    def base_image(self) -> int:
        """Image of the branch's own residue, (multiplier*index + offset) / 8."""
        return (self.multiplier * self.index + self.offset) // 8


#: Branch coefficients of the third iterate, indexed by n mod 8.
BRANCHES: tuple[AffineBranch, ...] = (
    AffineBranch(0, 1, 0),
    AffineBranch(1, 6, 2),
    AffineBranch(2, 6, 4),
    AffineBranch(3, 36, 20),
    AffineBranch(4, 6, 8),
    AffineBranch(5, 6, 2),
    AffineBranch(6, 6, 4),
    AffineBranch(7, 36, 20),
)

MULTIPLIERS = tuple(b.multiplier for b in BRANCHES)
OFFSETS = tuple(b.offset for b in BRANCHES)


def collatz_step(n: int) -> int:
    """One Collatz step: n/2 for even n, 3n+1 for odd n.

    Exact for arbitrarily large n (native big integers; no overflow).
    """
    if n < 1:
        raise ValueError(f"collatz_step requires n >= 1, got {n}")
    return n // 2 if n % 2 == 0 else 3 * n + 1


def third_iterate(n: int) -> int:
    """Apply the Collatz map three times via the closed mod-8 branch form."""
    if n < 1:
        raise ValueError(f"third_iterate requires n >= 1, got {n}")
    b = BRANCHES[n & 7]
    return (b.multiplier * n + b.offset) >> 3


def fixed_points_upto(limit: int) -> set[int]:
    """All n <= limit fixed by the third iterate (expected: {1, 2, 4})."""
    if limit < 4:
        raise ValueError(f"limit must be >= 4, got {limit}")
    return {n for n in range(1, limit + 1) if third_iterate(n) == n}
