"""Residue classes mod 8^m and their exact preimages under the third iterate.

The preimage of a class B(j, 8^m) is always a disjoint union of classes one
level finer (mod 8^{m+1}); its members are found by solving one linear
congruence per branch of the map.  These preimages partition the finer level,
so one array (preimage_targets) holds them all, solved for every class at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import BRANCHES


@dataclass(frozen=True)
class CongruenceClass:
    """The residue class B(residue, 8^level): all n >= 0 with n = residue + k*8^level."""

    residue: int
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if not 0 <= self.residue < 8**self.level:
            raise ValueError(f"residue {self.residue} out of range for level {self.level}")

    @property
    def modulus(self) -> int:
        return 8**self.level

    @property
    def base_residue(self) -> int:
        """residue mod 8; selects the branch of the map acting on this class."""
        return self.residue & 7

    @property
    def is_odd(self) -> bool:
        return self.residue % 2 == 1

    def contains(self, n: int) -> bool:
        return n >= 0 and n % self.modulus == self.residue

    def label(self) -> str:
        return f"B({self.residue},{self.modulus})"


@dataclass(frozen=True)
class ClassUnion:
    """A disjoint union of classes at a common level, kept sorted by residue."""

    level: int
    members: tuple[CongruenceClass, ...]

    def __post_init__(self):
        residues = [c.residue for c in self.members]
        if any(c.level != self.level for c in self.members):
            raise ValueError("all members must share the union's level")
        if len(set(residues)) != len(residues):
            raise ValueError("members must be pairwise disjoint (distinct residues)")
        if residues != sorted(residues):
            object.__setattr__(self, "members", tuple(sorted(self.members, key=lambda c: c.residue)))

    def __iter__(self):
        return iter(self.members)

    def even_count(self) -> int:
        return sum(1 for c in self.members if not c.is_odd)

    def odd_count(self) -> int:
        return sum(1 for c in self.members if c.is_odd)

    def residues(self) -> tuple[int, ...]:
        return tuple(c.residue for c in self.members)


def solve_linear_congruence(a: int, b: int, modulus: int) -> tuple[int, ...]:
    """All x in [0, modulus) with a*x = b (mod modulus), sorted.

    Empty iff gcd(a, modulus) does not divide b; otherwise exactly
    gcd(a, modulus) solutions.  The right-hand side may be negative.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    b %= modulus
    d = math.gcd(a, modulus)
    if b % d != 0:
        return ()
    reduced = modulus // d
    x0 = (b // d) * pow(a // d, -1, reduced) % reduced
    return tuple(x0 + t * reduced for t in range(d))


def preimage_class(target: CongruenceClass) -> ClassUnion:
    """Preimage of B(j, 8^m) under the third iterate, as classes mod 8^{m+1}.

    A finer-level residue l = i + 8h (branch i, shift h) maps into the target
    iff multiplier_i * h = j - base_image_i (mod 8^m).  Even targets always
    yield 5 even and 6 odd members; odd targets yield 3 and 2.
    """
    level_mod = target.modulus
    members = []
    for branch in BRANCHES:
        rhs = target.residue - branch.base_image
        for h in solve_linear_congruence(branch.multiplier, rhs, level_mod):
            members.append(CongruenceClass(branch.index + 8 * h, target.level + 1))
    return ClassUnion(target.level + 1, tuple(members))


def preimage_targets(level: int) -> np.ndarray:
    """Entry r is the j mod 8^level whose preimage_class holds B(r, 8^{level+1}).

    Per branch, preimage_class's congruence is solved for all j at once: with
    d = gcd(multiplier, 8^level), each j with d | j - base_image gets d shifts
    h.  Callers bound the level: the array has 8^{level+1} int64 entries.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    modulus = 8**level
    targets = np.full(8 * modulus, -1, dtype=np.int64)
    classes = np.arange(modulus, dtype=np.int64)
    for branch in BRANCHES:
        d = math.gcd(branch.multiplier, modulus)
        reduced = modulus // d
        j = classes[(classes - branch.base_image) % d == 0]
        inverse = pow(branch.multiplier // d, -1, reduced)
        h = (j - branch.base_image) % modulus // d * inverse % reduced
        for t in range(d):
            targets[branch.index + 8 * (h + t * reduced)] = j
    return targets


def forward_split(source: CongruenceClass) -> list[tuple[CongruenceClass, CongruenceClass]]:
    """Split B(i, 8^m) into its 8 refining subclasses and their image classes.

    The subclass B(i + 8^m*h', 8^{m+1}) maps entirely into one class mod 8^m,
    with residue (base + multiplier*8^{m-1}*h') mod 8^m where base is the image
    of the subclass h' = 0.  Transition probabilities are the image
    multiplicities divided by 8.
    """
    branch = BRANCHES[source.base_residue]
    modulus = source.modulus
    base = (branch.multiplier * source.residue + branch.offset) // 8
    stride = branch.multiplier * 8 ** (source.level - 1)
    pairs = []
    for shift in range(8):
        subclass = CongruenceClass(source.residue + modulus * shift, source.level + 1)
        image = CongruenceClass((base + stride * shift) % modulus, source.level)
        pairs.append((subclass, image))
    return pairs


__all__ = [
    "CongruenceClass",
    "ClassUnion",
    "solve_linear_congruence",
    "preimage_class",
    "preimage_targets",
    "forward_split",
]
