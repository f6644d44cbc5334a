"""Congruence solving and preimage/forward-split structure.

Golden preimage lists are the known unions of classes mod 64; every one of
them is also re-derived here by direct enumeration.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzmc.congruence import (
    ClassUnion,
    CongruenceClass,
    forward_split,
    preimage_class,
    preimage_targets,
    solve_linear_congruence,
)
from collatzmc.maps import third_iterate
from collatzmc.measure import measure_class, measure_union

# Preimage of each B(j, 8) as residues mod 64, sorted.
PREIMAGE_RESIDUES_MOD64 = {
    0: (0, 3, 10, 19, 20, 21, 35, 42, 51, 52, 53),
    1: (1, 8, 22, 33, 54),
    2: (2, 7, 12, 13, 16, 23, 34, 39, 44, 45, 55),
    3: (14, 24, 25, 46, 57),
    4: (4, 5, 11, 26, 27, 32, 36, 37, 43, 58, 59),
    5: (6, 17, 38, 40, 49),
    6: (15, 18, 28, 29, 31, 47, 48, 50, 60, 61, 63),
    7: (9, 30, 41, 56, 62),
}


def brute_preimage_residues(j, level):
    """Enumeration oracle: residues l mod 8^{level+1} whose members map into B(j, 8^level)."""
    fine = 8 ** (level + 1)
    return tuple(
        sorted({n % fine for n in range(1, 8 * fine) if third_iterate(n) % 8**level == j})
    )


class TestSolveLinearCongruence:
    def test_known_cases(self):
        assert solve_linear_congruence(6, -2, 8) == (1, 5)
        assert solve_linear_congruence(1, 0, 8) == (0,)
        assert solve_linear_congruence(36, -16, 8) == (0, 2, 4, 6)
        assert solve_linear_congruence(6, 1, 8) == ()

    def test_solution_count_is_gcd(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                for modulus in range(2, 14):
                    got = solve_linear_congruence(a, b, modulus)
                    expected = tuple(x for x in range(modulus) if (a * x - b) % modulus == 0)
                    assert got == expected
                    d = math.gcd(a % modulus, modulus)
                    assert len(got) == (d if b % d == 0 else 0)

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            solve_linear_congruence(1, 0, 1)


class TestCongruenceClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            CongruenceClass(8, 1)
        with pytest.raises(ValueError):
            CongruenceClass(0, 0)
        with pytest.raises(ValueError):
            CongruenceClass(-1, 1)

    def test_accessors(self):
        cls = CongruenceClass(22, 2)
        assert cls.modulus == 64
        assert cls.base_residue == 6
        assert not cls.is_odd
        assert cls.contains(22) and cls.contains(86) and not cls.contains(23)
        assert cls.label() == "B(22,64)"


class TestClassUnion:
    def test_sorts_members(self):
        union = ClassUnion(1, (CongruenceClass(5, 1), CongruenceClass(2, 1)))
        assert union.residues() == (2, 5)
        assert union.even_count() == 1 and union.odd_count() == 1

    def test_rejects_duplicates_and_mixed_levels(self):
        with pytest.raises(ValueError):
            ClassUnion(1, (CongruenceClass(5, 1), CongruenceClass(5, 1)))
        with pytest.raises(ValueError):
            ClassUnion(1, (CongruenceClass(5, 2),))


class TestPreimage:
    @pytest.mark.parametrize("j", range(8))
    def test_level1_golden(self, j):
        union = preimage_class(CongruenceClass(j, 1))
        assert union.level == 2
        assert union.residues() == PREIMAGE_RESIDUES_MOD64[j]

    @pytest.mark.parametrize("level", [1, 2])
    def test_matches_enumeration(self, level):
        for j in range(8**level):
            union = preimage_class(CongruenceClass(j, level))
            assert union.residues() == brute_preimage_residues(j, level)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_parity_counts(self, level):
        for j in range(8**level):
            union = preimage_class(CongruenceClass(j, level))
            if j % 2 == 0:
                assert (union.even_count(), union.odd_count()) == (5, 6)
            else:
                assert (union.even_count(), union.odd_count()) == (3, 2)

    @pytest.mark.parametrize("level", [1, 2])
    def test_partition_property(self, level):
        seen = []
        for j in range(8**level):
            seen.extend(preimage_class(CongruenceClass(j, level)).residues())
        assert sorted(seen) == list(range(8 ** (level + 1)))



@pytest.fixture(scope="module")
def target_maps():
    return {level: preimage_targets(level) for level in range(1, 6)}


class TestPreimageTargets:
    @given(data=st.data())
    def test_matches_preimage_class(self, target_maps, data):
        level = data.draw(st.integers(1, 5), label="level")
        j = data.draw(st.integers(0, 8**level - 1), label="j")
        targets = target_maps[level]
        assert targets.dtype == np.int64 and len(targets) == 8 ** (level + 1)
        assert targets.min() >= 0
        union = preimage_class(CongruenceClass(j, level))
        members = np.flatnonzero(targets == j).tolist()
        assert tuple(members) == union.residues()
        total = sum((measure_class(CongruenceClass(r, level + 1)) for r in members), Fraction(0))
        assert total == measure_union(union) == measure_class(CongruenceClass(j, level))

    def test_two_maps_compose(self):
        twice = preimage_targets(1)[preimage_targets(2)]
        # every residue mod 8^3 lands in its class mod 8 after two applications
        assert twice[1:].tolist() == [third_iterate(third_iterate(n)) % 8 for n in range(1, 512)]
        # the twofold preimage of B(1,8) is the preimage of its preimage's members
        once = preimage_class(CongruenceClass(1, 1))
        expected = sorted(r for member in once for r in preimage_class(member).residues())
        assert np.flatnonzero(twice == 1).tolist() == expected

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            preimage_targets(0)


class TestForwardSplit:
    def test_class0_images_cover_everything(self):
        images = [img.residue for _, img in forward_split(CongruenceClass(0, 1))]
        assert sorted(images) == list(range(8))

    def test_class3_images(self):
        images = [img.residue for _, img in forward_split(CongruenceClass(3, 1))]
        assert sorted(images) == [0, 0, 0, 0, 4, 4, 4, 4]

    def test_subclasses_and_images_match_map(self):
        # image class of each subclass agrees with the map on actual members
        for level in (1, 2):
            for residue in range(0, 8**level, 7):
                source = CongruenceClass(residue, level)
                for subclass, image in forward_split(source):
                    for n in (subclass.residue, subclass.residue + subclass.modulus):
                        if n >= 1:
                            assert third_iterate(n) % source.modulus == image.residue

    def test_level2_multiplicities(self):
        images = [img.residue for _, img in forward_split(CongruenceClass(1, 2))]
        multiplicity = {r: images.count(r) for r in set(images)}
        assert all(m in (2, 4) for m in multiplicity.values())
        assert sum(multiplicity.values()) == 8

    @pytest.mark.parametrize("level", [1, 2])
    def test_mutual_consistency_with_preimage(self, level):
        fine = 8 ** (level + 1)
        forward_map = {}
        for i in range(8**level):
            for subclass, image in forward_split(CongruenceClass(i, level)):
                forward_map[subclass.residue] = image.residue
        for j in range(8**level):
            members = set(preimage_class(CongruenceClass(j, level)).residues())
            for l in range(fine):
                assert (forward_map[l] == j) == (l in members)
