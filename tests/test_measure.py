"""Exactness of the class measure and its invariance under preimages."""

from fractions import Fraction

import pytest

from collatzmc.congruence import ClassUnion, CongruenceClass, preimage_class
from collatzmc import measure
from collatzmc.errors import CapacityError
from collatzmc.measure import (
    check_invariance,
    measure_class,
    measure_integer,
    measure_union,
    nu,
)


def test_nu_values():
    assert nu(0) == Fraction(1, 6)
    assert nu(7) == Fraction(1, 12)
    assert sum(nu(s) for s in range(8)) == 1
    with pytest.raises(ValueError):
        nu(8)
    with pytest.raises(ValueError):
        nu(-1)


def test_measure_class_examples():
    assert measure_class(CongruenceClass(2, 1)) == Fraction(1, 6)
    assert measure_class(CongruenceClass(9, 2)) == Fraction(1, 96)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_normalization(level):
    total = sum(measure_class(CongruenceClass(i, level)) for i in range(8**level))
    assert total == 1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_refinement_consistency(level):
    for i in range(8**level):
        coarse = measure_class(CongruenceClass(i, level))
        fine = sum(
            measure_class(CongruenceClass(i + 8**level * h, level + 1)) for h in range(8)
        )
        assert coarse == fine


def test_measure_integer_examples():
    assert measure_integer(2, 1) == Fraction(1, 12)
    assert measure_integer(10, 1) == Fraction(1, 24)
    with pytest.raises(ValueError):
        measure_integer(0, 1)
    with pytest.raises(ValueError, match="level must be >= 1"):
        measure_integer(9, 0)


@pytest.mark.parametrize("level", [1, 2])
def test_geometric_sum_converges_to_class_measure(level):
    # classes with residue >= 1: summing 1 + K member weights leaves an
    # exact geometric tail nu * 2^{-(K+1)} / 8^{m-1}
    modulus = 8**level
    for residue in (1, 2, 5, modulus - 1):
        cls = CongruenceClass(residue, level)
        target = measure_class(cls)
        partial = Fraction(0)
        previous = Fraction(-1)
        for k in range(12):
            partial += measure_integer(residue + k * modulus, level)
            assert previous < partial < target
            previous = partial
            upper_n = residue + k * modulus
            assert target - partial <= target * Fraction(1, 2 ** (upper_n // modulus))
        assert target - partial == nu(residue & 7) / (2**12 * 8 ** (level - 1))


def test_measure_union_examples():
    assert measure_union(preimage_class(CongruenceClass(1, 1))) == Fraction(1, 12)
    assert measure_union(preimage_class(CongruenceClass(0, 1))) == Fraction(1, 6)
    assert measure_union(ClassUnion(1, ())) == 0


@pytest.mark.parametrize("level", [1, 2, 3])
def test_invariance_exact(level):
    report = check_invariance(level)
    assert report.passed and report.exact.all()
    # the integer counts are the Fraction measures in units of 1/(12*8^m)
    unit = 12 * 8**level
    for j, (got, want) in enumerate(zip(report.preimage.tolist(), report.measure.tolist())):
        target = CongruenceClass(j, level)
        assert Fraction(got, unit) == measure_union(preimage_class(target))
        assert Fraction(want, unit) == measure_class(target)


def test_invariance_level_cap():
    # level 6 is the last whose preimage map, 8^7 cells, is under the cell cap
    for level in (4, 6):
        report = check_invariance(level)
        assert report.passed and len(report.preimage) == 8**level


def test_invariance_hard_ceiling(monkeypatch):
    # refused before the preimage map is built
    def build_nothing(level):
        raise AssertionError(f"built the preimage map at level {level}")

    monkeypatch.setattr(measure, "preimage_targets", build_nothing)
    for level in (7, 9):
        with pytest.raises(CapacityError):
            check_invariance(level)


def test_invariance_rejects_bad_level():
    with pytest.raises(ValueError):
        check_invariance(0)
