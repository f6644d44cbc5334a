"""Branch table and map correctness, checked against the triple-step oracle."""

import pytest

from collatzmc import maps
from collatzmc.maps import (
    BRANCHES,
    MULTIPLIERS,
    OFFSETS,
    collatz_step,
    fixed_points_upto,
    third_iterate,
)


def triple_step(n):
    return collatz_step(collatz_step(collatz_step(n)))


def test_collatz_step_examples():
    assert collatz_step(6) == 3
    assert collatz_step(5) == 16
    assert collatz_step(1) == 4


def test_collatz_step_rejects_nonpositive():
    with pytest.raises(ValueError):
        collatz_step(0)
    with pytest.raises(ValueError):
        collatz_step(-3)


@pytest.mark.parametrize(
    "n, expected",
    [
        (3, 16),
        (7, 34),
        (1, 1),
        (2, 2),
        (4, 4),
        (11, 52),  # frozen from the triple-step oracle: 11 -> 34 -> 17 -> 52
    ],
)
def test_third_iterate_examples(n, expected):
    assert third_iterate(n) == expected
    assert triple_step(n) == expected


def test_third_iterate_rejects_nonpositive():
    with pytest.raises(ValueError):
        third_iterate(0)


def test_branch_table_constants():
    assert MULTIPLIERS == (1, 6, 6, 36, 6, 6, 6, 36)
    assert OFFSETS == (0, 2, 4, 20, 8, 2, 4, 20)
    assert tuple(b.base_image for b in BRANCHES) == (0, 1, 2, 16, 4, 4, 5, 34)


def test_branch_invariants():
    for branch in BRANCHES:
        assert branch.multiplier in (1, 6, 36)
        assert branch.offset in (0, 2, 4, 8, 20)
        assert (branch.multiplier * branch.index + branch.offset) % 8 == 0


def test_branch_integer_identities():
    # exact per-class identities of the closed form, over a decent range
    for n in range(1, 20_000):
        s = third_iterate(n)
        residue = n % 8
        assert 8 * s == MULTIPLIERS[residue] * n + OFFSETS[residue]
        if residue == 0:
            assert s * 8 == n


def test_oracle_equivalence_sampled():
    for n in range(1, 50_000):
        assert third_iterate(n) == triple_step(n)
    # huge inputs exercise exact big-integer arithmetic
    for n in (10**30 + 3, 10**30, 7**40 + 1):
        assert third_iterate(n) == triple_step(n)


def test_fixed_points():
    assert fixed_points_upto(100) == {1, 2, 4}
    assert fixed_points_upto(4) == {1, 2, 4}
    with pytest.raises(ValueError):
        fixed_points_upto(3)


def test_cycle_members():
    assert maps.CYCLE == {1, 2, 4}
