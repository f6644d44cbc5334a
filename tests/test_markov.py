"""Transition-matrix construction, stationarity, powers, and ergodicity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collatzmc import markov
from collatzmc.congruence import CongruenceClass, forward_split, preimage_targets
from collatzmc.errors import CapacityError, ConsistencyError
from collatzmc.markov import (
    TransitionMatrix,
    build_matrix,
    check_ergodicity,
    check_stochasticity,
    emit_chain_graph,
    kstep_measure_matrix,
    left_multiply,
    matrix_power,
    power_iteration,
    stationary_distribution,
)

H, Q, E = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
Z = Fraction(0)

# The 8-state transition matrix, dense golden copy.
EIGHT_STATE_GOLDEN = [
    [E, E, E, E, E, E, E, E],
    [Z, Q, Z, Q, Z, Q, Z, Q],
    [Q, Z, Q, Z, Q, Z, Q, Z],
    [H, Z, Z, Z, H, Z, Z, Z],
    [Q, Z, Q, Z, Q, Z, Q, Z],
    [Q, Z, Q, Z, Q, Z, Q, Z],
    [Z, Q, Z, Q, Z, Q, Z, Q],
    [Z, Z, H, Z, Z, Z, H, Z],
]


def eight_wide(columns):
    """Level-1 matrix whose row i is 8 copies of columns[i]: i -> columns[i] surely."""
    return TransitionMatrix(1, np.repeat(np.array(columns)[:, None], 8, axis=1))


def stationary_vector(level):
    """The 8^level stationary vector, built from the verified (even, odd) pair."""
    return list(stationary_distribution(build_matrix(level))) * (8**level // 2)


def test_level1_matches_golden():
    assert build_matrix(1).dense() == EIGHT_STATE_GOLDEN


def test_level1_row7():
    assert build_matrix(1).rows[7] == ((2, Fraction(1, 2)), (6, Fraction(1, 2)))


@pytest.fixture(scope="module")
def chains():
    return {level: build_matrix(level) for level in range(1, 6)}


@given(data=st.data())
def test_image_rows_equal_forward_split(chains, data):
    level = data.draw(st.integers(1, 5), label="level")
    i = data.draw(st.integers(0, 8**level - 1), label="i")
    expected = [image.residue for _, image in forward_split(CongruenceClass(i, level))]
    assert chains[level].images[i].tolist() == expected


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_images_are_the_preimage_map(level):
    # column h of row i is the image of B(i + 8^m*h, 8^(m+1)), which is entry
    # i + 8^m*h of the congruence-solved map; the in-degree check would miss
    # two rows trading columns
    assert np.array_equal(build_matrix(level).images, preimage_targets(level).reshape(8, -1).T)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_rows_stochastic(level):
    matrix = build_matrix(level)
    for row in matrix.rows:
        assert sum(p for _, p in row) == 1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_entries_are_eighths(level):
    for row in build_matrix(level).rows:
        for _, p in row:
            assert p * 8 in (1, 2, 4)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_forward_split_equals_measure_quotient(level):
    measured = kstep_measure_matrix(1, level)
    expected = tuple(tuple((j, p) for j, p in enumerate(row) if p) for row in measured)
    assert build_matrix(level).rows == expected


def test_level2_aggregates_to_level1():
    # weight rows by the stationary distribution within each base residue and
    # collapse columns mod 8: the coarse chain reappears
    fine = build_matrix(2)
    coarse = build_matrix(1).dense()
    stat = stationary_vector(2)
    for sigma in range(8):
        collapsed = [Fraction(0)] * 8
        group_mass = Fraction(0)
        for i in range(sigma, 64, 8):
            group_mass += stat[i]
            for j, p in fine.rows[i]:
                collapsed[j % 8] += stat[i] * p
        assert [x / group_mass for x in collapsed] == coarse[sigma]


@pytest.mark.parametrize("level", [1, 2])
def test_column_parity_sums(level):
    # per column j: right-multiplicity totals split by row parity
    matrix = build_matrix(level)
    size = matrix.size
    even_sums = [0] * size
    odd_sums = [0] * size
    for i, row in enumerate(matrix.rows):
        for j, p in row:
            n_ij = int(p * 8)
            if i % 2 == 0:
                even_sums[j] += n_ij
            else:
                odd_sums[j] += n_ij
    for j in range(size):
        assert even_sums[j] == (5 if j % 2 == 0 else 3)
        assert odd_sums[j] == (6 if j % 2 == 0 else 2)


class TestStochasticity:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_class_chain_passes(self, level):
        assert check_stochasticity(build_matrix(level))

    def test_moved_image_column_fails(self):
        images = build_matrix(2).images.copy()
        images[5, 3] = (images[5, 3] + 1) % 64
        assert not check_stochasticity(TransitionMatrix(2, images))

    def test_wrong_width_fails(self):
        images = build_matrix(1).images
        with pytest.raises(ValueError, match=r"expected a \(8, 8\) image array"):
            TransitionMatrix(1, np.hstack([images, images]))


class TestStationary:
    def test_level1_golden(self):
        assert stationary_distribution(build_matrix(1)) == (Fraction(1, 6), Fraction(1, 12))

    @pytest.mark.parametrize("level, even, odd", [(2, 48, 96), (3, 384, 768)])
    def test_higher_levels(self, level, even, odd):
        weights = stationary_distribution(build_matrix(level))
        assert weights == (Fraction(1, even), Fraction(1, odd))

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_exactly_stationary(self, level):
        vector = stationary_vector(level)
        assert left_multiply(vector, build_matrix(level)) == vector
        assert sum(vector) == 1

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_power_iteration_agrees(self, level):
        numeric = power_iteration(build_matrix(level))
        exact = stationary_vector(level)
        assert max(abs(float(w) - x) for w, x in zip(exact, numeric)) < 1e-12

    def test_detects_non_stationary_matrix(self):
        identity = eight_wide(range(8))
        with pytest.raises(ConsistencyError):
            stationary_distribution(identity)

    def test_exact_check_catches_one_moved_column(self, monkeypatch):
        # refused by the exact P*Q = P check before power iteration runs
        def iterate_nothing(matrix):
            raise AssertionError("power iteration ran")

        monkeypatch.setattr(markov, "power_iteration", iterate_nothing)
        images = build_matrix(2).images.copy()
        images[0, 0] = (images[0, 0] + 1) % 64
        with pytest.raises(ConsistencyError, match="not exactly stationary"):
            stationary_distribution(TransitionMatrix(2, images))

    def test_power_iteration_can_fail_to_converge(self, monkeypatch):
        # 0 and 1 swap and 2..7 feed 0, so the mass on 0 and 1 alternates 7/8, 1/8
        monkeypatch.setattr(markov, "POWER_MAX_ITER", 50)
        periodic = eight_wide([1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ConsistencyError, match="did not converge .* in 50 steps"):
            power_iteration(periodic)


class TestPowers:
    def test_first_power_is_identity_operation(self):
        base = build_matrix(1)
        assert matrix_power(base, 1) == base.dense()

    def test_square_has_uniform_floor(self):
        square = matrix_power(build_matrix(1), 2)
        for row in square:
            for entry in row:
                assert entry >= Fraction(1, 16)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("level", [1, 2])
    def test_measure_kstep_equals_power(self, level, k):
        # at level 2 the powers are 64 x 64 with denominators 8, 64 and 512
        assert kstep_measure_matrix(k, level) == matrix_power(build_matrix(level), k)

    def test_measure_kstep_at_the_cell_cap(self):
        # 8^7 residues mod 8^7 composed through six preimage maps
        assert kstep_measure_matrix(6) == matrix_power(build_matrix(1), 6)

    def test_measure_kstep_guards(self, monkeypatch):
        with pytest.raises(ValueError):
            kstep_measure_matrix(1, 0)
        with pytest.raises(ValueError):
            kstep_measure_matrix(0)

        # refused before a preimage map is built
        def build_nothing(level):
            raise AssertionError(f"built the preimage map at level {level}")

        monkeypatch.setattr(markov, "preimage_targets", build_nothing)
        # 8^(level+steps) residues, or a dense 8^level x 8^level result, above 8^7
        for steps, level in ((7, 1), (6, 3), (2, 4), (1, 4)):
            with pytest.raises(CapacityError):
                kstep_measure_matrix(steps, level)

    def test_capacity_guards(self):
        with pytest.raises(CapacityError):
            matrix_power(build_matrix(3), 2)
        with pytest.raises(CapacityError):
            matrix_power(build_matrix(1), 33)
        with pytest.raises(CapacityError):
            matrix_power(build_matrix(2), 6)
        with pytest.raises(ValueError):
            matrix_power(build_matrix(1), 0)


def brute_force_ergodicity(support: np.ndarray, bound: int) -> tuple:
    """The search of check_ergodicity on dense boolean matrix powers."""
    power = support
    for exponent in range(1, bound + 1):
        if power.all():
            return True, exponent, True
        nxt = (power.astype(int) @ support.astype(int)) > 0
        if np.array_equal(nxt, power):
            return False, None, True
        power = nxt
    return False, None, False


ROW_SUPPORT = st.one_of(st.sampled_from([1 << k for k in range(8)]), st.integers(1, 255))


class TestErgodicity:
    def test_level1_positive_at_two(self):
        result = check_ergodicity(build_matrix(1))
        assert result.positive and result.exponent == 2

    @pytest.mark.parametrize("level, exponent", [(3, 6), (4, 8)])
    def test_known_exponents(self, level, exponent):
        assert check_ergodicity(build_matrix(level)).exponent == exponent

    @given(masks=st.lists(ROW_SUPPORT, min_size=8, max_size=8))
    @example(masks=[1 << i for i in range(8)])  # identity
    @example(masks=[1 << ((i + 1) % 8) for i in range(8)])  # 8-cycle
    @example(masks=[0x0F] * 4 + [0xF0] * 4)  # two closed blocks
    def test_matches_brute_force_powers(self, masks):
        support = np.array([[(mask >> j) & 1 for j in range(8)] for mask in masks], dtype=bool)
        # each support's columns, repeated cyclically up to width 8
        images = [np.resize(np.flatnonzero(row), 8) for row in support]
        result = check_ergodicity(TransitionMatrix(1, images))
        assert (result.positive, result.exponent, result.conclusive) == brute_force_ergodicity(
            support, 16
        )

    def test_level2_positive(self):
        result = check_ergodicity(build_matrix(2))
        assert result.positive and result.exponent is not None

    def test_identity_is_not_ergodic(self):
        identity = eight_wide(range(8))
        result = check_ergodicity(identity)
        assert not result.positive and result.conclusive

    def test_bound_exhaustion_is_inconclusive(self):
        # two-state swap is periodic: its powers alternate and never settle,
        # so the search uses up its bound of 2 * 8 steps
        swap = eight_wide([7, 1, 2, 3, 4, 5, 6, 0])
        result = check_ergodicity(swap)
        assert not result.positive and not result.conclusive


class TestGraph:
    def test_golden_shape(self):
        text = emit_chain_graph(build_matrix(1))
        assert text.count("->") == 32
        for i in range(8):
            assert f'"B({i},8)"' in text
        assert 'label="1/8"' in text and 'label="1/2"' in text

    def test_level2(self):
        text = emit_chain_graph(build_matrix(2))
        assert text.count("->") == sum(len(r) for r in build_matrix(2).rows)


def test_build_capacity():
    with pytest.raises(CapacityError):
        build_matrix(6)
    with pytest.raises(ValueError):
        build_matrix(0)


def test_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(1, np.full((8, 8), 8))
    shapes = ((1, (7, 8)), (1, (8, 1)), (1, (8, 9)), (1, (64,)), (1, (8, 8, 1)), (2, (8, 8)))
    for level, shape in shapes:
        with pytest.raises(ValueError, match="image array"):
            TransitionMatrix(level, np.zeros(shape, dtype=int))
