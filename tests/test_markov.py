"""Transition-matrix construction, stationarity, powers, and ergodicity."""

import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from collatzmc import markov, measure
from collatzmc.congruence import CongruenceClass, forward_split, preimage_targets
from collatzmc.errors import CapacityError, ConsistencyError
from collatzmc.maps import MULTIPLIERS, OFFSETS
from collatzmc.markov import (
    TransitionMatrix,
    build_matrix,
    check_ergodicity,
    check_stochasticity,
    emit_chain_graph,
    emit_stationary,
    emit_triplets,
    kstep_measure_matrix,
    left_multiply,
    matrix_power,
    power_iteration,
    stationary_distribution,
)
from collatzmc.measure import alternating_weights, check_invariance, weigh_fibres

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
    return TransitionMatrix(np.repeat(np.array(columns)[:, None], 8, axis=1))


def stationary_vector(level):
    """The 8^level stationary vector, built from the verified (even, odd) pair."""
    return list(stationary_distribution(build_matrix(level))) * (8**level // 2)


def test_level1_matches_golden():
    assert build_matrix(1).dense() == EIGHT_STATE_GOLDEN


def test_dense_entry_of_a_whole_row():
    # every column of a row on one class: the count equals the width
    rows = eight_wide([1, 2, 3, 4, 5, 6, 7, 0]).dense()
    assert rows == [[Fraction(int(j == (i + 1) % 8)) for j in range(8)] for i in range(8)]


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
    # i + 8^m*h of the congruence-solved map
    assert np.array_equal(build_matrix(level).images, preimage_targets(level).reshape(8, -1).T)


def test_build_memory_is_the_image_array():
    """build_matrix(6) writes Q(6) into one intp array of 8^7 cells (16 MiB)
    and hands it to TransitionMatrix uncopied: it traces 18.4 MiB, where
    three full-size temporaries and the constructor's copy traced 40.1."""
    tracemalloc.start()
    try:
        matrix = build_matrix(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
    # (base + stride*h) mod 8^m, row for row, as the docstring states it
    size = 8**6
    residues = np.arange(size)
    multiplier = np.array(MULTIPLIERS)[residues & 7]
    base = (multiplier * residues + np.array(OFFSETS)[residues & 7]) >> 3
    expected = (base[:, None] + multiplier[:, None] * 8**5 * np.arange(8)) % size
    assert matrix.images.dtype == np.intp and not matrix.images.flags.writeable
    assert np.array_equal(matrix.images, expected)


def test_caller_images_are_copied():
    images = build_matrix(2).images.copy()
    matrix = TransitionMatrix(images)
    assert not np.shares_memory(matrix.images, images) and images.flags.writeable
    images[0, 0] += 1  # the caller's array stays the caller's
    assert np.array_equal(matrix.images, build_matrix(2).images)


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
    # the one-step measure quotient lists each row's forward images
    assert np.array_equal(kstep_measure_matrix(1, level), np.sort(build_matrix(level).images, axis=1))


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
        assert not check_stochasticity(TransitionMatrix(images))

    def test_rows_trading_columns_fail(self):
        # every column in-degree is unchanged, but B(0) and B(1) no longer map
        # their own subclasses
        images = build_matrix(2).images.copy()
        images[[0, 1], 0] = images[[1, 0], 0]
        assert images[0, 0] != images[1, 0]
        assert not check_stochasticity(TransitionMatrix(images))

    def test_memory_at_level_6_is_the_preimage_map(self):
        # Q(6) is built before tracing starts.  The check compares Q(6)'s
        # image array in place with the 16 MiB preimage map, whose build is
        # the whole 26.0 MiB traced; 42.0 while it first copied the image
        # array into a transposed class map
        matrix = build_matrix(6)
        tracemalloc.start()
        try:
            passed = check_stochasticity(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < 32 * 2**20

    def test_wrong_width_fails(self):
        images = build_matrix(1).images
        with pytest.raises(ValueError, match=r"image array, m >= 1, got shape \(8, 16\)"):
            TransitionMatrix(np.hstack([images, images]))


def image_arrays(level):
    """Random (8^level, 8) image arrays, and Q(level) with the columns of its
    even rows shuffled among themselves and those of its odd rows too, which
    keeps every class's inflow from each parity, so P*Q = P still holds."""
    size = 8**level
    images = build_matrix(level).images

    def reassemble(even, odd):
        shuffled = np.empty((size, 8), dtype=int)
        shuffled[0::2], shuffled[1::2] = np.reshape(even, (-1, 8)), np.reshape(odd, (-1, 8))
        return shuffled

    columns = st.integers(0, size - 1)
    uniform = st.lists(columns, min_size=8 * size, max_size=8 * size).map(lambda c: np.reshape(c, (size, 8)))
    parity_shuffles = st.builds(
        reassemble,
        st.permutations(images[0::2].ravel().tolist()),
        st.permutations(images[1::2].ravel().tolist()),
    )
    return st.one_of(uniform, parity_shuffles)


#: Q(2) with one image column of row 0 moved to the next class.
MOVED_Q2 = build_matrix(2).images.copy()
MOVED_Q2[0, 0] = (MOVED_Q2[0, 0] + 1) % 64


class TestStationary:
    @given(images=st.sampled_from([1, 2]).flatmap(image_arrays))
    @example(images=build_matrix(1).images)
    @example(images=build_matrix(2).images)
    @example(images=MOVED_Q2)
    def test_fibre_weights_decide_stationarity(self, images):
        # the integer invariance identity on the class map and the exact
        # Fraction product P*Q = P accept the same matrices
        matrix = TransitionMatrix(images)
        vector = list(alternating_weights(matrix.level)) * (matrix.size // 2)
        fibres = weigh_fibres(matrix.images.T.ravel())
        assert fibres.passed == (left_multiply(vector, matrix) == vector)

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

    @pytest.mark.parametrize(
        "level, weights",
        [(1, [1] + [0] * 7), (2, np.random.default_rng(0).integers(-1000, 1000, 64).tolist())],
        ids=["m1-unit", "m2-random"],
    )
    def test_integer_weights_give_exact_fractions(self, level, weights):
        matrix = build_matrix(level)
        expected = [Fraction(0)] * matrix.size
        for weight, row in zip(weights, matrix.rows):
            for j, p in row:
                expected[j] += weight * p
        product = left_multiply(weights, matrix)
        assert all(type(entry) is Fraction for entry in product)
        assert product == expected

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
        with pytest.raises(ConsistencyError, match="not exactly stationary"):
            stationary_distribution(TransitionMatrix(MOVED_Q2))

    def test_power_iteration_can_fail_to_converge(self, monkeypatch):
        # 0 and 1 swap and 2..7 feed 0, so the mass on 0 and 1 alternates 7/8, 1/8
        monkeypatch.setattr(markov, "POWER_MAX_ITER", 50)
        periodic = eight_wide([1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ConsistencyError, match="did not converge .* in 50 steps"):
            power_iteration(periodic)


def row_counts(images, size):
    """Entry (i, j): occurrences of column j in row i of an image array."""
    rows = np.arange(len(images))[:, None]
    return np.bincount((rows * size + images).ravel(), minlength=len(images) * size).reshape(-1, size)


class TestPowers:
    def test_first_power_is_identity_operation(self):
        base = build_matrix(1)
        assert np.array_equal(matrix_power(base, 1), np.sort(base.images, axis=1))

    def test_power_is_the_sorted_image_array(self):
        # row i of Q^2 holds column j (Q*Q)[i, j] * 64 times, in order
        square = matrix_power(build_matrix(1), 2)
        golden = EIGHT_STATE_GOLDEN
        product = [[64 * sum(p * golden[h][j] for h, p in enumerate(row)) for j in range(8)] for row in golden]
        assert square.shape == (8, 64) and (np.diff(square, axis=1) >= 0).all()
        assert row_counts(square, 8).tolist() == product

    def test_square_has_uniform_floor(self):
        # each class at least 4 times in 64 columns: every entry >= 1/16
        assert (row_counts(matrix_power(build_matrix(1), 2), 8) >= 4).all()

    @pytest.mark.parametrize("level, k", [(m, k) for m in (1, 2, 3) for k in range(1, 8 - m)] + [(6, 1)])
    def test_measure_kstep_equals_power(self, level, k):
        # up to 8^7 cells: at (1, 6), 8^7 residues composed through six
        # preimage maps; at (6, 1), the preimage map of Q(6) itself
        measured = kstep_measure_matrix(k, level)
        assert measured.shape == (8**level, 8**k)
        assert np.array_equal(measured, matrix_power(build_matrix(level), k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_measure_kstep_differs_from_a_corrupt_power(self, k):
        assert not np.array_equal(kstep_measure_matrix(k, 2), matrix_power(TransitionMatrix(MOVED_Q2), k))

    def test_measure_kstep_guards(self, monkeypatch):
        with pytest.raises(ValueError):
            kstep_measure_matrix(1, 0)
        with pytest.raises(ValueError):
            kstep_measure_matrix(0)

        # refused before a preimage map is built
        def build_nothing(level):
            raise AssertionError(f"built the preimage map at level {level}")

        monkeypatch.setattr(markov, "preimage_targets", build_nothing)
        # 8^(level+steps) residues above 8^7, named by the exponent: 8^5001
        # has more digits than an int prints, and 8^(10^9) holds 375 MB of bits
        for steps, level in ((7, 1), (6, 3), (4, 4), (2, 6), (5000, 1), (10**9, 1)):
            with pytest.raises(CapacityError, match=rf"8\^{level + steps} cells, cap 8\^7"):
                kstep_measure_matrix(steps, level)

    def test_capacity_guards(self):
        for level, exponent in ((3, 5), (5, 3), (1, 7), (2, 6), (1, 5000), (1, 10**9)):
            with pytest.raises(CapacityError, match=rf"8\^{level + exponent} cells"):
                matrix_power(build_matrix(level), exponent)
        with pytest.raises(ValueError):
            matrix_power(build_matrix(1), 0)


def brute_force_ergodicity(support: np.ndarray) -> np.ndarray:
    """Each row's first all-positive exponent, from dense boolean matrix powers."""
    rows = np.zeros(len(support), dtype=int)
    power = support
    for exponent in range(1, 2 * len(support) + 1):
        rows[(rows == 0) & power.all(axis=1)] = exponent
        if rows.all():
            return rows
        power = (power.astype(int) @ support.astype(int)) > 0
    raise AssertionError("some row is not all positive at exponent 2 * size")


def bitmask_ergodicity(matrix: TransitionMatrix) -> np.ndarray:
    """Each row's first all-positive exponent, by the search on row supports
    packed into bitmasks, 8 states per byte, column c as bit c & 7 of byte
    c >> 3: row i of Q^(e+1) = Q * Q^e is the union of the Q^e supports of
    its 8 image columns.  8^m x 8^m / 8 bytes per power, so m <= 4 only."""
    size, images = matrix.size, matrix.images
    current = np.zeros((size, size // 8), dtype=np.uint8)
    states = np.arange(size)
    for column in images.T:  # one column at a time: two may set bits of one byte
        current[states, column >> 3] |= (1 << (column & 7)).astype(np.uint8)
    rows = np.zeros(size, dtype=int)
    for exponent in range(1, 2 * size + 1):
        rows[(rows == 0) & (current == 0xFF).all(axis=1)] = exponent
        if rows.all():
            return rows
        nxt = current[images[:, 0]]
        for column in images.T[1:]:
            nxt |= current[column]
        current = nxt
    raise AssertionError("some row is not all positive at exponent 2 * size")


def image_column_descent(level: int) -> np.ndarray:
    """Each row's first all-positive exponent by the 2-adic class descent,
    reading T3(c) mod 8^m off column 0 of Q(m)'s image array, the class of
    B(c, 8^(m+1)), and finishing on Q(1)'s row supports as check_ergodicity
    does."""
    images = build_matrix(level).images
    twos = np.array([(m & -m).bit_length() - 1 for m in MULTIPLIERS])
    c, v = np.arange(len(images)), np.full(len(images), 3 * level)
    rows = np.zeros(len(images), dtype=int)
    while (live := v > 3).any():
        rows += live
        v = np.where(live, v - 3 + twos[c & 7], v)
        c = np.where(live, images[c, 0], c)
    keys, finish = np.arange(32), np.zeros(32, dtype=int)
    marks = np.eye(8, dtype=bool)
    reached = marks[((keys & 7)[:, None] + (1 << (keys >> 3))[:, None] * np.arange(8)) & 7].any(axis=1)
    support = marks[build_matrix(1).images].any(axis=1)
    while not (full := reached.all(axis=1)).all():
        finish += ~full
        reached = reached @ support
    return rows + finish[8 * v + (c & 7)]


class TestErgodicity:
    def test_level1_positive_at_two(self):
        result = check_ergodicity(1)
        assert result.exponent == 2
        assert str(result) == "all entries positive at exponent 2"

    @pytest.mark.parametrize("level, exponent", [(1, 2), (2, 4), (3, 6), (4, 8), (5, 10), (6, 12)])
    def test_known_exponents(self, level, exponent):
        # at these levels the first strictly positive power of Q(m) is Q(m)^(2m)
        assert check_ergodicity(level).exponent == exponent

    @pytest.mark.parametrize("level, attaining", [(1, 7), (2, 22), (3, 46), (4, 79)])
    def test_rows_match_bitmask_search(self, level, attaining):
        rows = check_ergodicity(level).rows
        assert np.array_equal(rows, bitmask_ergodicity(build_matrix(level)))
        assert rows.max() == 2 * level and np.count_nonzero(rows == 2 * level) == attaining

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_rows_match_the_image_column_descent(self, level):
        # the branch-table step equals column 0 of Q(m) row for row, where
        # the bitmask search above stops at m = 4
        assert np.array_equal(check_ergodicity(level).rows, image_column_descent(level))

    @pytest.mark.parametrize("level", [1, 2])
    def test_bitmask_search_matches_dense_powers(self, level):
        matrix = build_matrix(level)
        support = np.zeros((matrix.size, matrix.size), dtype=bool)
        support[np.arange(matrix.size)[:, None], matrix.images] = True
        assert np.array_equal(bitmask_ergodicity(matrix), brute_force_ergodicity(support))

    @pytest.mark.parametrize("level, attaining", [(5, 121), (6, 172)])
    def test_rows_attaining_the_exponent(self, level, attaining):
        # the bitmask search is out of reach here; 7, 22, 46 and 79 at m = 1-4 above
        rows = check_ergodicity(level).rows
        assert rows.max() == 2 * level and np.count_nonzero(rows == 2 * level) == attaining

    def test_memory_is_bounded_at_level_5(self):
        # Q(5) and one (class, valuation) pair and one 8-residue set per row,
        # where row-support bitmasks would take 8^5 * 8^5 / 8 bytes = 128 MiB
        tracemalloc.start()
        try:
            result = check_ergodicity(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exponent == 10
        assert peak < 16 * 2**20

    def test_memory_is_bounded_at_level_6(self):
        # one (class, valuation) pair and one row exponent per class, 8^6
        # each: the search traces 12.3 MiB.  It traced 28.3 MiB while it
        # built Q(6), 8^7 image cells (16 MiB), to read column 0, and 40.1
        # while build_matrix made three full-size temporaries.  Row-support
        # bitmasks would take 8^6 * 8^6 / 8 bytes = 8 GiB
        tracemalloc.start()
        try:
            result = check_ergodicity(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exponent == 12
        assert peak < 16 * 2**20

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            check_ergodicity(0)
        with pytest.raises(CapacityError):
            check_ergodicity(7)


def clumped_image_arrays(level):
    """Random (8^level, 8) image arrays over a few classes, so that rows
    repeat columns (counts 2-8)."""
    size = 8**level
    classes = st.lists(st.integers(0, size - 1), min_size=1, max_size=9, unique=True)
    return classes.flatmap(lambda c: arrays(np.intp, (size, 8), elements=st.sampled_from(c)))


class TestGraph:
    def test_golden_shape(self):
        text = "".join(emit_chain_graph(build_matrix(1)))
        assert text.count("->") == 32
        for i in range(8):
            assert f'"B({i},8)"' in text
        assert 'label="1/8"' in text and 'label="1/2"' in text

    def test_level2(self):
        text = "".join(emit_chain_graph(build_matrix(2)))
        assert text.count("->") == sum(len(r) for r in build_matrix(2).rows)

    @given(images=st.integers(1, 3).flatmap(clumped_image_arrays))
    @example(images=np.zeros((8, 8), dtype=int))
    @example(images=build_matrix(1).images)
    @example(images=build_matrix(3).images)
    def test_lines_match_the_line_reference(self, images):
        matrix = TransitionMatrix(images)
        name = [f'"B({i},{matrix.size})"' for i in range(matrix.size)]
        reference = ["digraph residue_chain {\n", "  rankdir=LR;\n"]
        reference += [f"  {name[i]};\n" for i in range(matrix.size)]
        reference += [
            f'  {name[i]} -> {name[j]} [label="{p}"];\n'
            for i, row in enumerate(matrix.rows)
            for j, p in row
        ]
        reference.append("}\n")
        assert "".join(emit_chain_graph(matrix)).splitlines(keepends=True) == reference


class TestText:
    @given(images=st.integers(1, 3).flatmap(clumped_image_arrays))
    @example(images=np.zeros((8, 8), dtype=int))
    @example(images=build_matrix(1).images)
    @example(images=build_matrix(3).images)
    def test_triplets_match_the_line_reference(self, images):
        matrix = TransitionMatrix(images)
        reference = [f"{i} {j} {markov.EIGHTHS[c]}\n" for i, j, c in zip(*map(list, matrix.runs()))]
        # lists, not one string: pytest reports the first differing line
        assert "".join(emit_triplets(matrix)).splitlines(keepends=True) == reference

    @given(level=st.integers(1, 5), weights=st.tuples(st.fractions(), st.fractions()))
    @example(level=5, weights=(Fraction(1, 6 * 8**4), Fraction(1, 12 * 8**4)))
    def test_stationary_lines_match_the_line_reference(self, level, weights):
        labels = [str(w) for w in weights]
        reference = [f"{i} {labels[i & 1]}\n" for i in range(8**level)]
        assert "".join(emit_stationary(level, weights)).splitlines(keepends=True) == reference


@pytest.mark.parametrize(
    "level, emit, pieces, bound",
    [
        (5, emit_chain_graph, 18, 10),
        (5, emit_triplets, 8, 4),
        (6, emit_chain_graph, 130, 32),
        (6, emit_triplets, 64, 6),
    ],
    ids=["graph", "triplets", "graph-6", "triplets-6"],
)
def test_chain_text_memory_is_bounded_by_the_block(level, emit, pieces, bound):
    """The emitters hold one block of rows' text at a time, and every block
    ends on a line end.  At m = 5, eight blocks of 4096 rows: the 7.6 MB
    graph traces under 10 MiB and the 2 MB of triplets under 4 MiB (32.5 and
    11.1 MiB when each text was built whole).  At m = 6, 64 blocks of 4096
    rows: under 32 and 6 MiB (59.9 and 15.7 MiB in eight blocks), the graph's
    label tables of 8^6 names taking most of it."""
    matrix = build_matrix(level)
    tracemalloc.start()
    try:
        ends = [piece.endswith("\n") for piece in emit(matrix)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ends == [True] * pieces
    assert peak < bound * 2**20


def test_build_capacity():
    with pytest.raises(CapacityError):
        build_matrix(7)
    with pytest.raises(ValueError):
        build_matrix(0)


def build_nothing(*args):
    raise AssertionError(f"built an array from {args}")


def level_only(level):
    """A stand-in matrix with nothing but a level, which is all a refusal
    reads: any step past it fails."""
    return SimpleNamespace(level=level)


#: Every exact chain array by the call that builds it at a level or step
#: count n, with the n at which it first holds 8^8 cells, and the function
#: that would build it from there (None: the stand-in holds nothing).
CELL_CAP_SITES = {
    "check_invariance": (check_invariance, 7, (measure, "preimage_targets")),  # 8^(n+1)
    "build_matrix": (build_matrix, 7, (markov, "TransitionMatrix")),  # 8^(n+1)
    "matrix_power": (lambda n: matrix_power(level_only(1), n), 7, None),  # 8^(1+n)
    "kstep_measure_matrix": (kstep_measure_matrix, 7, (markov, "preimage_targets")),  # 8^(1+n)
    "dense": (lambda n: TransitionMatrix.dense(level_only(n)), 4, None),  # 8^(2n)
}


@pytest.mark.parametrize("site", CELL_CAP_SITES)
@pytest.mark.parametrize("far", [False, True], ids=["exponent-8", "n-1e9"])
def test_one_cell_cap_refuses_before_building(monkeypatch, site, far):
    # decided on the exponent: 8^(10^9 + 1) is never formed, and no array of
    # 8^8 cells (16 MiB even as bytes) is allocated
    call, first, builder = CELL_CAP_SITES[site]
    if builder is not None:
        monkeypatch.setattr(*builder, build_nothing)
    n = 10**9 if far else first
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"cells, cap 8\^7$"):
            call(n)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20



@pytest.mark.parametrize("level", [1, 2, 3])
def test_level_is_read_off_the_rows(level):
    assert TransitionMatrix(np.zeros((8**level, 8), dtype=int)).level == level


def test_matrix_validation():
    with pytest.raises(ValueError, match="out of range"):
        TransitionMatrix(np.full((8, 8), 8))
    # np.array(..., dtype=np.intp) would truncate 0.9 to class 0
    for images in (np.full((8, 8), 0.9), np.zeros((8, 8), dtype=bool)):
        with pytest.raises(ValueError, match="integers"):
            TransitionMatrix(images)
    shapes = ((7, 8), (8, 1), (8, 9), (64,), (8, 8, 1), (0, 8), (9, 8), ())
    for shape in shapes:
        with pytest.raises(ValueError, match="image array"):
            TransitionMatrix(np.zeros(shape, dtype=int))
