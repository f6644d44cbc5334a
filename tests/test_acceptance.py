"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 11 (the n_max = 10^7 sweep) is marked slow; include it with
`pytest -m 'slow or not slow'`.
"""

import io
from fractions import Fraction

import pytest

from collatzmc import empirical
from collatzmc.cli import main as cli_main
from collatzmc.congruence import CongruenceClass, preimage_class
from collatzmc.contraction import (
    birkhoff_alpha,
    bounded_geometric_mean,
    domination_scan,
    raw_geometric_mean,
)
from collatzmc.empirical import SweepConfig, compare_to_theory, sweep
from collatzmc.maps import collatz_step, third_iterate
from collatzmc.markov import (
    build_matrix,
    kstep_measure_matrix,
    left_multiply,
    matrix_power,
    power_iteration,
    stationary_distribution,
)
from collatzmc.measure import check_invariance, nu

from test_congruence import PREIMAGE_RESIDUES_MOD64
from test_empirical import stats_identical
from test_markov import EIGHT_STATE_GOLDEN

#: Largest Collatz value reached from any start below 10^7 (frozen after a
#: brute-force run of the full sweep; ~6e13).
MAX_EXCURSION_1E7 = 60_342_610_919_632


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_map_equivalence_and_fixed_points():
    step, third = collatz_step, third_iterate
    fixed = []
    ok = True
    for n in range(1, 10**6 + 1):
        s = third(n)
        if s != step(step(step(n))):
            ok = False
            break
        if s == n:
            fixed.append(n)
    ok = ok and fixed == [1, 2, 4]
    report(1, ok, f"triple-step equivalence on [1,1e6]; fixed points {fixed}")


def test_criterion_02_preimage_golden_and_counts():
    ok = all(
        preimage_class(CongruenceClass(j, 1)).residues() == PREIMAGE_RESIDUES_MOD64[j]
        for j in range(8)
    )
    for level in (1, 2, 3):
        for j in range(8**level):
            union = preimage_class(CongruenceClass(j, level))
            expected = (5, 6) if j % 2 == 0 else (3, 2)
            ok = ok and (union.even_count(), union.odd_count()) == expected
    report(2, ok, "eight golden preimage lists mod 64; 5/6 and 3/2 parity counts at levels 1-3")


def test_criterion_03_measure_invariance():
    ok = all(check_invariance(level).passed for level in (1, 2, 3))
    report(3, ok, "exact preimage-invariance of the measure for every class, levels 1-3")


def test_criterion_04_matrix_golden_and_stochastic():
    ok = build_matrix(1).dense() == EIGHT_STATE_GOLDEN
    for level in (1, 2, 3, 4):
        matrix = build_matrix(level)
        ok = ok and all(sum(p for _, p in row) == 1 for row in matrix.rows)
    report(4, ok, "level-1 matrix equals the golden 8x8; all rows sum to 1, levels 1-4")


def test_criterion_05_stationarity():
    ok = True
    for level in (1, 2, 3, 4):
        matrix = build_matrix(level)
        weights = stationary_distribution(matrix)
        a, b = Fraction(1, 6 * 8 ** (level - 1)), Fraction(1, 12 * 8 ** (level - 1))
        ok = ok and weights == (a, b)
        vector = list(weights) * (8**level // 2)
        ok = ok and left_multiply(vector, matrix) == vector
        numeric = power_iteration(matrix)
        ok = ok and max(abs(float(w) - x) for w, x in zip(vector, numeric)) <= 1e-12
    report(5, ok, "alternating vector exactly stationary, levels 1-4; power iteration within 1e-12")


def test_criterion_06_chapman_kolmogorov():
    base = build_matrix(1)
    ok = all(
        kstep_measure_matrix(k) == matrix_power(base, k) for k in (2, 3)
    )
    report(6, ok, "measure-based 2- and 3-step probabilities equal the exact matrix powers")


def test_criterion_07_square_positive():
    square = matrix_power(build_matrix(1), 2)
    ok = all(entry >= Fraction(1, 16) for row in square for entry in row)
    report(7, ok, "every entry of the squared 8-state matrix is >= 1/16 exactly")


def test_criterion_08_contraction_constants():
    ok = raw_geometric_mean() == Fraction(3, 4)
    bound = bounded_geometric_mean(3)
    ok = ok and 0.8921 <= bound <= 0.8931
    alpha, beta = birkhoff_alpha()
    ok = ok and -0.1146 <= alpha <= -0.1126
    ok = ok and 0.943 <= beta <= 0.945
    # alpha weights base residue sigma by nu(sigma), which is exactly the
    # stationary mass of the level-m classes over sigma at every level
    for level in (1, 2, 3, 4):
        weights = list(stationary_distribution(build_matrix(level))) * (8**level // 2)
        ok = ok and all(sum(weights[sigma::8]) == nu(sigma) for sigma in range(8))
    report(
        8,
        ok,
        f"raw mean 3/4 exact; bound mean {bound:.6f}; alpha {alpha:.6f}, beta {beta:.6f}; "
        "alpha level-independent (class masses over each base residue sum to nu), levels 1-4",
    )


def test_criterion_09_pointwise_domination():
    scan = domination_scan(3, 10**4)
    # image <= bound everywhere; strict except the definitional equality at
    # n = n_min itself, where c_i(3)*3 is exactly the image of 3
    ok = scan.strict_failures == () and scan.equality_points == (3,)
    for n in range(8, 10**4 + 1, 8):
        ok = ok and third_iterate(n) * 8 == n
    report(
        9,
        ok,
        "image below class bound on [3,1e4] (equality only at n=3, the bound's anchor); "
        "class 0 exactly n/8",
    )


def test_criterion_10_empirical_distribution():
    stats = sweep(SweepConfig(n_max=10**5, workers=1))
    table = compare_to_theory(stats)
    ok = table.max_deviation < 0.01
    even_mass = table.empirical[::2].sum()
    ok = ok and abs(even_mass - 2 / 3) < 0.01
    report(
        10,
        ok,
        f"n_max=1e5 class frequencies within {table.max_deviation:.4f} of theory "
        f"(tolerance 0.01); even-class mass {even_mass:.4f}",
    )


@pytest.mark.slow
def test_criterion_11_max_excursion_long():
    stats = sweep(SweepConfig(n_max=10**7, workers=2))
    ok = stats.max_value == MAX_EXCURSION_1E7
    report(
        11,
        ok,
        f"n_max=1e7 max excursion {stats.max_value} (frozen golden {MAX_EXCURSION_1E7})",
    )


def test_criterion_12_determinism(monkeypatch):
    def run_simulate():
        out = io.StringIO()
        code = cli_main(["simulate", "--max", "100000"], out=out)
        return code, out.getvalue()

    first = run_simulate()
    second = run_simulate()
    ok = first == second and first[0] == 0
    monkeypatch.setattr(empirical, "SHARD_SIZE", 16_384)
    single = sweep(SweepConfig(n_max=100_000, workers=1))
    multi = sweep(SweepConfig(n_max=100_000, workers=2))
    ok = ok and stats_identical(single, multi)
    report(12, ok, "byte-identical CSV across runs; 1-worker and 2-worker totals identical")
