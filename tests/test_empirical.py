"""Sweep kernel correctness against the pure-Python reference, and reports."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzmc.empirical import (
    INT64_SAFE,
    SweepConfig,
    TrajectoryStats,
    _sweep_shard,
    compare_to_theory,
    run_trajectory,
    sweep,
    theoretical_weights,
    to_csv,
    to_json_dict,
)
from collatzmc.errors import CapacityError, TrajectoryCapError
from collatzmc.maps import third_iterate


def reference_sweep(n_max, level=1, include_start=True, lo=1):
    """Per-start aggregation over [lo, n_max] with the exact scalar path; the kernel oracle."""
    mod = 8**level
    counts, max_value = [0] * mod, 0
    freq_sums, counted = [0.0] * mod, 0
    for n0 in range(lo, n_max + 1):
        run = run_trajectory(n0, level=level, include_start=include_start)
        max_value = max(max_value, run.max_value)
        for visit in run.visits:
            counts[visit] += 1
        if run.visits:
            counted += 1
            for visit, share in (
                (v, run.visits.count(v) / len(run.visits)) for v in set(run.visits)
            ):
                freq_sums[visit] += share
    return counts, max_value, freq_sums, counted


class TestRunTrajectory:
    def test_absorbed_start(self):
        run = run_trajectory(1)
        assert run.visits == () and run.max_value == 1 and not run.capped

    def test_start_three(self):
        run = run_trajectory(3)
        assert run.visits == (3, 0)  # 3, then 16, then stop at 2

    def test_famous_27(self):
        run = run_trajectory(27)
        assert run.max_value == 9232
        assert run.steps == 37
        assert len(run.visits) == 37

    def test_include_start_flag(self):
        with_start = run_trajectory(27, include_start=True)
        without = run_trajectory(27, include_start=False)
        assert with_start.visits[0] == 3
        assert with_start.visits[1:] == without.visits

    def test_step_cap(self):
        run = run_trajectory(27, step_cap=2)
        assert run.capped and run.steps == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            run_trajectory(0)


class TestSweep:
    @pytest.mark.parametrize("level,include_start", [(1, True), (1, False), (2, True)])
    def test_matches_reference(self, level, include_start):
        config = SweepConfig(n_max=3000, level=level, include_start=include_start)
        stats = sweep(config)
        counts, max_value, _, _ = reference_sweep(3000, level, include_start)
        assert stats.visit_counts == counts
        assert stats.max_value == max_value
        assert stats.trajectories == 3000
        assert stats.total_visits == sum(counts)

    def test_per_trajectory_matches_reference(self):
        config = SweepConfig(n_max=800, per_trajectory=True)
        stats = sweep(config)
        _, _, freq_sums, counted = reference_sweep(800)
        assert stats.traj_counted == counted
        for got, want in zip(stats.traj_freq_sums, freq_sums):
            assert abs(got - want) < 1e-9

    def test_sharded_equals_unsharded(self):
        config = SweepConfig(n_max=5000)
        whole = sweep(config)
        sharded = sweep(config, shard_size=512)
        assert whole.visit_counts == sharded.visit_counts
        assert whole.max_value == sharded.max_value

    def test_workers_identical_totals(self):
        config1 = SweepConfig(n_max=20_000, workers=1)
        config2 = SweepConfig(n_max=20_000, workers=2)
        a = sweep(config1, shard_size=4096)
        b = sweep(config2, shard_size=4096)
        assert a == b

    def test_max_value_monotone_in_n_max(self):
        small = sweep(SweepConfig(n_max=5_000)).max_value
        large = sweep(SweepConfig(n_max=10_000)).max_value
        assert small <= large
        assert large >= 10_000

    def test_step_cap_raises_with_offender(self):
        with pytest.raises(TrajectoryCapError) as info:
            sweep(SweepConfig(n_max=100, step_cap=3))
        assert 1 <= info.value.start <= 100

    def test_step_cap_crosses_process_pool(self):
        with pytest.raises(TrajectoryCapError) as info:
            sweep(SweepConfig(n_max=5000, step_cap=3, workers=2), shard_size=1000)
        assert 1 <= info.value.start <= 5000

    def test_fallback_keeps_the_step_budget(self):
        # largest n <= INT64_SAFE with n % 8 == 7: one step leaves int64, 286 more follow
        n = INT64_SAFE - (INT64_SAFE - 7) % 8
        assert third_iterate(n) > INT64_SAFE
        run = run_trajectory(n)
        assert run.steps == 287
        with pytest.raises(TrajectoryCapError) as info:
            _sweep_shard(SweepConfig(n_max=n, step_cap=286), n, n)
        assert (info.value.start, info.value.steps) == (n, 286)
        stats = _sweep_shard(SweepConfig(n_max=n, step_cap=287), n, n)
        assert stats.visit_counts == [run.visits.count(c) for c in range(8)]
        assert stats.max_value == run.max_value

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n_max=4)
        with pytest.raises(ValueError):
            SweepConfig(n_max=10, workers=0)
        with pytest.raises(CapacityError):
            SweepConfig(n_max=10, level=7)


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(1, 3),
    include_start=st.booleans(),
    per_trajectory=st.booleans(),
    lo=st.one_of(st.integers(1, 5000), st.integers(INT64_SAFE - 300, INT64_SAFE + 300)),
    width=st.integers(1, 64),
)
@example(level=3, include_start=True, per_trajectory=True, lo=INT64_SAFE - 31, width=64)
def test_shard_matches_reference(level, include_start, per_trajectory, lo, width):
    hi = lo + width - 1
    config = SweepConfig(
        n_max=max(hi, 5), level=level, include_start=include_start, per_trajectory=per_trajectory
    )
    stats = _sweep_shard(config, lo, hi)
    counts, max_value, freq_sums, counted = reference_sweep(hi, level, include_start, lo=lo)
    assert stats.visit_counts == counts
    assert stats.max_value == max_value
    assert stats.trajectories == width
    if per_trajectory:
        assert stats.traj_counted == counted
        assert all(abs(got - want) <= 1e-12 for got, want in zip(stats.traj_freq_sums, freq_sums))
    else:
        assert stats.traj_freq_sums is None


class TestComparison:
    def test_theoretical_column_level1(self):
        weights = theoretical_weights(1)
        assert weights == tuple(
            Fraction(1, 6) if i % 2 == 0 else Fraction(1, 12) for i in range(8)
        )

    def test_table_against_small_sweep(self):
        stats = sweep(SweepConfig(n_max=10_000))
        table = compare_to_theory(stats)
        assert table.total_visits == stats.total_visits
        assert len(table.rows) == 8
        assert table.max_deviation < 0.02
        even_mass = sum(r.empirical for r in table.rows if r.class_index % 2 == 0)
        assert abs(even_mass - 2 / 3) < 0.02

    def test_rejects_empty_stats(self):
        empty = TrajectoryStats(level=1, visit_counts=[0] * 8, max_value=0, trajectories=0)
        with pytest.raises(ValueError):
            compare_to_theory(empty)

    def test_csv_shape(self):
        stats = sweep(SweepConfig(n_max=2000))
        text = to_csv(compare_to_theory(stats))
        lines = text.splitlines()
        assert lines[0] == "class,theoretical,empirical,deviation"
        assert len(lines) == 10
        assert lines[1].startswith("0,0.166666666667,")
        assert lines[-1] == f"# max_value={stats.max_value} total_visits={stats.total_visits}"

    def test_json_mirrors_csv_fields(self):
        stats = sweep(SweepConfig(n_max=2000, per_trajectory=True))
        table = compare_to_theory(stats)
        per_traj = compare_to_theory(stats, use_per_trajectory=True)
        payload = to_json_dict(table, per_traj)
        assert payload["max_value"] == stats.max_value
        assert payload["total_visits"] == stats.total_visits
        assert {r["class"] for r in payload["rows"]} == set(range(8))
        assert len(payload["per_trajectory_rows"]) == 8


def test_merge_is_commutative():
    a = sweep(SweepConfig(n_max=600))
    b = sweep(SweepConfig(n_max=900))
    assert a.merge(b) == b.merge(a)
