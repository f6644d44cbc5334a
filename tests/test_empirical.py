"""Sweep kernel correctness against the pure-Python reference, and reports."""

import dataclasses
import functools
import io
import json
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collatzmc.empirical as empirical
from collatzmc.empirical import (
    INT64_SAFE,
    ComparisonTable,
    SweepConfig,
    TrajectoryStats,
    _jump,
    _jump_tables,
    _sweep_shard,
    compare_to_theory,
    run_trajectory,
    sweep,
    to_csv,
    to_json_dict,
    write_csv,
    write_json,
)
from collatzmc.errors import CapacityError, ConsistencyError, TrajectoryCapError
from collatzmc.maps import CYCLE, MULTIPLIERS, OFFSETS, collatz_step, third_iterate
from collatzmc.markov import build_matrix, stationary_distribution
from collatzmc.measure import alternating_weights


def stats_identical(actual, expected):
    """Exact TrajectoryStats equality: every field of the same type, and arrays
    of the same dtype and values."""
    for field in dataclasses.fields(TrajectoryStats):
        a, b = getattr(actual, field.name), getattr(expected, field.name)
        if type(a) is not type(b):
            return False
        if isinstance(b, np.ndarray):
            if a.dtype != b.dtype or not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


def reference_sweep(n_max, level=1, include_start=True, lo=1, per_trajectory=False):
    """Per-start aggregation over [lo, n_max] with the exact scalar path; the kernel oracle.

    run_trajectory records the start first, so without include_start its
    visits drop their first entry."""
    mod = 8**level
    counts, max_value = [0] * mod, 0
    freq_sums, counted = [0.0] * mod, 0
    for n0 in range(lo, n_max + 1):
        run = run_trajectory(n0, level=level)
        visits = run.visits if include_start else run.visits[1:]
        max_value = max(max_value, run.max_value)
        for visit in visits:
            counts[visit] += 1
        if visits:
            counted += 1
            for visit, share in ((v, visits.count(v) / len(visits)) for v in set(visits)):
                freq_sums[visit] += share
    if not per_trajectory:
        freq_sums, counted = None, 0
    else:
        freq_sums = np.array(freq_sums)
    return TrajectoryStats(
        level, np.array(counts, dtype=np.int64), max_value, n_max - lo + 1, freq_sums, counted
    )


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

    def test_start_is_recorded(self):
        assert run_trajectory(27).visits[0] == 3

    def test_step_cap(self):
        run = run_trajectory(27, step_cap=2)
        assert run.capped and run.steps == 2

    def test_rejects_negative_step_cap(self):
        with pytest.raises(ValueError, match="step_cap"):
            run_trajectory(5, step_cap=-3)
        assert run_trajectory(1, step_cap=0) == run_trajectory(1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            run_trajectory(0)

    @pytest.mark.parametrize("level", [0, -1])
    def test_rejects_level_below_one(self, level):
        # level 0 would record every visit as class 0, level -1 as floats
        with pytest.raises(ValueError, match="level must be >= 1"):
            run_trajectory(7, level=level)


class TestSweep:
    @pytest.mark.parametrize("level,include_start", [(1, True), (1, False), (2, True)])
    def test_matches_reference(self, level, include_start):
        config = SweepConfig(n_max=3000, level=level, include_start=include_start)
        stats = sweep(config)
        expected = reference_sweep(3000, level, include_start)
        assert stats_identical(stats, expected)
        assert stats.trajectories == 3000
        assert stats.total_visits == int(expected.visit_counts.sum())
        assert type(stats.total_visits) is int

    def test_per_trajectory_matches_reference(self):
        config = SweepConfig(n_max=800, per_trajectory=True)
        stats = sweep(config)
        assert stats_identical(stats, reference_sweep(800, per_trajectory=True))

    def test_sharded_equals_unsharded(self, monkeypatch):
        config = SweepConfig(n_max=5000)
        whole = sweep(config)
        monkeypatch.setattr(empirical, "SHARD_SIZE", 512)
        sharded = sweep(config)
        assert stats_identical(whole, sharded)

    def test_workers_identical_totals(self, monkeypatch):
        monkeypatch.setattr(empirical, "usable_cpus", lambda: 2)  # a pool on any runner
        monkeypatch.setattr(empirical, "SHARD_SIZE", 4096)
        a = sweep(SweepConfig(n_max=20_000, workers=1))
        b = sweep(SweepConfig(n_max=20_000, workers=2))
        assert stats_identical(a, b)

    def test_max_value_monotone_in_n_max(self):
        small = sweep(SweepConfig(n_max=5_000)).max_value
        large = sweep(SweepConfig(n_max=10_000)).max_value
        assert small <= large
        assert large >= 10_000

    def test_step_cap_raises_with_offender(self):
        with pytest.raises(TrajectoryCapError) as info:
            sweep(SweepConfig(n_max=100, step_cap=3))
        assert 1 <= info.value.start <= 100
        assert info.value.steps == 3
        assert run_trajectory(info.value.start).steps > 3
        assert info.value.start == first_longer_than(3, 1, 100)

    def test_step_cap_crosses_process_pool(self, monkeypatch):
        monkeypatch.setattr(empirical, "usable_cpus", lambda: 2)  # a pool on any runner
        monkeypatch.setattr(empirical, "SHARD_SIZE", 1000)
        with pytest.raises(TrajectoryCapError) as info:
            sweep(SweepConfig(n_max=5000, step_cap=3, workers=2))
        assert 1 <= info.value.start <= 5000
        assert info.value.steps == 3
        assert run_trajectory(info.value.start).steps > 3
        assert info.value.start == first_longer_than(3, 1, 5000)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_parent_error_reaps_the_workers(self, monkeypatch):
        monkeypatch.setattr(empirical, "usable_cpus", lambda: 2)
        monkeypatch.setattr(empirical, "SHARD_SIZE", 1000)

        def merge(self, other):
            raise KeyError("merge")

        monkeypatch.setattr(TrajectoryStats, "merge", merge)
        with pytest.raises(KeyError, match="merge"):
            sweep(SweepConfig(n_max=5000, workers=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pool_has_no_idle_workers(self, monkeypatch, inline_fork_join):
        # at most one process per shard and per usable CPU, for library callers too
        monkeypatch.setattr(empirical, "usable_cpus", lambda: 3)
        monkeypatch.setattr(empirical, "SHARD_SIZE", 1500)
        stats = sweep(SweepConfig(n_max=3000, workers=8))
        assert inline_fork_join == [2]
        assert stats_identical(stats, sweep(SweepConfig(n_max=3000)))
        monkeypatch.setattr(empirical, "SHARD_SIZE", 500)
        sweep(SweepConfig(n_max=3000, workers=2))
        sweep(SweepConfig(n_max=3000, workers=5000))
        assert inline_fork_join == [2, 2, 3]

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
        assert stats_identical(stats, reference_sweep(n, lo=n))
        assert stats.visit_counts.tolist() == [run.visits.count(c) for c in range(8)]
        assert stats.max_value == run.max_value

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n_max=4)
        with pytest.raises(ValueError):
            SweepConfig(n_max=10, workers=0)
        with pytest.raises(ValueError, match="level must be >= 1"):
            SweepConfig(n_max=10, level=0)
        with pytest.raises(CapacityError):
            SweepConfig(n_max=10, level=7)
        with pytest.raises(ValueError, match="step_cap"):
            SweepConfig(n_max=10, step_cap=-1)
        SweepConfig(n_max=2**63 - 1)
        with pytest.raises(CapacityError, match="int64"):
            SweepConfig(n_max=2**63)

    def test_last_int64_starts(self):
        # int64 starts end at 2^63 - 1; the orbits there leave the kernel at once
        hi = 2**63 - 1
        stats = _sweep_shard(SweepConfig(n_max=hi), hi - 2, hi)
        assert stats_identical(stats, reference_sweep(hi, lo=hi - 2))

    def test_shard_bounds_are_lazy(self, monkeypatch):
        # 10^15 starts are 9.5e8 shards; none of their bounds is built up front
        class FirstShard(Exception):
            pass

        def shard(config, lo, hi):
            raise FirstShard(lo, hi)

        monkeypatch.setattr(empirical, "_sweep_shard", shard)
        tracemalloc.start()
        try:
            with pytest.raises(FirstShard) as info:
                sweep(SweepConfig(n_max=10**15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.args == (1, empirical.SHARD_SIZE)
        assert peak < 2**20


def first_longer_than(step_cap, lo, hi):
    """Smallest start in [lo, hi] whose orbit takes more than step_cap triple steps."""
    return next((n for n in range(lo, hi + 1) if run_trajectory(n).steps > step_cap), None)


# Starts: small values (below every level's small-value bound and above it),
# the band around INT64_SAFE, or the band around the level's jump bound.
LO_BAND = st.one_of(st.integers(1, 5000), st.integers(INT64_SAFE - 300, INT64_SAFE + 300))


def band_start(level, lo, jump_offset):
    """lo itself, or the level's jump bound plus jump_offset when that is given."""
    return lo if jump_offset is None else _jump_tables(level).safe + jump_offset


@settings(max_examples=120, deadline=None)
@given(
    level=st.integers(1, 6),
    include_start=st.booleans(),
    per_trajectory=st.booleans(),
    lo=LO_BAND,
    jump_offset=st.none() | st.integers(-300, 300),
    width=st.integers(1, 64),
)
@example(level=3, include_start=True, per_trajectory=True, lo=INT64_SAFE - 31, width=64, jump_offset=None)
@example(level=1, include_start=False, per_trajectory=True, lo=1, width=64, jump_offset=None)
@example(level=4, include_start=False, per_trajectory=True, lo=1, width=8, jump_offset=None)
@example(level=6, include_start=False, per_trajectory=False, lo=1, width=8, jump_offset=None)
# 8 is its orbit's one visit, so no key is left once the start is removed
@example(level=1, include_start=False, per_trajectory=True, lo=8, width=1, jump_offset=None)
@example(level=2, include_start=True, per_trajectory=True, lo=0, width=64, jump_offset=-32)
# the record 13120 is met inside the first jump of a start below the top slice
@example(level=1, include_start=True, per_trajectory=False, lo=352, width=64, jump_offset=None)
def test_shard_matches_reference(level, include_start, per_trajectory, lo, width, jump_offset):
    lo = band_start(level, lo, jump_offset)
    hi = lo + width - 1
    config = SweepConfig(
        n_max=max(hi, 5), level=level, include_start=include_start, per_trajectory=per_trajectory
    )
    stats = _sweep_shard(config, lo, hi)
    assert stats_identical(stats, reference_sweep(hi, level, include_start, lo, per_trajectory))
    assert stats.trajectories == width


@settings(max_examples=80, deadline=None)
@given(
    step_cap=st.integers(1, 40),
    level=st.integers(1, 6),
    include_start=st.booleans(),
    lo=LO_BAND,
    jump_offset=st.none() | st.integers(-300, 300),
    width=st.integers(1, 32),
)
@example(step_cap=2, level=1, include_start=True, lo=1, width=32, jump_offset=None)
@example(step_cap=4, level=4, include_start=False, lo=320, width=32, jump_offset=None)
@example(step_cap=40, level=3, include_start=True, lo=0, width=32, jump_offset=-16)
# step_cap at the longest tabulated orbit (17647 at level 1, 313 at level 3)
# and one below it, where the kernel first compares the table's steps
@example(step_cap=92, level=1, include_start=True, lo=17640, width=32, jump_offset=None)
@example(step_cap=91, level=1, include_start=True, lo=17640, width=32, jump_offset=None)
@example(step_cap=43, level=3, include_start=False, lo=300, width=32, jump_offset=None)
@example(step_cap=42, level=3, include_start=False, lo=300, width=32, jump_offset=None)
def test_step_cap_is_exact(step_cap, level, include_start, lo, width, jump_offset):
    """A shard raises iff some orbit takes more than step_cap triple steps,
    naming the first such start; otherwise it equals the reference."""
    lo = band_start(level, lo, jump_offset)
    hi = lo + width - 1
    config = SweepConfig(n_max=max(hi, 5), level=level, include_start=include_start, step_cap=step_cap)
    offender = first_longer_than(step_cap, lo, hi)
    if offender is None:
        stats = _sweep_shard(config, lo, hi)
        assert stats_identical(stats, reference_sweep(hi, level, include_start, lo=lo))
    else:
        with pytest.raises(TrajectoryCapError) as info:
            _sweep_shard(config, lo, hi)
        assert (info.value.start, info.value.steps) == (offender, step_cap)


#: The batch width of each kernel mode.
BATCHES = {True: "PER_TRAJECTORY_BATCH", False: "PLAIN_BATCH"}


@pytest.mark.parametrize("level", range(1, 7))
@pytest.mark.parametrize("include_start", [True, False])
@pytest.mark.parametrize("where", ["small", "jump-bound"])
def test_batches_change_no_result(monkeypatch, level, include_start, where):
    """Plain and per-trajectory shard stats are the same for any batch
    width, bit for bit."""
    # small values with the cycle, or starts on both sides of the jump bound
    lo = 1 if where == "small" else _jump_tables(level).safe - 20
    hi = lo + 40
    for per_trajectory, batch in BATCHES.items():
        config = SweepConfig(n_max=hi, level=level, include_start=include_start, per_trajectory=per_trajectory)
        whole = _sweep_shard(config, lo, hi)
        with monkeypatch.context() as patch:
            patch.setattr(empirical, batch, 7)
            assert stats_identical(_sweep_shard(config, lo, hi), whole)


def assert_folds_onto(fine, coarse):
    """fine, stats of one range at level m + 1, folded onto level m: each
    class mod 8^(m+1) into its class mod 8^m.  An orbit is the same at every
    level, so the counts fold exactly and the per-orbit share sums up to
    float order."""
    mod = 8**coarse.level
    folded = fine.visit_counts.reshape(-1, mod).sum(0)
    assert folded.dtype == coarse.visit_counts.dtype
    assert np.array_equal(folded, coarse.visit_counts)
    assert (fine.max_value, fine.trajectories, fine.traj_counted) == (
        coarse.max_value,
        coarse.trajectories,
        coarse.traj_counted,
    )
    assert (fine.traj_freq_sums is None) == (coarse.traj_freq_sums is None)
    if coarse.traj_freq_sums is not None:
        np.testing.assert_allclose(fine.traj_freq_sums.reshape(-1, mod).sum(0), coarse.traj_freq_sums, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(1, 5),
    include_start=st.booleans(),
    per_trajectory=st.booleans(),
    lo=LO_BAND,
    # the jump bound of either level: the two levels jump different lengths
    jump_level=st.integers(0, 1),
    jump_offset=st.none() | st.integers(-300, 300),
    width=st.integers(1, 256),
)
@example(level=1, include_start=False, per_trajectory=True, lo=1, jump_level=0, jump_offset=None, width=256)
@example(level=5, include_start=True, per_trajectory=False, lo=1, jump_level=1, jump_offset=-128, width=256)
@example(level=3, include_start=True, per_trajectory=True, lo=INT64_SAFE - 64, jump_level=0, jump_offset=None, width=128)
def test_levels_fold_onto_each_other(level, include_start, per_trajectory, lo, jump_level, jump_offset, width):
    """The paper's "for any m" on the sweep side: a shard's stats at level
    m + 1 fold onto those at level m, in both kernel modes."""
    lo = band_start(level + jump_level, lo, jump_offset)
    hi = lo + width - 1
    stats = [
        _sweep_shard(
            SweepConfig(n_max=max(hi, 5), level=m, include_start=include_start, per_trajectory=per_trajectory),
            lo,
            hi,
        )
        for m in (level, level + 1)
    ]
    assert_folds_onto(stats[1], stats[0])


@settings(max_examples=40, deadline=None)
@given(
    level=st.integers(1, 5),
    include_start=st.booleans(),
    per_trajectory=st.booleans(),
    n_max=st.integers(5, 20000),
    shards=st.integers(1, 16),
)
@example(level=1, include_start=False, per_trajectory=True, n_max=20000, shards=4)
@example(level=5, include_start=True, per_trajectory=True, n_max=500, shards=16)
def test_sweeps_fold_onto_each_other(level, include_start, per_trajectory, n_max, shards):
    """Whole sweeps at levels m and m + 1 give the same totals once each class
    mod 8^(m+1) is merged into its class mod 8^m, over up to 16 shards that
    merge in order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(empirical, "SHARD_SIZE", -(-n_max // shards))
        stats = [
            sweep(SweepConfig(n_max, m, include_start=include_start, per_trajectory=per_trajectory, workers=1))
            for m in (level, level + 1)
        ]
    assert_folds_onto(stats[1], stats[0])


@pytest.mark.slow
def test_levels_fold_onto_each_other_at_ten_million():
    coarse, fine = (sweep(SweepConfig(n_max=10**7, level=m, workers=2)) for m in (1, 2))
    assert_folds_onto(fine, coarse)


@settings(max_examples=60, deadline=None)
@given(
    step_cap=st.integers(0, 120),
    level=st.integers(1, 6),
    lo=LO_BAND,
    jump_offset=st.none() | st.integers(-300, 300),
    width=st.integers(1, 48),
)
# starts above the jump bound whose orbits the big-int fallback finds too long
@example(step_cap=286, level=2, lo=INT64_SAFE - 40, width=48, jump_offset=None)
@example(step_cap=30, level=1, lo=0, width=16, jump_offset=8)
def test_plain_and_tracked_shards_name_one_offender(step_cap, level, lo, width, jump_offset):
    """The plain kernel keeps no orbit ids; it names the same smallest
    offender as the per-trajectory batches, which keep them."""
    lo = band_start(level, lo, jump_offset)
    hi = lo + width - 1
    named = []
    for per_trajectory in (False, True):
        config = SweepConfig(n_max=max(hi, 5), level=level, per_trajectory=per_trajectory, step_cap=step_cap)
        try:
            _sweep_shard(config, lo, hi)
            named.append(None)
        except TrajectoryCapError as error:
            named.append((error.start, error.steps))
    offender = first_longer_than(step_cap, lo, hi)
    assert named[0] == named[1] == (None if offender is None else (offender, step_cap))


def test_plain_shard_runs_fixed_batches(monkeypatch):
    """Without an offence, a plain sweep runs the kernel on each shard in
    ceil(width / PLAIN_BATCH) batches and builds no int32 orbit-id array."""
    _jump_tables(1)
    calls, aranges = [], []
    run_batch = empirical._run_batch

    def spy(config, lo, hi, record, tally, keys):
        calls.append((lo, hi, keys))
        return run_batch(config, lo, hi, record, tally, keys)

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, *args, **kwargs):
            aranges.append(np.dtype(kwargs.get("dtype")))
            return np.arange(*args, **kwargs)

    monkeypatch.setattr(empirical, "_run_batch", spy)
    monkeypatch.setattr(empirical, "np", Numpy())
    monkeypatch.setattr(empirical, "SHARD_SIZE", 1000)
    monkeypatch.setattr(empirical, "PLAIN_BATCH", 400)
    stats = sweep(SweepConfig(n_max=2500))
    bounds = [(1, 400), (401, 800), (801, 1000), (1001, 1400), (1401, 1800), (1801, 2000)]
    bounds += [(2001, 2400), (2401, 2500)]  # the last shard stops at n_max
    assert calls == [(lo, hi, None) for lo, hi in bounds]
    assert np.dtype(np.int64) in aranges and np.dtype(np.int32) not in aranges
    monkeypatch.undo()
    assert stats_identical(stats, reference_sweep(2500))


@pytest.mark.parametrize("per_trajectory", [False, True], ids=["plain", "per_trajectory"])
def test_batches_share_the_kernel_buffers(monkeypatch, per_trajectory):
    """A shard's batches pass over prefixes of one set of kernel buffers,
    sized by its first batch, and the result is unchanged; a wider batch
    than any before gets new buffers."""
    tally = empirical._ShardTally(2)
    assert [b.size for b in tally.buffers(10)] == [10] * 3
    assert [(b.size, b.dtype) for b in tally.buffers(20)] == [(20, bool), (20, np.int64), (20, np.int32)]
    calls = []  # holds every set of buffers returned, so no two can share an id
    buffers = empirical._ShardTally.buffers

    def spy(self, width):
        shared = buffers(self, width)
        calls.append((width, shared))
        return shared

    monkeypatch.setattr(empirical._ShardTally, "buffers", spy)
    monkeypatch.setattr(empirical, "PLAIN_BATCH", 400)
    monkeypatch.setattr(empirical, "PER_TRAJECTORY_BATCH", 400)
    config = SweepConfig(n_max=1000, level=2, per_trajectory=per_trajectory)
    stats = _sweep_shard(config, 1, 1000)
    assert [width for width, _ in calls] == [400, 400, 200]
    first = calls[0][1]
    assert all(shared is first for _, shared in calls) and first[0].size == 400
    monkeypatch.undo()
    assert stats_identical(stats, reference_sweep(1000, level=2, per_trajectory=per_trajectory))


@pytest.mark.parametrize("level, width", [(1, 2**20), (6, 2**16)], ids=["level1", "level6"])
def test_plain_shard_memory_is_bounded_by_the_batch(level, width):
    """The kernel's per-pass arrays are sized by PLAIN_BATCH, not by the
    shard, and its tally holds nothing past its counts: a level-1 shard of
    2^20 starts traces under 8 MB past its tables (27 MB when the shard ran
    as one batch), and so does a level-6 shard of 2^16 starts, whose 8^6
    residue counts take 2 MB."""
    _jump_tables(level)
    tracemalloc.start()
    try:
        _sweep_shard(SweepConfig(n_max=width, level=level), 1, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    step_cap=st.integers(0, 60),
    level=st.integers(1, 6),
    lo=LO_BAND,
    jump_offset=st.none() | st.integers(-300, 300),
    width=st.integers(1, 100),
)
@example(step_cap=3, level=1, lo=1, width=100, jump_offset=None)
@example(step_cap=10**9, level=1, lo=1, width=100, jump_offset=None)
# starts on both sides of the jump bound, and above INT64_SAFE (big-int continuations)
@example(step_cap=40, level=2, lo=1, width=64, jump_offset=-32)
@example(step_cap=286, level=2, lo=INT64_SAFE - 40, width=48, jump_offset=None)
def test_cap_error_names_the_first_offender(step_cap, level, lo, width, jump_offset):
    """_cap_error names the smallest start in [lo, hi] whose orbit is longer
    than step_cap, and raises ConsistencyError when there is none."""
    lo = band_start(level, lo, jump_offset)
    hi = lo + width - 1
    config = SweepConfig(n_max=max(hi, 5), level=level, step_cap=step_cap)
    offender = first_longer_than(step_cap, lo, hi)
    if offender is None:
        with pytest.raises(ConsistencyError):
            empirical._cap_error(config, lo, hi)
    else:
        error = empirical._cap_error(config, lo, hi)
        assert (error.start, error.steps) == (offender, step_cap)


def test_batches_name_the_smallest_offender(monkeypatch):
    offender = first_longer_than(6, 1, 60)
    assert offender == 25  # the fourth batch of 7, 22 .. 28, also holds 27
    monkeypatch.setattr(empirical, "PER_TRAJECTORY_BATCH", 7)
    monkeypatch.setattr(empirical, "PLAIN_BATCH", 7)
    for per_trajectory in BATCHES:
        with pytest.raises(TrajectoryCapError) as info:
            _sweep_shard(SweepConfig(n_max=60, per_trajectory=per_trajectory, step_cap=6), 1, 60)
        assert (info.value.start, info.value.steps) == (offender, 6)


def test_visit_keys_fit_int32(monkeypatch):
    """A batch's keys id * 8^m + class fit int32 even at level 6, and the
    per-trajectory shard rule keeps shard * 8^m <= 2^28 at every level."""
    seen = []
    fold = empirical._add_orbit_shares
    monkeypatch.setattr(
        empirical,
        "_add_orbit_shares",
        lambda sums, keys, *rest: seen.append(keys.copy()) or fold(sums, keys, *rest),
    )
    batch = empirical.PER_TRAJECTORY_BATCH
    _sweep_shard(SweepConfig(n_max=batch, level=6, per_trajectory=True), 1, batch)
    (keys,) = seen
    assert keys.dtype == np.int32 and keys.min() >= 0
    assert keys.max() >> 18 == batch - 1  # the last orbit's id

    class FirstShard(Exception):
        pass

    def shard(config, lo, hi):
        raise FirstShard(hi - lo + 1)

    monkeypatch.setattr(empirical, "_sweep_shard", shard)
    for level in range(1, 7):
        with pytest.raises(FirstShard) as info:
            sweep(SweepConfig(n_max=2**21, level=level, per_trajectory=True))
        assert info.value.args[0] * 8**level <= 2**28


def test_visit_keys_grow_and_reset(monkeypatch):
    monkeypatch.setattr(empirical, "VISIT_KEYS_RESERVE", 4)
    keys = empirical._VisitKeys()
    keys.extend(4).reshape(2, 2)[:] = np.array([[5, 6], [7, 8]], dtype=np.int64)
    keys.extend(3)[:] = np.arange(3, dtype=np.int32)  # past the reserve: the buffer doubles
    assert keys.take().tolist() == [5, 6, 7, 8, 0, 1, 2]
    keys.extend(1)[:] = 9
    assert keys.take().tolist() == [9]
    assert keys.take().size == 0


def test_visit_keys_stop_at_the_budget(monkeypatch):
    # the doubling stops at the budget, and a batch past it raises before the buffer grows
    monkeypatch.setattr(empirical, "VISIT_KEYS_RESERVE", 4)
    monkeypatch.setattr(empirical, "VISIT_KEYS_BUDGET", 10)
    keys = empirical._VisitKeys()
    keys.extend(5)
    assert keys._buffer.size == 8
    keys.extend(5)[:] = 7  # exactly the budget
    assert keys._buffer.size == 10
    with pytest.raises(CapacityError, match="needs 11 visit keys, budget 10"):
        keys.extend(1)
    assert keys._buffer.size == 10 and keys.take().size == 10


@pytest.mark.parametrize("level", [1, 6])
def test_batch_past_the_key_budget_is_refused(monkeypatch, level):
    """A per-trajectory batch that needs more keys than the budget raises
    CapacityError; within the budget the same batch runs."""
    monkeypatch.setattr(empirical, "VISIT_KEYS_RESERVE", 1 << 10)
    monkeypatch.setattr(empirical, "VISIT_KEYS_BUDGET", 1 << 12)
    config = SweepConfig(n_max=3000, level=level, per_trajectory=True)
    with pytest.raises(CapacityError, match="visit keys, budget 4096"):
        _sweep_shard(config, 1, 3000)
    monkeypatch.setattr(empirical, "VISIT_KEYS_BUDGET", 1 << 20)  # the same batch within budget
    assert _sweep_shard(config, 1, 3000).traj_counted == 2997  # all but 1, 2 and 4


def one_block_orbit_shares(sums, keys, size, start_keys):
    """The share step with the whole batch as one block: the oracle of
    _add_orbit_shares, which runs the same pipeline ORBIT_BLOCK orbits at a
    time.  It returns before encoding when no key is left once the start
    keys are removed."""
    mod = sums.size
    keys.sort()
    if start_keys is not None:
        keys = np.delete(keys, np.searchsorted(keys, start_keys))
    if not keys.size:
        return 0
    orbits = np.arange(size, dtype=np.int32) * mod
    edges = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    visits = np.diff(edges)
    keys = keys[edges[:-1]]
    first = np.searchsorted(keys, orbits)
    pairs = np.diff(first, append=keys.size)
    totals = np.diff(edges[first], append=edges[-1])
    shares = np.repeat(totals.astype(float), pairs)
    np.divide(visits, shares, out=shares)
    np.add.at(sums, keys & (mod - 1), shares)
    return int(np.count_nonzero(totals))


@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(1, 3000),
    level=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    longest=st.integers(1, 40),
    empty=st.sampled_from([0.0, 0.3, 1.0]),
    pool=st.integers(1, 8**6),
    starts=st.booleans(),
    block=st.sampled_from([1, 3, empirical.ORBIT_BLOCK]),
)
@example(size=3000, level=6, seed=0, longest=40, empty=0.3, pool=3, starts=True, block=empirical.ORBIT_BLOCK)
# a full level-6 batch: size * 8^6 = 2^31 is past int32, (size - 1) * 8^6 is not
@example(size=8192, level=6, seed=3, longest=40, empty=0.0, pool=8**6, starts=False, block=empirical.ORBIT_BLOCK)
@example(size=2048, level=3, seed=1, longest=1, empty=0.0, pool=1, starts=True, block=empirical.ORBIT_BLOCK)
@example(size=5, level=1, seed=2, longest=3, empty=1.0, pool=8, starts=False, block=1)
def test_orbit_blocks_change_no_float_bit(size, level, seed, longest, empty, pool, starts, block):
    """_add_orbit_shares in blocks of whole orbits adds the same float bits
    and counts the same orbits as one block over the batch, for any block
    size, with orbits that have no visit and with start keys removed."""
    mod = 8**level
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, longest + 1, size) * (rng.random(size) >= empty)
    # a small pool of classes gives orbits repeated classes, so counts above 1
    classes = rng.integers(0, min(pool, mod), lengths.sum())
    keys = (np.repeat(np.arange(size), lengths) * mod + classes).astype(np.int32)
    start_keys = keys[np.cumsum(lengths)[lengths > 0] - lengths[lengths > 0]] if starts else None
    rng.shuffle(keys)  # the kernel writes keys pass by pass, not in orbit order
    sums = rng.random(mod)  # the shard's running sums from earlier batches
    expected = sums.copy()
    counted = one_block_orbit_shares(expected, keys.copy(), size, start_keys)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(empirical, "ORBIT_BLOCK", block)
        assert empirical._add_orbit_shares(sums, keys, size, start_keys) == counted
    assert sums.tobytes() == expected.tobytes()


def test_orbit_share_memory_is_bounded_by_the_block():
    """The share step of one full level-3 batch traces under 2 MiB past its
    keys: its temporaries follow ORBIT_BLOCK orbits, not the batch's 337,389
    keys (10.06 MiB as one block), and no int64 copy of the keys (2.6 MiB)
    is made to find the block bounds."""
    config = SweepConfig(n_max=200000, level=3, per_trajectory=True)
    keys = empirical._VisitKeys()
    lo = 190001
    hi = lo + empirical.PER_TRAJECTORY_BATCH - 1
    empirical._run_batch(config, lo, hi, hi, empirical._ShardTally(3), keys)
    batch = keys.take()
    assert batch.size == 337389
    sums = np.zeros(8**3)
    tracemalloc.start()
    try:
        empirical._add_orbit_shares(sums, batch, hi - lo + 1, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@functools.lru_cache(maxsize=None)
def small_value_runs(level):
    """run_trajectory of every value below the level's small-value bound,
    0 excluded: the oracle of the tabulated orbits."""
    return [run_trajectory(v, level) for v in range(1, _jump_tables(level).small)]


@functools.lru_cache(maxsize=None)
def small_value_visits(level):
    """The run_trajectory visits of the small values 1 .. small-1, one orbit
    after another, and each orbit's visit count: sparse, so the oracle grows
    with the orbits, not with small * 8^m."""
    runs = small_value_runs(level)
    visits = np.fromiter((c for run in runs for c in run.visits), dtype=np.int64)
    return visits, np.array([len(run.visits) for run in runs])


@settings(max_examples=40, deadline=None)
@given(level=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.5, 0.99]))
@example(level=1, seed=0, zeros=0.0)
@example(level=2, seed=1, zeros=0.5)
@example(level=3, seed=2, zeros=0.99)
@example(level=4, seed=3, zeros=0.0)
def test_fold_matches_the_orbits(level, seed, zeros):
    """The fold by subtree weight gives, exactly, each finished count times
    its value's orbit visits per class (from run_trajectory), plus each
    residue count over the k classes its jump lists, plus the per-class
    counts, for random counts with some share of them zero.  Folding the
    layers shallowest first would lose the weights of every chain of three
    or more segments."""
    tally = empirical._ShardTally(level)
    tables = tally._tables
    rng = np.random.default_rng(seed)
    for counts in (tally.finished, tally.residues, tally.classes):
        counts[:] = rng.integers(0, 2**20, counts.size, endpoint=True) * (rng.random(counts.size) >= zeros)
    expected = tally.classes.copy()
    visits, sizes = small_value_visits(level)
    np.add.at(expected, visits, np.repeat(tally.finished[1:], sizes))
    by_residue = np.bincount(tables.classes.ravel(), np.repeat(tally.residues, tables.k), 8**level)
    expected += by_residue.astype(np.int64)  # below 2^53, so exact
    folded = tally.fold()
    assert folded.dtype == np.int64 and np.array_equal(folded, expected)


def test_fold_memory_is_bounded_by_the_block():
    """A level-1 fold with every finished count nonzero traces under 2 MiB:
    it repeats the subtree weights over the 50,427 segment entries, not over
    the 620,235 entries of the expanded orbits (4.89 MiB as one repeat)."""
    tally = empirical._ShardTally(1)
    tally.finished[:] = 1
    tally.residues[:] = 1
    tracemalloc.start()
    try:
        tally.fold()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks only where os.fork exists")
def test_forked_per_trajectory_sweep_expands_the_orbits_first(monkeypatch):
    """A forked per-trajectory sweep expands the small-value orbits in the
    parent, before the fork, so the children share one copy; a forked plain
    sweep never expands them."""
    monkeypatch.setattr(empirical, "usable_cpus", lambda: 2)  # a pool on any runner
    monkeypatch.setattr(empirical, "PER_TRAJECTORY_CELLS", 1)  # 1024-start shards
    monkeypatch.setattr(empirical, "SHARD_SIZE", 1024)
    config = SweepConfig(n_max=3000, level=2, per_trajectory=True, workers=2)
    empirical._orbit_lists.cache_clear()
    plain = sweep(dataclasses.replace(config, per_trajectory=False))
    assert empirical._orbit_lists.cache_info().currsize == 0
    stats = sweep(config)
    assert empirical._orbit_lists.cache_info().currsize == 1
    assert stats_identical(plain, reference_sweep(3000, level=2))
    assert stats_identical(stats, sweep(dataclasses.replace(config, workers=1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 30)), max_size=40))
@example([])
@example([(7, 1)])
@example([(9, 3), (2, 4), (3, 2), (3, 5)])  # starts that decrease and ranges that overlap
def test_ranges_is_the_concatenated_ranges(ranges):
    first = np.array([f for f, _ in ranges], dtype=np.int64)
    lengths = np.array([n for _, n in ranges], dtype=np.int64)
    expected = np.concatenate([np.arange(f, f + n) for f, n in ranges] + [np.arange(0)])
    index = empirical._ranges(first, lengths)
    assert index.dtype == np.int64 and index.tolist() == expected.tolist()


def collatz_path(n, triple_steps):
    """Every Collatz value after n within the given number of triple steps."""
    path = []
    for _ in range(3 * triple_steps):
        n = collatz_step(n)
        path.append(n)
    return path


class TestJumpTables:
    @pytest.mark.parametrize("level", range(1, 7))
    def test_shape(self, level):
        tables = _jump_tables(level)
        assert tables.k == max(1, 6 - level)
        assert tables.small == 5 * 8 ** (tables.k - 1)
        assert tables.classes.shape == (8 ** (tables.k + level - 1), tables.k)
        assert tables.mult.size == tables.add.size == 8**tables.k  # the 8-entry branch table at levels 5-6
        assert tables.safe == INT64_SAFE // tables.growth
        assert tables.growth <= tables.small  # a pass's top slice is never empty
        assert not tables.mult.flags.writeable
        forest = (tables.below, tables.seg_start, tables.seg_class, tables.lengths, tables.small_peak)
        assert not any(array.flags.writeable for array in (*forest, *tables.layers))
        assert not any(array.flags.writeable for array in empirical._orbit_lists(level))

    @settings(max_examples=300, deadline=None)
    @given(
        level=st.integers(1, 6),
        where=st.one_of(
            st.integers(0, 10**6),
            st.integers(-(10**6), 0),
            st.integers(0, 2**40),
        ),
    )
    @example(level=1, where=0)
    @example(level=1, where=-1)
    @example(level=3, where=2**40)
    @example(level=1, where=192)  # n = 512: T3^2(n) = 8, which passes 4 and 2 on its way to 1
    def test_jump_matches_triple_steps(self, level, where):
        tables = _jump_tables(level)
        # where >= 0 counts up from the small-value bound, where < 0 down from the jump bound
        n = tables.small + where if where >= 0 else tables.safe + 1 + where
        s, r = n % 8**tables.k, n % 8 ** (tables.k + level - 1)
        expected, classes = n, []
        for _ in range(tables.k):
            classes.append(expected % 8**level)
            expected = third_iterate(expected)
        assert int(tables.mult[s]) * (n >> 3 * tables.k) + int(tables.add[s]) == expected
        assert tables.classes[r].tolist() == classes
        path = collatz_path(n, tables.k)
        assert max(path) <= tables.growth * n <= INT64_SAFE
        # the orbit is checked for the cycle after whole triple steps only
        assert not CYCLE.intersection(path[2 : 3 * tables.k - 1 : 3])

    @settings(max_examples=200, deadline=None)
    @given(level=st.integers(1, 6), data=st.data())
    def test_jump_steps_and_peaks(self, level, data):
        # up to tables.k triple steps from values up to the jump bound stay inside int64
        tables = _jump_tables(level)
        k = data.draw(st.integers(1, tables.k))
        values = data.draw(st.lists(st.integers(1, tables.safe), min_size=1, max_size=20))
        ends, peaks = _jump(np.array(values, dtype=np.int64), k)
        for x, end, peak in zip(values, ends.tolist(), peaks.tolist()):
            expected = x
            for _ in range(k):
                expected = third_iterate(expected)
            assert end == expected
            assert peak == max(x, *collatz_path(x, k))

    @pytest.mark.parametrize("level", range(1, 7))
    def test_growth_is_the_least_bound(self, level):
        tables = _jump_tables(level)
        ratios = (
            max(collatz_path(n, tables.k)) / n
            for n in range(tables.small, tables.small + 8**tables.k)
        )
        assert tables.growth - 1 < max(ratios) <= tables.growth

    @pytest.mark.parametrize("level", range(1, 7))
    def test_small_value_orbits(self, level):
        """Each small value's segments, concatenated along its chain of
        drops, are its orbit's classes in orbit order; its orbit length, peak
        and layer follow, and its expanded class list is the orbit, in orbit
        order."""
        tables = _jump_tables(level)
        assert tables.seg_start.size == tables.small + 1
        forest = (tables.below, tables.seg_start, tables.lengths, tables.small_peak, *tables.layers)
        assert all(array.dtype == np.int32 for array in forest)
        assert tables.seg_class.dtype == np.min_scalar_type(1 - 8**level)
        below, starts, seg = tables.below.tolist(), tables.seg_start.tolist(), tables.seg_class.tolist()
        peaks, lengths = tables.small_peak.tolist(), tables.lengths.tolist()
        layer_of = {v: d for d, layer in enumerate(tables.layers) for v in layer.tolist()}
        assert len(layer_of) == sum(layer.size for layer in tables.layers)  # no value in two layers
        tail_start, tail_class = empirical._orbit_lists(level)
        assert tail_class.dtype == tables.seg_class.dtype
        tail_start, tail = tail_start.tolist(), tail_class.tolist()
        assert starts[:2] == tail_start[:2] == [0, 0] and below[0] == 0  # 0 starts no orbit
        assert starts[-1] == len(seg) and tail_start[-1] == len(tail)
        for v, run in enumerate(small_value_runs(level), start=1):
            visits, segments, u = [], 0, v
            while u:
                assert below[u] < u and (starts[u] < starts[u + 1]) == (below[u] > 0)
                visits += seg[starts[u] : starts[u + 1]]
                segments, u = segments + (below[u] > 0), below[u]
            assert visits == list(run.visits)
            assert (peaks[v], lengths[v]) == (run.max_value, run.steps)
            assert layer_of.get(v) == (segments - 1 if segments else None)
            assert tail[tail_start[v] : tail_start[v + 1]] == list(run.visits)
        assert tables.longest == max(run.steps for run in small_value_runs(level))

    @pytest.mark.parametrize("level, bound", [(1, 2.5), (2, 4), (3, 3), (4, 2), (5, 1), (6, 2.5)])
    def test_build_memory_stays_near_the_tables(self, level, bound):
        """The uncached build reads mult and add off one int32 jump over
        2 * 8^k values, writes each class column into its int32 table and
        keeps the int32 first-descent forest, with no per-value class counts.
        It traces 1.8, 1.4, 1.3, 1.1, 0.3 and 2.0 MiB at levels 1-6 (3.0,
        1.8, 1.6, 1.5, 0.4 and 3.1 MiB stepping in int64, and 7.4 MiB at
        level 6 with 8^6-entry jump tables)."""
        tracemalloc.start()
        try:
            _jump_tables.__wrapped__(level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20

    def test_orbit_list_memory_stays_near_the_lists(self):
        """The uncached level-1 expansion of the 620,235 orbit entries traces
        under 3 MiB (2.1 MiB) to keep 0.75 MiB: it writes each link's segment
        straight into the int8 lists, with no int32 key per entry and no sort
        (5.5 MiB with them)."""
        _jump_tables(1)
        tracemalloc.start()
        try:
            empirical._orbit_lists.__wrapped__(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("level", range(1, 7))
    def test_int32_build_is_exact(self, level):
        """The build steps in int32 over 0 .. 2 * 8^k - 1 and over the class
        residues 0 .. 8^(k+m-1) - 1, with the values and peaks of int64.  Its
        widest values are pinned: a larger small-value bound or a longer jump
        changes them here, and 36 times each must stay below 2^31."""
        tables = _jump_tables(level)
        for size in (2 * 8**tables.k, 8 ** (tables.k + level - 1)):
            x = np.arange(size, dtype=np.int32)
            narrow, wide = _jump(x, tables.k), _jump(x.astype(np.int64), tables.k)
            assert all(a.dtype == np.int32 and np.array_equal(a, b) for a, b in zip(narrow, wide))
        jump_peak = int(_jump(np.arange(2 * 8**tables.k, dtype=np.int32), tables.k)[1].max())
        widest = (jump_peak, int(tables.small_peak.max()), tables.longest, int(tables.seg_start[-1]))
        assert widest == {
            1: (3_359_230, 27_114_424, 92, 50_427),
            2: (186_622, 1_276_936, 69, 6_491),
            3: (15_550, 13_120, 43, 993),
            4: (862, 9_232, 37, 119),
            5: (70, 16, 2, 2),
            6: (70, 16, 2, 2),
        }[level]
        assert 36 * max(widest) < 2**31

    @pytest.mark.parametrize("level", range(1, 7))
    def test_int32_jump_tables_are_exact(self, level):
        # T3(n) = (M*n + R)/8 on each class mod 8; the jump form recomputed in
        # int64 as the product of the branch multipliers and T3^k of the residue
        tables = _jump_tables(level)
        branch_mult = np.array(MULTIPLIERS, dtype=np.int64)
        branch_add = np.array(OFFSETS, dtype=np.int64)
        s = np.arange(8**tables.k, dtype=np.int64)
        value, mult = s, np.ones_like(s)
        for _ in range(tables.k):
            sigma = value & 7
            mult = mult * branch_mult[sigma]
            value = (branch_mult[sigma] * value + branch_add[sigma]) >> 3
        assert tables.mult.dtype == tables.add.dtype == np.int32
        assert np.array_equal(tables.mult, mult) and np.array_equal(tables.add, value)
        # classes[r] steps the residue r itself, in int64
        value = np.arange(tables.classes.shape[0], dtype=np.int64)
        for step in range(tables.k):
            assert np.array_equal(tables.classes[:, step], value % 8**level)
            sigma = value & 7
            value = (branch_mult[sigma] * value + branch_add[sigma]) >> 3
        assert tables.classes.dtype == np.int32


class TestComparison:
    def test_theoretical_column_level1(self):
        table = compare_to_theory(sweep(SweepConfig(n_max=100)))
        assert table.theoretical * 4 == tuple(
            Fraction(1, 6) if i % 2 == 0 else Fraction(1, 12) for i in range(8)
        )
        assert table.theoretical == stationary_distribution(build_matrix(1))

    def test_table_against_small_sweep(self):
        stats = sweep(SweepConfig(n_max=10_000))
        table = compare_to_theory(stats)
        assert table.total_visits == stats.total_visits
        assert table.empirical.shape == table.deviation.shape == (8,)
        assert table.max_deviation < 0.02
        even_mass = table.empirical[::2].sum()
        assert abs(even_mass - 2 / 3) < 0.02

    def test_rejects_empty_stats(self):
        empty = TrajectoryStats(
            level=1, visit_counts=np.zeros(8, dtype=np.int64), max_value=0, trajectories=0
        )
        with pytest.raises(ValueError):
            compare_to_theory(empty)
        with pytest.raises(ValueError):
            compare_to_theory(empty, use_per_trajectory=True)

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


def reference_rows(level, freqs):
    """(class, theoretical, empirical, deviation) per class, from exact Fraction weights."""
    even, odd = Fraction(1, 6 * 8 ** (level - 1)), Fraction(1, 12 * 8 ** (level - 1))
    rows = []
    for i, f in enumerate(freqs):
        w = float(even if i % 2 == 0 else odd)
        rows.append((i, w, f, abs(f - w)))
    return rows


def reference_csv(stats):
    counts = stats.visit_counts.tolist()
    total = sum(counts)
    lines = ["class,theoretical,empirical,deviation"]
    for i, w, f, d in reference_rows(stats.level, [c / total for c in counts]):
        lines.append(f"{i},{w:.12f},{f:.12f},{d:.12f}")
    lines.append(f"# max_value={stats.max_value} total_visits={total}")
    return "\n".join(lines) + "\n"


def reference_json_dict(stats):
    counts = stats.visit_counts.tolist()
    total = sum(counts)
    rows = reference_rows(stats.level, [c / total for c in counts])
    sums = stats.traj_freq_sums.tolist()
    per_traj = reference_rows(stats.level, [s / stats.traj_counted for s in sums])

    def row_list(rows):
        return [{"class": i, "theoretical": w, "empirical": f, "deviation": d} for i, w, f, d in rows]

    return {
        "level": stats.level,
        "rows": row_list(rows),
        "max_value": stats.max_value,
        "total_visits": total,
        "trajectories": stats.trajectories,
        "max_deviation": max(d for *_, d in rows),
        "per_trajectory_rows": row_list(per_traj),
    }


# A level-6 example takes seconds, so level 6 runs as the pinned example only.
@settings(max_examples=15, deadline=None)
@given(
    level=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(1, 40),
    max_value=st.integers(1, 2**70),
    counted=st.integers(1, 2**40),
)
@example(level=6, seed=0, bits=40, max_value=2**64, counted=2**40)
@example(level=1, seed=1, bits=1, max_value=5, counted=1)
def test_rendering_matches_per_row_reference(level, seed, bits, max_value, counted):
    """to_csv and to_json_dict give the bytes of the per-row Python formulas.

    Counts go up to 2^40, fewer bits at levels 5 and 6, so that their total
    stays below 2^53, where array division rounds like exact division.  The
    JSON payloads are compared as values, keys in order and types, which fix
    their bytes."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 2 ** min(bits, 53 - 3 * level), size=8**level)
    counts[rng.integers(8**level)] += 1
    sums = rng.random(8**level) * counted
    stats = TrajectoryStats(level, counts, max_value, int(rng.integers(1, 2**40)), sums, counted)
    table = compare_to_theory(stats)
    per_traj = compare_to_theory(stats, use_per_trajectory=True)
    assert to_csv(table) == reference_csv(stats)
    payload = to_json_dict(table, per_traj)
    assert payload == reference_json_dict(stats)
    assert [(key, type(value)) for key, value in payload.items()] == [
        ("level", int),
        ("rows", list),
        ("max_value", int),
        ("total_visits", int),
        ("trajectories", int),
        ("max_deviation", float),
        ("per_trajectory_rows", list),
    ]
    row_types = [("class", int), ("theoretical", float), ("empirical", float), ("deviation", float)]
    for row in payload["rows"] + payload["per_trajectory_rows"]:
        assert [(key, type(value)) for key, value in row.items()] == row_types


# Floats of every kind a table can hold: zero, subnormals, values near 1 and
# in between.
TABLE_FLOATS = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),
    st.floats(min_value=1 - 2**-20, max_value=1.0, exclude_max=True),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


def random_table(level, pool, seed, max_value):
    rng = np.random.default_rng(seed)
    empirical, deviation = rng.choice(np.array(pool), size=(2, 8**level))
    return ComparisonTable(
        level, alternating_weights(level), empirical, deviation, max_value,
        int(rng.integers(1, 2**62)), int(rng.integers(1, 2**40)),
    )


# A level-6 oracle takes seconds in json's pure-Python encoder, so level 6
# runs as the pinned example only; ROW_BLOCK is drawn small so that lower
# levels cross block bounds too.
@settings(max_examples=25, deadline=None)
@given(
    level=st.integers(1, 5),
    pool=st.lists(TABLE_FLOATS, min_size=1, max_size=6),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    max_value=st.integers(1, 2**70),
    per_trajectory=st.booleans(),
    block=st.integers(1, 5000),
)
@example(level=6, pool=[0.0, 5e-324, 1 - 2**-53, 0.5], seeds=(0, 1), max_value=2**64,
         per_trajectory=False, block=empirical.ROW_BLOCK)
def test_write_json_bytes_match_json_dumps(level, pool, seeds, max_value, per_trajectory, block):
    table = random_table(level, pool, seeds[0], max_value)
    per_traj = random_table(level, pool, seeds[1], max_value) if per_trajectory else None
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(empirical, "ROW_BLOCK", block)
        write_json(out, table, per_traj)
    want = json.dumps(to_json_dict(table, per_traj), indent=2) + "\n"
    # lines, not whole strings: pytest's diff of two level-6 texts runs for minutes
    assert out.getvalue().splitlines(keepends=True) == want.splitlines(keepends=True)


# ROW_BLOCK is drawn small so that the rows cross block bounds at every level.
@settings(max_examples=25, deadline=None)
@given(
    level=st.integers(1, 5),
    pool=st.lists(TABLE_FLOATS, min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    max_value=st.integers(1, 2**70),
    block=st.integers(1, 5000),
)
@example(level=6, pool=[0.0, 5e-324, 1 - 2**-53, 0.5], seed=0, max_value=2**64, block=empirical.ROW_BLOCK)
def test_write_csv_bytes_match_to_csv(level, pool, seed, max_value, block):
    table = random_table(level, pool, seed, max_value)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(empirical, "ROW_BLOCK", block)
        write_csv(out, table)
    assert out.getvalue().splitlines(keepends=True) == to_csv(table).splitlines(keepends=True)


def test_merge_is_commutative():
    a = sweep(SweepConfig(n_max=600))
    b = sweep(SweepConfig(n_max=900))
    assert stats_identical(a.merge(b), b.merge(a))
    assert not stats_identical(a, b)


def test_merge_rejects_other_levels():
    a = sweep(SweepConfig(n_max=600))
    b = sweep(SweepConfig(n_max=600, level=2))
    with pytest.raises(ValueError):
        a.merge(b)


def test_merge_rejects_plain_with_per_trajectory():
    plain = sweep(SweepConfig(n_max=600))
    tracked = sweep(SweepConfig(n_max=600, per_trajectory=True))
    for a, b in ((plain, tracked), (tracked, plain)):
        with pytest.raises(ValueError, match="per-trajectory"):
            a.merge(b)
