"""Trajectory sweeps: quasi-stationary class-visit frequencies and max excursions.

Every starting value up to n_max is iterated under the third iterate until it
reaches the cycle {1, 2, 4}; the mod-8^m class of each pre-absorption value is
tallied and the largest intermediate Collatz value anywhere along the way is
tracked.  The hot path is a vectorized int64 kernel over contiguous shards;
values that could overflow a 64-bit triple step are finished exactly with
native big integers.  Shard boundaries are fixed, so totals are identical for
any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from .errors import CapacityError, TrajectoryCapError
from .maps import CYCLE, MULTIPLIERS, OFFSETS, collatz_step
from .measure import nu

#: Largest value for which one triple step (36*n + 20) stays inside int64.
INT64_SAFE = (2**63 - 21) // 36

#: Fixed shard width; independent of worker count so merges are reproducible.
SHARD_SIZE = 1 << 20

#: Per-trajectory tallies keep roughly this many int32 cells per shard.
PER_TRAJECTORY_CELLS = 1 << 23

MAX_SWEEP_LEVEL = 6

_M8 = np.array(MULTIPLIERS, dtype=np.int64)
_R8 = np.array(OFFSETS, dtype=np.int64)
# Largest intermediate Collatz value within one triple step, per branch:
# odd residues peak at 3n+1, residues 2,6 at (3n+2)/2, residues 0,4 at n/2.
_PEAK_MULT = np.array((1, 3, 3, 3, 1, 3, 3, 3), dtype=np.int64)
_PEAK_ADD = np.array((0, 1, 2, 1, 0, 1, 2, 1), dtype=np.int64)
_PEAK_SHIFT = np.array((1, 0, 1, 0, 1, 0, 1, 0), dtype=np.int64)


@dataclass(frozen=True)
class TrajectoryRun:
    """One orbit's recorded classes, max excursion, and step count."""

    start: int
    level: int
    visits: tuple[int, ...]
    max_value: int
    steps: int
    capped: bool


def run_trajectory(
    n0: int, level: int = 1, include_start: bool = True, step_cap: int = 10**9
) -> TrajectoryRun:
    """Pure-Python exact reference orbit; also the overflow fallback path.

    Records the class of every value outside {1, 2, 4} (the start too, when
    include_start) and stops on first arrival in the cycle.  All three
    intermediate Collatz values of each triple step count toward max_value.
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    mod = 8**level
    visits: list[int] = []
    n, max_value, steps = n0, n0, 0
    if include_start and n0 not in CYCLE:
        visits.append(n0 % mod)
    while n not in CYCLE:
        if steps >= step_cap:
            return TrajectoryRun(n0, level, tuple(visits), max_value, steps, True)
        first = collatz_step(n)
        second = collatz_step(first)
        n = collatz_step(second)
        steps += 1
        max_value = max(max_value, first, second, n)
        if n not in CYCLE:
            visits.append(n % mod)
    return TrajectoryRun(n0, level, tuple(visits), max_value, steps, False)


@dataclass
class TrajectoryStats:
    """Aggregated sweep results; merge is associative and commutative."""

    level: int
    visit_counts: list[int]
    max_value: int
    trajectories: int
    traj_freq_sums: list[float] | None = None  # sum of per-orbit normalized histograms
    traj_counted: int = 0  # orbits contributing at least one visit

    @property
    def total_visits(self) -> int:
        return sum(self.visit_counts)

    def frequencies(self) -> list[float]:
        total = self.total_visits
        if total <= 0:
            raise ValueError("no visits recorded")
        return [c / total for c in self.visit_counts]

    def per_trajectory_frequencies(self) -> list[float]:
        if self.traj_freq_sums is None or self.traj_counted == 0:
            raise ValueError("per-trajectory tallies were not collected")
        return [s / self.traj_counted for s in self.traj_freq_sums]

    def merge(self, other: "TrajectoryStats") -> "TrajectoryStats":
        if self.level != other.level:
            raise ValueError("cannot merge stats at different levels")
        sums = None
        if self.traj_freq_sums is not None and other.traj_freq_sums is not None:
            sums = [a + b for a, b in zip(self.traj_freq_sums, other.traj_freq_sums)]
        return TrajectoryStats(
            level=self.level,
            visit_counts=[a + b for a, b in zip(self.visit_counts, other.visit_counts)],
            max_value=max(self.max_value, other.max_value),
            trajectories=self.trajectories + other.trajectories,
            traj_freq_sums=sums,
            traj_counted=self.traj_counted + other.traj_counted,
        )


@dataclass(frozen=True)
class SweepConfig:
    n_max: int
    level: int = 1
    include_start: bool = True
    per_trajectory: bool = False
    workers: int = 1
    step_cap: int = 10**9

    def __post_init__(self):
        if self.n_max < 5:
            raise ValueError(f"n_max must be >= 5, got {self.n_max}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.level > MAX_SWEEP_LEVEL:
            raise CapacityError(f"level {self.level} exceeds sweep cap {MAX_SWEEP_LEVEL}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def _sweep_shard(config: SweepConfig, lo: int, hi: int) -> TrajectoryStats:
    """Vectorized kernel over starting values [lo, hi].

    Each pass drops the orbits that reached {1, 2, 4}, tallies the classes of
    the rest (the starts only when include_start), hands values above
    INT64_SAFE to run_trajectory with the steps they have left, and applies
    one triple step.
    """
    mod = 8**config.level
    counts = np.zeros(mod, dtype=np.int64)
    rows = np.zeros((hi - lo + 1, mod), dtype=np.int32) if config.per_trajectory else None
    active = np.arange(lo, hi + 1, dtype=np.int64)
    ids = np.arange(active.size, dtype=np.int64)
    max_value = hi
    exact_continuations: list[tuple[int, int, int]] = []  # (id, current value, steps taken)
    steps = 0
    while True:
        outside = (active != 1) & (active != 2) & (active != 4)
        active, ids = active[outside], ids[outside]
        if steps or config.include_start:
            cls = active % mod
            counts += np.bincount(cls, minlength=mod)
            if rows is not None:
                rows[ids, cls] += 1  # ids are distinct, so no update is lost
        big = active > INT64_SAFE
        if big.any():
            exact_continuations.extend(
                (i, v, steps) for i, v in zip(ids[big].tolist(), active[big].tolist())
            )
            active, ids = active[~big], ids[~big]
        if not active.size:
            break
        if steps >= config.step_cap:
            raise TrajectoryCapError(lo + int(ids[0]), steps)
        sigma = active & 7
        peaks = (_PEAK_MULT[sigma] * active + _PEAK_ADD[sigma]) >> _PEAK_SHIFT[sigma]
        active = (_M8[sigma] * active + _R8[sigma]) >> 3
        max_value = max(max_value, int(peaks.max()), int(active.max()))
        steps += 1

    for traj_id, value, taken in exact_continuations:
        run = run_trajectory(
            value, level=config.level, include_start=False, step_cap=config.step_cap - taken
        )
        if run.capped:
            raise TrajectoryCapError(lo + traj_id, taken + run.steps)
        max_value = max(max_value, run.max_value)
        tail = np.bincount(np.asarray(run.visits, dtype=np.int64), minlength=mod)
        counts += tail
        if rows is not None:
            rows[traj_id] += tail

    freq_sums, counted = None, 0
    if rows is not None:
        row_totals = rows.sum(axis=1)
        visited = row_totals > 0
        counted = int(visited.sum())
        freq_sums = (rows[visited] / row_totals[visited, None]).sum(axis=0).tolist()
    return TrajectoryStats(config.level, counts.tolist(), max_value, hi - lo + 1, freq_sums, counted)


def sweep(config: SweepConfig, shard_size: int = SHARD_SIZE) -> TrajectoryStats:
    """Aggregate all orbits starting in [1, n_max]; deterministic totals.

    Shards of fixed width are processed independently (optionally by a
    process pool) and merged in shard order, so results depend on shard_size
    but never on the worker count.
    """
    if config.per_trajectory:
        shard_size = min(shard_size, max(1024, PER_TRAJECTORY_CELLS // 8**config.level))
    los = range(1, config.n_max + 1, shard_size)
    his = [min(lo + shard_size - 1, config.n_max) for lo in los]
    kernel = partial(_sweep_shard, config)
    if config.workers > 1 and len(los) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            return reduce(TrajectoryStats.merge, pool.map(kernel, los, his))
    return reduce(TrajectoryStats.merge, map(kernel, los, his))


@dataclass(frozen=True)
class ComparisonRow:
    class_index: int
    theoretical: Fraction
    empirical: float
    deviation: float


@dataclass(frozen=True)
class ComparisonTable:
    level: int
    rows: tuple[ComparisonRow, ...]
    max_value: int
    total_visits: int
    trajectories: int

    @property
    def max_deviation(self) -> float:
        return max(row.deviation for row in self.rows)


def theoretical_weights(level: int) -> tuple[Fraction, ...]:
    """Stationary weights at a level: nu(class mod 8) / 8^{m-1}."""
    scale = 8 ** (level - 1)
    return tuple(nu(i & 7) / scale for i in range(8**level))


def compare_to_theory(stats: TrajectoryStats, use_per_trajectory: bool = False) -> ComparisonTable:
    """Per-class table of stationary weight vs empirical frequency."""
    if stats.total_visits <= 0:
        raise ValueError("stats contain no recorded visits")
    freqs = (
        stats.per_trajectory_frequencies() if use_per_trajectory else stats.frequencies()
    )
    weights = theoretical_weights(stats.level)
    rows = tuple(
        ComparisonRow(i, weights[i], freqs[i], abs(freqs[i] - float(weights[i])))
        for i in range(8**stats.level)
    )
    return ComparisonTable(stats.level, rows, stats.max_value, stats.total_visits, stats.trajectories)


def to_csv(table: ComparisonTable) -> str:
    """Deterministic CSV: fixed 12-decimal columns plus a stats comment trailer."""
    lines = ["class,theoretical,empirical,deviation"]
    for row in table.rows:
        lines.append(
            f"{row.class_index},{float(row.theoretical):.12f},{row.empirical:.12f},{row.deviation:.12f}"
        )
    lines.append(f"# max_value={table.max_value} total_visits={table.total_visits}")
    return "\n".join(lines) + "\n"


def to_json_dict(table: ComparisonTable, per_trajectory: ComparisonTable | None = None) -> dict:
    """JSON payload mirroring the CSV fields, plus per-trajectory rows if collected."""

    def row_list(t: ComparisonTable) -> list[dict]:
        return [
            {
                "class": row.class_index,
                "theoretical": float(row.theoretical),
                "empirical": row.empirical,
                "deviation": row.deviation,
            }
            for row in t.rows
        ]

    payload = {
        "level": table.level,
        "rows": row_list(table),
        "max_value": table.max_value,
        "total_visits": table.total_visits,
        "trajectories": table.trajectories,
        "max_deviation": table.max_deviation,
    }
    if per_trajectory is not None:
        payload["per_trajectory_rows"] = row_list(per_trajectory)
    return payload
