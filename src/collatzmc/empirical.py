"""Trajectory sweeps: quasi-stationary class-visit frequencies and max excursions.

Every starting value up to n_max is iterated under the third iterate until it
reaches the cycle {1, 2, 4}; the mod-8^m class of each pre-absorption value is
tallied and the largest intermediate Collatz value anywhere along the way is
tracked.  The hot path is a vectorized int64 kernel over contiguous shards.
It advances each orbit several triple steps per pass with residue jump tables
(n mod 8^k fixes the next k branches), finishes small values from tabulated
orbits, and finishes values that could overflow int64 exactly with native big
integers.  Shard boundaries are fixed, so totals are identical for any worker
count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import repeat

import numpy as np

from .errors import CapacityError, ConsistencyError, TrajectoryCapError
from .maps import CYCLE, MULTIPLIERS, OFFSETS, collatz_step
from .measure import alternating_weights

#: Largest value for which one triple step (36*n + 20) stays inside int64.
INT64_SAFE = (2**63 - 21) // 36

#: Fixed shard width; independent of worker count so merges are reproducible.
SHARD_SIZE = 1 << 20

#: Per-trajectory shards cover about this many (orbit, class) cells, with at
#: least 1024 starts: shard * 8^m <= 2^28 at every level.  Each shard's orbit
#: shares are summed separately and the shards merge in order, so the shard
#: bounds fix the float sums, and with them the output bytes.
PER_TRAJECTORY_CELLS = 1 << 23

#: Per-trajectory shards run the kernel on this many starts at a time and
#: fold each batch's visit keys into the running sums before the next.
PER_TRAJECTORY_BATCH = 1 << 13

#: CSV and JSON rows rendered per write: a few hundred KB of text at a time.
ROW_BLOCK = 1 << 12

#: Keys reserved per shard for the visit-key buffer; np.empty maps its pages
#: only as keys are written, and the buffer doubles if a batch needs more.
VISIT_KEYS_RESERVE = 1 << 22

MAX_SWEEP_LEVEL = 6

#: cgroup v2 CPU bandwidth limit: "<quota> <period>" in microseconds, or
#: "max <period>" when unlimited.
CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"

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


def run_trajectory(n0: int, level: int = 1, step_cap: int = 10**9) -> TrajectoryRun:
    """Pure-Python exact reference orbit; also the overflow fallback path.

    Records the class of every value outside {1, 2, 4}, the start included,
    and stops on first arrival in the cycle.  All three intermediate Collatz
    values of each triple step count toward max_value.
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if step_cap < 0:
        raise ValueError(f"step_cap must be >= 0, got {step_cap}")
    mod = 8**level
    visits: list[int] = []
    n, max_value, steps = n0, n0, 0
    if n0 not in CYCLE:
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


@dataclass(eq=False)
class TrajectoryStats:
    """Aggregated sweep results; merge is associative and commutative.

    The arrays have one entry per class mod 8^m.  frequencies() rounds like
    exact division while the total visit count stays below 2^53.
    """

    level: int
    visit_counts: np.ndarray  # int64 visits per class
    max_value: int
    trajectories: int
    # float64 per class, the sum over orbits of the orbit's share of visits in
    # that class, added in orbit order within each shard
    traj_freq_sums: np.ndarray | None = None
    traj_counted: int = 0  # orbits contributing at least one visit

    @property
    def total_visits(self) -> int:
        return int(self.visit_counts.sum())

    def frequencies(self) -> np.ndarray:
        total = self.total_visits
        if total <= 0:
            raise ValueError("no visits recorded")
        return self.visit_counts / total

    def per_trajectory_frequencies(self) -> np.ndarray:
        if self.traj_freq_sums is None or self.traj_counted == 0:
            raise ValueError("per-trajectory tallies were not collected")
        return self.traj_freq_sums / self.traj_counted

    def merge(self, other: "TrajectoryStats") -> "TrajectoryStats":
        if self.level != other.level:
            raise ValueError("cannot merge stats at different levels")
        sums = None
        if self.traj_freq_sums is not None and other.traj_freq_sums is not None:
            sums = self.traj_freq_sums + other.traj_freq_sums
        return TrajectoryStats(
            level=self.level,
            visit_counts=self.visit_counts + other.visit_counts,
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
        if self.step_cap < 0:
            raise ValueError(f"step_cap must be >= 0, got {self.step_cap}")


@dataclass(frozen=True)
class _JumpTables:
    """Per-level tables of the sweep kernel; every array is read-only.

    A jump is k triple steps.  For r = n mod 8^(k+m-1),
    T3^k(n) = mult[r] * (n >> 3k) + add[r], and classes[r] lists the mod-8^m
    classes of n, T3(n), ..., T3^(k-1)(n).  Every Collatz value met within one
    jump from n >= small is at most growth * n, and no value listed is in
    {1, 2, 4}.  The orbits from values v below small are tabulated: visits (v
    itself included, unless it is in {1, 2, 4}) as (class, count) entries
    small_class/small_count[small_start[v] : small_start[v+1]], max excursion
    and triple steps.
    """

    k: int
    small: int
    growth: int
    mult: np.ndarray
    add: np.ndarray
    classes: np.ndarray
    small_start: np.ndarray
    small_class: np.ndarray
    small_count: np.ndarray
    small_peak: np.ndarray
    small_steps: np.ndarray

    @property
    def safe(self) -> int:
        """Largest value that may jump: its intermediates stay below INT64_SAFE."""
        return INT64_SAFE // self.growth

    def small_visits(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Visit entries (owner, class, count) of the orbits from values below
        small; owner indexes values, and no (owner, class) pair repeats."""
        first = self.small_start[values]
        lengths = self.small_start[values + 1] - first
        owner = np.repeat(np.arange(values.size), lengths)
        at = np.arange(owner.size) + (first - np.cumsum(lengths) + lengths)[owner]
        return owner, self.small_class[at], self.small_count[at]

    @cached_property
    def longest(self) -> int:
        """The most triple steps any tabulated orbit takes."""
        return int(self.small_steps.max())

    @cached_property
    def tail_visits(self) -> tuple[np.ndarray, np.ndarray]:
        """The small-value orbits' visits as one int32 class list, each class
        repeated by its count, and where each value's visits start in it:
        those of v are classes[starts[v] : starts[v+1]].  Only per-trajectory
        sweeps read it: 2.5 MB at level 1, 20 KB at level 3."""
        starts = np.r_[0, np.cumsum(self.small_count)][self.small_start]
        classes = np.repeat(self.small_class.astype(np.int32), self.small_count)
        starts.setflags(write=False)
        classes.setflags(write=False)
        return starts, classes


class _ShardTally:
    """A shard's visit counts before the fold into classes: per kernel
    residue, each standing for the k classes its jump lists, per small value
    whose tabulated orbit ended an orbit, and per class for the rest.  The
    batches of a shard add into one tally, so the fold runs once a shard."""

    def __init__(self, level: int):
        self._tables = _jump_tables(level)
        self.residues = np.zeros(self._tables.classes.shape[0], dtype=np.int64)
        self.finished = np.zeros(self._tables.small, dtype=np.int64)
        self.classes = np.zeros(8**level, dtype=np.int64)

    def fold(self) -> np.ndarray:
        """Add the residue and small-value counts into classes, and return
        them: the visits per class mod 8^m."""
        hit = np.flatnonzero(self.finished)
        owner, cls, visits = self._tables.small_visits(hit)
        np.add.at(self.classes, cls, visits * self.finished[hit][owner])
        for column in self._tables.classes.T:
            np.add.at(self.classes, column, self.residues)
        return self.classes


class _VisitKeys:
    """Grow-only int32 buffer of one batch's visit keys id * 8^m + class.

    A shard's batches reuse it, so each batch writes into pages already
    mapped instead of a fresh array.  Keys may arrive as int64; a batch's
    keys are below PER_TRAJECTORY_BATCH * 8^6 = 2^31, so int32 holds them.
    """

    def __init__(self):
        self._buffer = np.empty(VISIT_KEYS_RESERVE, dtype=np.int32)
        self._size = 0

    def extend(self, count: int) -> np.ndarray:
        """Room for count more keys, as a view the caller fills in; the
        kernel writes its keys there, with no temporary array to copy."""
        start, end = self._size, self._size + count
        if end > self._buffer.size:
            grown = np.empty(max(end, 2 * self._buffer.size), dtype=np.int32)
            grown[:start] = self._buffer[:start]
            self._buffer = grown
        self._size = end
        return self._buffer[start:end]

    def append(self, keys: np.ndarray) -> None:
        self.extend(keys.size)[:] = keys.ravel()

    def take(self) -> np.ndarray:
        """The keys appended since the last take, as a view into the buffer."""
        keys, self._size = self._buffer[: self._size], 0
        return keys


def _triple_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One third-iterate step on int64 values and the largest Collatz value inside it."""
    sigma = x & 7
    peak = (_PEAK_MULT[sigma] * x + _PEAK_ADD[sigma]) >> _PEAK_SHIFT[sigma]
    x = (_M8[sigma] * x + _R8[sigma]) >> 3
    return np.maximum(peak, x), x


def _jump_peak(x: np.ndarray, k: int) -> int:
    """Largest Collatz value met within the next k triple steps of the values x."""
    top = 0
    for _ in range(k):
        peak, x = _triple_step(x)
        top = max(top, int(peak.max()))
    return top


@lru_cache(maxsize=None)
def _jump_tables(level: int) -> _JumpTables:
    """Build the kernel tables for one level.

    A jump is k = 6 - m triple steps (1 at level 6), so the residue tables
    have 8^(k+m-1) = 8^5 entries at every level up to 5 (8^6 at level 6,
    where the kernel steps one at a time).  Longer jumps mean fewer passes
    over the live orbits; they raise the growth bound G (52, 23, 16, 7 and 5
    at k = 5 .. 1), which lowers the jump bound INT64_SAFE // G.
    """
    k = max(1, 6 - level)
    mod = 8**level
    # Applying the branch formulas to the residue r itself gives T3^k(r), and
    # the multipliers met on the way give the slope of the jump.  Both are
    # indexed by the kernel's residue mod 8^(k+m-1), which fixes n mod 8^k.
    add = np.arange(8 ** (k + level - 1), dtype=np.int64)
    mult = np.ones_like(add)
    columns = []
    for _ in range(k):
        columns.append(add & (mod - 1))
        multiplier = _M8[add & 7]
        mult *= multiplier
        add = (multiplier * add + _R8[add & 7]) >> 3
    add -= mult * (np.arange(add.size) >> 3 * k)
    # T3(n) >= n/8, so no value of a jump from n >= 5*8^(k-1) is below 5.
    small = 5 * 8 ** (k - 1)
    # Each Collatz value in a jump is (3^u*n + c)/2^e with c >= 0 on one class
    # mod 8^k, so its ratio to n is largest at the class's least n >= small.
    n = np.arange(small, small + 8**k, dtype=np.int64)
    x, top = n, n
    for _ in range(k):
        peak, x = _triple_step(x)
        top = np.maximum(top, peak)
    growth = int((-(-top // n)).max())
    # The orbits of 1 .. small-1 by first descent: each value v outside
    # {1, 2, 4} takes triple steps until its orbit drops below v, which it
    # does on reaching {1, 2, 4} at the latest.  Its orbit is that segment
    # followed by the orbit of the value it dropped to, so the steps taken
    # are the segments' few per value, not the orbits' dozens.  x and top
    # hold the live segments' current values and peaks.
    peaks = np.arange(small, dtype=np.int64)
    lengths = np.zeros_like(peaks)
    below = np.zeros_like(peaks)  # the value a segment drops to; 0 for no segment
    live = x = top = peaks[(peaks > 4) | (peaks == 3)]
    owners, classes = [], []
    steps = 0
    while live.size:
        owners.append(live)
        classes.append(x & (mod - 1))
        peak, x = _triple_step(x)
        top = np.maximum(top, peak)
        steps += 1
        ended = x < live
        if ended.any():
            done = live[ended]
            peaks[done], lengths[done], below[done] = top[ended], steps, x[ended]
            kept = ~ended
            live, x, top = live[kept], x[kept], top[kept]
    # One bincount counts each value's segment visits per class.  Its columns
    # are only the classes some segment visits: 8 at level 1, but 2 of the
    # 8^6 at level 6.
    owners, classes = np.concatenate(owners), np.concatenate(classes)
    seen = np.flatnonzero(np.bincount(classes, minlength=mod))
    width = seen.size
    keys = owners * width + np.searchsorted(seen, classes)
    counts = np.bincount(keys, minlength=small * width).reshape(small, width)
    # Pointer doubling completes the orbits: after each round a value holds
    # the segments of twice as many links of its chain of drops, and target
    # is the first link it does not hold yet.  0 has no segment and ends
    # every chain.
    target = below
    while target.any():
        counts += counts[target]
        lengths += lengths[target]
        np.maximum(peaks, peaks[target], out=peaks)
        target = target[target]
    keys = np.flatnonzero(counts)
    # mult <= 36^k and 0 <= add <= growth * 8^k with k <= 5, so both fit
    # int32, which halves the bytes the kernel's two gathers move.  The
    # classes fit int32 too, so a batch's visit keys id * 8^m + class stay
    # int32 from the gather to the key buffer.
    tables = _JumpTables(
        k,
        small,
        growth,
        mult.astype(np.int32),
        add.astype(np.int32),
        np.stack(columns, axis=1).astype(np.int32),
        np.searchsorted(keys // width, np.arange(small + 1)),
        seen[keys % width],
        counts.ravel()[keys],
        peaks,
        lengths,
    )
    for array in vars(tables).values():
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return tables


def _count_into(counts: np.ndarray, pending: list[np.ndarray]) -> None:
    """Add the histogram of the values in the pending arrays to counts, and
    empty pending."""
    values = pending[0] if len(pending) == 1 else np.concatenate(pending)
    counts += np.bincount(values, minlength=counts.size)
    pending.clear()


def _cap_error(config: SweepConfig, lo: int, hi: int) -> TrajectoryCapError:
    """The TrajectoryCapError of the smallest start in [lo, hi] whose orbit is
    longer than step_cap, once the plain kernel has found that one is.

    The plain kernel keeps no orbit ids, so it cannot name the offender.  The
    per-trajectory batches keep them and run in order, so the first error
    they raise names it.
    """
    try:
        _sweep_shard(replace(config, per_trajectory=True), lo, hi)
    except TrajectoryCapError as error:
        return error
    raise ConsistencyError(f"no orbit from [{lo}, {hi}] is longer than {config.step_cap} steps")


def _run_batch(
    config: SweepConfig, lo: int, hi: int, record: int, tally: _ShardTally, keys: _VisitKeys | None
) -> int:
    """Vectorized kernel over starting values [lo, hi]: adds their visits
    (starts included) into tally and returns the max excursion, at least
    record.

    Every live orbit has taken the same number of triple steps.  Each pass
    finishes the values below the small-value bound from the orbit tables,
    hands values above the jump bound to run_trajectory with the steps they
    have left, tallies the residues of the rest and advances them one jump.
    A value is tallied in the pass that starts from it.  When keys is given,
    every visit is also appended to it as the key id * 8^m + class, where
    id = start - lo; only then does the kernel keep the orbit ids.

    No value a jump reaches before its last triple step is in {1, 2, 4}, so a
    jump that overshoots step_cap carries only orbits longer than step_cap.
    TrajectoryCapError names the smallest start in [lo, hi] whose orbit is
    longer than step_cap.
    """
    tables = _jump_tables(config.level)
    mod = 8**config.level
    residues = tables.classes.shape[0]
    # Counting costs one pass over a histogram's bins, so the residues and the
    # finished small values wait until they outnumber the bins; the counts
    # then follow the visits.
    pending: list[np.ndarray] = []  # residues of the passes not yet counted
    pending_size = 0
    finished: list[np.ndarray] = []  # small values not yet counted
    finished_size = 0
    active = np.arange(lo, hi + 1, dtype=np.int64)
    ids = None
    if keys is not None:
        ids = np.arange(active.size, dtype=np.int32)  # int32 halves the bytes compaction moves
        # per id, the small value its orbit was finished from (0: not finished from the table)
        finished_from = np.zeros(active.size, dtype=np.int64)
    max_value = record
    exact_continuations: list[tuple[int | None, int, int]] = []  # (id, current value, steps taken)
    offenders: list[int] = []  # ids of orbits longer than step_cap
    steps = 0
    while active.size:
        small = active < tables.small
        if small.any():
            done = active[small]
            finished.append(done)
            finished_size += done.size
            if finished_size > tables.small:
                _count_into(tally.finished, finished)
                finished_size = 0
            if steps + tables.longest > config.step_cap:
                over = tables.small_steps[done] > config.step_cap - steps
                if over.any():
                    if ids is None:
                        raise _cap_error(config, lo, hi)
                    offenders.append(int(ids[small][over][0]))
            keep = ~small
            active = active[keep]
            if ids is not None:
                finished_from[ids[small]] = done
                ids = ids[keep]
            if not active.size:
                break
        if steps >= config.step_cap:  # every live orbit needs more steps
            if ids is None:
                raise _cap_error(config, lo, hi)
            offenders.append(int(ids[0]))
            break
        top = int(active.max())
        if top > tables.safe:
            leave = active > tables.safe
            leaving = repeat(None) if ids is None else ids[leave].tolist()
            exact_continuations.extend(zip(leaving, active[leave].tolist(), repeat(steps)))
            keep = ~leave
            active = active[keep]
            if ids is not None:
                ids = ids[keep]
            if not active.size:
                break
            top = int(active.max())
        r = active & (residues - 1)
        pending.append(r)
        pending_size += r.size
        if pending_size > residues:
            _count_into(tally.residues, pending)
            pending_size = 0
        if keys is not None:
            # mode="clip" lets take write into the buffer unbuffered; r is in range
            block = keys.extend(r.size * tables.k).reshape(r.size, tables.k)
            np.take(tables.classes, r, axis=0, out=block, mode="clip")
            block += (ids * mod)[:, None]
        if tables.growth * top > max_value:
            # The top slice first: its peaks raise the record, which prunes the rest.
            upper = active > top - top // tables.growth
            max_value = max(max_value, _jump_peak(active[upper], tables.k))
            rest = active[~upper & (active > max_value // tables.growth)]
            if rest.size:
                max_value = max(max_value, _jump_peak(rest, tables.k))
        active >>= 3 * tables.k
        active *= tables.mult[r]
        active += tables.add[r]
        steps += tables.k

    if pending:
        _count_into(tally.residues, pending)
    if finished:
        _count_into(tally.finished, finished)
    # tally.finished also counts the shard's earlier batches, whose peaks the record holds.
    max_value = max(max_value, int(tables.small_peak.max(initial=0, where=tally.finished > 0)))
    if keys is not None:
        ended = np.flatnonzero(finished_from)
        starts, classes = tables.tail_visits
        first = starts[finished_from[ended]]
        lengths = starts[finished_from[ended] + 1] - first
        at = np.repeat(first - np.cumsum(lengths) + lengths, lengths)
        at += np.arange(at.size)
        np.add(np.repeat((ended * mod).astype(np.int32), lengths), classes[at], out=keys.extend(at.size))
    for traj_id, value, taken in exact_continuations:
        run = run_trajectory(value, level=config.level, step_cap=config.step_cap - taken)
        if run.capped:
            if traj_id is None:
                raise _cap_error(config, lo, hi)
            offenders.append(traj_id)
            continue
        max_value = max(max_value, run.max_value)
        tail = np.asarray(run.visits, dtype=np.int64)
        tally.classes += np.bincount(tail, minlength=mod)
        if keys is not None:
            keys.append(traj_id * mod + tail)
    if offenders:
        raise TrajectoryCapError(lo + min(offenders), config.step_cap)
    return max_value


def _add_orbit_shares(
    sums: np.ndarray, keys: np.ndarray, size: int, start_keys: np.ndarray | None
) -> int:
    """Add each orbit's share of visits per class into sums, in orbit order.

    keys holds one int32 key id * 8^m + class per visit of the orbits with
    ids 0 .. size-1, and start_keys, when given, the key of each start, whose
    one visit is uncounted.  Returns the number of orbits with a visit.

    Sorted and run-length encoded, the keys are the (orbit, class) pairs in
    orbit order with their visit counts.  np.add.at adds in index order, so
    each class's sum takes the orbits' shares in orbit order, as one running
    sum over the shard does; the batches change no float result.
    """
    mod = sums.size
    if not keys.size:
        return 0
    keys.sort()
    if start_keys is not None:
        keys = np.delete(keys, np.searchsorted(keys, start_keys))
    # int32 like the keys, so searchsorted does not copy them; (size - 1) * 8^m fits
    orbits = np.arange(size, dtype=np.int32) * mod
    edges = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    visits = np.diff(edges)
    keys = keys[edges[:-1]]
    first = np.searchsorted(keys, orbits)  # each orbit's first pair
    pairs = np.diff(first, append=keys.size)
    totals = np.diff(edges[first], append=edges[-1])  # visits per orbit
    shares = np.repeat(totals.astype(float), pairs)
    np.divide(visits, shares, out=shares)
    np.add.at(sums, keys & (mod - 1), shares)
    return int(np.count_nonzero(totals))


def _sweep_shard(config: SweepConfig, lo: int, hi: int) -> TrajectoryStats:
    """Stats of the orbits from [lo, hi].

    The plain sweep runs the kernel once over the shard.  The per-trajectory
    sweep runs it on batches of PER_TRAJECTORY_BATCH starts, which collect
    sparse int32 visit keys id * 8^m + class instead of dense per-orbit rows,
    and adds each batch's orbit shares to running class sums before the next
    batch starts, in the float order of one sum over the shard.  Batches run
    in order, so the first TrajectoryCapError names the smallest offender in
    the shard.  Each batch's starts are uncounted unless include_start.
    """
    mod = 8**config.level
    tally = _ShardTally(config.level)
    max_value = hi
    sums = np.zeros(mod) if config.per_trajectory else None
    counted = 0
    batch = PER_TRAJECTORY_BATCH if config.per_trajectory else hi - lo + 1
    keys = _VisitKeys() if config.per_trajectory else None
    for first in range(lo, hi + 1, batch):
        last = min(first + batch - 1, hi)
        max_value = _run_batch(config, first, last, max_value, tally, keys)
        start_keys = None
        if not config.include_start:
            starts = np.arange(first, last + 1, dtype=np.int64)
            starts = starts[~np.isin(starts, tuple(CYCLE))]
            tally.classes -= np.bincount(starts & (mod - 1), minlength=mod)
            start_keys = ((starts - first) * mod + (starts & (mod - 1))).astype(np.int32)
        if keys is not None:
            counted += _add_orbit_shares(sums, keys.take(), last - first + 1, start_keys)
    return TrajectoryStats(config.level, tally.fold(), max_value, hi - lo + 1, sums, counted)


def _cpu_quota() -> int | None:
    """CPUs the cgroup CPU quota allows, rounded up; None when the quota is
    "max" or the file cannot be read."""
    try:
        with open(CPU_MAX_PATH) as handle:
            quota, period = handle.read().split()
        return None if quota == "max" else max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError):
        return None


def usable_cpus() -> int:
    """The CPUs this process may run on, capped by the cgroup CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def sweep(config: SweepConfig) -> TrajectoryStats:
    """Aggregate all orbits starting in [1, n_max]; deterministic totals.

    Shards of fixed width SHARD_SIZE are processed independently (optionally
    by a process pool) and merged in shard order, so results depend on the
    shard size but never on the worker count.  The pool has at most
    config.workers processes, one per shard and one per usable CPU.
    """
    shard_size = SHARD_SIZE
    if config.per_trajectory:
        shard_size = min(shard_size, max(1024, PER_TRAJECTORY_CELLS // 8**config.level))
    los = range(1, config.n_max + 1, shard_size)
    his = [min(lo + shard_size - 1, config.n_max) for lo in los]
    kernel = partial(_sweep_shard, config)
    workers = min(config.workers, len(los), usable_cpus())
    if workers > 1:
        # Imported here: concurrent.futures and multiprocessing add about 30 ms
        # to every start-up, and most runs never open a pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return reduce(TrajectoryStats.merge, pool.map(kernel, los, his))
    return reduce(TrajectoryStats.merge, map(kernel, los, his))


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Empirical class frequencies against the stationary law, which is
    theoretical[0] on even classes and theoretical[1] on odd ones."""

    level: int
    theoretical: tuple[Fraction, Fraction]
    empirical: np.ndarray  # float64 per class
    deviation: np.ndarray  # |empirical - float(theoretical)| per class
    max_value: int
    total_visits: int
    trajectories: int

    @property
    def max_deviation(self) -> float:
        return float(self.deviation.max())


def compare_to_theory(stats: TrajectoryStats, use_per_trajectory: bool = False) -> ComparisonTable:
    """Per-class table of stationary weight vs empirical frequency."""
    freqs = stats.per_trajectory_frequencies() if use_per_trajectory else stats.frequencies()
    theoretical = alternating_weights(stats.level)
    deviation = np.abs(freqs - np.tile([float(w) for w in theoretical], freqs.size // 2))
    return ComparisonTable(
        stats.level, theoretical, freqs, deviation, stats.max_value, stats.total_visits, stats.trajectories
    )


def to_csv(table: ComparisonTable) -> str:
    """Deterministic CSV: fixed 12-decimal columns plus a stats comment trailer."""
    theoretical = [f"{float(w):.12f}" for w in table.theoretical]
    lines = ["class,theoretical,empirical,deviation"]
    lines.extend(
        f"{i},{theoretical[i & 1]},{e:.12f},{d:.12f}"
        for i, (e, d) in enumerate(zip(table.empirical.tolist(), table.deviation.tolist()))
    )
    lines.append(f"# max_value={table.max_value} total_visits={table.total_visits}")
    return "\n".join(lines) + "\n"


def write_csv(out, table: ComparisonTable) -> None:
    """Write the bytes of to_csv(table) to the text stream out, a block of
    ROW_BLOCK rows per write, without building the whole text."""
    theoretical = [f"{float(w):.12f}" for w in table.theoretical]
    out.write("class,theoretical,empirical,deviation\n")
    for lo in range(0, table.empirical.size, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, table.empirical.size)
        rows = zip(range(lo, hi), table.empirical[lo:hi].tolist(), table.deviation[lo:hi].tolist())
        out.write("".join([f"{i},{theoretical[i & 1]},{e:.12f},{d:.12f}\n" for i, e, d in rows]))
    out.write(f"# max_value={table.max_value} total_visits={table.total_visits}\n")


def to_json_dict(table: ComparisonTable, per_trajectory: ComparisonTable | None = None) -> dict:
    """JSON payload mirroring the CSV fields, plus per-trajectory rows if
    collected.  write_json prints it without building it."""

    def row_list(t: ComparisonTable) -> list[dict]:
        theoretical = [float(w) for w in t.theoretical]
        return [
            {"class": i, "theoretical": theoretical[i & 1], "empirical": e, "deviation": d}
            for i, (e, d) in enumerate(zip(t.empirical.tolist(), t.deviation.tolist()))
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


def _write_json_rows(out, table: ComparisonTable) -> None:
    """The rows of table as json.dumps(..., indent=2) prints them inside the
    payload, a block of ROW_BLOCK rows per write."""
    theoretical = [repr(float(w)) for w in table.theoretical]
    empirical, deviation = table.empirical.tolist(), table.deviation.tolist()
    for lo in range(0, len(empirical), ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, len(empirical))
        if lo:
            out.write(",\n")
        out.write(
            ",\n".join(
                [
                    f'    {{\n      "class": {i},\n      "theoretical": {theoretical[i & 1]},\n'
                    f'      "empirical": {e!r},\n      "deviation": {d!r}\n    }}'
                    for i, e, d in zip(range(lo, hi), empirical[lo:hi], deviation[lo:hi])
                ]
            )
        )


def write_json(out, table: ComparisonTable, per_trajectory: ComparisonTable | None = None) -> None:
    """Write the bytes of json.dumps(to_json_dict(table, per_trajectory),
    indent=2) + "\n" to the text stream out, without building the payload.

    json's indent mode runs its pure-Python encoder, which spent seconds on a
    level-6 table.  Its floats are float.__repr__, as here; every value a
    table holds is finite, so json's NaN and Infinity spellings never apply.
    """
    out.write(f'{{\n  "level": {table.level},\n  "rows": [\n')
    _write_json_rows(out, table)
    out.write(
        f'\n  ],\n  "max_value": {table.max_value},\n  "total_visits": {table.total_visits},\n'
        f'  "trajectories": {table.trajectories},\n  "max_deviation": {table.max_deviation!r}'
    )
    if per_trajectory is not None:
        out.write(',\n  "per_trajectory_rows": [\n')
        _write_json_rows(out, per_trajectory)
        out.write("\n  ]")
    out.write("\n}\n")
