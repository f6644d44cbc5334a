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
import pickle
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import repeat
from typing import NoReturn

import numpy as np

from .errors import CapacityError, ConsistencyError, TrajectoryCapError, WorkerError
from .maps import CYCLE, MULTIPLIERS, OFFSETS, collatz_step
from .measure import alternating_weights

#: Largest value for which one triple step (36*n + 20) stays inside int64.
INT64_SAFE = (2**63 - 21) // 36

#: Fixed shard width; independent of worker count so merges are reproducible.
#: A plain shard runs in batches of PLAIN_BATCH starts, so the width sets the
#: per-shard overhead (one tally, one fold, one pickle), not kernel memory.
SHARD_SIZE = 1 << 20

#: Per-trajectory shards cover about this many (orbit, class) cells, with at
#: least 1024 starts: shard * 8^m <= 2^28 at every level.  Each shard's orbit
#: shares are summed separately and the shards merge in order, so the shard
#: bounds fix the float sums, and with them the output bytes.
PER_TRAJECTORY_CELLS = 1 << 23

#: Per-trajectory shards run the kernel on this many starts at a time and
#: fold each batch's visit keys into the running sums before the next.
PER_TRAJECTORY_BATCH = 1 << 13

#: A batch's orbit shares are computed this many whole orbits at a time, so
#: the share step's temporaries (about 30 bytes per key) follow the block,
#: not the batch's keys.
ORBIT_BLOCK = 1 << 10

#: Plain shards run the kernel on this many starts at a time, into one
#: tally, so its per-pass arrays are at most 1 MB whatever the shard width.
PLAIN_BATCH = 1 << 17

#: CSV and JSON rows rendered per write: a few hundred KB of text at a time.
ROW_BLOCK = 1 << 12

#: Keys reserved per shard for the visit-key buffer; np.empty maps its pages
#: only as keys are written, and the buffer doubles if a batch needs more.
VISIT_KEYS_RESERVE = 1 << 22

#: Most visit keys (int32, 256 MiB) a per-trajectory batch may write, about
#: 200 times the 337,389 of a level-3 batch at 2*10^5; past it, CapacityError.
VISIT_KEYS_BUDGET = 1 << 26

MAX_SWEEP_LEVEL = 6

#: cgroup v2 CPU bandwidth limit: "<quota> <period>" in microseconds, or
#: "max <period>" when unlimited.
CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"

_M8 = np.array(MULTIPLIERS, dtype=np.int64)
_R8 = np.array(OFFSETS, dtype=np.int64)
# Largest Collatz value of a triple step from n before its last, n included:
# 3n+1 at odd residues, (3n+2)/2 at residues 2 and 6, n itself at 0 and 4.
_PEAK_MULT = np.array((1, 3, 3, 3, 1, 3, 3, 3), dtype=np.int64)
_PEAK_ADD = np.array((0, 1, 2, 1, 0, 1, 2, 1), dtype=np.int64)
_PEAK_SHIFT = np.array((0, 0, 1, 0, 0, 0, 1, 0), dtype=np.int64)


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
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
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
    """Aggregated sweep results.  merge is exact on the integer fields in any
    order; float addition is not associative, so sweep merges the shards'
    traj_freq_sums in shard order, which fixes their bits.

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
        if (self.traj_freq_sums is None) != (other.traj_freq_sums is None):
            raise ValueError("cannot merge plain stats with per-trajectory stats")
        sums = None if self.traj_freq_sums is None else self.traj_freq_sums + other.traj_freq_sums
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
        if self.n_max >= 2**63:  # the kernel holds starts in int64
            raise CapacityError(f"n_max {self.n_max} exceeds the int64 sweep cap {2**63 - 1}")
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

    A jump is k triple steps.  For s = n mod 8^k (8^k int32 entries),
    T3^k(n) = mult[s] * (n >> 3k) + add[s], and for r = n mod 8^(k+m-1),
    classes[r] lists the int32 mod-8^m classes of n, T3(n), ..., T3^(k-1)(n).
    Every Collatz value met within one jump from n >= small is at most
    growth * n, and no value listed is in {1, 2, 4}.

    The orbits from values v below small are tabulated as their first-descent
    forest.  below[v] is the first value under v on its orbit, and v's
    segment, the classes of the values before it (v itself included), is
    seg_class[seg_start[v] : seg_start[v+1]] in orbit order; the orbit is the
    segment followed by the orbit of below[v].  0 and {1, 2, 4} have no
    segment and below 0.  seg_class takes the smallest signed type that holds
    8^m - 1: int8 at levels 1-2 (50,427 entries at level 1), int16 at 3-5 and
    int32 at 6.  lengths[v] and small_peak[v] are the triple steps and the
    max excursion of v's whole orbit; longest is the most steps of any.
    layers[d] lists, ascending, the values whose orbit is d + 1 segments
    long: 26 layers at level 1, 13 at level 3.
    """

    k: int
    small: int
    growth: int
    mult: np.ndarray
    add: np.ndarray
    classes: np.ndarray
    below: np.ndarray
    seg_start: np.ndarray
    seg_class: np.ndarray
    lengths: np.ndarray
    small_peak: np.ndarray
    layers: tuple[np.ndarray, ...]
    longest: int

    @property
    def safe(self) -> int:
        """Largest value that may jump: its intermediates stay below INT64_SAFE."""
        return INT64_SAFE // self.growth


class _ShardTally:
    """A shard's visit counts before the fold into classes: counts of the
    kernel residues, each standing for the k classes its jump lists, and of
    the small values whose tabulated orbits ended orbits; per class for the
    rest.  The kernel adds into the three arrays in place with ufunc.at, so
    the cost follows the visits, not the bins.  A shard's batches add into
    one tally, so the fold runs once a shard, and share the kernel's per-pass
    buffers through it."""

    def __init__(self, level: int):
        self._tables = _jump_tables(level)
        self.residues = np.zeros(self._tables.classes.shape[0], dtype=np.int64)
        self.finished = np.zeros(self._tables.small, dtype=np.int64)
        self.classes = np.zeros(8**level, dtype=np.int64)
        self._buffers: tuple[np.ndarray, ...] = ()

    def buffers(self, width: int) -> tuple[np.ndarray, ...]:
        """The kernel's bool mask, int64 residue and int32 gather buffers, of
        at least width entries.  They last as long as the tally, so each of
        a shard's batches writes into pages already mapped; allocated per
        batch, they went back to the system whenever the allocator trimmed
        its heap, and a 10^7 sweep in one process took 5 times the minor
        page faults."""
        if not self._buffers or self._buffers[0].size < width:
            self._buffers = tuple(np.empty(width, dtype=t) for t in (bool, np.int64, np.int32))
        return self._buffers

    def fold(self) -> np.ndarray:
        """Add the residue and small-value counts into classes, and return
        them: the visits per class mod 8^m.

        An orbit finished from v runs through the segments of v, below[v],
        and so on, so each segment is visited once per count in v's subtree
        of the first-descent forest.  From the deepest layer up, each value's
        count is added into its below, which turns the finished counts, in
        place, into subtree weights; one np.add.at over the segment entries
        then adds each weight over its segment's classes."""
        tables = self._tables
        weights = self.finished
        for layer in reversed(tables.layers):
            np.add.at(weights, tables.below[layer], weights[layer])
        np.add.at(self.classes, tables.seg_class, np.repeat(weights, np.diff(tables.seg_start)))
        for column in tables.classes.T:
            np.add.at(self.classes, column, self.residues)
        return self.classes


class _VisitKeys:
    """Grow-only int32 buffer of one batch's visit keys id * 8^m + class.

    A shard's batches reuse it, so each batch writes into pages already
    mapped instead of a fresh array.  Keys enter through extend, which the
    caller fills; they are below PER_TRAJECTORY_BATCH * 8^6 = 2^31, and a
    batch writes at most VISIT_KEYS_BUDGET of them.
    """

    def __init__(self):
        self._buffer = np.empty(VISIT_KEYS_RESERVE, dtype=np.int32)
        self._size = 0

    def extend(self, count: int) -> np.ndarray:
        """Room for count more keys, as a view the caller fills in; the
        kernel writes its keys there, with no temporary array to copy."""
        start, end = self._size, self._size + count
        if end > VISIT_KEYS_BUDGET:
            raise CapacityError(f"per-trajectory batch needs {end} visit keys, budget {VISIT_KEYS_BUDGET}")
        if end > self._buffer.size:
            grown = np.empty(max(end, min(2 * self._buffer.size, VISIT_KEYS_BUDGET)), dtype=np.int32)
            grown[:start] = self._buffer[:start]
            self._buffer = grown
        self._size = end
        return self._buffer[start:end]

    def take(self) -> np.ndarray:
        """The keys written since the last take, as a view into the buffer."""
        keys, self._size = self._buffer[: self._size], 0
        return keys


def _jump(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 values k triple steps on from x, and per value the largest
    Collatz value met on the way, x itself included."""
    top = x
    for _ in range(k):
        sigma = x & 7
        top = np.maximum(top, (_PEAK_MULT[sigma] * x + _PEAK_ADD[sigma]) >> _PEAK_SHIFT[sigma])
        x = (_M8[sigma] * x + _R8[sigma]) >> 3
    return x, np.maximum(top, x)


@lru_cache(maxsize=None)
def _jump_tables(level: int) -> _JumpTables:
    """Build the kernel tables for one level.

    A jump is k = 6 - m triple steps (1 at level 6).  mult and add hold 8^k
    entries, the 8-entry branch table at levels 5-6; classes holds 8^(k+m-1)
    rows, 8^5 up to level 5 and 8^6 at level 6.  Longer jumps mean fewer
    passes over the live orbits; they raise the growth bound G (52, 23, 16, 7
    and 5 at k = 5 .. 1), which lowers the jump bound INT64_SAFE // G.
    """
    k = max(1, 6 - level)
    mod = 8**level
    # T3(n) >= n/8, so no value of a jump from n >= 5*8^(k-1) is below 5.
    small = 5 * 8 ** (k - 1)
    # Each triple step is affine on a class mod 8, so T3^k is affine on a
    # class mod 8^k (Terras): for n = q * 8^k + s, T3^k(n) = mult[s] * q +
    # T3^k(s).  One jump over 0 .. 2 * 8^k - 1 reads off add[s] = T3^k(s) and
    # mult[s] = T3^k(s + 8^k) - T3^k(s).  Both are below 36^5 at k <= 5, and
    # int32 tables halve the bytes the kernel's two gathers move.
    n = np.arange(2 * 8**k, dtype=np.int64)
    ends, tops = _jump(n, k)
    add, mult = np.split(ends.astype(np.int32), 2)
    mult -= add
    # Each Collatz value in a jump is (3^u*n + c)/2^e with c >= 0 on one class
    # mod 8^k, so its ratio to n is largest at the class's least n >= small;
    # those n lie below small + 8^k <= 2 * 8^k.
    window = slice(small, small + 8**k)
    growth = int((-(-tops[window] // n[window])).max())
    del n, ends, tops
    # n mod 8^(k+m-1) fixes T3^j(n) mod 8^m for j < k, and stepping the
    # residue itself gives them.  The classes are below 8^6 and go straight
    # into their int32 column, so a batch's visit keys id * 8^m + class stay
    # int32 from the gather to the key buffer.
    x = np.arange(8 ** (k + level - 1), dtype=np.int64)
    columns = np.empty((x.size, k), dtype=np.int32)
    for step in range(k):
        x = _jump(x, 1)[0] if step else x
        np.bitwise_and(x, mod - 1, out=columns[:, step])
    # The orbits of 1 .. small-1 by first descent: each value v outside
    # {1, 2, 4} takes triple steps until its orbit drops below v, which it
    # does on reaching {1, 2, 4} at the latest.  Its orbit is that segment
    # followed by the orbit of the value it dropped to, so the steps taken
    # are the segments' few per value, not the orbits' dozens.  x and top
    # hold the live segments' current values and peaks; each step's live
    # values and classes are kept to fill the segment lists.
    peaks = np.arange(small, dtype=np.int64)
    below = np.zeros_like(peaks)  # the value a segment drops to; 0 for no segment
    lengths = np.zeros_like(peaks)  # the segment's triple steps, then the orbit's
    live = x = top = peaks[(peaks > 4) | (peaks == 3)]
    # signed, so that int32 keys plus a class stay int32
    seg_type = np.min_scalar_type(1 - mod)
    steps = []
    while live.size:
        steps.append((live, (x & (mod - 1)).astype(seg_type)))
        x, peak = _jump(x, 1)
        top = np.maximum(top, peak)
        ended = x < live
        if ended.any():
            done = live[ended]
            peaks[done], below[done], lengths[done] = top[ended], x[ended], len(steps)
            kept = ~ended
            live, x, top = live[kept], x[kept], top[kept]
    seg_start = np.r_[0, np.cumsum(lengths)]
    seg_class = np.empty(seg_start[-1], dtype=seg_type)
    for step, (owners, step_classes) in enumerate(steps):
        seg_class[seg_start[owners] + step] = step_classes
    del steps
    # Pointer doubling completes the orbits: after each round a value holds
    # the steps, peak and segment count of twice as many links of its chain
    # of drops, and target is the first link it does not hold yet.  0 has no
    # segment and ends every chain.
    depth = np.minimum(lengths, 1)  # the value's own segment, if it has one
    target = below
    while target.any():
        lengths += lengths[target]
        depth += depth[target]
        np.maximum(peaks, peaks[target], out=peaks)
        target = target[target]
    # The values by segment count; depth 0, the values without a segment, is
    # no layer.
    layers = [np.flatnonzero(depth == d) for d in range(1, int(depth.max()) + 1)]
    tables = _JumpTables(
        k,
        small,
        growth,
        mult,
        add,
        columns,
        below,
        seg_start,
        seg_class,
        lengths,
        peaks,
        tuple(layers),
        int(lengths.max()),
    )
    arrays = [array for array in vars(tables).values() if isinstance(array, np.ndarray)]
    for array in arrays + layers:
        array.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _orbit_lists(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The tabulated orbits expanded for per-trajectory keys: (tail_start,
    tail_class), where tail_class[tail_start[v] : tail_start[v+1]] lists the
    classes of v's whole orbit, ascending, in the type of seg_class.  Both
    arrays are read-only.

    A value's list is the segments of its chain of drops, walked one link
    for every value at a time; one sort of the int32 keys v * 8^m + class
    then orders them by value and class.  Built once per process, and before
    the fork in a forked per-trajectory sweep, so no batch walks the forest.
    """
    tables = _jump_tables(level)
    mod = 8**level
    seg_start, seg_class = tables.seg_start, tables.seg_class
    tail_start = np.r_[0, np.cumsum(tables.lengths)]
    keys = np.empty(tail_start[-1], dtype=np.int32)  # v * 8^m + class < 2^21 at every level
    owners = link = np.arange(tables.small)
    at = 0
    while link.size:
        first = seg_start[link]
        counts = seg_start[link + 1] - first
        size = int(counts.sum())
        entries = np.repeat(first - np.cumsum(counts) + counts, counts)
        entries += np.arange(size)
        np.add(np.repeat((owners * mod).astype(np.int32), counts), seg_class[entries], out=keys[at : at + size])
        at += size
        link = tables.below[link]
        going = link > 0
        owners, link = owners[going], link[going]
    keys.sort()
    tail_class = (keys & (mod - 1)).astype(seg_class.dtype)
    for array in (tail_start, tail_class):
        array.setflags(write=False)
    return tail_start, tail_class


def _cap_error(config: SweepConfig, lo: int, hi: int) -> TrajectoryCapError:
    """The TrajectoryCapError of the smallest start in [lo, hi] whose orbit is
    longer than step_cap, once the kernel has found that one is.

    The kernel raises over a range exactly when one of its orbits is longer
    than step_cap, so halving the range finds the offender: when the lower
    half raises, its error, named by this function one level down, is the
    answer; otherwise the offender is in the upper half.  The pure-Python
    reference decides the last start.
    """
    first = lo
    while first < hi:
        mid = (first + hi) // 2
        try:
            _run_batch(config, first, mid, mid, _ShardTally(config.level), None)
        except TrajectoryCapError as error:
            return error
        first = mid + 1
    if run_trajectory(first, config.level, config.step_cap).capped:
        return TrajectoryCapError(first, config.step_cap)
    raise ConsistencyError(f"no orbit from [{lo}, {hi}] is longer than {config.step_cap} steps")


def _run_batch(
    config: SweepConfig, lo: int, hi: int, record: int, tally: _ShardTally, keys: _VisitKeys | None
) -> int:
    """Vectorized kernel over starting values [lo, hi]: adds their visits
    (starts included) into tally and returns the max excursion, at least
    record.

    Every live orbit has taken the same number of triple steps.  Each pass
    adds the values below the small-value bound to tally.finished, whose
    tabulated orbits finish them, hands values above the jump bound to
    run_trajectory with the steps they have left, adds the residues of the
    rest to tally.residues and advances them one jump.  A value is tallied
    in the pass that starts from it.  When keys is given, every visit is
    also written to it as the key id * 8^m + class, where id = start - lo;
    only then does the kernel keep the orbit ids, which nothing else reads.

    Memory follows the width of [lo, hi], not the shard's.  A pass writes its
    mask, residues and table gathers into prefixes of tally.buffers, which
    the shard's batches share.  Only the compacted values (and ids) are new
    arrays each pass, as boolean indexing writes them with no index array.

    No value a jump reaches before its last triple step is in {1, 2, 4}, so a
    jump that overshoots step_cap carries only orbits longer than step_cap.
    The first such orbit found, in a tabulated tail, a jump or a big-int
    continuation, raises _cap_error(config, lo, hi) at once.
    """
    tables = _jump_tables(config.level)
    mod = 8**config.level
    residues = tables.classes.shape[0]
    active = np.arange(lo, hi + 1, dtype=np.int64)
    below, r_buffer, gathered = tally.buffers(active.size)
    ids = None
    if keys is not None:
        ids = np.arange(active.size, dtype=np.int32)  # int32 halves the bytes compaction moves
        # per id, the small value its orbit was finished from (0: not finished from the table)
        finished_from = np.zeros(active.size, dtype=np.int64)
    max_value = record
    exact_continuations: list[tuple[int | None, int, int]] = []  # (id, current value, steps taken)
    steps = 0
    while active.size:
        small = np.less(active, tables.small, out=below[: active.size])
        if small.any():
            done = active[small]
            np.add.at(tally.finished, done, 1)
            if steps + tables.longest > config.step_cap:
                if (tables.lengths[done] > config.step_cap - steps).any():
                    raise _cap_error(config, lo, hi)
            if ids is not None:
                finished_from[ids[small]] = done
                ids = ids[~small]
            active = active[np.logical_not(small, out=small)]
            if not active.size:
                break
        if steps >= config.step_cap:  # every live orbit needs more steps
            raise _cap_error(config, lo, hi)
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
        r = np.bitwise_and(active, residues - 1, out=r_buffer[: active.size])
        np.add.at(tally.residues, r, 1)
        if keys is not None:
            # mode="clip" lets take write into the buffer unbuffered; r is in range
            block = keys.extend(r.size * tables.k).reshape(r.size, tables.k)
            tables.classes.take(r, axis=0, out=block, mode="clip")
            block += (ids * mod)[:, None]
        if tables.growth * top > max_value:
            # The top slice first: its peaks raise the record, which prunes the rest.
            upper = active > top - top // tables.growth
            max_value = max(max_value, int(_jump(active[upper], tables.k)[1].max()))
            rest = active[~upper & (active > max_value // tables.growth)]
            if rest.size:
                max_value = max(max_value, int(_jump(rest, tables.k)[1].max()))
        active >>= 3 * tables.k
        if tables.mult.size < residues:  # the jump reads only n mod 8^k
            r &= tables.mult.size - 1
        active *= tables.mult.take(r, out=gathered[: r.size], mode="clip")
        active += tables.add.take(r, out=gathered[: r.size], mode="clip")
        steps += tables.k

    # tally.finished also counts the shard's earlier batches, whose peaks the record holds.
    max_value = max(max_value, int(tables.small_peak.max(initial=0, where=tally.finished > 0)))
    if keys is not None:
        tail_start, tail_class = _orbit_lists(config.level)
        ended = np.flatnonzero(finished_from)
        ended = ended[tables.lengths[finished_from[ended]] > 0]  # an orbit ended at 1, 2 or 4 has no tail
        first = tail_start[finished_from[ended]]
        lengths = tables.lengths[finished_from[ended]]
        # The gather index runs through each orbit's slice in steps of one:
        # one array of steps, with a jump to each slice's start, summed in
        # place, so no second array of its length is made.
        at = np.ones(int(lengths.sum()), dtype=np.int64)
        at[np.cumsum(lengths[:-1])] = first[1:] - first[:-1] - lengths[:-1] + 1
        at[:1] = first[:1]
        np.cumsum(at, out=at)
        owners = np.repeat((ended * mod).astype(np.int32), lengths)
        np.add(owners, tail_class[at], out=keys.extend(at.size))
    for traj_id, value, taken in exact_continuations:
        run = run_trajectory(value, level=config.level, step_cap=config.step_cap - taken)
        if run.capped:
            raise _cap_error(config, lo, hi)
        max_value = max(max_value, run.max_value)
        tail = np.asarray(run.visits, dtype=np.int64)
        np.add.at(tally.classes, tail, 1)
        if keys is not None:
            keys.extend(tail.size)[:] = traj_id * mod + tail
    return max_value


def _add_orbit_shares(
    sums: np.ndarray, keys: np.ndarray, size: int, start_keys: np.ndarray | None
) -> int:
    """Add each orbit's share of visits per class into sums, in orbit order.

    keys holds one int32 key id * 8^m + class per visit of the orbits with
    ids 0 .. size-1, and start_keys, when given, the key of each start, whose
    one visit is uncounted.  Returns the number of orbits with a visit.

    Sorted and run-length encoded, the keys are the (orbit, class) pairs in
    orbit order with their visit counts.  The keys are sorted in place, then
    encoded ORBIT_BLOCK whole orbits at a time.  np.add.at adds in index
    order and the blocks run in orbit order, so each class's sum takes the
    orbits' shares in orbit order, as one running sum over the shard does;
    neither the batches nor the blocks change a float result.
    """
    mod = sums.size
    keys.sort()
    if start_keys is not None:
        keys = np.delete(keys, np.searchsorted(keys, start_keys))
    # int32 like the keys, so searchsorted does not copy them; (size - 1) * 8^m fits
    orbits = np.arange(size, dtype=np.int32) * mod
    # a block ends where the next block's first orbit starts, the last at
    # keys.size: size * 8^m can pass int32
    ends = np.searchsorted(keys, orbits[ORBIT_BLOCK::ORBIT_BLOCK]).tolist() + [keys.size]
    counted = lo = 0
    for at, hi in zip(range(0, size, ORBIT_BLOCK), ends):
        block, lo = keys[lo:hi], hi
        if not block.size:
            continue
        edges = np.flatnonzero(np.r_[True, block[1:] != block[:-1], True])
        visits = np.diff(edges)
        block = block[edges[:-1]]
        first = np.searchsorted(block, orbits[at : at + ORBIT_BLOCK])  # each orbit's first pair
        pairs = np.diff(first, append=block.size)
        totals = np.diff(edges[first], append=edges[-1])  # visits per orbit
        shares = np.repeat(totals.astype(float), pairs)
        np.divide(visits, shares, out=shares)
        np.add.at(sums, block & (mod - 1), shares)
        counted += int(np.count_nonzero(totals))
    return counted


def _sweep_shard(config: SweepConfig, lo: int, hi: int) -> TrajectoryStats:
    """Stats of the orbits from [lo, min(hi, n_max)].

    The kernel runs on batches of PLAIN_BATCH starts, or PER_TRAJECTORY_BATCH
    in the per-trajectory sweep.  Every batch adds into the shard's one tally,
    which folds into classes once, and hands its max-value record to the next.
    Per-trajectory batches also collect sparse int32 visit keys id * 8^m +
    class instead of dense per-orbit rows, and add their orbit shares to
    running class sums before the next batch starts, in the float order of
    one sum over the shard.  Batches run in order, so the first
    TrajectoryCapError names the smallest offender in the shard.  Each
    batch's starts are uncounted unless include_start.
    """
    hi = min(hi, config.n_max)
    mod = 8**config.level
    tally = _ShardTally(config.level)
    max_value = hi
    sums = np.zeros(mod) if config.per_trajectory else None
    counted = 0
    batch = PER_TRAJECTORY_BATCH if config.per_trajectory else PLAIN_BATCH
    keys = _VisitKeys() if config.per_trajectory else None
    for first in range(lo, hi + 1, batch):
        last = min(first + batch - 1, hi)
        max_value = _run_batch(config, first, last, max_value, tally, keys)
        start_keys = None
        if not config.include_start:
            starts = np.arange(first, last + 1, dtype=np.int64)
            starts = starts[~np.isin(starts, tuple(CYCLE))]
            np.subtract.at(tally.classes, starts & (mod - 1), 1)
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


def _serve(kernel, los, his, write_fd: int) -> NoReturn:
    """Run in a forked child: write kernel(lo, hi) for each shard, in order,
    to the pipe as one pickle per shard, or the first exception in place of
    its stats, and stop there.  Leaves through os._exit, so no atexit handler
    runs and no stream buffer inherited from the parent is flushed twice."""
    code = 1
    try:
        with open(write_fd, "wb") as pipe:
            for lo, hi in zip(los, his):
                try:
                    shard = kernel(lo, hi)
                except Exception as error:
                    pickle.dump(error, pipe, pickle.HIGHEST_PROTOCOL)
                    break
                pickle.dump(shard, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
        code = 0
    finally:
        os._exit(code)


def _fork_join(kernel, los, his, workers: int, n_max: int) -> TrajectoryStats:
    """reduce(TrajectoryStats.merge, map(kernel, los, his)), computed by
    workers forked children that inherit everything the parent built.

    Child w runs shards w, w + workers, ... and the parent reads shard i from
    child i mod workers, in shard order, merging as it reads.  So the float
    sums and the first exception are those of the in-process map, and each
    child holds at most one result the parent has not read.  Every child is
    killed and reaped before this returns or raises.  The last shard end may
    pass n_max, where the kernel stops, so a lost shard is named up to there.
    """
    pids: list[int | None] = []
    pipes = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(kernel, los[w::workers], his[w::workers], write_fd)
            finally:
                os.close(write_fd)
            pids.append(pid)
        stats = None
        for i, (lo, hi) in enumerate(zip(los, his)):
            w = i % workers
            try:
                shard = pickle.load(pipes[w])
            except (EOFError, pickle.UnpicklingError):
                # The child closed its pipe early, so it has ended: reap it here.
                status = os.waitpid(pids[w], 0)[1]
                pid, pids[w] = pids[w], None
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise WorkerError(
                    f"sweep worker {pid} ended without the stats of [{lo}, {min(hi, n_max)}] "
                    f"(wait status {status}: {how})"
                ) from None
            if isinstance(shard, Exception):
                raise shard
            stats = shard if stats is None else stats.merge(shard)
        return stats
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def sweep(config: SweepConfig) -> TrajectoryStats:
    """Aggregate all orbits starting in [1, n_max]; deterministic totals.

    Shards of fixed width SHARD_SIZE are processed independently and merged
    in shard order, so results depend on the shard size but never on the
    worker count.  With more than one worker, at most config.workers
    children are forked, one per shard and one per usable CPU, after the
    parent has built the kernel tables they share; where os.fork is missing
    the shards run in this process.
    """
    shard_size = SHARD_SIZE
    if config.per_trajectory:
        shard_size = min(shard_size, max(1024, PER_TRAJECTORY_CELLS // 8**config.level))
    # Lazy bounds: nothing is built per shard before it runs.  The last shard
    # end may pass n_max, where _sweep_shard stops.
    los = range(1, config.n_max + 1, shard_size)
    his = range(shard_size, config.n_max + shard_size, shard_size)
    kernel = partial(_sweep_shard, config)
    workers = min(config.workers, len(los), usable_cpus())
    if workers > 1 and hasattr(os, "fork"):
        # built and cached before the fork, so every child shares them
        _jump_tables(config.level)
        if config.per_trajectory:
            _orbit_lists(config.level)
        return _fork_join(kernel, los, his, workers, config.n_max)
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
