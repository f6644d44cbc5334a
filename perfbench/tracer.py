"""One in-process run of collatzmc CLI commands, traced or not.

    python3 perfbench/tracer.py MODE ARGV_JSON

ARGV_JSON is a JSON list of CLI argument lists; each runs through
``collatzmc.cli.main(argv, out=buffer)`` in this one process.  MODE is

- ``plain``: no wrappers, the baseline for the tracing overhead;
- ``traced``: the public functions of each layer are wrapped where their
  callers look them up, and every call records a span (name, start, end,
  parent span) in memory;
- ``memory``: only ``empirical.sweep`` is wrapped, with tracemalloc on during
  the call, so the allocation peak costs the timed runs nothing.

The last stdout line is one JSON object: the digest, size and exit code of
each command's output, per-layer span totals and self times, and the counts
taken from layer results.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import collatzmc.cli as cli
from collatzmc import congruence, empirical, markov, measure

# Span name -> the module attributes that the callers of that function read.
# Functions imported with "from .congruence import ..." are wrapped in the
# importing module too.
LAYERS = {
    "cli.main": ((cli, "main"),),
    "empirical.sweep": ((empirical, "sweep"),),
    "empirical.run_trajectory": ((empirical, "run_trajectory"),),
    "empirical.compare_to_theory": ((empirical, "compare_to_theory"),),
    "empirical.to_csv": ((empirical, "to_csv"),),
    "empirical.to_json_dict": ((empirical, "to_json_dict"),),
    "markov.build_matrix": ((markov, "build_matrix"),),
    "markov.stationary_distribution": ((markov, "stationary_distribution"),),
    "markov.left_multiply": ((markov, "left_multiply"),),
    "markov.power_iteration": ((markov, "power_iteration"),),
    "markov.matrix_power": ((markov, "matrix_power"),),
    "markov.kstep_measure_matrix": ((markov, "kstep_measure_matrix"),),
    "markov.check_ergodicity": ((markov, "check_ergodicity"),),
    "measure.check_invariance": ((measure, "check_invariance"),),
    "congruence.forward_split": ((congruence, "forward_split"), (markov, "forward_split")),
    "congruence.preimage_class": (
        (congruence, "preimage_class"),
        (markov, "preimage_class"),
        (measure, "preimage_class"),
        (cli, "preimage_class"),
    ),
}


def _result_counts(name: str, result, counts: Counter) -> None:
    """Counts read off a layer's return value."""
    if name == "empirical.sweep":
        counts["empirical.visits"] += result.total_visits
        counts["empirical.trajectories"] += result.trajectories
    elif name == "markov.build_matrix":
        counts["markov.nnz"] += sum(len(row) for row in result.rows)
    elif name == "markov.check_ergodicity":
        counts["markov.check_ergodicity.exponent"] = result.exponent or 0


class Tracer:
    """Span recorder; spans stay in memory until summary()."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            _result_counts(name, result, self.counts)
            return result

        return wrapper

    def install(self) -> None:
        for name, sites in LAYERS.items():
            wrapper = self.wrap(name, getattr(*sites[0]))
            for module, attr in sites:
                setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, and root-span coverage.

        A span's self time is its duration minus that of its direct children;
        spans nest in one thread, so the children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        root_s = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            layer = layers[name]
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - child_time[index]
            if parent < 0:
                root_s += end - start
        return {"layers": dict(layers), "root_s": root_s, "counts": dict(self.counts)}


def _traced_peak(fn, peaks: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    return wrapper


def main(mode: str, argv_lists: list) -> dict:
    tracer, peaks = None, []
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    elif mode == "memory":
        empirical.sweep = _traced_peak(empirical.sweep, peaks)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")
    outputs = []
    for argv in argv_lists:
        buffer = io.StringIO()
        code = cli.main(list(argv), out=buffer)
        data = buffer.getvalue().encode()
        outputs.append({"rc": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})
        if code != 0:
            break
    report = {"outputs": outputs}
    if tracer is not None:
        report.update(tracer.summary())
    if peaks:
        report["peak_alloc_mb"] = max(peaks)
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], json.loads(sys.argv[2]))))
