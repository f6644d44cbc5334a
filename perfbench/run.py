"""Benchmark for the collatzmc CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  With ``--trace 0`` each workload's commands run as CLI
subprocesses, repeated until ``--seconds`` is spent, and the end-to-end
metrics are medians over those repetitions.  With ``--trace 1`` the same
commands run in-process under ``perfbench/tracer.py`` and the per-layer
metrics come from its spans.  Every output is checked against the digest
recorded at the seed commit and against an independent invariant; any
mismatch is a failed run and the exit code is 1.  The workloads are fixed
and exhaustive, so ``--seed`` selects nothing and is only recorded.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import DIGESTS, Workload, build_workloads, digest_key  # noqa: E402

CLI = "import sys; from collatzmc.cli import main; sys.exit(main(sys.argv[1:]))"
MIN_SETUP_SAMPLES = 7
MIN_TRACED_REPS = 2

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "empirical.sweep.self_s": ("s", "wall_s, cpu_s on sweep and sweep-pertraj"),
    "empirical.sweep.visits_per_s": ("1/s", "wall_s, cpu_s on sweep and sweep-pertraj"),
    "empirical.pool.efficiency": ("ratio", "wall_s on sweep, not its cpu_s"),
    "empirical.sweep.peak_alloc_mb": ("MB", "peak_rss_mb on sweep-pertraj"),
    "empirical.compare.self_s": ("s", "wall_s on sweep-pertraj"),
    "markov.build_matrix.self_s": ("s", "wall_s on chain"),
    "congruence.forward_split.self_s": ("s", "wall_s on chain"),
    "markov.left_multiply.self_s": ("s", "wall_s on chain"),
    "markov.power_iteration.self_s": ("s", "wall_s on chain"),
    "markov.stationary_distribution.self_s": ("s", "wall_s on chain"),
    "markov.check_ergodicity.self_s": ("s", "wall_s on verify"),
    "measure.check_invariance.self_s": ("s", "wall_s on verify"),
    "congruence.preimage_class.self_s": ("s", "wall_s on verify"),
    "markov.matrix_power.self_s": ("s", "wall_s on verify"),
    "markov.kstep_measure_matrix.self_s": ("s", "wall_s on verify"),
    "cli.main.self_s": ("s", "wall_s on chain"),
    "empirical.visits": ("count", "base for empirical ratios"),
    "empirical.trajectories": ("count", "base for empirical ratios"),
    "empirical.run_trajectory.calls": ("count", "orbits sent to the big-int fallback"),
    "markov.nnz": ("count", "base for markov.build_matrix ratios"),
    "congruence.forward_split.calls": ("count", "base for forward_split ratios"),
    "congruence.preimage_class.calls": ("count", "base for preimage_class ratios"),
    "markov.check_ergodicity.exponent": ("count", "base for the ergodicity search"),
    "cli.stdout_bytes": ("count", "base for cli.main.self_s"),
    "trace.overhead_s": ("s", "traced minus untraced wall time"),
    "trace.uncovered_s": ("s", "traced wall time outside every span"),
}
COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"]
COMPARE_LAYERS = ("empirical.compare_to_theory", "empirical.to_csv", "empirical.to_json_dict")


class Run:
    """One finished child process: stdout, exit code, wall time and rusage."""

    def __init__(self, argv: list):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        stderr = []
        drain = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        drain.start()
        self.stdout = proc.stdout.read()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
        # wait4 reports the child's rusage, including every process it reaped.
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.stderr = stderr[0]
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024


class Oracle:
    """Checks one command's output: exit code, seed digest, invariant.

    Invariants run once per distinct output, so repeated identical outputs
    cost only a digest.
    """

    def __init__(self, workload: Workload):
        self.checks = {digest_key(c.argv): c.check for c in workload.commands}
        self.reference = None
        self.failures = []  # problems with the reference run itself
        self._verdicts: dict = {}
        if workload.reference:
            ref = Run(["-c", CLI, *workload.reference])
            self.failures = self.problems(workload.reference, ref.rc, ref.stdout)
            self.reference = None if self.failures else ref.stdout

    def problems(self, argv, rc: int, stdout: bytes | None, sha: str | None = None) -> list:
        key = digest_key(argv)
        if rc != 0:
            return [f"{key}: exit code {rc}"]
        sha = sha or hashlib.sha256(stdout).hexdigest()
        if sha != DIGESTS[key]:
            return [f"{key}: stdout digest {sha[:12]} differs from the seed's {DIGESTS[key][:12]}"]
        if stdout is not None and key in self.checks:
            if sha not in self._verdicts:
                self._verdicts[sha] = [f"{key}: {p}" for p in self.checks[key](stdout, self.reference)]
            return list(self._verdicts[sha])
        return []


def _quartiles(values: list) -> dict:
    # quantiles() needs two points; a single repetition has q1 = median = q3.
    points = values * 2 if len(values) == 1 else values
    q1, median, q3 = statistics.quantiles(points, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _report_failures(name: str, problems: list) -> None:
    for problem in problems[:5]:
        print(f"FAIL {name}: {problem}", file=sys.stderr)


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing collatzmc.cli."""
    run = Run(["-c", "import collatzmc.cli"])
    if run.rc != 0:
        raise SystemExit(f"importing collatzmc.cli failed:\n{run.stderr.decode()}")
    return run.wall_s


def run_untraced(workload: Workload, seconds: float) -> dict:
    oracle = Oracle(workload)
    _report_failures(workload.name, oracle.failures)
    samples, setup, failed = [], [], 0
    started = time.perf_counter()
    while True:
        # One set-up sample per repetition spreads them over the whole run,
        # which makes their median less sensitive to a brief slow spell.
        setup.append(setup_sample())
        wall = cpu = rss = 0.0
        problems = []
        for command in workload.commands:
            run = Run(["-c", CLI, *command.argv])
            problems += oracle.problems(command.argv, run.rc, run.stdout)
            wall += run.wall_s
            cpu += run.cpu_s
            rss = max(rss, run.peak_rss_mb)
        if problems:
            failed += 1
            _report_failures(workload.name, problems)
        samples.append((wall, cpu, rss))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(samples) > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample())
    columns = dict(zip(("wall_s", "cpu_s", "peak_rss_mb"), map(list, zip(*samples))))
    columns["setup_s"] = setup
    stats = {name: _quartiles(values) for name, values in columns.items()}
    return {"attempted": len(samples), "failed": failed, "stats": stats}


def _tracer_run(mode: str, argv_lists, oracle: Oracle) -> tuple:
    run = Run([str(HERE / "tracer.py"), mode, json.dumps([list(a) for a in argv_lists])])
    if run.rc != 0:
        return run, None, [f"tracer {mode} exited {run.rc}: {run.stderr.decode()[-400:]}"]
    report = json.loads(run.stdout.splitlines()[-1])
    problems = []
    if len(report["outputs"]) != len(argv_lists):
        problems.append(f"tracer {mode} stopped after {len(report['outputs'])} commands")
    for argv, output in zip(argv_lists, report["outputs"]):
        problems += oracle.problems(argv, output["rc"], None, output["sha256"])
    return run, report, problems


def _layer(report: dict, name: str, key: str = "self_s") -> float:
    return report["layers"].get(name, {}).get(key, 0)


def run_traced(workload: Workload, seconds: float) -> dict:
    """Per-layer metrics: medians over repetitions of (plain, traced) runs.

    Each repetition runs the traced argv once without wrappers and once with
    them, in fresh processes; counts must repeat exactly.  The first failure
    ends the run.
    """
    oracle = Oracle(workload)
    attempted, problems = 0, list(oracle.failures)
    peak_alloc = 0.0
    if workload.sweeps and not problems:
        attempted += 1
        _, report, problems = _tracer_run("memory", workload.traced, oracle)
        peak_alloc = report["peak_alloc_mb"] if not problems else 0.0
    reps, counts = [], None
    started = time.perf_counter()
    while not problems and (
        len(reps) < MIN_TRACED_REPS or (time.perf_counter() - started) * (1 + 1 / len(reps)) <= seconds
    ):
        attempted += 1
        # Alternate which of the pair runs first.
        modes = ("plain", "traced") if attempted % 2 else ("traced", "plain")
        pair = {mode: _tracer_run(mode, workload.traced, oracle) for mode in modes}
        (plain, _, problems), (traced, report, more) = pair["plain"], pair["traced"]
        problems = problems + more
        rep = {"plain": plain.wall_s, "traced": traced.wall_s, "report": report, "pool": 0.0}
        if workload.pool and not problems:
            _, pool_report, problems = _tracer_run("traced", [workload.pool], oracle)
            rep["pool"] = _layer(pool_report, "empirical.sweep", "total_s") if not problems else 0.0
        if not problems:
            if counts is not None and _counts(report) != counts:
                problems.append(f"counts drifted between traced runs: {counts} then {_counts(report)}")
            counts = _counts(report)
            reps.append(rep)
    if problems:
        _report_failures(workload.name, problems)
        return {"attempted": max(attempted, 1), "failed": 1, "metrics": {}}

    def median(fn) -> float:
        return statistics.median(fn(rep) for rep in reps)

    metrics = {
        name: median(lambda rep, layer=name.removesuffix(".self_s"): _layer(rep["report"], layer))
        for name in PER_LAYER
        if name.endswith(".self_s") and name != "empirical.compare.self_s"
    }
    metrics["empirical.compare.self_s"] = median(
        lambda rep: sum(_layer(rep["report"], layer) for layer in COMPARE_LAYERS)
    )
    sweep_s = median(lambda rep: _layer(rep["report"], "empirical.sweep", "total_s"))
    pool_s = median(lambda rep: rep["pool"])
    metrics["empirical.sweep.visits_per_s"] = counts["empirical.visits"] / sweep_s if sweep_s else 0.0
    metrics["empirical.pool.efficiency"] = sweep_s / (2 * pool_s) if pool_s else 0.0
    metrics["empirical.sweep.peak_alloc_mb"] = peak_alloc
    metrics.update(counts)
    metrics["trace.overhead_s"] = median(lambda rep: rep["traced"]) - median(lambda rep: rep["plain"])
    metrics["trace.uncovered_s"] = median(lambda rep: rep["traced"] - rep["report"]["root_s"])
    return {"attempted": attempted, "failed": 0, "metrics": {name: metrics[name] for name in PER_LAYER}}


def _counts(report: dict) -> dict:
    counts = {name: 0 for name in COUNTS}
    counts.update(report["counts"])
    for name in ("empirical.run_trajectory", "congruence.forward_split", "congruence.preimage_class"):
        counts[f"{name}.calls"] = _layer(report, name, "calls")
    counts["cli.stdout_bytes"] = sum(output["bytes"] for output in report["outputs"])
    return counts


def run_context(workloads: dict) -> dict:
    """Machine, toolchain and command lines behind the numbers."""
    import numpy

    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return "unknown"

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(index / "type") in ("Unified", "Data") and read(index / "level") in ("2", "3"):
            caches[f"L{read(index / 'level')}"] = read(index / "size")
    model = next(
        (line.split(":", 1)[1].strip() for line in read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "argv": {w.name: [list(c.argv) for c in w.commands] for w in workloads.values()},
        "traced_argv": {w.name: [list(a) for a in w.traced] for w in workloads.values()},
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    head = (git / "HEAD").read_text().strip() if (git / "HEAD").is_file() else ""
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="recorded only: the workloads are fixed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same workloads at self-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "collatzmc" / "cli.py").is_file():
        print(f"error: no collatzmc source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workloads = build_workloads(args.scale)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(name not in workloads for name in names):
        parser.error(f"--workload must be one of: all, {', '.join(workloads)}")

    context = run_context(workloads)
    print("context " + json.dumps({**context, "seed": args.seed, "scale": args.scale}))
    attempted = failed = 0
    metrics = {}
    for name in names:
        workload = workloads[name]
        prefix = "" if len(names) == 1 else f"{name}."
        if args.trace:
            result = run_traced(workload, args.seconds)
            for metric, value in result["metrics"].items():
                unit = PER_LAYER[metric][0]
                metrics[prefix + metric] = {"value": value, "unit": unit}
                print(f"{name:14s} {metric:40s} {value:>16.6f} {unit:6s} -> {PER_LAYER[metric][1]}")
        else:
            result = run_untraced(workload, args.seconds)
            for metric, unit in END_TO_END.items():
                stat = result["stats"][metric]
                metrics[prefix + metric] = {"value": stat["median"], "unit": unit}
                print(f"{name:14s} {metric:12s} {stat['median']:10.4f} {unit:3s} "
                      f"(median; q1 {stat['q1']:.4f} q3 {stat['q3']:.4f} n={stat['n']})")
        print(f"{name:14s} error_rate   {result['failed'] / result['attempted']:10.4f}     "
              f"({result['failed']}/{result['attempted']} runs failed)")
        attempted += result["attempted"]
        failed += result["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
