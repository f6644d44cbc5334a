"""Self-test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import json
import subprocess
import sys

import pytest

import run
from workloads import build_workloads

TINY = build_workloads("tiny")


def bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--scale", "tiny",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(TINY)
    return result["metrics"]


@pytest.fixture(scope="module")
def traced_twice():
    return bench(1), bench(1)


def test_every_end_to_end_metric_for_every_workload():
    metrics = bench(0)
    expected = {f"{w}.{m}" for w in TINY for m in run.END_TO_END}
    assert set(metrics) == expected
    assert all(metrics[name]["value"] > 0 for name in expected)
    assert all(metrics[f"{w}.{m}"]["unit"] == u for w in TINY for m, u in run.END_TO_END.items())


def test_every_per_layer_metric_for_every_workload(traced_twice):
    metrics, _ = traced_twice
    assert set(metrics) == {f"{w}.{m}" for w in TINY for m in run.PER_LAYER}
    assert metrics["sweep.empirical.pool.efficiency"]["value"] > 0
    assert metrics["verify.markov.check_ergodicity.exponent"]["value"] == 4
    for w in TINY:
        assert metrics[f"{w}.empirical.run_trajectory.calls"]["value"] == 0
        assert metrics[f"{w}.cli.stdout_bytes"]["value"] > 0


def test_two_traced_runs_give_identical_counts(traced_twice):
    first, second = traced_twice
    counts = [f"{w}.{m}" for w in TINY for m in run.COUNTS]
    assert [first[c] for c in counts] == [second[c] for c in counts]


@pytest.mark.parametrize("name", TINY)
def test_one_flipped_byte_is_a_failure(name):
    workload = TINY[name]
    oracle = run.Oracle(workload)
    assert oracle.failures == []
    for command in workload.commands:
        out = run.Run(["-c", run.CLI, *command.argv]).stdout
        assert oracle.problems(command.argv, 0, out) == []
        for at in (0, len(out) // 2, len(out) - 2):
            flipped = bytearray(out)
            flipped[at] ^= 1
            assert oracle.problems(command.argv, 0, bytes(flipped))
        assert oracle.problems(command.argv, 1, out)


@pytest.mark.parametrize("name", TINY)
def test_invariants_reject_a_wrong_value(name):
    """The checkers catch a changed number even without the digest."""
    command = TINY[name].commands[-1]
    oracle = run.Oracle(TINY[name])
    out = run.Run(["-c", run.CLI, *command.argv]).stdout
    wrong = {
        "sweep": (b"max_value=", b"max_value=1"),
        "sweep-pertraj": (b'"total_visits": ', b'"total_visits": 1'),
        "chain": (b"1 1/96\n", b"1 1/48\n"),
        "verify": (b"exponent 4", b"exponent 5"),
    }[name]
    assert wrong[0] in out
    assert command.check(out, oracle.reference) == []
    assert command.check(out.replace(*wrong, 1), oracle.reference)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (unit, _) in run.PER_LAYER.items()
    ]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in build_workloads().values()
    ]
