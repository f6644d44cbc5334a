"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py [--runs 10] [--workload NAME ...] [--out FILE]

Runs ``perfbench/run.py`` untraced ``--runs`` times per workload, each with
another seed and the ``run_seconds`` of BENCHMARK.json, and reports for each
end-to-end metric the median and quartiles of the per-run values
(``statistics.quantiles(values, n=4)``) and their spread, the quartile
distance as a share of the median.  A spread above a third of the metric's
bound is flagged.  With ``--out`` the summary and the run context are
written as JSON; ``perfbench/baseline.json`` is this file at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    context = json.loads(lines[0].removeprefix("context "))
    return json.loads(lines[-1]), context


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, context = {}, None
    for workload in args.workload:
        values: dict[str, list] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            result, context = run_once(workload, seed, spec["run_seconds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < bounds[name] / 3 else "  <- above a third of its bound"
            print(f"{workload:14s} {name:12s} median {median:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:.3f} (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        payload = {"runs": args.runs, "run_seconds": spec["run_seconds"], "context": context,
                   "workloads": summary}
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
