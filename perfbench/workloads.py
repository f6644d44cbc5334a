"""Workload definitions and output oracles for the collatzmc benchmark.

Every workload is a fixed, exhaustive CLI job: there is no random input, so
the benchmark's ``--seed`` selects nothing.  Each command's stdout is checked
twice: against the SHA-256 digest recorded at the seed commit, and against an
invariant that does not depend on that recording.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# sha256 of stdout at the seed commit, keyed by the argv with any
# "--workers N" removed (sweep totals do not depend on the worker count).
DIGESTS = {
    # full scale
    "simulate --max 2000000 --m 1": "981d5f91f0a8d917f7ed14ca6423d4d924003e319c5d0e4935f42f55108898f0",
    "simulate --max 200000 --m 3 --per-trajectory --format json": "dd42025527fcea7a09a1f4de1d110760efefae6801b08c05fbca25fc36c09748",
    "simulate --max 200000 --m 3": "5289ca89ba5e4bab8950555e5e57d6841a1b4940d67341935a4098e0c60a101d",
    "matrix --m 5": "7547062562b18b31700b655bd456e17775fa69d55992218e001086b19485d20d",
    "stationary --m 5": "c92c95b2997e44b9a95def3fcc5d1a83d961ff6916336e573511e75dc8f40f34",
    "verify --all --m 3": "231463310b46dfc256159bf49c2e1f12e56346f9f0b49fa690aa7f3e25d8646b",
    # tiny scale, for the harness self-test
    "simulate --max 3000 --m 1": "a72d27d9e761a0b289d1b086e51b1045aca2f568b4e5fb730292235f329fe00e",
    "simulate --max 2000 --m 2 --per-trajectory --format json": "ea4d2df52a65873afd33e2e5bf9e93d9343dc9121d0b9b0265bdab1e6caa0283",
    "simulate --max 2000 --m 2": "36301be979f7b4169ae2faa623823578017291e7cf415bb01694a2da4bcda6f4",
    "matrix --m 2": "5d5397f8ccf15deb2f09d7df0c9e93f53e1dab4a4831ac133f2fd3e4241c40d8",
    "stationary --m 2": "52e3ee850ce0c3391763c08b1b6513f9665c435c73f82b1b91971f47f1ae5dbb",
    "verify --all --m 2": "389124907c39038b18379fe6d9e2d743bdceb9ef8e12ddacd36e3dd15f702dc6",
}

# Smallest exponent e with Q(m)^e strictly positive.
ERGODICITY_EXPONENT = {2: 4, 3: 6, 4: 8}

_TRAILER = re.compile(rb"^# max_value=(\d+) total_visits=(\d+)$", re.MULTILINE)


def digest_key(argv) -> str:
    words = list(argv)
    if "--workers" in words:
        at = words.index("--workers")
        del words[at : at + 2]
    return " ".join(words)


def collatz_peak(n: int) -> int:
    """Largest value on the orbit of n under n/2, 3n+1 (plain reference)."""
    peak = n
    while n != 1:
        n = n // 2 if n % 2 == 0 else 3 * n + 1
        peak = max(peak, n)
    return peak


def _stationary_weight(i: int, level: int) -> Fraction:
    return Fraction(1, (6 if i % 2 == 0 else 12) * 8 ** (level - 1))


# Each checker takes (stdout, reference stdout or None) and returns problems.
Checker = Callable[[bytes, "bytes | None"], list]


def check_sweep_csv(level: int, record_start: int, tolerance: float | None) -> Checker:
    """CSV sweep: one row per class with the closed-form weight, frequencies
    within tolerance of it (when given), and a max equal to the path record
    set by record_start (the start below n_max whose orbit climbs highest)."""

    def check(out: bytes, _ref) -> list:
        lines = out.decode().splitlines()
        problems = []
        if lines[:1] != ["class,theoretical,empirical,deviation"]:
            problems.append("missing CSV header")
        rows = [line.split(",") for line in lines[1:-1]]
        if len(rows) != 8**level:
            problems.append(f"expected {8**level} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if int(row[0]) != i or abs(float(row[1]) - float(_stationary_weight(i, level))) > 1e-12:
                problems.append(f"row {i}: wrong class or theoretical weight")
                break
        if tolerance is not None and any(float(row[3]) > tolerance for row in rows):
            problems.append(f"a class frequency is more than {tolerance} from its stationary weight")
        match = _TRAILER.search(out)
        if not match:
            problems.append("missing max_value/total_visits trailer")
        elif int(match.group(1)) != collatz_peak(record_start):
            problems.append(f"max_value {match.group(1).decode()} is not the peak of {record_start}")
        return problems

    return check


def check_sweep_json(level: int, n_max: int) -> Checker:
    """Per-trajectory JSON sweep: totals equal those of the plain CSV sweep
    over the same range, and both row sets cover every class."""

    def check(out: bytes, ref) -> list:
        payload = json.loads(out)
        problems = []
        match = _TRAILER.search(ref or b"")
        if not match:
            return ["reference sweep printed no trailer"]
        if (payload["max_value"], payload["total_visits"]) != tuple(map(int, match.groups())):
            problems.append("max_value/total_visits differ from the plain sweep")
        if payload["trajectories"] != n_max:
            problems.append(f"trajectories {payload['trajectories']} != {n_max}")
        for key in ("rows", "per_trajectory_rows"):
            if [row["class"] for row in payload.get(key, ())] != list(range(8**level)):
                problems.append(f"{key} do not list every class once")
        return problems

    return check


def check_matrix(level: int) -> Checker:
    """Triplets: every row of Q(m) present, weights in eighths summing to 1."""

    def check(out: bytes, _ref) -> list:
        eighths = [0] * 8**level
        for line in out.decode().splitlines():
            i, _j, p = line.split()
            num, _, den = p.partition("/")
            scaled = Fraction(8 * int(num), int(den or 1))
            if scaled.denominator != 1 or scaled <= 0:
                return [f"row {i}: weight {p} is not a positive multiple of 1/8"]
            eighths[int(i)] += int(scaled)
        bad = [i for i, total in enumerate(eighths) if total != 8]
        return [f"{len(bad)} rows do not sum to 1 (first: {bad[0]})"] if bad else []

    return check


def check_stationary(level: int) -> Checker:
    """Weights exactly 1/(6*8^(m-1)) at even classes and half that at odd."""

    def check(out: bytes, _ref) -> list:
        expected = [f"{i} {_stationary_weight(i, level)}" for i in range(8**level)]
        lines = out.decode().splitlines()
        if lines == expected:
            return []
        wrong = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), len(expected))
        return [f"stationary weights differ from the closed form at line {wrong}"]

    return check


def check_verify(level: int) -> Checker:
    """Five PASS lines, no FAIL, and the known ergodicity exponent."""

    def check(out: bytes, _ref) -> list:
        lines = out.decode().splitlines()
        problems = []
        if len(lines) != 5 or not all(line.startswith("PASS ") for line in lines):
            problems.append("expected exactly five PASS lines")
        if not lines or not lines[-1].endswith(f"exponent {ERGODICITY_EXPONENT[level]})"):
            problems.append(f"ergodicity exponent is not {ERGODICITY_EXPONENT[level]}")
        return problems

    return check


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Checker


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    # argv lists run in one traced process; sweeps trace with one worker.
    traced: tuple[tuple[str, ...], ...]
    # a command run once per invocation whose stdout feeds the checkers
    reference: tuple[str, ...] | None = None
    # argv whose empirical.sweep span, against the traced one, gives pool efficiency
    pool: tuple[str, ...] | None = None

    @property
    def sweeps(self) -> bool:
        return any(argv[0] == "simulate" for argv in self.traced)


FIXED = "; fixed exhaustive input, no seed applies"


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def build_workloads(scale: str = "full") -> dict[str, Workload]:
    """The four workloads; "tiny" keeps their shape at sizes that run in
    well under a second, for the harness self-test."""
    if scale == "full":
        # 1988859 holds the path record below 2e6 (Oliveira e Silva's tables);
        # the frequencies are within 0.01 of stationary from n_max = 1e5 on.
        n_sweep, record, tolerance, n_traj, m_traj, m_chain, m_verify = (
            2_000_000, 1_988_859, 0.01, 200_000, 3, 5, 3
        )
    elif scale == "tiny":
        n_sweep, record, tolerance, n_traj, m_traj, m_chain, m_verify = 3000, 1819, None, 2000, 2, 2, 2
    else:
        raise ValueError(f"unknown scale {scale!r}")

    sweep_argv = _argv(f"simulate --max {n_sweep} --m 1 --workers 2")
    sweep_w1 = _argv(f"simulate --max {n_sweep} --m 1 --workers 1")
    traj_argv = _argv(f"simulate --max {n_traj} --m {m_traj} --per-trajectory --format json --workers 1")
    matrix_argv = _argv(f"matrix --m {m_chain}")
    stationary_argv = _argv(f"stationary --m {m_chain}")
    verify_argv = _argv(f"verify --all --m {m_verify}")

    workloads = (
        Workload(
            "sweep",
            "int64 sweep kernel at the default 2 workers: affine step, peak, tally, "
            "compaction, process pool and shard merge; no chain layer runs" + FIXED,
            (Command(sweep_argv, check_sweep_csv(1, record, tolerance)),),
            traced=(sweep_w1,),
            pool=sweep_argv,
        ),
        Workload(
            "sweep-pertraj",
            "same kernel in one process with the dense per-orbit np.add.at tally over "
            f"{8**m_traj} classes and its per-shard buffer" + FIXED,
            (Command(traj_argv, check_sweep_json(m_traj, n_traj)),),
            traced=(traj_argv,),
            reference=_argv(f"simulate --max {n_traj} --m {m_traj} --workers 1"),
        ),
        Workload(
            "chain",
            f"exact chain at m={m_chain}: Q(m) built twice from forward splits, exact P*Q=P, "
            "power iteration and triplet rendering; no sweep runs" + FIXED,
            (Command(matrix_argv, check_matrix(m_chain)), Command(stationary_argv, check_stationary(m_chain))),
            traced=(matrix_argv, stationary_argv),
        ),
        Workload(
            "verify",
            f"every verify check at m={m_verify}: measure invariance, preimages, "
            "Chapman-Kolmogorov powers and the ergodicity search" + FIXED,
            (Command(verify_argv, check_verify(m_verify)),),
            traced=(verify_argv,),
        ),
    )
    return {w.name: w for w in workloads}
