"""CLI behaviour: output formats, determinism, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collatzmc
from collatzmc import cli, empirical, markov, measure
from collatzmc.cli import main
from collatzmc.congruence import preimage_targets


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of the stdout of `simulate ARGV --workers 1`; the last case runs three
#: per-trajectory shards of 1024 starts.
SIMULATE_GOLDENS = {
    "--max 3000 --m 1": "a72d27d9e761a0b289d1b086e51b1045aca2f568b4e5fb730292235f329fe00e",
    "--max 20000 --m 1": "2e3782e73e93a2dbe17476a4022005d07106f8ad85588099f9bafa8d94cff22f",
    "--max 3000 --m 2": "60f7c5aa43c36826e98d240f04c3416feef5bfc818d9e87f5c73ca236ba3833d",
    "--max 20000 --m 2": "420173f6a6af542421badd70a51161d2f8e22b554ac836528d756a9dc640233b",
    "--max 3000 --m 3": "af48ce6cc510b3c29d67d0140268de66d9a4dd2816300b197709dc831559a761",
    "--max 20000 --m 3": "fa70bb5d9d82500c11b1ae9ac5edae23af7836d729e6a9df2565c2d19844c4e1",
    "--max 3000 --m 4": "39ab3b102bd5c27bbdcea1b399d5c1d07b80f964a17d624c6cdf1c99c5b07826",
    "--max 20000 --m 4": "61cc1bf48ce5e534d2cce20c5baaf7ed6c10c84a4363f33d10e0466b17d9a988",
    "--max 3000 --m 5": "c18bba02c55d7129de10dc5ae75426f446978adfea8f554bc4f9739ab4876d1b",
    "--max 20000 --m 5": "8ffdc46c729aab2af0a4979287b3c62d4123cf8b7529a036f14cc3594052430c",
    "--max 3000 --m 6": "a62f391d65d7ab53e6ab6245d6739bb6eed5632596c46e464ba52806b161d778",
    "--max 20000 --m 6": "2cc570e4f524f0f035e78390ef1029ff3c6636a08c374eaaa5cc51b90ef37333",
    "--max 20000 --m 5 --include-start false": (
        "1ab3d656b2124f611b5a4639a9f4d798f7b73002999631ddc9fd6f5debe42a6f"
    ),
    "--max 3000 --m 1 --format json": "53402801b127f6b088deb0a6434e353c9cb0f3eeaf6d70687ffb643fd47d1f8c",
    "--max 20000 --m 4 --format json": "4a86f582a57bbeb8e4bc629ba39650f939ea40800b229a3be5ab7d8e6fd4be75",
    "--max 3000 --m 5 --per-trajectory --format json": (
        "f1dccccb9118bae9adb9894d17ef98500d348449d723bc90196abf8d6881fff1"
    ),
}


#: sha256 of the stdout of the exact chain commands: the matrix triplets, the
#: stationary law, the checks that verify it and the DOT graph.
CHAIN_GOLDENS = {
    "stationary --m 1": "2729380392884a2176e8859ec1ae0c58b403cc4a323de239c82e24bc5ae2c36d",
    "stationary --m 2": "52e3ee850ce0c3391763c08b1b6513f9665c435c73f82b1b91971f47f1ae5dbb",
    "stationary --m 3": "e805fdd421e08d9574cdd5d162ae78d9e5a5b7871d2d9c1370a4fbfafb385f96",
    "stationary --m 4": "9a75451a4d1f9988c4d9a8fb336d545c580fcb1c57c329328aac85629212481a",
    "stationary --m 5": "c92c95b2997e44b9a95def3fcc5d1a83d961ff6916336e573511e75dc8f40f34",
    "verify --stationarity --m 1": "6d9c6449a47a506a9c9a1a97d42433957d513254c2d5d70a26ec435b8389cc19",
    "verify --stationarity --m 2": "0a6bd4e1c9b181d29bde284b2eec206967f0501e4ec908ef146ea958e72fd579",
    "verify --stationarity --m 3": "a89373cab128a3136b1c9aeb9d3d9ccb973d3efcbbee9784d50683fbba423e1f",
    "verify --stationarity --m 4": "442bd077b78d4ca940e97640ad22621dc0e99fa6991932e35216adcf5ab42078",
    "verify --all --m 3": "231463310b46dfc256159bf49c2e1f12e56346f9f0b49fa690aa7f3e25d8646b",
    "verify --all --m 4": "976e8a9ba722ad76635245ce36796e8c71a8f7977359fcb03bebbaba5e73b9ff",
    "verify --measure --m 1": "3667fa5960a21f45d2b844cfb72232f1570cfb58830e2026db72bd3c2fa83464",
    "verify --measure --m 2": "a28b265628c9836bf06cbae77f830afb13708894d674e2e9913dd9981e0e08fb",
    "verify --measure --m 3": "8e6a397a24f046bf6da9460f707143500b45b9737ac30660dd104d3336e0bf08",
    "verify --measure --m 4": "19a812fdd8ba159248af7b0aa7765383ddb38278cf787bba64610f19a8d883be",
    "verify --measure --m 5": "9b8c42fdcfc13ba666e1b1638f9a3d4022868590385391aa2b7606d9dc1b89b0",
    "verify --stochasticity --m 1": "8df5c157e1c7c29e1f97536a0dd4a9eba7e856c13414a1c2bb60cf7790a5e5c4",
    "verify --stochasticity --m 2": "7f25efe968fcf9242bb4d0d438e16bc4526ca7b447d26877fc3893976fc7a6e9",
    "verify --stochasticity --m 3": "27bf6138c1bdb7ba9ab5ac2ae9da27163ff2cdc5bbc6cb69b3299b035b831f22",
    "verify --stochasticity --m 4": "4e46165062f8e8b805bd9448d3bdd4eeda6d50de847bb6338de3dd53525afea1",
    "verify --stochasticity --m 5": "bc4ae7edef699e6b21fc55aad6b549e294a16ce24e182fad6fe51ac351158b60",
    "verify --chapman": "17c2652ea61aba532ec450c1691a2abb364c5ae222ac99ebee968bf2c9b2df20",
    "matrix --m 1": "0efb6afd3f1458bc9efba953606b0833f2a34f43a30fd000eabac5346a129516",
    "matrix --m 2": "5d5397f8ccf15deb2f09d7df0c9e93f53e1dab4a4831ac133f2fd3e4241c40d8",
    "matrix --m 3": "794d06afcfc476260b0734fea0218abdf621c567f3a32fd0a0ad94b571040f34",
    "matrix --m 4": "efefa00778b758b2c169290d3fd626b281111ce32511c943a9b144c527bf4de4",
    "graph --m 1": "737311055b8d065cd17d0caca3060d8618ae002bc6f3138b65b0ffa13afa7b40",
    "graph --m 2": "5b29dec748f4a7807ade069168af464b7a62d800687a118dbb40fddbc1810d7b",
}


@pytest.mark.parametrize("argv, digest", CHAIN_GOLDENS.items(), ids=list(CHAIN_GOLDENS))
def test_chain_golden_bytes(argv, digest):
    code, text = run_cli(*argv.split())
    assert code == 0 and sha256(text) == digest


@pytest.fixture
def corrupt_chain(monkeypatch):
    """Every build_matrix call returns Q(2) with one image column of row 0
    moved to the next class."""
    images = markov.build_matrix(2).images.copy()
    images[0, 0] = (images[0, 0] + 1) % 64
    corrupt = markov.TransitionMatrix(2, images)
    monkeypatch.setattr(markov, "build_matrix", lambda level: corrupt)


class TestStationary:
    def test_level1_lines(self):
        code, text = run_cli("stationary", "--m", "1")
        assert code == 0
        assert text.splitlines() == [
            "0 1/6",
            "1 1/12",
            "2 1/6",
            "3 1/12",
            "4 1/6",
            "5 1/12",
            "6 1/6",
            "7 1/12",
        ]

    def test_level2_sample(self):
        code, text = run_cli("stationary", "--m", "2")
        lines = text.splitlines()
        assert code == 0 and len(lines) == 64
        assert lines[0] == "0 1/48" and lines[1] == "1 1/96"

    def test_inconsistency_exits_1(self, corrupt_chain, capsys):
        code, text = run_cli("stationary", "--m", "2")
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and text == ""
        assert err == ["error: closed-form vector is not exactly stationary; matrix is corrupt"]


class TestPreimage:
    def test_golden_output(self):
        code, text = run_cli("preimage", "--j", "1", "--m", "1")
        assert code == 0
        assert text == (
            "B(1,64)\nB(8,64)\nB(22,64)\nB(33,64)\nB(54,64)\n"
            "even_members=3 odd_members=2\n"
        )

    def test_out_of_range_j(self):
        code, _ = run_cli("preimage", "--j", "8", "--m", "1")
        assert code == 2

    def test_level_bounded_by_the_digit_limit(self, capsys):
        # 8^4761 has 4300 decimal digits, 8^4762 has 4301
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, text = run_cli("preimage", "--j", "0", "--m", "4760")
            assert code == 0 and text.endswith("even_members=5 odd_members=6\n")
            for level in ("4761", "5000"):
                code, text = run_cli("preimage", "--j", "0", "--m", level)
                err = capsys.readouterr().err.splitlines()
                assert code == 3 and text == ""
                assert len(err) == 1 and err[0].startswith(f"error: level {level} ")
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("digits, top", [(0, 4760), (640, 707)], ids=["limit-off", "limit-640"])
    def test_level_cap(self, capsys, digits, top):
        # the cap holds with the digit limit off; a limit of 640 digits
        # refuses 8^709, which has 641, and prints 8^708
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digits)
        try:
            code, text = run_cli("preimage", "--j", "0", "--m", str(top))
            assert code == 0 and len(text.splitlines()) == 12
            code, text = run_cli("preimage", "--j", "0", "--m", str(top + 1))
            err = capsys.readouterr().err.splitlines()
            assert code == 3 and text == "" and len(err) == 1
            assert err[0].startswith(f"error: level {top + 1} ")
        finally:
            sys.set_int_max_str_digits(limit)


class TestMatrix:
    def test_triplets(self):
        code, text = run_cli("matrix", "--m", "1")
        lines = text.splitlines()
        assert code == 0 and len(lines) == 32
        assert lines[0] == "0 0 1/8"
        assert "3 0 1/2" in lines and "3 4 1/2" in lines

    def test_dense(self):
        code, text = run_cli("matrix", "--m", "1", "--format", "dense")
        lines = text.splitlines()
        assert code == 0 and len(lines) == 8
        assert lines[3] == "1/2 0 0 0 1/2 0 0 0"

    def test_dense_capacity(self):
        code, _ = run_cli("matrix", "--m", "3", "--format", "dense")
        assert code == 3

    def test_level_capacity(self):
        code, _ = run_cli("matrix", "--m", "6")
        assert code == 3


class TestGraph:
    def test_dot_output(self):
        code, text = run_cli("graph")
        assert code == 0
        assert text.startswith("digraph")
        assert text.count("->") == 32

    def test_level2(self):
        code, text = run_cli("graph", "--m", "2")
        assert code == 0 and text.count("->") == 256

    def test_level_capacity(self, capsys):
        code, text = run_cli("graph", "--m", "6")
        assert code == 3 and text == ""
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestContraction:
    def test_text(self):
        code, text = run_cli("contraction")
        assert code == 0
        assert "raw_geometric_mean      3/4" in text
        assert "bound_factors           1/8 5/6 11/12 16/3 13/12 5/6 11/12 16/3" in text

    def test_json(self):
        code, text = run_cli("contraction", "--format", "json")
        payload = json.loads(text)
        assert code == 0
        assert payload["raw_geometric_mean"] == "3/4"
        assert payload["bound_factors"][3] == "16/3"
        assert -0.1146 < payload["alpha"] < -0.1126
        assert 0.943 < payload["beta"] < 0.945

    def test_custom_n_min(self):
        code, text = run_cli("contraction", "--n-min", "9", "--format", "json")
        payload = json.loads(text)
        assert code == 0 and payload["n_min"] == 9

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("contraction", "--format", "json"),
                "041a34a7541fbdf93207582043b58e088b28b77ebd6814857ad96447aec25a5d",
            ),
            (
                ("contraction", "--n-min", "9", "--format", "json"),
                "46f2c82864918f6ae3f422a911e9c71b5ff84ff22abb676972c127c34aa04a36",
            ),
        ],
        ids=["default", "n-min-9"],
    )
    def test_json_golden_bytes(self, argv, digest):
        code, text = run_cli(*argv)
        assert code == 0 and sha256(text) == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("", "5a556f4eadba8ad3af047e1e804b3626173428d7dd4400309838f0ad33628530"),
            ("--n-min 9", "f7e3c17dd7d9ea7990dc768c2ce3e93ffde78fd147bef92c9f0f5b8fea605ae0"),
        ],
        ids=["default", "n-min-9"],
    )
    def test_text_golden_bytes(self, argv, digest):
        code, text = run_cli("contraction", *argv.split())
        assert code == 0 and sha256(text) == digest


class TestSimulate:
    def test_csv_deterministic(self):
        first = run_cli("simulate", "--max", "2000")
        second = run_cli("simulate", "--max", "2000")
        assert first == second
        code, text = first
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "class,theoretical,empirical,deviation"
        assert lines[-1].startswith("# max_value=")

    def test_json_with_per_trajectory(self):
        code, text = run_cli(
            "simulate", "--max", "2000", "--format", "json", "--per-trajectory"
        )
        payload = json.loads(text)
        assert code == 0
        assert len(payload["rows"]) == 8
        assert len(payload["per_trajectory_rows"]) == 8
        assert payload["trajectories"] == 2000

    def test_include_start_false(self):
        code, text = run_cli("simulate", "--max", "2000", "--include-start", "false")
        assert code == 0 and text.splitlines()[0] == "class,theoretical,empirical,deviation"

    def test_workers_flag(self):
        base = run_cli("simulate", "--max", "2000", "--workers", "1")
        multi = run_cli("simulate", "--max", "2000", "--workers", "2")
        assert base == multi

    @pytest.mark.parametrize(
        "n_max, level, digest, include_start",
        [
            ("2000", "2", "ea4d2df52a65873afd33e2e5bf9e93d9343dc9121d0b9b0265bdab1e6caa0283", "true"),
            ("20000", "3", "749017a571f32054b390c19e076da5d0ffbc432cb77b0d7b493fedc4dca53f97", "true"),
            # three shards at level 4
            ("5000", "4", "fef6807071c75ceddc719759f51eaadf59aa45cde0499543b5ba7d612275aa42", "false"),
            ("30000", "2", "ce63798e3850b3b96eacf83fda46e62dba29be10c80b1eb36b6c1bf626803cbc", "false"),
            # 1, 2 and 4 have no visits, and 5's only visit, its start, is uncounted
            ("5", "3", "7086b774081edda83474f1c5f42f0b9f019473a49b55b3015cfe9b94cc29678b", "false"),
            # four batches of 2^13 starts in one shard at level 1
            ("30000", "1", "a1a1150fae7d6c1bc92facafad432ef06883d94ca3c121b04dc3e60fd2e3db63", "false"),
            ("3000", "5", "f14fec41c72c93b675d3094e8b3829a3c3a022fa95d11ac4f15193b78e59c89b", "false"),
        ],
        ids=[
            "max2000-m2", "max20000-m3", "max5000-m4-nostart", "max30000-m2-nostart", "max5-m3-nostart",
            "max30000-m1-nostart", "max3000-m5-nostart",
        ],
    )
    def test_per_trajectory_golden_bytes(self, n_max, level, digest, include_start):
        code, text = run_cli(
            "simulate", "--max", n_max, "--m", level, "--include-start", include_start,
            "--per-trajectory", "--format", "json", "--workers", "1",
        )
        assert code == 0 and sha256(text) == digest

    @pytest.mark.parametrize("argv, digest", SIMULATE_GOLDENS.items(), ids=list(SIMULATE_GOLDENS))
    def test_simulate_golden_bytes(self, argv, digest):
        code, text = run_cli("simulate", *argv.split(), "--workers", "1")
        assert code == 0 and sha256(text) == digest

    def test_process_pool_golden_bytes(self):
        # three per-trajectory shards of 16384 starts at level 3, merged across two processes
        code, text = run_cli(
            "simulate", "--max", "40000", "--m", "3", "--per-trajectory", "--format", "json",
            "--workers", "2",
        )
        assert code == 0
        assert sha256(text) == "b8826e31ac7454b51978ca63dda638ee14798234a46f7b8ae21298681008888c"

    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
    def test_bad_workers_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--max", "100", "--workers", value])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert f"argument --workers: must be a positive integer, got {value}" in captured.err

    def test_workers_flag_reaches_the_sweep(self, monkeypatch):
        seen = []
        real_sweep = empirical.sweep
        monkeypatch.setattr(empirical, "sweep", lambda config: seen.append(config) or real_sweep(config))
        assert run_cli("simulate", "--max", "100", "--workers", "3")[0] == 0
        assert seen[0].workers == 3

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._default_workers() == 1

    @pytest.mark.parametrize(
        "cpu_max, workers",
        [("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1), (None, 4)],
        ids=["unlimited", "one-and-a-half", "half", "missing"],
    )
    def test_default_workers_follow_cgroup_quota(self, monkeypatch, tmp_path, cpu_max, workers):
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max)
        monkeypatch.setattr(cli, "CPU_MAX_PATH", str(path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert cli._default_workers() == workers

    def test_csv_skips_the_per_trajectory_tally(self, monkeypatch):
        seen = []
        real_sweep = empirical.sweep
        monkeypatch.setattr(empirical, "sweep", lambda config: seen.append(config) or real_sweep(config))
        plain = run_cli("simulate", "--max", "3000", "--m", "2")
        flagged = run_cli("simulate", "--max", "3000", "--m", "2", "--per-trajectory")
        assert plain == flagged and plain[0] == 0
        assert [config.per_trajectory for config in seen] == [False, False]
        run_cli("simulate", "--max", "3000", "--per-trajectory", "--format", "json")
        assert seen[-1].per_trajectory


class TestVerify:
    def test_all_level2(self):
        code, text = run_cli("verify", "--all", "--m", "2")
        assert code == 0
        lines = text.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        joined = "\n".join(lines)
        for token in (
            "measure-invariance",
            "stochasticity",
            "stationarity",
            "chapman-kolmogorov",
            "ergodicity",
        ):
            assert token in joined

    def test_measure_per_class(self):
        code, text = run_cli("verify", "--measure", "--m", "1")
        lines = text.splitlines()
        assert code == 0
        assert lines[:8] == [f"PASS B({j},8)" for j in range(8)]
        assert lines[8].startswith("PASS measure-invariance")

    def test_measure_level_cap(self, capsys):
        # the top level runs with no opt-in, one level above it is refused
        code, text = run_cli("verify", "--measure", "--m", str(measure.MAX_CHECK_LEVEL))
        assert code == 0 and len(text.splitlines()) == 8**measure.MAX_CHECK_LEVEL + 1
        code, text = run_cli("verify", "--measure", "--m", str(measure.MAX_CHECK_LEVEL + 1))
        assert code == 3 and text == "" and len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("argv", ["--measure --m 6", "--measure --m 9", "--all --m 6"])
    def test_measure_hard_ceiling(self, monkeypatch, capsys, argv):
        # refused with one line before the preimage map is built
        def build_nothing(level):
            raise AssertionError(f"built the preimage map at level {level}")

        monkeypatch.setattr(measure, "preimage_targets", build_nothing)
        code, text = run_cli("verify", *argv.split())
        err = capsys.readouterr().err.splitlines()
        assert code == 3 and text == ""
        assert len(err) == 1 and err[0].startswith("error: level ")

    @pytest.mark.parametrize(
        "level, moved, to, fails",
        [
            (1, 1, 0, ["FAIL B(0,8) preimage=17/96 class=1/6", "FAIL B(1,8) preimage=7/96 class=1/12"]),
            (2, 0, 5, ["FAIL B(0,64) preimage=7/384 class=1/48", "FAIL B(5,64) preimage=5/384 class=1/96"]),
        ],
        ids=["odd-member", "even-member"],
    )
    def test_measure_can_fail(self, monkeypatch, level, moved, to, fails):
        # one fine class moves to another class's preimage
        targets = preimage_targets(level)
        targets[moved] = to
        monkeypatch.setattr(measure, "preimage_targets", lambda m: targets)
        code, text = run_cli("verify", "--measure", "--m", str(level))
        lines = text.splitlines()
        size = 8**level
        assert code == 1 and len(lines) == size + 1
        assert [line for line in lines if not line.startswith("PASS B(")] == fails + [
            f"FAIL measure-invariance m={level} ({size - 2}/{size} classes exact)"
        ]

    def test_all_level4(self):
        code, text = run_cli("verify", "--all", "--m", "4")
        lines = text.splitlines()
        assert code == 0
        assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines)
        assert lines[-1] == "PASS ergodicity m=4 (all entries positive at exponent 8)"

    def test_stochasticity_can_fail(self, corrupt_chain):
        code, text = run_cli("verify", "--stochasticity", "--m", "2")
        assert code == 1 and text.startswith("FAIL stochasticity m=2")

    def test_stationarity_can_fail(self, corrupt_chain):
        code, text = run_cli("verify", "--stationarity", "--m", "2")
        assert code == 1
        assert text == "FAIL stationarity m=2 (closed-form vector is not exactly stationary; matrix is corrupt)\n"

    def test_requires_a_check(self):
        code, _ = run_cli("verify")
        assert code == 2


class TestUsageErrors:
    def test_zero_level_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["stationary", "--m", "0"])
        assert info.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["nonsense"])
        assert info.value.code == 2

    def test_bad_include_start(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--max", "100", "--include-start", "maybe"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("simulate --max 1e7", "argument --max: must be a positive integer, got 1e7"),
            ("preimage --j 1.0", "argument --j: must be a nonnegative integer, got 1.0"),
        ],
        ids=["max-1e7", "j-1.0"],
    )
    def test_non_integer_names_the_argument(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.splitlines()[-1] == f"collatzmc {argv.split()[0]}: error: {message}"

    def test_too_small_max(self, capsys):
        code, text = run_cli("simulate", "--max", "4")
        assert code == 2 and text == ""
        assert "n_max must be >= 5" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(collatzmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "collatzmc", "matrix", "--m", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == run_cli("matrix", "--m", "1")[1]


def test_cli_import_loads_no_process_pool():
    # concurrent.futures and multiprocessing load only when a sweep opens a pool
    src = str(Path(collatzmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, collatzmc.cli; "
        "print(*sorted(m for m in sys.modules if 'multiprocessing' in m or 'concurrent' in m))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "\n"
