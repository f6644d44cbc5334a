"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import collatzmc
from collatzmc import empirical


@pytest.fixture
def inline_fork_join(monkeypatch):
    """Swap the sweep's fork-join for a map in this process that forks
    nothing; the list holds the worker count of every fork-join asked for."""
    asked = []

    def fork_join(kernel, los, his, workers, n_max):
        asked.append(workers)
        return reduce(empirical.TrajectoryStats.merge, map(kernel, los, his))

    monkeypatch.setattr(empirical, "_fork_join", fork_join)
    return asked


def python_env(env=None) -> dict:
    """env, or this process's environment, with the package's source
    directory added to PYTHONPATH."""
    src = str(Path(collatzmc.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def run_python():
    """Run a fresh interpreter with these arguments on this checkout's package.

    env replaces the inherited environment; PYTHONPATH gains the package's
    source directory either way.
    """

    def run(*argv, env=None):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=python_env(env), timeout=60, check=False
        )

    return run


@pytest.fixture
def popen_python():
    """Start a fresh interpreter like run_python, with its stdout and stderr
    as binary pipes the test reads."""

    def start(*argv, env=None):
        return subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env(env)
        )

    return start
