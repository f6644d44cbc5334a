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


@pytest.fixture
def run_python():
    """Run a fresh interpreter with these arguments on this checkout's package.

    env replaces the inherited environment; PYTHONPATH gains the package's
    source directory either way.
    """
    src = str(Path(collatzmc.__file__).resolve().parents[1])

    def run(*argv, env=None):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60, check=False
        )

    return run
