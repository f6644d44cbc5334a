"""Fixtures shared by the test modules."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collatzmc


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap the sweep's process pool for one that maps in this process and
    forks nothing; the list holds the max_workers of every pool opened."""
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return opened


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
