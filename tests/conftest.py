"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


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
