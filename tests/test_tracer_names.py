"""The names the benchmark tracer (perfbench/tracer.py) wraps and reads.

The tracer wraps each layer where its callers look it up and reads counts off
layer results; deleting or renaming one of those names breaks the traced
benchmark runs, so it fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

from collatzmc.markov import build_matrix

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(tracer):
    for name, sites in tracer.LAYERS.items():
        module, attr = sites[0]
        assert callable(getattr(module, attr, None)), name


def test_nnz_count_reads_the_rows():
    assert len(build_matrix(1).rows) == 8
