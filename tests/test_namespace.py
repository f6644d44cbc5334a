"""The package namespace: every public name resolves, lazily, to the object
its defining submodule holds."""

import importlib

import pytest

import collatzmc


def defined_as(name, value):
    """The object the submodule that defines value binds to name."""
    assert value.__module__.startswith("collatzmc."), name
    return getattr(importlib.import_module(value.__module__), name)


def test_public_names_resolve_by_attribute():
    for name in collatzmc.__all__:
        value = getattr(collatzmc, name)
        assert defined_as(name, value) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from collatzmc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(collatzmc.__all__)
    for name, value in namespace.items():
        assert defined_as(name, value) is value, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        collatzmc.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from collatzmc import no_such_name  # noqa: F401


def test_a_fresh_package(run_python):
    # before any name is loaded: "import collatzmc" loads no numpy, dir()
    # lists every public name, and the submodules import as the benchmark
    # tracer imports them, or as attributes
    code = (
        "import sys, collatzmc\n"
        "print('numpy' in sys.modules, set(collatzmc.__all__) <= set(dir(collatzmc)))\n"
        "from collatzmc import congruence, empirical, markov, measure\n"
        "print(markov is sys.modules['collatzmc.markov'], collatzmc.contraction.__name__,\n"
        "      collatzmc.build_matrix is markov.build_matrix, collatzmc.sweep is empirical.sweep)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\nTrue collatzmc.contraction True True\n"
