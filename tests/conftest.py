"""Fixtures that choose the kernel a test runs, and keep DAG search lanes per test.

The library picks its kernel itself, in ``lattice`` alone: the C extension
over GMP (``_lll.c``) where it builds, Python elsewhere.  Either is a
``lattice.Kernel`` of three entries, the LLL loop, the kernel sweep and the
exact products of ``intmat``, and ``lattice._kernel`` holds the one that
runs: the C entries, or ``lattice.PYTHON``, their Python twins.
Either LLL loop returns the reduced columns with the Gram-Schmidt of the
prefix its caller names, which is all the decomposition's Gram-Schmidt there
is.  Tests pin a kernel by setting ``lattice._kernel`` to one of the two
(``python_kernel``, ``either_kernel``); tests of the C entries ask for them
(``gmp_kernel``) and hold each to its Python twin, and ``kernel_calls``
records which entries the library reaches.

The extension is built once, before the first test runs
(``built_kernel``): a test that bounds its own wall time must not pay the
``cc`` build on a checkout that has no binary yet.

A DAG search lane runs the code and module state it was forked with, and it
serves every later search of its process.  So each test starts and ends with
no lane: one forked by an earlier test would run without this test's patches,
and a test that counts forks counts from none.
"""

import pytest

from knapcrack import lanes, lattice


@pytest.fixture(scope="session", autouse=True)
def built_kernel():
    """Build and load the C entries, where they can be, before any test runs."""
    lattice._native()


@pytest.fixture(autouse=True)
def no_lanes_across_tests():
    lanes._drop()
    yield
    lanes._drop()


@pytest.fixture
def python_kernel(monkeypatch):
    """Run every reduction of the test, and so every decomposition's Gram-Schmidt,
    every sweep and every product in Python; returns lattice.PYTHON."""
    monkeypatch.setattr(lattice, "_kernel", lattice.PYTHON)
    return lattice.PYTHON


@pytest.fixture(params=["python_kernel", "gmp_kernel"])
def either_kernel(request, monkeypatch):
    """Run the test once on each kernel: the Python entries, then the C ones."""
    monkeypatch.setattr(lattice, "_kernel", request.getfixturevalue(request.param))


@pytest.fixture(scope="session")
def gmp_kernel():
    """The C entries, a lattice.Kernel: the twins of lattice.PYTHON's LLL loop,
    sweep and products; skips only where they cannot be built."""
    kernel = lattice._native()
    if kernel is lattice.PYTHON:
        pytest.skip("no C compiler or GMP here to build the C loop")
    return kernel


@pytest.fixture
def kernel_calls(gmp_kernel, monkeypatch):
    """Pin the C entries, each wrapped to record its name (a field of
    lattice.Kernel) when called; returns the list of names."""
    calls = []

    def recording(name, entry):
        def run(*args):
            calls.append(name)
            return entry(*args)
        return run

    monkeypatch.setattr(lattice, "_kernel", lattice.Kernel._make(
        map(recording, lattice.Kernel._fields, gmp_kernel)))
    return calls
