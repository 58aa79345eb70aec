"""Fixtures that choose the kernel a test runs, and keep DAG search lanes per test.

The library picks its kernel itself: the C extension over GMP (``_lll.c``)
where it builds, Python elsewhere.  The extension holds three entries, the
LLL loop, the kernel sweep and the exact products of ``intmat``, and
``lattice._kernel`` holds all three or none.
Either LLL loop returns the reduced columns with the Gram-Schmidt of the
prefix its caller names, which is all the decomposition's Gram-Schmidt there
is.  Tests that instrument the Python code pin it by setting
``lattice._kernel``; tests of the C entries ask for them and hold each to
its Python twin.

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
    lanes._close_lanes()
    yield
    lanes._close_lanes()


@pytest.fixture
def python_kernel(monkeypatch):
    """Run every reduction of the test, and so every decomposition's Gram-Schmidt,
    and every sweep in Python."""
    monkeypatch.setattr(lattice, "_kernel", None)


@pytest.fixture(params=["python_kernel", "gmp_kernel"])
def either_kernel(request, monkeypatch):
    """Run the test once on each kernel: the Python entries, then the C ones."""
    monkeypatch.setattr(lattice, "_kernel", request.getfixturevalue(request.param))


@pytest.fixture(scope="session")
def gmp_kernel():
    """The C entries, a lattice.Kernel: the LLL loop, lattice._python_reduce's twin,
    the sweep, reduction._sweep's, and the products, intmat._products'; skips
    only where they cannot be built."""
    kernel = lattice._native()
    if kernel is None:
        pytest.skip("no C compiler or GMP here to build the C loop")
    return kernel
