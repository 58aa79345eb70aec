"""Fixtures that choose the LLL kernel a test runs.

The library picks its kernel itself: the C loop over GMP (``_lll.c``) where
it builds, the Python loop elsewhere.  Tests that instrument the Python loop
pin it by setting ``lattice._kernel``; tests of the C loop ask for it and
hold it to the Python loop.
"""

import pytest

from knapcrack import lattice


@pytest.fixture
def python_kernel(monkeypatch):
    """Run every reduction of the test in the Python loop."""
    monkeypatch.setattr(lattice, "_kernel", None)


@pytest.fixture(scope="session")
def gmp_kernel():
    """The C loop's reduce(cols, p, q); skips only where it cannot be built."""
    reduce = lattice._native()
    if reduce is None:
        pytest.skip("no C compiler or GMP here to build the C LLL loop")
    return reduce
