"""Fixtures that choose the LLL loop a test runs.

The library picks its loop itself: the C loop over GMP (``_lll.c``) where it
builds, the Python loop elsewhere.  Either returns the reduced columns with
the Gram-Schmidt of the prefix its caller names, which is all the
decomposition's Gram-Schmidt there is.  Tests that instrument the Python
loop pin it by setting ``lattice._kernel``; tests of the C loop ask for it
and hold it to its Python twin.
"""

import pytest

from knapcrack import lattice


@pytest.fixture
def python_kernel(monkeypatch):
    """Run every reduction of the test, and so every decomposition's Gram-Schmidt, in Python."""
    monkeypatch.setattr(lattice, "_kernel", None)


@pytest.fixture(scope="session")
def gmp_kernel():
    """The C loop, lattice._python_reduce's twin; skips only where it cannot be built."""
    kernel = lattice._native()
    if kernel is None:
        pytest.skip("no C compiler or GMP here to build the C loop")
    return kernel
