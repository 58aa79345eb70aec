"""Fixtures that choose the LLL kernel a test runs.

The library picks its kernel itself: the C entries over GMP (``_lll.c``, the
LLL loop and the integral Gram-Schmidt) where they build, the Python code
elsewhere.  Tests that instrument the Python code pin it by setting
``lattice._kernel``; tests of the C entries ask for them and hold them to
their Python twins.
"""

import pytest

from knapcrack import lattice


@pytest.fixture
def python_kernel(monkeypatch):
    """Run every reduction and integral Gram-Schmidt of the test in Python."""
    monkeypatch.setattr(lattice, "_kernel", None)


@pytest.fixture(scope="session")
def gmp_kernel():
    """The C entries, lattice.Kernel(reduce, gso); skips only where they cannot be built."""
    kernel = lattice._native()
    if kernel is None:
        pytest.skip("no C compiler or GMP here to build the C entries")
    return kernel
