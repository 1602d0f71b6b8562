"""Checks that every tier-1 test runs under."""

import pytest

import algscope.functional as functional
import algscope.verify as verify
from algscope.linalg import subspace_intersect


@pytest.fixture(autouse=True)
def nil_is_the_intersection():
    """Every nil that ``_stack_kernels`` returns during a test equals, bit
    for bit, ``subspace_intersect`` of its left and right kernels, which
    runs the intersection SVD on every pair of nonzero kernels: the
    principal-angle test that skips that SVD never changes nil.

    The kernels are recorded during the test and compared after it, when
    the test's own patches (of ``np.linalg.svd``, say) are undone: this
    fixture takes no ``monkeypatch``, so it is set up before the test's
    and torn down after it."""
    original = functional._stack_kernels
    seen = []

    def recorded(a, tol):
        kers = original(a, tol)
        seen.extend((ker, tol) for ker in kers)
        return kers

    functional._stack_kernels = verify._stack_kernels = recorded
    try:
        yield
    finally:
        functional._stack_kernels = verify._stack_kernels = original
    for ker, tol in seen:
        want = subspace_intersect(ker.left, ker.right, tol)
        assert ker.nil.frame.shape == want.frame.shape
        assert ker.nil.frame.tobytes() == want.frame.tobytes()
