import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more or fewer threads than it began with.

    The CLI runs part of two routes on a second thread, which it joins before
    it returns or raises: verify with phibar0 takes its state checks beside the
    decomposition, and continuum builds its step maps beside the lattice
    eigenbasis.  In-process alternating pairs against the same work in order
    measured both faster, verify in 58 of 80 pairs (median 430 against 446 ms
    on n = 256) and continuum in 70 of 80 (12.5 against 14.6 ms at N = 64).
    """
    before = threading.active_count()
    yield
    assert threading.active_count() == before, "a thread outlived the test"
