import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more or fewer threads than it began with.

    The CLI runs part of two routes on a second thread, which it joins before
    it returns or raises: verify with phibar0 takes its state checks beside the
    decomposition, and continuum builds its step maps beside the lattice
    eigenbasis.  A route keeps its second thread only while in-process
    alternating pairs against the same work in order show a gain larger than
    the spread between the quartiles of the in-order runs; CHANGES.md records
    the pairs measured for each route.
    """
    before = threading.active_count()
    yield
    assert threading.active_count() == before, "a thread outlived the test"
