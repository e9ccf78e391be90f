import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more or fewer threads than it began with.

    The CLI runs part of decompose, verify and continuum on a second thread,
    which it joins before it returns or raises.
    """
    before = threading.active_count()
    yield
    assert threading.active_count() == before, "a thread outlived the test"
