import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more or fewer threads than it began with.

    Every CLI command runs on the calling thread.  A helper thread would come
    back only with in-process alternating pairs against the same work in order
    that show a gain larger than the spread between the quartiles of the
    in-order runs, at the default BLAS thread count as well as at one;
    CHANGES.md records the pairs that removed the last one.
    """
    before = threading.active_count()
    yield
    assert threading.active_count() == before, "a thread outlived the test"
