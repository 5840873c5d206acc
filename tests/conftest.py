import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that ends with more threads running than it started with: the counts'
    helper thread and simulate's worker are joined before the call that started them ends."""
    threads = threading.active_count()
    yield
    assert threading.active_count() <= threads, threading.enumerate()
