import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that ends with more threads running than it started with: simulate's
    worker, the one thread the library starts, is joined before simulate returns or raises."""
    threads = threading.active_count()
    yield
    assert threading.active_count() <= threads, threading.enumerate()


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, in the order they start."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started
