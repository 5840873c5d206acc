import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that ends with more threads running than it started with: the library
    starts threads only in simulate, at most one worker per call (the sample path's cell
    worker, or the split count path's second drawer), joined before it returns or raises."""
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
