"""Seeded-bad fixture: every class below must trip rjilint RJI011.

This tree is linted only by the rule tests (the runner skips any
``fixtures`` directory); the bugs are deliberate.
"""

import threading
import time


class RacyCounter:
    """Majority-guarded field read outside the lock + annotation break."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0
        self._log = []  # rjilint: guarded-by(_lock)

    def bump(self):
        with self._lock:
            self._count += 1

    def also_bump(self):
        with self._lock:
            self._count += 2

    def peek(self):
        return self._count  # read without the lock -> RJI011

    def note(self, item):
        self._log.append(item)  # annotated guarded-by, lock not held


class SlowRecorder:
    """Blocking call inside the critical section."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pending = []

    def flush(self):
        with self._lock:
            self._pending.clear()
            time.sleep(0.01)  # blocking while holding _lock -> RJI011
