"""One process-wide store of read-only arrays under a byte budget.

The BDCM builder's per-slot bases and the estimators' per-slot beam
tables depend on the geometry only, never on the realization, so each is
built once and then shared read-only across calls.  ``HELD`` keeps both
kinds under one budget of ``BUDGET`` bytes (8 MiB): the least recently
used entries leave first, and an entry larger than the whole budget is
built and returned but not held.  One lock covers look-up, build and
eviction, so threads may share the store.
"""
from __future__ import annotations

import threading

import numpy as np

BUDGET = 8 << 20


def _freeze(value) -> int:
    """Make the arrays of ``value`` (nested tuples, ``None`` and other
    objects pass) read-only; return their bytes."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_freeze(v) for v in value)
    return 0


class ArrayStore:
    """Least-recently-used entries of read-only arrays within ``budget`` bytes.

    An entry is a value built by a caller's function: a tuple whose
    arrays (at any tuple depth) count against the budget and are made
    read-only.  Other objects in it, such as a grid, are the caller's to
    freeze and do not count.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: dict = {}  # key -> (value, bytes), least recently used first
        self._bytes = 0
        self._lock = threading.Lock()

    def __contains__(self, key) -> bool:
        return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def get(self, key, build):
        """The value held under ``key``, or ``build()`` on a miss."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                value = build()
                entry = (value, _freeze(value))
            else:
                self._bytes -= entry[1]
            size = entry[1]
            if size <= self.budget:
                while self._entries and self._bytes + size > self.budget:
                    self._bytes -= self._entries.pop(next(iter(self._entries)))[1]
                self._entries[key] = entry
                self._bytes += size
        return entry[0]


HELD = ArrayStore(BUDGET)
