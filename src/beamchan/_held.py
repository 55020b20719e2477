"""Process-wide stores of read-only arrays under a byte budget.

The BDCM builder's per-slot bases and the estimators' per-slot beam
tables depend on the geometry only, never on the realization, so each is
built once and then shared read-only across calls.  ``HELD`` keeps both
kinds under one budget of ``BUDGET`` bytes (8 MiB).

``STATES`` holds the estimators' cluster states: per chunk of ensemble
members, the arrays of the clusters an estimate reads.  They depend on
the seed but not on the model or the lags, so the other estimates of
one seed (the other model of a figure, the other lag points of an
``stfcf`` sweep) draw nothing.  Each entry records the estimate that
built it (its ``owner``), and a repeat of that estimate builds it again:
an estimate reads only states another estimate drew, so a rerun of a
sequence of calls does the work of its first run.  Each look-up names
its seed (its ``scope``), and one from a new seed empties the store
first, so it normally holds one seed's states, within its own
``BUDGET``.

In either store the least recently used entries leave first, and an
entry larger than the whole budget is built and returned but not held.
One lock covers look-up, build and eviction, so threads may share a
store.  Each worker process holds its own.
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
        self._entries: dict = {}  # key -> (value, bytes, owner), least recently used first
        self._bytes = 0
        self._scope = None
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def get(self, key, build, scope=None, owner=None):
        """The value held under ``key``, or ``build()`` on a miss.

        A look-up under another ``scope`` than the last empties the store
        first.  An entry that ``owner`` (not None) built is built again
        for it, and keeps that owner.
        """
        with self._lock:
            if scope != self._scope:
                self._entries.clear()
                self._bytes = 0
                self._scope = scope
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry[1]
                if owner is not None and entry[2] == owner:
                    entry = None
            if entry is None:
                value = build()
                entry = (value, _freeze(value), owner)
            size = entry[1]
            if size <= self.budget:
                while self._entries and self._bytes + size > self.budget:
                    self._bytes -= self._entries.pop(next(iter(self._entries)))[1]
                self._entries[key] = entry
                self._bytes += size
        return entry[0]

    def held_first(self, keys, owner=None) -> list[int]:
        """Positions of ``keys``, held ones first (a stable sort): a caller
        getting its entries in this order, when they need more than the
        budget, evicts only entries it is done with, not the next one.
        An entry ``owner`` built counts as not held (``get`` builds it
        again)."""
        with self._lock:
            def missing(i):
                entry = self._entries.get(keys[i])
                return entry is None or (owner is not None and entry[2] == owner)
            return sorted(range(len(keys)), key=missing)


HELD = ArrayStore(BUDGET)
STATES = ArrayStore(BUDGET)
