"""Host-speed calibration for noisy shared machines.

On a small shared host (measured on a 2-vCPU VM) the same computation
switches between speeds many times a second, as other tenants load the
sibling hardware, and the share of slow time differs from one run to the
next: raw rates of runs moved by 10-40%.  The slowdown hits Python-level
code, elementwise numpy, BLAS and beamchan's own estimator and builder
calls alike (each 1.6-2x slower in the slow state), though not by
exactly the same factor, so the correction below is partial.

The benchmark therefore samples this fixed kernel before and after
every timed operation, all through the run, and scales each raw time by
``REFERENCE_S`` over the mean kernel time: the mean measures the run's
average host speed, and the scaled time reads as seconds on a host where
the kernel takes ``REFERENCE_S``.  The kernel mixes what beamchan spends
its time on (``dataclasses.replace`` object churn, small-array numpy,
complex exponentials, a complex matrix product), uses numpy only and
never changes, so it does not move when beamchan does.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np

REFERENCE_S = 1e-3
REPEATS = 3             # kernel runs per sample; the first rewarms caches


@dataclasses.dataclass
class _Item:
    index: int
    weight: float
    row: np.ndarray


class Calibration:
    """Fixed kernel plus every time it took in this run."""

    def __init__(self):
        rng = np.random.default_rng(20200203)
        self.phases = rng.uniform(0.0, 2 * np.pi, (100, 41))
        self.left = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (32, 400)))
        self.right = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (400, 32)))
        self.rows = [rng.uniform(1.0, 2.0, 20) for _ in range(16)]
        self.samples: list[float] = []

    def sample(self):
        """Time ``REPEATS`` back-to-back kernel runs and keep the times."""
        for _ in range(REPEATS):
            self.samples.append(self._once())

    def scale(self) -> float:
        """Factor turning raw seconds into calibrated seconds."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i, row in enumerate(self.rows):
            item = _Item(i, 1.0, row)
            for _ in range(8):
                item = dataclasses.replace(item, weight=item.weight * 0.5)
            acc += float(np.sqrt(item.row + item.weight).sum())
        acc += float(np.abs(np.exp(1j * self.phases)).sum())
        acc += float(np.abs((self.left * 0.5) @ self.right).sum())
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise RuntimeError("calibration kernel produced a non-finite sum")
        return elapsed
