"""Reference loop that measures the machine's speed during a run.

A shared machine runs the same code at different speeds from one moment
to the next; on the 2-vCPU host of the baseline in README.md, the
spread between 20 s windows reached 20%.  The
benchmark therefore times this fixed loop after every repetition, on as
many processes at once as the workload uses, and scales its timings to
the speed at which one loop takes ``REFERENCE_LOOP_S``.  The loop does
the same kind of work as pgsim's step loop (RK4 on a tuple state, with
every step recorded), but it belongs to the benchmark, so no change to
pgsim changes it.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

# Time of one reference_loop() on the 2-vCPU x86-64 machine where the
# baseline in README.md was measured, when that machine was not slowed.
REFERENCE_LOOP_S = 0.015

# Share of each repetition's wall time spent timing the loop after it.
SHARE = 0.2


def _rhs(x, k):
    return tuple(k * v + 0.001 * i for i, v in enumerate(x))


def reference_loop(steps: int = 1000) -> float:
    """Wall time of ``steps`` RK4 steps of an 11-state linear system,
    with the state recorded into 18 columns at every step."""
    t0 = time.perf_counter()
    x = tuple(0.1 * i for i in range(11))
    h = 1e-3
    cols = [[] for _ in range(18)]
    for _ in range(steps):
        k1 = _rhs(x, -0.5)
        k2 = _rhs(tuple(a + 0.5 * h * b for a, b in zip(x, k1)), -0.5)
        k3 = _rhs(tuple(a + 0.5 * h * b for a, b in zip(x, k2)), -0.5)
        k4 = _rhs(tuple(a + h * b for a, b in zip(x, k3)), -0.5)
        x = tuple(a + h / 6.0 * (p + 2.0 * (q + r) + s)
                  for a, p, q, r, s in zip(x, k1, k2, k3, k4))
        for col, v in zip(cols, x + x):
            col.append(v)
    return time.perf_counter() - t0


def reference_burst(count: int) -> list:
    return [reference_loop() for _ in range(count)]


class SpeedProbe:
    """Times the reference loop on ``jobs`` processes at once.

    With more than one job the loops run in a pool of ``jobs`` forked
    processes that lives as long as the probe; close it with ``close``.
    The benchmark process runs no threads, so forking is safe, and unlike
    spawning it starts no resource-tracker process that would outlive
    the run.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.times: list = []
        self._pool = (multiprocessing.get_context("fork").Pool(jobs)
                      if jobs > 1 else None)

    def after(self, wall: float) -> None:
        """Time the loop for about ``SHARE`` of a repetition of ``wall`` s."""
        count = max(1, round(SHARE * wall / REFERENCE_LOOP_S))
        if self._pool is None:
            self.times += reference_burst(count)
        else:
            for times in self._pool.map(reference_burst, [count] * self.jobs, chunksize=1):
                self.times += times

    def factor(self) -> float:
        """Multiplier that scales a time measured during the run to the
        reference speed: below 1 when the machine ran slow."""
        return REFERENCE_LOOP_S / statistics.mean(self.times)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
