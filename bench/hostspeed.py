"""The host's speed over a run, read off a fixed chunk of pure-Python work.

The benchmark runs on a few virtual cores of a shared host, whose speed
drifts: the same call can take up to twice as long for seconds or minutes
at a time, in one process and not the next, with no steal time visible
inside the machine.  So after every op (and every set-up probe) the
runner times reference chunks for a fixed share of the op's latency,
which samples the host's speed evenly over the run, and scales the run's
times by

    factor = REFERENCE_S / mean(chunk times)

``REFERENCE_S`` is the chunk's time on an undisturbed host (a 2.0 GHz
Xeon vCPU, Python 3.11), so scaled times read as seconds on that host.
Chunks run back to back, so the plain mean of their times weights each
by its length: ``factor`` is the host's mean rate while it was sampled.
The chunk is dict lookups on tuple keys and complex multiply-adds, like
the program's own inner loops; the collector is paused while it runs, so
the heap an op leaves behind does not change its time.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.010
SHARE = 0.05  # reference time run after an op, as a share of the op's latency
_STEPS = 20_000


def _work() -> complex:
    table: dict[tuple[int, int], complex] = {}
    acc = 0j
    for i in range(_STEPS):
        key = (i % 61, i % 59)
        acc = acc * 0.5 + complex(i % 7, -(i % 5)) * table.get(key, 1.0)
        table[key] = acc
    return acc


def chunk_s() -> float:
    """Seconds the reference chunk takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(busy_s: float) -> list[float]:
    """Chunk times for ``SHARE`` of ``busy_s`` seconds of work, at least one chunk."""
    return [chunk_s() for _ in range(max(1, round(busy_s * SHARE / REFERENCE_S)))]


def factor(chunks: list[float]) -> float:
    """Scale from this host's seconds now to seconds of the undisturbed host."""
    return REFERENCE_S / statistics.fmean(chunks)
