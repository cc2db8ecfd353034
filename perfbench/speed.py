"""Host-speed sampling, so that timings compare across a shared host.

The benchmark's host (2 cores) flips each core between a fast state and a
state about 1.8x slower, every few seconds, as neighbours come and go. A
35 s run sees a different mix of the two each time, so raw timings of the
same inputs spread by up to 25 % from run to run. A worker therefore times
a small fixed kernel from a SIGALRM handler every ``INTERVAL`` seconds of
wall time. Those samples are uniform in time, so the mean of
``REF_S / sample`` over an operation is the share of its time the host would
have needed at the speed where one sample takes ``REF_S``; ``at_reference``
applies it. The kernel is fixed benchmark code: no change to fipp moves it,
so a real speed-up or slow-down of fipp still shows in full.

Only the standard library is used, so the launcher can import this module
without numpy or fipp.
"""

from __future__ import annotations

import bisect
import heapq
import math
import signal
import time

INTERVAL = 0.02  # s between samples; one sample takes about 1 % of that
# A typical sample on the 2-core host the baseline was recorded on. Over
# that baseline, a run's mean of REF_S / sample (its speed_vs_reference
# figure) was 0.80-1.00 on median per workload (README).
REF_S = 0.000243
_W = 8
_COST = [1.0 + ((k * 7919) % 101) / 101.0 for k in range(_W * _W)]
_STEPS = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
          (1, 1, math.sqrt(2)), (1, -1, math.sqrt(2)), (-1, 1, math.sqrt(2)),
          (-1, -1, math.sqrt(2))]


def kernel() -> float:
    """Dijkstra over a fixed 8x8 grid with tuples, dicts and a heap: the
    same mix of interpreter work as fipp's planner and simulator loops."""
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    while heap:
        d, (i, j) = heapq.heappop(heap)
        if d > dist[(i, j)]:
            continue
        for di, dj, w in _STEPS:
            ni, nj = i + di, j + dj
            if 0 <= ni < _W and 0 <= nj < _W:
                nd = d + w * _COST[nj * _W + ni]
                if nd < dist.get((ni, nj), math.inf):
                    dist[(ni, nj)] = nd
                    heapq.heappush(heap, (nd, (ni, nj)))
    return dist[(_W - 1, _W - 1)]


class Sampler:
    """Times ``kernel`` every ``INTERVAL`` s of wall time while started;
    ``samples`` holds ``[start, seconds]`` pairs in time order."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append([start, time.perf_counter() - start])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference(samples: list[list[float]], start: float, end: float) -> tuple[float, float]:
    """The seconds of ``[start, end]`` not spent sampling, as measured and
    at reference speed. An interval too short to hold a sample takes the
    speed of the sample nearest to it."""
    starts = [s[0] for s in samples]
    i, j = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
    inside = [s[1] for s in samples[i:j]]
    own = end - start - sum(inside)
    if not inside:
        k = min(i, len(samples) - 1)
        if k > 0 and start - (samples[k - 1][0] + samples[k - 1][1]) < samples[k][0] - end:
            k -= 1
        inside = [samples[k][1]]
    return own, own * sum(REF_S / s for s in inside) / len(inside)
