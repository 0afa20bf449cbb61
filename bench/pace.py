"""Host-speed calibration: a fixed loop timed next to every timed command.

The cores of a shared host change speed within fractions of a second and
from minute to minute: the same pure-Python loop takes 20 ms at some
times and 35 ms at others, with no steal time to show for it. That moves
every host-seconds figure by more than most program changes do. So a
fixed loop of the benchmark's own is timed just before and just after
each timed command, on as many cores as the command uses, and the
command's host seconds are scaled by REFERENCE_S / (mean loop time): the
result is in seconds of a core that runs the loop in REFERENCE_S. The
loop uses none of the package's code, so a change to the program moves
the scaled figures in the same proportion as the raw ones.
"""

from __future__ import annotations

import heapq
import os
import statistics
import struct
import time

import numpy as np

# About the mean time of `loop_s` on an Intel Xeon host with 2 vCPUs,
# Python 3.11.7 and numpy 2.4.6. A constant, so that scaled figures from
# different runs and different commits compare directly.
REFERENCE_S = 0.028

_EVENTS = 45_000
_RUN, _STOP = b"r", b"s"


def loop_s() -> float:
    """Host seconds of a fixed event loop: a heap of pending events, one
    buffered Philox uniform per event, in the same mix of interpreter and
    numpy work as a replication."""
    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(12345))
    buf: list = []
    pos = 0
    heap = [(float(i), i, i % 2) for i in range(8)]
    heapq.heapify(heap)
    busy = 0
    for seq in range(8, 8 + _EVENTS):
        if pos == len(buf):
            buf = gen.random(4096).tolist()
            pos = 0
        u = buf[pos]
        pos += 1
        clock, _, kind = heapq.heappop(heap)
        busy += 1 if kind == 0 else -1
        heapq.heappush(heap, (clock + u * (3.0 if kind == 0 else 2.0), seq, 1 - kind))
    return time.perf_counter() - start


def _helper(orders: int, results: int) -> None:
    """Body of a helper process: one loop per RUN byte read, until it reads
    anything else or end of file."""
    status = 1
    try:
        while os.read(orders, 1) == _RUN:
            os.write(results, struct.pack("d", loop_s()))
        status = 0
    finally:
        os._exit(status)


class Pacer:
    """Scales host seconds to the reference core, one command at a time.

    A context manager. With `width` > 1 it forks `width` - 1 helper
    processes (`helpers` holds their pids) so that the loop runs on
    `width` cores at once, as the command's workers do; they end when the
    pacer is left. Call `begin` right before the first timed command and
    `scale` right after each. `scale` runs the loop until the loops take
    at least SHARE of the command's seconds (once at least), and scales by
    the mean of these loop times and of those timed before the command.
    """

    SHARE = 0.06

    def __init__(self, width: int = 1):
        self.width = width
        self.helpers: list[int] = []
        self.gaps: list[list[float]] = []
        self._pipes: list[tuple[int, int]] = []  # (orders write end, results read end)

    def __enter__(self):
        try:
            for _ in range(self.width - 1):
                orders_r, orders_w = os.pipe()
                results_r, results_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(orders_w)
                    os.close(results_r)
                    _helper(orders_r, results_w)
                os.close(orders_r)
                os.close(results_w)
                self.helpers.append(pid)
                self._pipes.append((orders_w, results_r))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        # An explicit stop, not end of file: worker processes forked later
        # hold copies of the write ends for as long as they live.
        for orders_w, results_r in self._pipes:
            try:
                os.write(orders_w, _STOP)
            except BrokenPipeError:  # the helper has already ended
                pass
            os.close(orders_w)
            os.close(results_r)
        for pid in self.helpers:
            os.waitpid(pid, 0)
        self._pipes = []
        self.helpers = []

    def _round(self) -> float:
        """Mean time of one loop on each of `width` cores at once."""
        for orders_w, _ in self._pipes:
            os.write(orders_w, _RUN)
        times = [loop_s()]
        for _, results_r in self._pipes:
            times.append(struct.unpack("d", os.read(results_r, 8))[0])
        return statistics.fmean(times)

    def begin(self) -> None:
        self.gaps = [[self._round()]]

    def scale(self, seconds: float) -> float:
        gap = [self._round()]
        while sum(gap) < self.SHARE * seconds:
            gap.append(self._round())
        self.gaps.append(gap)
        nearby = self.gaps[-2] + gap
        return seconds * REFERENCE_S * len(nearby) / sum(nearby)

    def loops(self) -> list:
        """Every loop time so far (each a mean over `width` cores)."""
        return [t for gap in self.gaps for t in gap]
