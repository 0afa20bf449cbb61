"""Minimal terminating discrete-event kernel.

Event calendar ordered by (time, insertion sequence); the model keeps one
per pool, of its units' release times, and one of completions for its
event log. A one-unit dispenser pool's calendar only carries its release
from one chunk of orders to the next. Capacitated resource pools with
time-weighted busy statistics serve the event-driven engine kept as the
tests' oracle, which keeps its own queues. Instances are single-threaded.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from .errors import SimulationLogicError


class EventCalendar:
    """Future event list. Ties on time resolve by insertion order, so a
    replication's event sequence is totally ordered and reproducible."""

    __slots__ = ("_heap", "_seq", "clock")

    def __init__(self):
        self._heap: list[tuple] = []
        self._seq = 0
        self.clock = 0.0

    def __len__(self):
        return len(self._heap)

    def schedule(self, time: float, action, payload=None) -> None:
        if time < self.clock:
            raise SimulationLogicError(
                f"scheduling into the past: event at t={time} with clock={self.clock}"
            )
        heapq.heappush(self._heap, (time, self._seq, action, payload))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next event, left in place; inf when the calendar is empty."""
        return self._heap[0][0] if self._heap else math.inf

    def next_event(self):
        """Pop the minimum (time, sequence) event and advance the clock.

        Returns (time, action, payload), or None when the calendar is
        empty (end of replication).
        """
        if not self._heap:
            return None
        time, _, action, payload = heapq.heappop(self._heap)
        self.clock = time
        return time, action, payload


class ResourcePool:
    """Capacitated resource with a FIFO wait queue, a grant tally and a
    time-weighted integral of busy units.

    Capacity 0 is allowed: every seize enqueues and nothing is ever
    granted, modeling a picking point with none of that resource.
    """

    __slots__ = ("name", "capacity", "busy_units", "wait_queue", "grants", "integral",
                 "last_change")

    def __init__(self, name: str, capacity: int):
        if capacity < 0:
            raise SimulationLogicError(f"pool {name}: capacity must be >= 0")
        self.name = name
        self.capacity = capacity
        self.busy_units = 0
        self.wait_queue: deque = deque()
        self.grants, self.integral, self.last_change = 0, 0.0, 0.0

    def _advance(self, clock: float) -> None:
        self.integral += self.busy_units * (clock - self.last_change)
        self.last_change = clock

    def seize(self, entity, clock: float) -> bool:
        """Grant a unit now if one is free, else enqueue. Returns True on
        grant."""
        if self.busy_units < self.capacity:
            self._advance(clock)
            self.busy_units += 1
            self.grants += 1
            return True
        self.wait_queue.append(entity)
        return False

    def release(self, clock: float):
        """Free one unit. If someone is waiting, the queue head is granted
        immediately (busy count unchanged net) and returned; otherwise
        returns None."""
        if self.busy_units < 1:
            raise SimulationLogicError(f"pool {self.name}: release with no busy units")
        if self.wait_queue:
            self.grants += 1
            return self.wait_queue.popleft()
        self._advance(clock)
        self.busy_units -= 1
        return None

    def finalize_stats(self, horizon: float) -> tuple[float, float, int]:
        """Close the busy integral at the horizon.

        Returns (busy_time, idle_time, grants) in unit-minutes; the
        identity busy + idle == capacity * horizon holds exactly up to
        float rounding.
        """
        self._advance(horizon)
        return self.integral, self.capacity * horizon - self.integral, self.grants
