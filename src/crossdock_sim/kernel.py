"""Minimal terminating discrete-event kernel.

Event calendar ordered by (time, insertion sequence); the model keeps one
per pool, of its units' release times, only to carry them from one chunk
of orders to the next: within a chunk it serves them from a local heap.
Capacitated resource pools with time-weighted busy statistics serve the
event-driven engine kept as the tests' oracle, which keeps its own queues
and seizes only free units. Instances are single-threaded.
"""

from __future__ import annotations

import heapq
import math

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
    """Capacitated resource with a grant tally and a time-weighted
    integral of busy units; a seize with no free unit is an error, as is
    a release with none busy. Capacity 0 is allowed: a picking point with
    none of that resource, whose pool is never seized."""

    __slots__ = ("name", "capacity", "busy_units", "grants", "integral", "last_change")

    def __init__(self, name: str, capacity: int):
        if capacity < 0:
            raise SimulationLogicError(f"pool {name}: capacity must be >= 0")
        self.name = name
        self.capacity = capacity
        self.busy_units = 0
        self.grants, self.integral, self.last_change = 0, 0.0, 0.0

    def _advance(self, clock: float) -> None:
        self.integral += self.busy_units * (clock - self.last_change)
        self.last_change = clock

    def seize(self, entity, clock: float) -> None:
        """Grant `entity` a free unit."""
        if self.busy_units >= self.capacity:
            raise SimulationLogicError(f"pool {self.name}: {entity!r} seized with no free unit")
        self._advance(clock)
        self.busy_units += 1
        self.grants += 1

    def release(self, clock: float) -> None:
        """Free one unit."""
        if self.busy_units < 1:
            raise SimulationLogicError(f"pool {self.name}: release with no busy units")
        self._advance(clock)
        self.busy_units -= 1

    def finalize_stats(self, horizon: float) -> tuple[float, float, int]:
        """Close the busy integral at the horizon.

        Returns (busy_time, idle_time, grants) in unit-minutes; the
        identity busy + idle == capacity * horizon holds exactly up to
        float rounding.
        """
        self._advance(horizon)
        return self.integral, self.capacity * horizon - self.integral, self.grants
