import math
import random

import pytest

from crossdock_sim import SimulationLogicError
from crossdock_sim.kernel import EventCalendar, ResourcePool


class TestEventCalendar:
    def test_min_order(self):
        cal = EventCalendar()
        cal.schedule(5.0, "a")
        cal.schedule(3.0, "b")
        assert cal.next_event()[0] == 3.0
        assert cal.next_event()[0] == 5.0

    def test_tie_breaks_by_insertion_order(self):
        cal = EventCalendar()
        cal.schedule(7.0, "A")
        cal.schedule(7.0, "B")
        assert cal.next_event()[1] == "A"
        assert cal.next_event()[1] == "B"

    def test_rejects_past_scheduling(self):
        cal = EventCalendar()
        cal.schedule(5.0, "a")
        cal.next_event()
        with pytest.raises(SimulationLogicError):
            cal.schedule(3.0, "late")

    def test_empty_returns_none(self):
        assert EventCalendar().next_event() is None

    def test_peek_leaves_the_next_event(self):
        cal = EventCalendar()
        assert cal.peek() == math.inf
        cal.schedule(5.0, "a")
        cal.schedule(3.0, "b")
        assert cal.peek() == 3.0
        assert len(cal) == 2 and cal.clock == 0.0
        assert cal.next_event()[1] == "b"
        assert cal.peek() == 5.0

    def test_clock_monotone_nondecreasing(self):
        cal = EventCalendar()
        for t in (2.0, 2.0, 9.0):
            cal.schedule(t, None)
        times = [cal.next_event()[0] for _ in range(3)]
        assert times == [2.0, 2.0, 9.0]

    def test_random_events_pop_sorted(self):
        rng = random.Random(314)
        times = [rng.uniform(0, 1000) for _ in range(10**4)]
        cal = EventCalendar()
        for t in times:
            cal.schedule(t, None)
        popped = []
        while True:
            ev = cal.next_event()
            if ev is None:
                break
            popped.append(ev[0])
        assert popped == sorted(times)


class TestResourcePool:
    def test_grant_when_idle(self):
        pool = ResourcePool("p", 1)
        pool.seize("e1", 0.0)
        assert (pool.busy_units, pool.grants) == (1, 1)

    def test_capacity_bound(self):
        pool = ResourcePool("p", 2)
        pool.seize(0, 0.0)
        pool.seize(1, 0.0)
        with pytest.raises(SimulationLogicError, match="'e2'"):
            pool.seize("e2", 0.0)
        assert (pool.busy_units, pool.grants) == (2, 2)

    def test_release_to_idle(self):
        pool = ResourcePool("p", 1)
        pool.seize("e", 0.0)
        pool.release(5.0)
        assert (pool.busy_units, pool.grants) == (0, 1)

    def test_release_on_idle_pool_is_error(self):
        with pytest.raises(SimulationLogicError):
            ResourcePool("p", 1).release(0.0)

    def test_never_seized_stats(self):
        pool = ResourcePool("p", 2)
        busy, idle, grants = pool.finalize_stats(100.0)
        assert (busy, idle, grants) == (0.0, 200.0, 0)

    def test_interval_stats(self):
        pool = ResourcePool("p", 1)
        pool.seize("a", 10.0)
        pool.release(30.0)
        pool.seize("b", 50.0)
        pool.release(60.0)
        busy, idle, grants = pool.finalize_stats(100.0)
        assert busy == pytest.approx(30.0)
        assert idle == pytest.approx(70.0)
        assert grants == 2

    def test_zero_capacity_seize_is_error(self):
        pool = ResourcePool("p", 0)
        with pytest.raises(SimulationLogicError, match="'e'"):
            pool.seize("e", 0.0)
        busy, idle, grants = pool.finalize_stats(10.0)
        assert (busy, idle, grants) == (0.0, 0.0, 0)

    def test_randomized_script_matches_interval_oracle(self):
        rng = random.Random(99)
        pool = ResourcePool("p", 1)
        t = 0.0
        intervals = []
        for _ in range(500):
            start = t + rng.uniform(0.1, 5.0)
            end = start + rng.uniform(0.1, 5.0)
            pool.seize("e", start)
            pool.release(end)
            intervals.append(end - start)
            t = end
        horizon = t + 10.0
        busy, idle, grants = pool.finalize_stats(horizon)
        assert busy == pytest.approx(sum(intervals), rel=1e-9)
        assert busy + idle == pytest.approx(1 * horizon, rel=1e-9)
        assert grants == 500
